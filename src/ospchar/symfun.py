"""Partitions and generators for (super)symmetric function families.

Elementary and complete symmetric functions are generated by a one-letter-
at-a-time recurrence rather than monomial enumeration, so they stay
polynomial-time in the degree.  A "letter" may be any Laurent polynomial;
passing the variables together with their inverses yields the 2n-letter
complete functions that drive the hyperoctahedral Jacobi-Trudi matrices.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .algebra import AlgebraError, LaurentPolynomial, VariableSet, det_cofactor


class Partition:
    """Weakly decreasing tuple of nonnegative integers, trailing zeros trimmed.

    Parts beyond the length read as zero; ``part(j)`` is 1-based to match the
    usual indexing of character formulas.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = [int(p) for p in parts]
        while ps and ps[-1] == 0:
            ps.pop()
        for a, b in zip(ps, ps[1:]):
            if a < b:
                raise ValueError(f"parts not weakly decreasing: {ps}")
        if ps and ps[-1] < 0:
            raise ValueError(f"negative part in {ps}")
        self.parts = tuple(ps)

    @classmethod
    def from_string(cls, text: str) -> "Partition":
        """Parse a comma-separated list; the empty string is the empty partition.

        A ValueError names the piece that is not a part.
        """
        text = text.strip()
        if not text:
            return cls()
        parts = []
        for piece in text.split(","):
            if not piece.strip():
                raise ValueError(f"empty part in {text!r}")
            try:
                parts.append(int(piece))
            except ValueError:
                raise ValueError(f"part {piece.strip()!r} is not an integer") from None
        return cls(parts)

    def to_string(self) -> str:
        return ",".join(str(p) for p in self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def part(self, j: int) -> int:
        """The j-th part, 1-based; zero beyond the length."""
        if j < 1:
            raise IndexError("parts are indexed from 1")
        return self.parts[j - 1] if j <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for c in range(p):
                cols[c] += 1
        return Partition(cols)

    def contains(self, other: "Partition") -> bool:
        return all(self.part(j) >= other.part(j) for j in range(1, other.length + 1))

    def prepend(self, part_value: int, count: int) -> "Partition":
        """The partition (part_value^count) followed by this one."""
        return Partition((part_value,) * count + self.parts)

    def drop_first(self) -> "Partition":
        return Partition(self.parts[1:])

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __bool__(self) -> bool:
        return bool(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)!r})"


def partitions_of(n: int, max_length: int | None = None, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest first part first, in lexicographic descent."""
    cap = n if max_part is None else min(max_part, n)
    rows = n if max_length is None else max_length

    def rec(remaining: int, bound: int, room: int, acc: tuple[int, ...]):
        if remaining == 0:
            yield Partition(acc)
            return
        if room == 0:
            return
        for first in range(min(bound, remaining), 0, -1):
            yield from rec(remaining - first, first, room - 1, acc + (first,))

    yield from rec(n, cap, rows, ())


def partitions_up_to(
    max_size: int, max_length: int | None = None, max_part: int | None = None
) -> Iterator[Partition]:
    """All partitions of size 0..max_size, ordered by size then lexicographically."""
    for n in range(max_size + 1):
        yield from partitions_of(n, max_length, max_part)


def subpartitions(lam: Partition, max_length: int | None = None) -> Iterator[Partition]:
    """All mu contained in lam (componentwise), optionally length-capped."""
    rows = lam.length if max_length is None else min(lam.length, max_length)

    def rec(i: int, prev: int, acc: tuple[int, ...]):
        if i == rows:
            yield Partition(acc)
            return
        for v in range(min(lam.part(i + 1), prev), -1, -1):
            yield from rec(i + 1, v, acc + (v,))

    yield from rec(0, lam.part(1) if lam else 0, ())


def box_partitions(max_length: int, max_part: int) -> Iterator[Partition]:
    """All partitions with at most max_length parts, each at most max_part."""
    yield from subpartitions(Partition((max_part,) * max_length))


# -- symmetric function generators ----------------------------------------


def elementary(r: int, letters: Sequence[LaurentPolynomial], vars: VariableSet | None = None) -> LaurentPolynomial:
    """e_r of the given letters: sum of products over r-subsets; e_0 = 1."""
    vs = letters[0].vars if letters else vars
    if vs is None:
        raise AlgebraError("empty letter list needs an explicit variable set")
    if r < 0 or r > len(letters):
        return vs.zero()
    table = [vs.one()] + [vs.zero()] * r
    for x in letters:
        for s in range(min(r, len(table) - 1), 0, -1):
            table[s] = table[s] + x * table[s - 1]
    return table[r]


def complete(r: int, letters: Sequence[LaurentPolynomial], vars: VariableSet | None = None) -> LaurentPolynomial:
    """h_r of the given letters: sum over weakly increasing r-multisets; h_0 = 1."""
    vs = letters[0].vars if letters else vars
    if vs is None:
        raise AlgebraError("empty letter list needs an explicit variable set")
    if r < 0:
        return vs.zero()
    if r == 0:
        return vs.one()
    if not letters:
        return vs.zero()
    table = [vs.one()] + [vs.zero()] * r
    for x in letters:
        for s in range(1, r + 1):
            table[s] = table[s] + x * table[s - 1]
    return table[r]


def complete_table(rmax: int, letters: Sequence[LaurentPolynomial], vars: VariableSet | None = None) -> list[LaurentPolynomial]:
    """[h_0, ..., h_rmax] of the letters, computed in one pass."""
    vs = letters[0].vars if letters else vars
    if vs is None:
        raise AlgebraError("empty letter list needs an explicit variable set")
    table = [vs.one()] + [vs.zero()] * rmax
    for x in letters:
        for s in range(1, rmax + 1):
            table[s] = table[s] + x * table[s - 1]
    return table


def super_complete(r: int, xs: Sequence[LaurentPolynomial], ys: Sequence[LaurentPolynomial], vars: VariableSet | None = None) -> LaurentPolynomial:
    """H_r(X;Y) = sum_j h_j(X) e_{r-j}(Y); H_0 = 1, zero for r < 0."""
    vs = xs[0].vars if xs else (ys[0].vars if ys else vars)
    if vs is None:
        raise AlgebraError("need at least one letter or an explicit variable set")
    if r < 0:
        return vs.zero()
    hx = complete_table(r, xs, vs)
    total = vs.zero()
    for j in range(max(0, r - len(ys)), r + 1):
        total = total + hx[j] * elementary(r - j, ys, vs)
    return total


def jseries_table(rmax: int, xs: Sequence[LaurentPolynomial], ys: Sequence[LaurentPolynomial], vars: VariableSet | None = None) -> list[LaurentPolynomial]:
    """[J_0, ..., J_rmax] with J_r = sum_l h_l(X, 1/X) e_{r-l}(Y), from
    shared h and e tables."""
    vs = xs[0].vars if xs else (ys[0].vars if ys else vars)
    if vs is None:
        raise AlgebraError("need at least one letter or an explicit variable set")
    letters = list(xs) + [x.inverse() for x in xs]
    hbar = complete_table(rmax, letters, vs)
    ey = [elementary(p, ys, vs) for p in range(min(rmax, len(ys)) + 1)]
    table = []
    for r in range(rmax + 1):
        total = vs.zero()
        for p in range(0, min(r, len(ys)) + 1):
            total = total + hbar[r - p] * ey[p]
        table.append(total)
    return table


def skew_schur_jt(
    lam: Partition,
    mu: Partition,
    xs: Sequence[LaurentPolynomial],
    vars: VariableSet | None = None,
    size: int | None = None,
) -> LaurentPolynomial:
    """Skew Schur polynomial det(h_{lam_i - mu_j - i + j}) of order max(len(lam), 1).

    ``size`` may enlarge the matrix; any order >= len(lam) gives the same
    value, which the tests exercise.
    """
    if not lam.contains(mu):
        raise ValueError(f"{mu!r} is not contained in {lam!r}")
    vs = xs[0].vars if xs else vars
    if vs is None:
        raise AlgebraError("empty variable list needs an explicit variable set")
    n = max(lam.length, 1) if size is None else size
    if n < lam.length:
        raise ValueError(f"matrix size {n} is smaller than the partition length")
    hx = complete_table(max(lam.part(1) + n, 0), xs, vs)
    zero = vs.zero()

    def h(r: int) -> LaurentPolynomial:
        if r < 0:
            return zero
        return hx[r]

    rows = [
        [h(lam.part(i) - mu.part(j) - i + j) for j in range(1, n + 1)]
        for i in range(1, n + 1)
    ]
    return det_cofactor(rows, vs)


def k_index(lam: Partition, n: int, m: int) -> int:
    """Smallest j >= 1 with lam_j + n + 1 - j <= m.

    Such a j always exists (parts vanish eventually); it is at most n + 1
    exactly when lam_{n+1} <= m, that is on the (n, m)-hook.
    """
    j = 1
    while lam.part(j) + n + 1 - j > m:
        j += 1
    return j
