"""Partitions and generators for (super)symmetric function families.

One letter-at-a-time recurrence (complete_table) generates every series:
the supersymmetric complete functions H_r(X; Y), the t^r coefficients of
prod_y (1 + y t) / prod_x (1 - x t), rather than enumerating monomials, so
they stay polynomial-time in the degree.  h_r(X) = H_r(X; ), e_r(Y) =
H_r(; Y), and the letters X, 1/X give the J_r = H_r(X, 1/X; Y) of the
hyperoctahedral Jacobi-Trudi matrices, built in z = x + 1/x as one z-letter
per pair x, 1/x.  A "letter" may be any Laurent polynomial, so the same
tables evaluate at specialized points such as (x_1, ..., x_{n-1}, t) and
(y_1, ..., -t).

Each shape rule has its one guard here, with the CLI's message, and the
alphabet x1..xn, y1..ym (plus extra letters) its one builder, standard_xy.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, Iterator, Sequence

from .algebra import AlgebraError, LaurentPolynomial, VariableSet, det_cofactor


class Partition:
    """Weakly decreasing tuple of nonnegative integers, trailing zeros trimmed.

    Parts beyond the length read as zero; ``part(j)`` is 1-based to match the
    usual indexing of character formulas.  A part that is not an integer
    (2.7, "3") is a ValueError, not truncated or parsed.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = []
        for p in parts:
            try:
                ps.append(index(p))
            except TypeError:
                raise ValueError(f"part {p!r} is not an integer") from None
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


def partitions_of(n: int, max_length: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest first part first, in lexicographic descent."""
    rows = n if max_length is None else max_length

    def rec(remaining: int, bound: int, room: int, acc: tuple[int, ...]):
        if remaining == 0:
            yield Partition(acc)
            return
        if room == 0:
            return
        for first in range(min(bound, remaining), 0, -1):
            yield from rec(remaining - first, first, room - 1, acc + (first,))

    yield from rec(n, n, rows, ())


def partitions_up_to(max_size: int, max_length: int | None = None) -> Iterator[Partition]:
    """All partitions of size 0..max_size, ordered by size then lexicographically."""
    for n in range(max_size + 1):
        yield from partitions_of(n, max_length)


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


def require_length(lam: Partition, n: int) -> None:
    """len(lam) <= n: the domain of the Weyl, Jacobi-Trudi and Okada forms."""
    if lam.length > n:
        raise ValueError(f"partition {lam.parts} is longer than n={n}")


def require_hook(lam: Partition, n: int, m: int) -> None:
    """lam_{n+1} <= m, lam in the (n, m)-hook: the bordered determinants' domain."""
    if lam.part(n + 1) > m:
        raise ValueError("outside the determinant formula's domain: lam_{n+1} > m")


def require_inside(lam: Partition, mu: Partition) -> None:
    """mu inside lam: the domain of a skew shape lam/mu."""
    if not lam.contains(mu):
        raise ValueError(f"{mu!r} is not contained in {lam!r}")


def standard_xy(n: int, m: int, *letters: str) -> tuple:
    """The variable set x1..xn, y1..ym, then ``letters``, and its generators
    as (vs, xs, ys, *one per letter); tableau sums, closed-form routes and
    identities share it, so their values compare."""
    vs = VariableSet([f"x{i}" for i in range(1, n + 1)] + [f"y{j}" for j in range(1, m + 1)] + list(letters))
    gens = vs.gens()
    return (vs, gens[:n], gens[n : n + m], *gens[n + m :])


def standard_x(n: int) -> tuple[VariableSet, list[LaurentPolynomial]]:
    vs, xs, _ = standard_xy(n, 0)
    return vs, xs


# -- symmetric function generators ----------------------------------------


def complete_table(
    rmax: int,
    letters: Sequence[LaurentPolynomial],
    vars: VariableSet | None = None,
    *,
    zs: Sequence[LaurentPolynomial] = (),
    ys: Sequence[LaurentPolynomial] = (),
) -> list[LaurentPolynomial]:
    """[H_0, ..., H_rmax](X, Z; Y) for X = letters: the t^r coefficients of
    prod_y (1 + y t) / (prod_x (1 - x t) prod_z (1 - z t + t^2)); empty for
    rmax < 0.

    The package's one letter recurrence: each x-letter multiplies the series
    by 1/(1 - x t) and each z-letter by 1/(1 - z t + t^2), filling the table
    upward; each y-letter multiplies it by 1 + y t, filling it downward.  A
    z-letter stands for the pair x, 1/x with z = x + 1/x.
    """
    vs = next((group[0].vars for group in (letters, zs, ys) if group), vars)
    if vs is None:
        raise AlgebraError("need at least one letter or an explicit variable set")
    if rmax < 0:
        return []
    table = [vs.one()] + [vs.zero()] * rmax
    for x in letters:
        for s in range(1, rmax + 1):
            table[s] = table[s] + x * table[s - 1]
    for z in zs:
        below = vs.zero()  # table[s - 2], already multiplied
        for s in range(1, rmax + 1):
            below, table[s] = table[s - 1], table[s] + z * table[s - 1] - below
    for y in ys:
        for s in range(rmax, 0, -1):
            table[s] = table[s] + y * table[s - 1]
    return table


def super_complete(r: int, xs: Sequence[LaurentPolynomial], ys: Sequence[LaurentPolynomial], vars: VariableSet | None = None) -> LaurentPolynomial:
    """H_r(X;Y) = sum_j h_j(X) e_{r-j}(Y); H_0 = 1, zero for r < 0."""
    table = complete_table(max(r, 0), xs, vars, ys=ys)
    return table[r] if r >= 0 else table[0].vars.zero()


def jseries_table(rmax: int, zs: Sequence[LaurentPolynomial], ys: Sequence[LaurentPolynomial], vars: VariableSet | None = None) -> list[LaurentPolynomial]:
    """[J_0, ..., J_rmax] with J_r = H_r(X, 1/X; Y) = sum_l h_l(X, 1/X) e_{r-l}(Y),
    in the z-letters z_i = x_i + 1/x_i: h(X, 1/X) has generating function
    prod_i 1/(1 - z_i t + t^2)."""
    return complete_table(rmax, (), vars, zs=zs, ys=ys)


def skew_schur_jt(
    lam: Partition,
    mu: Partition,
    xs: Sequence[LaurentPolynomial],
    vars: VariableSet | None = None,
    *,
    ys: Sequence[LaurentPolynomial] = (),
) -> LaurentPolynomial:
    """Skew (hook) Schur polynomial det(H_{lam_i - mu_j - i + j}(X; Y)) of
    order max(len(lam), 1); with Y empty the H_r are the h_r(X).

    The rows passed to det_cofactor are the matrix's columns (the same
    determinant).  The matrix is zero in its lower left, so expanding along
    its first column memoizes few minors, where a first-row expansion walks
    every column subset that keeps a column no later row can fill, a number
    exponential in the order.
    """
    require_inside(lam, mu)
    n = max(lam.length, 1)
    hx = complete_table(lam.part(1) + n - 1, xs, vars, ys=ys)
    vs = hx[0].vars
    zero = vs.zero()

    def h(r: int) -> LaurentPolynomial:
        return hx[r] if r >= 0 else zero

    rows = [
        [h(lam.part(i) - mu.part(j) - i + j) for i in range(1, n + 1)]
        for j in range(1, n + 1)
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
