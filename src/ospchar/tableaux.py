"""Tableaux of five alphabets: exact weight sums and enumeration.

The weight sums are the ground truth that the closed-form character formulas
are checked against.  They come from strip branching (King 1976,
Berele-Regev 1987): the cells holding letters up to a given code form a
Young diagram, so adding the letters in code order grows the shape by one
strip per letter, horizontal for row-weak letters and vertical for the
row-strict primed ones.  The cost follows the number of intermediate shapes,
not the number of tableaux.

Enumeration fills a Young diagram row-major by backtracking, pruning each
cell's candidates from its left and top neighbours plus the family's row
bound.  It lists the tableaux for ``ospchar enumerate`` and is the oracle
the tests hold the weight sums to on small shapes.

Entry encodings (0-based codes); the family's table in ``LETTERS`` is the one
place that says what each code shows as, weighs, and which strip it fills:

* semistandard: ``0..n-1`` for the letters ``1 < ... < n``
* super: ``0..n-1`` unprimed, ``n..n+m-1`` primed (``1 < .. < n < 1' < .. < m'``)
* symplectic: ``2i`` is the letter ``i+1``, ``2i+1`` its barred partner
  (``1 < 1b < ... < n < nb``)
* orthosymplectic: symplectic codes ``0..2n-1`` then primed ``2n..2n+m-1``
* odd symplectic: ``0..2n-3`` barred pairs for letters ``1..n-1``, ``2n-2``
  the unbarred letter ``n``

A validity checker per family restates the defining rules by whole-tableau
scans, independently of the enumerator's pruning; the tests compare the two
on brute-forced small shapes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .algebra import LaurentPolynomial, VariableSet
from .symfun import Partition


@dataclass(frozen=True)
class Tableau:
    """A filled (possibly skew) shape, entries as display tokens.

    Tokens: plain letters ``3``, barred ``3b``, primed ``2p``; cells of the
    inner shape print as ``.``.
    """

    shape: tuple[int, ...]
    inner: tuple[int, ...]
    rows: tuple[tuple[str, ...], ...]

    def __str__(self) -> str:
        body = []
        for r, width in enumerate(self.shape):
            skip = self.inner[r] if r < len(self.inner) else 0
            cells = ["."] * skip + list(self.rows[r])
            body.append("[" + ",".join(cells) + "]")
        return "[" + ",".join(body) + "]"


def _xy_vars(n: int, m: int) -> VariableSet:
    return VariableSet([f"x{i}" for i in range(1, n + 1)] + [f"y{j}" for j in range(1, m + 1)])


class Letter(NamedTuple):
    token: str  # display token
    var: int  # index of its variable in x1..xn, y1..ym
    sign: int  # sign of its exponent
    row_strict: bool  # primed: at most once per row, so it fills a vertical strip
    rows: int | None  # King letters i and ib: only in the top i rows


def _plain(count: int) -> list[Letter]:
    return [Letter(str(k + 1), k, 1, False, None) for k in range(count)]


def _primed(count: int, first: int) -> list[Letter]:
    return [Letter(f"{k + 1}p", first + k, 1, True, None) for k in range(count)]


def _barred(count: int) -> list[Letter]:
    return [
        letter
        for k in range(count)
        for letter in (Letter(str(k + 1), k, 1, False, k + 1), Letter(f"{k + 1}b", k, -1, False, k + 1))
    ]


# family -> letters(n, m), indexed by code.
LETTERS = {
    "ssyt": lambda n, m: _plain(n),
    "super": lambda n, m: _plain(n) + _primed(m, n),
    "symplectic": lambda n, m: _barred(n),
    "odd_symplectic": lambda n, m: _barred(n - 1) + [Letter(str(n), n - 1, 1, False, n)],
    "orthosymplectic": lambda n, m: _barred(n) + _primed(m, n),
}


# -- weight sums by strip branching --------------------------------------


def _strips(shape: tuple[int, ...], lam: tuple[int, ...], letter: Letter) -> Iterator[tuple[int, ...]]:
    """The shapes inside lam that one letter's cells can extend shape to.

    A row-weak, column-strict letter adds a horizontal strip: row r may
    grow up to the old length of row r - 1, and not past its row cap.  A
    row-strict letter adds a vertical strip: each row grows by at most one.
    """
    if letter.row_strict:
        choices = [(w, w + 1) if w < top else (w,) for w, top in zip(shape, lam)]
        return (s for s in itertools.product(*choices) if all(a >= b for a, b in zip(s, s[1:])))
    rows = letter.rows or len(shape)
    bounds = [min(top, above) for top, above in zip(lam, lam[:1] + shape)]
    choices = [range(w, top + 1) if r < rows else (w,) for r, (w, top) in enumerate(zip(shape, bounds))]
    return itertools.product(*choices)


def _reachable(shape: tuple[int, ...], lam: tuple[int, ...], flat: int, rows: int, strict: int) -> bool:
    """Can ``flat`` horizontal strips confined to the top ``rows`` rows,
    then ``strict`` vertical strips, grow shape to lam?

    The largest shape the horizontal strips reach has row r at most as
    long as the old row r - flat; the vertical strips then add at most
    ``strict`` cells to each row.
    """
    for r, (w, top) in enumerate(zip(shape, lam)):
        if r < rows:
            w = top if r < flat else min(top, shape[r - flat])
        if top - w > strict:
            return False
    return True


def _strip_sum(family: str, lam: Partition, mu: Partition, n: int, m: int = 0) -> LaurentPolynomial:
    """The weight sum over the family's tableaux of shape lam/mu, one letter at a time.

    The cells holding letters up to code c form a shape between mu and lam;
    each letter extends that shape by a strip and shifts its variable's
    exponent by sign * (strip size).  A layer maps each reachable shape to
    the weights summed over its fillings; shapes that can no longer grow to
    lam with the letters left are dropped.
    """
    letters = LETTERS[family](n, m)
    vs = _xy_vars(n, m)
    target = lam.parts
    layer = {tuple(mu.part(r + 1) for r in range(len(target))): {(0,) * len(vs): 1}}
    for k, letter in enumerate(letters):
        rest = letters[k + 1 :]
        flat = [x for x in rest if not x.row_strict]
        rows = max((x.rows or len(target) for x in flat), default=0)
        strict = len(rest) - len(flat)
        i, sign = letter.var, letter.sign
        nxt: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
        while layer:
            shape, terms = layer.popitem()
            before = sum(shape)
            for new in _strips(shape, target, letter):
                if not _reachable(new, target, len(flat), rows, strict):
                    continue
                out = nxt.setdefault(new, {})
                d = sign * (sum(new) - before)
                for e, c in terms.items():
                    if d:
                        e = e[:i] + (e[i] + d,) + e[i + 1 :]
                    out[e] = out.get(e, 0) + c
        layer = nxt
    return vs.poly(layer.get(target, {}))


# -- the backtracking enumerator ----------------------------------------


def _weight_sum(family: str, grids, n: int, m: int = 0) -> LaurentPolynomial:
    """Sum over the grids of the product of each entry's x^sign or y^sign:
    the oracle that the tests hold the strip engine to on small shapes."""
    letters = LETTERS[family](n, m)
    index = [letter.var for letter in letters]
    sign = [letter.sign for letter in letters]
    vs = _xy_vars(n, m)
    terms: dict[tuple[int, ...], int] = {}
    for grid in grids:
        e = [0] * len(vs)
        for row in grid:
            for v in row:
                e[index[v]] += sign[v]
        key = tuple(e)
        terms[key] = terms.get(key, 0) + 1
    return vs.poly(terms)


def _listing(family: str, grids, lam: Partition, mu: Partition, n: int, m: int = 0) -> Iterator[Tableau]:
    tokens = [letter.token for letter in LETTERS[family](n, m)]
    for grid in grids:
        yield Tableau(lam.parts, mu.parts, tuple(tuple(tokens[v] for v in row) for row in grid))


def _grids(shape, inner, candidates) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Row-major backtracking over the cells of shape/inner.

    ``candidates(left, top, r)`` yields the legal codes of a cell in row r
    given its left and top neighbours, None where the neighbour is not in
    the skew shape.
    """
    starts = [inner[r] if r < len(inner) else 0 for r in range(len(shape))]
    cells = [(r, c) for r, width in enumerate(shape) for c in range(starts[r], width)]
    rows = [[None] * width for width in shape]  # cells of the inner shape stay None

    def fill(k: int):
        if k == len(cells):
            yield tuple(tuple(row[start:]) for row, start in zip(rows, starts))
            return
        r, c = cells[k]
        row = rows[r]
        for v in candidates(row[c - 1] if c else None, rows[r - 1][c] if r else None, r):
            row[c] = v
            yield from fill(k + 1)

    return fill(0)


# -- semistandard -----------------------------------------------------


def _require_inner(lam: Partition, mu: Partition) -> None:
    if not lam.contains(mu):
        raise ValueError(f"{mu!r} is not contained in {lam!r}")


def ssyt_grids(lam: Partition, mu: Partition, n: int) -> Iterator[tuple]:
    _require_inner(lam, mu)

    def candidates(left, top, r):
        lo = 0
        if left is not None:
            lo = max(lo, left)
        if top is not None:
            lo = max(lo, top + 1)
        return range(lo, n)

    return _grids(lam.parts, mu.parts, candidates)


def is_semistandard(grid, lam: Partition, mu: Partition, n: int) -> bool:
    """Rows weakly increase, columns strictly increase, entries in 0..n-1."""
    vals = _grid_dict(grid, lam, mu)
    for (r, c), v in vals.items():
        if not 0 <= v < n:
            return False
        if (r, c - 1) in vals and vals[(r, c - 1)] > v:
            return False
        if (r - 1, c) in vals and vals[(r - 1, c)] >= v:
            return False
    return True


def ssyt_weight_sum(lam: Partition, mu: Partition, n: int) -> LaurentPolynomial:
    _require_inner(lam, mu)
    return _strip_sum("ssyt", lam, mu, n)


def ssyt_tableaux(lam: Partition, mu: Partition, n: int) -> Iterator[Tableau]:
    return _listing("ssyt", ssyt_grids(lam, mu, n), lam, mu, n)


# -- super ------------------------------------------------------------


def super_grids(lam: Partition, n: int, m: int) -> Iterator[tuple]:
    def candidates(left, top, r):
        lo = 0
        if left is not None:
            lo = max(lo, left)
        if top is not None:
            lo = max(lo, top)
        for v in range(lo, n + m):
            if v < n and top == v:
                continue  # unprimed letters are strict down columns
            if v >= n and left == v:
                continue  # primed letters are strict across rows
            yield v

    return _grids(lam.parts, (), candidates)


def is_supertableau(grid, lam: Partition, n: int, m: int) -> bool:
    vals = _grid_dict(grid, lam, Partition())
    for (r, c), v in vals.items():
        if not 0 <= v < n + m:
            return False
        left = vals.get((r, c - 1))
        top = vals.get((r - 1, c))
        if left is not None and left > v:
            return False
        if top is not None and top > v:
            return False
        if v < n and top == v:
            return False
        if v >= n and left == v:
            return False
    return True


def super_weight_sum(lam: Partition, n: int, m: int) -> LaurentPolynomial:
    return _strip_sum("super", lam, Partition(), n, m)


def super_tableaux(lam: Partition, n: int, m: int) -> Iterator[Tableau]:
    return _listing("super", super_grids(lam, n, m), lam, Partition(), n, m)


# -- symplectic and odd symplectic ------------------------------------


def _king_grids(shape: Sequence[int], letters: int) -> Iterator[tuple]:
    """Fillings with weak rows, strict columns, and row r entries >= code 2r."""

    def candidates(left, top, r):
        lo = 2 * r
        if left is not None:
            lo = max(lo, left)
        if top is not None:
            lo = max(lo, top + 1)
        return range(lo, letters)

    return _grids(shape, (), candidates)


def _is_king(grid, lam: Partition, letters: int) -> bool:
    vals = _grid_dict(grid, lam, Partition())
    for (r, c), v in vals.items():
        if not 2 * r <= v < letters:
            return False
        if (r, c - 1) in vals and vals[(r, c - 1)] > v:
            return False
        if (r - 1, c) in vals and vals[(r - 1, c)] >= v:
            return False
    return True


def symplectic_grids(lam: Partition, n: int) -> Iterator[tuple]:
    return _king_grids(lam.parts, 2 * n)


def is_symplectic(grid, lam: Partition, n: int) -> bool:
    return _is_king(grid, lam, 2 * n)


def symplectic_weight_sum(lam: Partition, n: int) -> LaurentPolynomial:
    """Sum of x^(occurrences of i minus occurrences of i-bar); zero if the shape is too tall."""
    return _strip_sum("symplectic", lam, Partition(), n)


def symplectic_tableaux(lam: Partition, n: int) -> Iterator[Tableau]:
    return _listing("symplectic", symplectic_grids(lam, n), lam, Partition(), n)


def _require_odd_length(lam: Partition, n: int) -> None:
    if lam.length > n:
        raise ValueError(f"partition length {lam.length} exceeds n={n}")


def odd_symplectic_grids(lam: Partition, n: int) -> Iterator[tuple]:
    _require_odd_length(lam, n)
    return _king_grids(lam.parts, 2 * n - 1)


def is_odd_symplectic(grid, lam: Partition, n: int) -> bool:
    return _is_king(grid, lam, 2 * n - 1)


def odd_symplectic_weight_sum(lam: Partition, n: int) -> LaurentPolynomial:
    """Like the symplectic weight, but the top letter n has no barred partner."""
    _require_odd_length(lam, n)
    return _strip_sum("odd_symplectic", lam, Partition(), n)


def odd_symplectic_tableaux(lam: Partition, n: int) -> Iterator[Tableau]:
    return _listing("odd_symplectic", odd_symplectic_grids(lam, n), lam, Partition(), n)


# -- orthosymplectic ---------------------------------------------------


def orthosymplectic_grids(lam: Partition, n: int, m: int) -> Iterator[tuple]:
    base = 2 * n

    def candidates(left, top, r):
        # Unprimed cells form the symplectic portion, which must be a Young
        # subdiagram: an unprimed entry cannot sit right of or below a prime.
        if (left is None or left < base) and (top is None or top < base):
            lo = 2 * r
            if left is not None:
                lo = max(lo, left)
            if top is not None:
                lo = max(lo, top + 1)
            yield from range(lo, base)
        lo = base
        if left is not None and left >= base:
            lo = max(lo, left + 1)  # primes are strict across rows
        if top is not None and top >= base:
            lo = max(lo, top)  # primes are weak down columns
        yield from range(lo, base + m)

    return _grids(lam.parts, (), candidates)


def is_orthosymplectic(grid, lam: Partition, n: int, m: int) -> bool:
    """Symplectic sub-Young-diagram of unprimed codes, primed skew part
    strict across rows and weak down columns."""
    vals = _grid_dict(grid, lam, Partition())
    base = 2 * n
    core_rows = [0] * lam.length
    for (r, c), v in vals.items():
        if not 0 <= v < base + m:
            return False
        if v < base:
            core_rows[r] = max(core_rows[r], c + 1)
    # the unprimed portion must be left-closed in each row and top-closed in
    # each column, i.e. itself a Young diagram anchored at the corner
    for (r, c), v in vals.items():
        if v >= base and c < core_rows[r]:
            return False
    for r in range(1, lam.length):
        if core_rows[r] > core_rows[r - 1]:
            return False
    core = {(r, c): v for (r, c), v in vals.items() if v < base}
    for (r, c), v in core.items():
        if v < 2 * r:
            return False
        if (r, c - 1) in core and core[(r, c - 1)] > v:
            return False
        if (r - 1, c) in core and core[(r - 1, c)] >= v:
            return False
    primed = {(r, c): v for (r, c), v in vals.items() if v >= base}
    for (r, c), v in primed.items():
        if (r, c - 1) in primed and primed[(r, c - 1)] >= v:
            return False
        if (r - 1, c) in primed and primed[(r - 1, c)] > v:
            return False
    return True


def orthosymplectic_weight_sum(lam: Partition, n: int, m: int) -> LaurentPolynomial:
    return _strip_sum("orthosymplectic", lam, Partition(), n, m)


def orthosymplectic_tableaux(lam: Partition, n: int, m: int) -> Iterator[Tableau]:
    return _listing("orthosymplectic", orthosymplectic_grids(lam, n, m), lam, Partition(), n, m)


# -- shared by the rule checkers ---------------------------------------


def _grid_dict(grid, lam: Partition, mu: Partition) -> dict[tuple[int, int], int]:
    vals = {}
    for r, row in enumerate(grid):
        start = mu.part(r + 1)
        for k, v in enumerate(row):
            vals[(r, start + k)] = v
    return vals
