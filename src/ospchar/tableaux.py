"""Tableaux of five alphabets: exact weight sums and enumeration.

The weight sums are the ground truth that the closed-form character formulas
are checked against.  They come from strip branching (King 1976,
Berele-Regev 1987): the cells holding letters up to a given code form a
Young diagram, so adding the letters in code order grows the shape by one
strip per letter, horizontal for row-weak letters and vertical for the
row-strict primed ones.  The cost follows the number of intermediate shapes,
not the number of tableaux.  Each partial weight is an integer key in the
algebra's codec, linear in its exponents, so a strip adds sign * size * (the
unit key of its variable) to every key it shifts, and the keys at the full
shape are the result's terms as they stand.

Enumeration fills a Young diagram row-major by backtracking.  It reads the
same letter table: every filling rule of the five families bounds a cell's
code from below, by its row's cap and by its left and top neighbours, and
so each cell has a ceiling, the largest code it takes in any tableau, read
off its right and lower neighbours' ceilings once per shape.  Every code
between a cell's bound and its ceiling leads to a tableau, so the
backtracking never enters a filling it cannot finish.  It lists the
tableaux for ``ospchar enumerate`` and is the oracle the tests hold the
weight sums to on small shapes.  It streams the tableaux as their
display text (``[[1,1b],[2p]]``), one line each, and holds one filling and
each assigned cell's text.  The last two cells are not backtracked: their
text comes from a table of tail strings keyed on their lower bounds and
bounded by the alphabet, and the tableaux that share every earlier cell come
out as one chunk, a single join of their tails with the text of those
cells, itself joined once per chunk.

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
scans, independently of the letter table; the tests compare the enumerator
with it on brute-forced small shapes, which holds the table to the rules.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

from .algebra import LaurentPolynomial, _codec, _width
from .symfun import Partition, require_inside, require_length, standard_xy


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
    row-strict letter adds a vertical strip: each row grows by at most one,
    and the strips are built row by row from the prefixes that stay weakly
    decreasing, so their cost follows the strips there are, not 2^rows.
    """
    if letter.row_strict:
        strips = [()]
        for w, top in zip(shape, lam):
            grow = (w, w + 1) if w < top else (w,)
            strips = [s + (v,) for s in strips for v in grow if not s or s[-1] >= v]
        return iter(strips)
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


def _check_domain(family: str, lam: Partition, mu: Partition, n: int) -> None:
    """Raise ValueError for a shape outside the tableau route's domain.

    A too-tall shape is in the domain and has no tableaux, except for the
    odd symplectic family, whose character is defined for at most n rows.
    """
    require_inside(lam, mu)
    if family == "odd_symplectic":
        require_length(lam, n)


def _strip_sum(family: str, lam: Partition, mu: Partition, n: int, m: int = 0) -> LaurentPolynomial:
    """The weight sum over the family's tableaux of shape lam/mu, one letter at a time.

    The cells holding letters up to code c form a shape between mu and lam;
    each letter extends that shape by a strip and shifts its variable's
    exponent by sign * (strip size).  A layer maps each reachable shape to
    the weights summed over its fillings; shapes that can no longer grow to
    lam with the letters left are dropped.

    A weight is a key in the algebra's codec over ``standard_xy(n, m)``,
    linear in its exponents, so a strip of s cells adds s * sign * (the unit
    key of its variable) to every key of its source.  No partial weight has
    a degree or an exponent outside [-cells, cells], for cells = |lam| -
    |mu|, and the fields sized for that bound never carry.  The keys at lam
    are the result's terms as they stand.
    """
    _check_domain(family, lam, mu, n)
    letters = LETTERS[family](n, m)
    vs = standard_xy(n, m)[0]
    target = lam.parts
    cells = lam.size - mu.size
    fbytes = _width(cells)
    units = _codec(len(vs), fbytes).units
    layer = {tuple(mu.part(r + 1) for r in range(len(target))): {0: 1}}
    for k, letter in enumerate(letters):
        rest = letters[k + 1 :]
        flat = [x for x in rest if not x.row_strict]
        rows = max((x.rows or len(target) for x in flat), default=0)
        strict = len(rest) - len(flat)
        step = letter.sign * units[letter.var]
        nxt: dict[tuple[int, ...], dict[int, int]] = {}
        while layer:
            shape, terms = layer.popitem()
            before = sum(shape)
            for new in _strips(shape, target, letter):
                if not _reachable(new, target, len(flat), rows, strict):
                    continue
                d = (sum(new) - before) * step
                out = nxt.get(new)
                if out is None:
                    nxt[new] = {e + d: c for e, c in terms.items()}
                    continue
                get = out.get
                for e, c in terms.items():
                    e += d
                    out[e] = get(e, 0) + c
        layer = nxt
    # every count is positive, so the map is normalized as it stands
    return LaurentPolynomial._raw(vs, layer.get(target, {}), fbytes, cells)


# -- the backtracking enumerator ----------------------------------------


def _ceilings(after_left: list[int], after_top: list[int], cells: list[tuple[int, int]], lows: list[int]) -> list[int]:
    """The largest code each cell of a row-major cell list takes in any tableau.

    Cells go in reverse row-major order, each from the last code down while
    a code raises its right neighbour's or its lower neighbour's bound past
    that neighbour's ceiling.  The bounds never fall as codes rise, so when
    every ceiling is at least its cell's first code ``lows[k]``, the
    ceilings themselves fill a tableau, and so does any valid row-major
    prefix at or under them completed with the ceilings: every code from a
    cell's lower bound to its ceiling leads to a tableau.  When the shape
    has no tableaux some ceiling is below its cell's first code; no ceiling
    goes lower than one below it.
    """
    end = len(after_left)
    index = {cell: k for k, cell in enumerate(cells)}
    # slot -1 stands for a missing neighbour: no code's bound exceeds end
    ceil = [end] * (len(cells) + 1)
    for k in reversed(range(len(cells))):
        r, c = cells[k]
        right = ceil[index.get((r, c + 1), -1)]
        below = ceil[index.get((r + 1, c), -1)]
        h = end - 1
        while h >= lows[k] and after_left[h] > right:
            h -= 1
        while h >= lows[k] and after_top[h] > below:
            h -= 1
        ceil[k] = h
    return ceil[:-1]


def _listing(family: str, lam: Partition, mu: Partition, n: int, m: int = 0) -> Iterator[str]:
    """The family's tableaux of shape lam/mu as chunks of display text, by
    row-major backtracking over the letter table.

    Each chunk is a non-empty run of whole lines, one tableau per line, each
    ending in a newline; joined, the chunks are the listing.  A tableau's
    text lists the rows in brackets, their cells' tokens separated by
    commas, with ``.`` for each cell of the inner shape: ``[[1,1b],[2p]]``
    or ``[[.,1],[.]]``; the empty shape shows as ``[]``.

    Every filling rule is a lower bound on a cell's code, so a cell in row r
    takes the codes from the largest of
    * the first code allowed in row r (the King cap: row caps never fall as
      codes rise, so the codes a row admits are a suffix),
    * left, or left + 1 if the left neighbour is row-strict,
    * top + 1, or top if the top neighbour is row-strict (primed letters
      are weak down columns),
    up to its ceiling (see _ceilings), the largest code it takes in any
    tableau.  Every code in that range leads to a tableau, so no branch
    dies; a shape with a ceiling below its cell's first code has no
    tableaux and lists nothing.  For orthosymplectic tableaux the primed
    codes sit above the unprimed ones, so the unprimed cells form a Young
    diagram.

    The text grows with the filling.  Each cell has a separator fixed by
    the shape: ``,`` within a row, and at a row start the closing of the
    row before, any fully inner rows and the row's ``.`` cells.  ``texts[k]``
    is cell k's separator and token.  The backtracking stops at the
    next-to-last cell ``pen``: its codes from lo to its ceiling and the last
    cell's codes from their bound make one run of tableaux, each the text
    before pen plus a tail string of the last two cells, the closing
    brackets and the newline.  The text before pen is one join of
    ``texts[:pen]`` per run; the run's chunk copies that text once per
    tableau anyway, so the join costs no more than the chunk.  The last
    cell's bound is ``base``, from its row and any neighbour other than pen,
    raised per code of pen when pen is its left or top neighbour; so the
    tails of a run depend only on (lo, base), and each listing call builds
    each such list once.  That table holds at most (codes + 1)**2 lists of
    at most codes**2 strings, bounded by the alphabet, not by the number of
    tableaux.  A run is one chunk, the text before pen joined with its
    tails, so no chunk holds more than codes**2 lines, and no run is empty.
    Nothing is kept across chunks beyond the current filling and its cells'
    texts.

    Raises ValueError when called, before any iteration, outside the domain.
    """
    _check_domain(family, lam, mu, n)
    letters = LETTERS[family](n, m)
    end = len(letters)
    after_left = [k + letter.row_strict for k, letter in enumerate(letters)]
    after_top = [k + 1 - letter.row_strict for k, letter in enumerate(letters)]
    shape = lam.parts
    starts = [mu.part(r + 1) for r in range(len(shape))]
    cells = [(r, c) for r, width in enumerate(shape) for c in range(starts[r], width)]
    inner = ["[" + ",".join("." * width) + "]" for width in shape]  # a row with no cells
    if not cells:
        return iter([f"[{','.join(inner)}]\n"])
    index = {cell: k for k, cell in enumerate(cells)}
    # Per cell: the first code its row admits, its left and top neighbours'
    # indices (-1, a slot that stays 0, where the neighbour is inner or
    # missing) and the text before its token.
    lows, lefts, tops, seps = [], [], [], []
    above = -1
    for r, c in cells:
        lows.append(next((k for k, letter in enumerate(letters) if letter.rows is None or r < letter.rows), end))
        lefts.append(index.get((r, c - 1), -1))
        tops.append(index.get((r - 1, c), -1))
        if c > starts[r]:
            seps.append(",")
        else:
            skipped = "".join(row + "," for row in inner[above + 1 : r])
            seps.append(("[" if above < 0 else "],") + skipped + "[" + ".," * c)
            above = r
    ceil = _ceilings(after_left, after_top, cells, lows)
    if any(h < low for h, low in zip(ceil, lows)):
        return iter([])
    closing = "]" + "".join("," + row for row in inner[above + 1 :]) + "]"
    finals = [letter.token + closing + "\n" for letter in letters]
    last = len(cells) - 1
    if not last:
        return iter([seps[0] + seps[0].join(finals[lows[0] :])])
    pen = last - 1
    after = [[sep + letter.token for letter in letters] for sep in seps]  # cell k's text with code v
    mids = [text + seps[last] for text in after[pen]]
    # What pen's code raises the last cell's bound to, when pen is its left
    # or top neighbour.
    if lefts[last] == pen:
        raise_by = after_left
    elif tops[last] == pen:
        raise_by = after_top
    else:
        raise_by = [0] * end
    tails: dict[tuple[int, int], list[str]] = {}

    def tail(lo: int, base: int) -> list[str]:
        strings = tails.get((lo, base))
        if strings is None:
            strings = tails[lo, base] = [
                mids[v] + final for v in range(lo, ceil[pen] + 1) for final in finals[max(base, raise_by[v]) :]
            ]
        return strings

    def listing():
        # after_left and after_top of each assigned code, one slot per cell;
        # pen's slot and slot -1 (the last cell's) are never written and
        # stay 0 for "no neighbour", so pen's own code never enters base.
        left_low = [0] * len(cells)
        top_low = [0] * len(cells)
        texts = [""] * len(cells)
        # One iterator of candidate codes per filled cell before pen, so
        # that a long shape needs no deep recursion.
        stack: list[Iterator[int]] = []
        k = 0
        while True:
            lo = lows[k]
            if left_low[lefts[k]] > lo:
                lo = left_low[lefts[k]]
            if top_low[tops[k]] > lo:
                lo = top_low[tops[k]]
            if k == pen:
                base = lows[last]
                if left_low[lefts[last]] > base:
                    base = left_low[lefts[last]]
                if top_low[tops[last]] > base:
                    base = top_low[tops[last]]
                text = "".join(texts[:pen])
                yield text + text.join(tail(lo, base))
            else:
                stack.append(iter(range(lo, ceil[k] + 1)))
            while stack and (v := next(stack[-1], None)) is None:
                stack.pop()
            if not stack:
                return
            k = len(stack) - 1
            left_low[k] = after_left[v]
            top_low[k] = after_top[v]
            texts[k] = after[k][v]
            k += 1

    return listing()


# -- semistandard -----------------------------------------------------


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
    return _strip_sum("ssyt", lam, mu, n)


def ssyt_tableaux(lam: Partition, mu: Partition, n: int) -> Iterator[str]:
    """The semistandard tableaux of lam/mu in letters 1..n, as chunks of text.

    Each chunk is a run of whole lines, one tableau per line, each ending
    in a newline (see _listing)."""
    return _listing("ssyt", lam, mu, n)


# -- super ------------------------------------------------------------


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


def super_tableaux(lam: Partition, n: int, m: int) -> Iterator[str]:
    """The (n, m) supertableaux of shape lam, as chunks of text.

    Each chunk is a run of whole lines, one tableau per line, each ending
    in a newline (see _listing)."""
    return _listing("super", lam, Partition(), n, m)


# -- symplectic and odd symplectic ------------------------------------


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


def is_symplectic(grid, lam: Partition, n: int) -> bool:
    return _is_king(grid, lam, 2 * n)


def symplectic_weight_sum(lam: Partition, n: int) -> LaurentPolynomial:
    """Sum of x^(occurrences of i minus occurrences of i-bar); zero if the shape is too tall."""
    return _strip_sum("symplectic", lam, Partition(), n)


def symplectic_tableaux(lam: Partition, n: int) -> Iterator[str]:
    """King's symplectic tableaux of shape lam over n barred pairs, as chunks of text.

    Each chunk is a run of whole lines, one tableau per line, each ending
    in a newline (see _listing)."""
    return _listing("symplectic", lam, Partition(), n)


def is_odd_symplectic(grid, lam: Partition, n: int) -> bool:
    return _is_king(grid, lam, 2 * n - 1)


def odd_symplectic_weight_sum(lam: Partition, n: int) -> LaurentPolynomial:
    """Like the symplectic weight, but the top letter n has no barred partner."""
    return _strip_sum("odd_symplectic", lam, Partition(), n)


def odd_symplectic_tableaux(lam: Partition, n: int) -> Iterator[str]:
    """The odd symplectic tableaux of shape lam for letters 1..n, as chunks of text.

    Each chunk is a run of whole lines, one tableau per line, each ending
    in a newline (see _listing)."""
    return _listing("odd_symplectic", lam, Partition(), n)


# -- orthosymplectic ---------------------------------------------------


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


def orthosymplectic_tableaux(lam: Partition, n: int, m: int) -> Iterator[str]:
    """The (n, m) orthosymplectic tableaux of shape lam, as chunks of text.

    Each chunk is a run of whole lines, one tableau per line, each ending
    in a newline (see _listing)."""
    return _listing("orthosymplectic", lam, Partition(), n, m)


# -- shared by the rule checkers ---------------------------------------


def _grid_dict(grid, lam: Partition, mu: Partition) -> dict[tuple[int, int], int]:
    vals = {}
    for r, row in enumerate(grid):
        start = mu.part(r + 1)
        for k, v in enumerate(row):
            vals[(r, start + k)] = v
    return vals
