"""Tableau enumerators against printed examples and brute-force filters."""

import collections
import itertools
import math
import tracemalloc

import pytest

from ospchar.symfun import Partition, partitions_up_to, skew_schur_jt, subpartitions
from ospchar.characters import family_tableaux, standard_x, standard_xy
from ospchar import tableaux
from ospchar.tableaux import (
    is_odd_symplectic,
    is_orthosymplectic,
    is_semistandard,
    is_supertableau,
    is_symplectic,
    odd_symplectic_tableaux,
    odd_symplectic_weight_sum,
    orthosymplectic_weight_sum,
    ssyt_weight_sum,
    super_weight_sum,
    symplectic_tableaux,
    symplectic_weight_sum,
)


def _grids(family, lam, mu, n, m=0):
    """The listed tableaux of lam/mu read back as rows of codes, in order:
    each token maps to its code through the letter table, and the ``.``
    cells of the inner shape are dropped."""
    code = {letter.token: k for k, letter in enumerate(tableaux.LETTERS[family](n, m))}

    def read(line):
        if line == "[]":
            return ()
        rows = [row.split(",") for row in line[2:-2].split("],[")]
        return tuple(tuple(map(code.__getitem__, row[row.count(".") :])) for row in rows)

    return [read(line) for line in tableaux._listing(family, lam, mu, n, m)]


# -- printed example values ---------------------------------------------------


def test_ssyt_examples():
    vs, xs = standard_x(2)
    assert ssyt_weight_sum(Partition([1]), Partition(), 2) == xs[0] + xs[1]
    assert ssyt_weight_sum(Partition([2, 1]), Partition(), 2) == xs[0] ** 2 * xs[1] + xs[0] * xs[1] ** 2
    assert ssyt_weight_sum(Partition([1, 1, 1]), Partition(), 2).is_zero()


def test_super_example_eight_tableaux():
    lam = Partition([2, 1])
    found = _grids("super", lam, Partition(), 2, 1)
    assert len(found) == 8
    vs, xs, ys = standard_xy(2, 1)
    x1, x2, y1 = xs[0], xs[1], ys[0]
    expected = (
        x1 ** 2 * x2
        + x1 * x2 ** 2
        + x1 ** 2 * y1
        + 2 * x1 * x2 * y1
        + x2 ** 2 * y1
        + x1 * y1 ** 2
        + x2 * y1 ** 2
    )
    assert super_weight_sum(lam, 2, 1) == expected


def test_super_trivial_and_zero():
    assert super_weight_sum(Partition(), 2, 1).is_one()
    assert super_weight_sum(Partition([2, 2]), 1, 1).is_zero()


def test_symplectic_single_cell():
    vs, xs = standard_x(1)
    x = xs[0]
    assert symplectic_weight_sum(Partition([1]), 1) == x + x.inverse()
    assert symplectic_weight_sum(Partition([1, 1]), 1).is_zero()


def test_symplectic_printed_tableau():
    # rows (1, 1b, 2), (2b, 2b), (4, 4b) in a shape-(3,2,2) tableau over n=4
    lam = Partition([3, 2, 2])
    grid = ((0, 1, 2), (3, 3), (6, 7))
    assert is_symplectic(grid, lam, 4)
    vs, xs = standard_x(4)
    weight = vs.one()
    for row in grid:
        for v in row:
            w = xs[v >> 1]
            weight = weight * (w.inverse() if v & 1 else w)
    assert weight == xs[1].inverse()
    assert grid in set(_grids("symplectic", lam, Partition(), 4))


def test_orthosymplectic_example_eight_tableaux():
    lam = Partition([2])
    found = _grids("orthosymplectic", lam, Partition(), 1, 2)
    assert len(found) == 8
    vs, xs, ys = standard_xy(1, 2)
    x1, y1, y2 = xs[0], ys[0], ys[1]
    xb = x1.inverse()
    expected = x1 ** 2 + xb ** 2 + vs.one() + y1 * (x1 + xb) + y2 * (x1 + xb) + y1 * y2
    assert orthosymplectic_weight_sum(lam, 1, 2) == expected


def test_orthosymplectic_trivial():
    assert orthosymplectic_weight_sum(Partition(), 2, 1).is_one()


def test_orthosymplectic_printed_tableau():
    # rows (1b, 2, 3p), (2b, 1p, 3p), (4, 3p), (2p) over n=4, m=3
    lam = Partition([3, 3, 2, 1])
    n, m = 4, 3
    grid = ((1, 2, 10), (3, 8, 10), (6, 10), (9,))
    assert is_orthosymplectic(grid, lam, n, m)
    vs, xs, ys = standard_xy(n, m)
    weight = vs.one()
    for row in grid:
        for v in row:
            if v < 2 * n:
                w = xs[v >> 1]
                weight = weight * (w.inverse() if v & 1 else w)
            else:
                weight = weight * ys[v - 2 * n]
    assert weight == xs[0].inverse() * xs[3] * ys[0] * ys[1] * ys[2] ** 3


def test_odd_symplectic_examples():
    vs, xs = standard_x(2)
    x1, x2 = xs
    expected = (
        x1 ** 2 * x2
        + x2
        + x1 * x2 ** 2
        + x1.inverse() ** 2 * x2
        + x1.inverse() * x2 ** 2
    )
    assert odd_symplectic_weight_sum(Partition([2, 1]), 2) == expected
    assert len(_grids("odd_symplectic", Partition([2, 1]), Partition(), 2)) == 5
    assert odd_symplectic_weight_sum(Partition(), 2).is_one()
    vs1, xs1 = standard_x(1)
    assert odd_symplectic_weight_sum(Partition([1]), 1) == xs1[0]


def test_odd_symplectic_length_error():
    with pytest.raises(ValueError):
        odd_symplectic_weight_sum(Partition([1, 1]), 1)


# -- brute-force cross-checks ---------------------------------------------------


def brute(shape, inner, letters, checker):
    cells = []
    for r, width in enumerate(shape.parts):
        start = inner.part(r + 1)
        cells.extend((r, start + c) for c in range(width - start))
    found = set()
    for values in itertools.product(range(letters), repeat=len(cells)):
        rows = [[] for _ in shape.parts]
        for (r, c), v in zip(cells, values):
            rows[r].append(v)
        grid = tuple(tuple(row) for row in rows)
        if checker(grid):
            found.add(grid)
    return found


SHAPES = [Partition([1]), Partition([2]), Partition([1, 1]), Partition([2, 1]), Partition([2, 2])]


@pytest.mark.parametrize("lam", SHAPES)
@pytest.mark.parametrize("n", [1, 2])
def test_ssyt_matches_brute_force(lam, n):
    mu = Partition()
    want = brute(lam, mu, n, lambda g: is_semistandard(g, lam, mu, n))
    got = set(_grids("ssyt", lam, mu, n))
    assert got == want


def test_skew_ssyt_matches_brute_force():
    lam, mu, n = Partition([2, 2]), Partition([1]), 2
    want = brute(lam, mu, n, lambda g: is_semistandard(g, lam, mu, n))
    got = set(_grids("ssyt", lam, mu, n))
    assert got == want


@pytest.mark.parametrize("lam", SHAPES)
@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1)])
def test_super_matches_brute_force(lam, n, m):
    want = brute(lam, Partition(), n + m, lambda g: is_supertableau(g, lam, n, m))
    got = set(_grids("super", lam, Partition(), n, m))
    assert got == want


@pytest.mark.parametrize("lam", SHAPES)
@pytest.mark.parametrize("n", [1, 2])
def test_symplectic_matches_brute_force(lam, n):
    want = brute(lam, Partition(), 2 * n, lambda g: is_symplectic(g, lam, n))
    got = set(_grids("symplectic", lam, Partition(), n))
    assert got == want


@pytest.mark.parametrize("lam", SHAPES)
@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1)])
def test_orthosymplectic_matches_brute_force(lam, n, m):
    want = brute(lam, Partition(), 2 * n + m, lambda g: is_orthosymplectic(g, lam, n, m))
    got = set(_grids("orthosymplectic", lam, Partition(), n, m))
    assert got == want


@pytest.mark.parametrize("lam", SHAPES)
@pytest.mark.parametrize("n", [2, 3])
def test_odd_symplectic_matches_brute_force(lam, n):
    want = brute(lam, Partition(), 2 * n - 1, lambda g: is_odd_symplectic(g, lam, n))
    got = set(_grids("odd_symplectic", lam, Partition(), n))
    assert got == want


# -- strip engine against the enumerator ----------------------------------------

# family -> (weight_sum(lam, n, m), the m values to sweep)
STRIP_FAMILIES = {
    "ssyt": (lambda lam, n, m: ssyt_weight_sum(lam, Partition(), n), (0,)),
    "super": (super_weight_sum, (0, 1, 2, 3)),
    "symplectic": (lambda lam, n, m: symplectic_weight_sum(lam, n), (0,)),
    "odd_symplectic": (lambda lam, n, m: odd_symplectic_weight_sum(lam, n), (0,)),
    "orthosymplectic": (orthosymplectic_weight_sum, (0, 1, 2, 3)),
}


@pytest.mark.parametrize("family", sorted(STRIP_FAMILIES))
def test_strip_sums_match_enumeration(family):
    # Every shape of size <= 6 at n, m <= 3: shapes longer than n (inside and
    # outside the hook for super and orthosymplectic), too-tall shapes that
    # sum to 0, and the empty shape that sums to 1.
    weight_sum, ms = STRIP_FAMILIES[family]
    for n in (1, 2, 3):
        for m in ms:
            for lam in partitions_up_to(6):
                if family == "odd_symplectic" and lam.length > n:
                    continue
                want = _weight_sum(family, lam, Partition(), n, m)
                assert weight_sum(lam, n, m) == want, (lam, n, m)
            assert weight_sum(Partition(), n, m).is_one()


def test_skew_strip_sums_match_enumeration():
    for n in (1, 2, 3):
        for lam in partitions_up_to(5):
            for mu in subpartitions(lam):
                want = _weight_sum("ssyt", lam, mu, n)
                assert ssyt_weight_sum(lam, mu, n) == want, (lam, mu, n)


def test_strip_sums_keep_the_domain():
    assert ssyt_weight_sum(Partition([1, 1, 1]), Partition(), 2).is_zero()
    assert symplectic_weight_sum(Partition([1, 1, 1]), 2).is_zero()
    assert super_weight_sum(Partition([2, 2]), 1, 1).is_zero()
    assert orthosymplectic_weight_sum(Partition([2, 2]), 1, 1).is_zero()
    with pytest.raises(ValueError):
        odd_symplectic_weight_sum(Partition([1, 1, 1]), 2)
    with pytest.raises(ValueError):
        ssyt_weight_sum(Partition([2]), Partition([1, 1]), 2)
    with pytest.raises(ValueError):
        ssyt_weight_sum(Partition([1]), Partition([2]), 2)


def _reference_strip_sum(family, lam, mu, n, m=0):
    """The strip engine on exponent tuples: each strip builds a new tuple
    for every term it shifts.  The differential reference for the packed
    engine, sharing its strips and its reachability test."""
    tableaux._check_domain(family, lam, mu, n)
    letters = tableaux.LETTERS[family](n, m)
    vs = standard_xy(n, m)[0]
    target = lam.parts
    layer = {tuple(mu.part(r + 1) for r in range(len(target))): {(0,) * len(vs): 1}}
    for k, letter in enumerate(letters):
        rest = letters[k + 1 :]
        flat = [x for x in rest if not x.row_strict]
        rows = max((x.rows or len(target) for x in flat), default=0)
        strict = len(rest) - len(flat)
        i, sign = letter.var, letter.sign
        nxt = {}
        while layer:
            shape, terms = layer.popitem()
            before = sum(shape)
            for new in tableaux._strips(shape, target, letter):
                if not tableaux._reachable(new, target, len(flat), rows, strict):
                    continue
                out = nxt.setdefault(new, {})
                d = sign * (sum(new) - before)
                for e, c in terms.items():
                    if d:
                        e = e[:i] + (e[i] + d,) + e[i + 1 :]
                    out[e] = out.get(e, 0) + c
        layer = nxt
    return vs.poly(layer.get(target, {}))


def _same_strip_sum(family, lam, mu, n, m=0):
    try:
        want = _reference_strip_sum(family, lam, mu, n, m)
    except ValueError:
        with pytest.raises(ValueError):
            tableaux._strip_sum(family, lam, mu, n, m)
        return None
    got = tableaux._strip_sum(family, lam, mu, n, m)
    assert got.vars == want.vars and got.tuple_terms() == want.tuple_terms(), (family, lam, mu, n, m)
    return got


@pytest.mark.parametrize("family", sorted(STRIP_FAMILIES))
def test_packed_strip_sums_match_the_reference(family):
    for n in (1, 2, 3):
        for m in STRIP_FAMILIES[family][1]:
            for lam in partitions_up_to(6):
                _same_strip_sum(family, lam, Partition(), n, m)


def test_packed_skew_strip_sums_match_the_reference():
    for n in (1, 2, 3):
        for lam in partitions_up_to(5):
            for mu in partitions_up_to(5):
                _same_strip_sum("ssyt", lam, mu, n)


# The tableau benchmark's shapes: family -> (n, m, shapes), schur and hook
# as the ssyt and super tableaux they sum.
WORKLOAD_SHAPES = {
    "ssyt": (6, 0, ((5, 4, 3, 2, 1), (6, 3, 1), (5, 3, 2), (6, 2, 1))),
    "super": (3, 3, ((6, 2, 1, 1, 1), (5, 3, 2, 1), (6, 3, 1, 1), (6, 2, 2, 1), (7, 3, 1))),
    "symplectic": (4, 0, ((4, 3, 2, 1), (4, 3, 1), (4, 2, 2), (5, 2))),
    "odd_symplectic": (4, 0, ((5, 2, 1), (6, 2), (5, 3), (4, 3, 2, 1))),
    "orthosymplectic": (3, 3, ((4, 3, 1), (6, 2), (4, 2, 1), (3, 3, 2), (3, 2, 1))),
}


@pytest.mark.parametrize("family", sorted(WORKLOAD_SHAPES))
def test_packed_strip_sums_match_the_reference_at_workload_scale(family):
    n, m, shapes = WORKLOAD_SHAPES[family]
    for lam in shapes:
        _same_strip_sum(family, Partition(lam), Partition(), n, m)


@pytest.mark.parametrize("family", ["ssyt", "symplectic"])
@pytest.mark.parametrize("size", [127, 128, 130])
def test_packed_strip_sums_cross_field_widths(family, size):
    # a signed byte holds exponents up to 127 cells and a second byte is
    # needed from 128 on; the symplectic exponents run down to -cells.
    got = _same_strip_sum(family, Partition([size]), Partition(), 1)
    vs, (x,) = standard_x(1)
    if family == "ssyt":
        assert got == x**size
    elif size == 130:
        assert got.tuple_terms() == {(130 - 2 * k,): 1 for k in range(131)}


@pytest.mark.parametrize("family", sorted(tableaux.LETTERS))
def test_row_caps_never_fall_as_codes_rise(family):
    # The enumerator takes the codes a row admits as a suffix of the table,
    # from the first one the row's cap allows.
    for n in range(1, 5):
        for m in range(4):
            caps = [math.inf if x.rows is None else x.rows for x in tableaux.LETTERS[family](n, m)]
            assert caps == sorted(caps), (n, m)


def _reference_grids(family, lam, mu, n, m=0):
    """The fillings of lam/mu as rows of codes, from a plain backtracker
    over the letter table that builds no text: every cell assigned one by
    one, every row rebuilt at every filling."""
    tableaux._check_domain(family, lam, mu, n)
    letters = tableaux.LETTERS[family](n, m)
    end = len(letters)
    after_left = [k + letter.row_strict for k, letter in enumerate(letters)]
    after_top = [k + 1 - letter.row_strict for k, letter in enumerate(letters)]
    shape = lam.parts
    first = [
        next((k for k, letter in enumerate(letters) if letter.rows is None or r < letter.rows), end)
        for r in range(len(shape))
    ]
    starts = [mu.part(r + 1) for r in range(len(shape))]
    cells = [(r, c) for r, width in enumerate(shape) for c in range(starts[r], width)]
    rows = [[None] * width for width in shape]

    def lowest(k):
        r, c = cells[k]
        lo = first[r]
        left = rows[r][c - 1] if c else None
        if left is not None and after_left[left] > lo:
            lo = after_left[left]
        top = rows[r - 1][c] if r else None
        if top is not None and after_top[top] > lo:
            lo = after_top[top]
        return lo

    def fill():
        stack = []
        while True:
            if len(stack) == len(cells):
                yield tuple(tuple(row[start:]) for row, start in zip(rows, starts))
            else:
                stack.append(iter(range(lowest(len(stack)), end)))
            while stack and (v := next(stack[-1], None)) is None:
                stack.pop()
            if not stack:
                return
            r, c = cells[len(stack) - 1]
            rows[r][c] = v

    return fill()


def _weight_sum(family, lam, mu, n, m=0):
    """Sum over the listed tableaux of the product of each entry's x^sign
    or y^sign: the oracle that the strip engine is held to."""
    letters = tableaux.LETTERS[family](n, m)
    vs = standard_xy(n, m)[0]
    terms = {}
    for grid in _grids(family, lam, mu, n, m):
        e = [0] * len(vs)
        for row in grid:
            for v in row:
                e[letters[v].var] += letters[v].sign
        key = tuple(e)
        terms[key] = terms.get(key, 0) + 1
    return vs.poly(terms)


def _same_fillings(family, lam, mu, n, m=0):
    try:
        want = list(_reference_grids(family, lam, mu, n, m))
    except ValueError:
        with pytest.raises(ValueError):
            tableaux._listing(family, lam, mu, n, m)
        return
    assert _grids(family, lam, mu, n, m) == want, (family, lam, mu, n, m)


@pytest.mark.parametrize("family", sorted(STRIP_FAMILIES))
def test_grids_match_the_reference_in_order(family):
    # The codes the oracles read back from the listing are the reference
    # fillings, in order, apart from any rendering.  Every shape of size
    # <= 6 at n, m <= 3, the empty shape and the odd symplectic shapes too
    # long for n (both raise) included.
    for n in (1, 2, 3):
        for m in STRIP_FAMILIES[family][1]:
            for lam in partitions_up_to(6):
                _same_fillings(family, lam, Partition(), n, m)


def test_skew_grids_match_the_reference_in_order():
    # mu not inside lam raises on both sides; mu == lam has one empty filling.
    for n in (1, 2, 3):
        for lam in partitions_up_to(5):
            for mu in partitions_up_to(5):
                _same_fillings("ssyt", lam, mu, n)


def _reference_render(family, grid, lam, mu, n, m=0):
    """One filling's display text with every row rendered from its codes:
    tokens from the letter table, ``.`` for the inner cells, ``[]`` for the
    empty shape."""
    if not grid:
        return "[]"
    token = [letter.token for letter in tableaux.LETTERS[family](n, m)]
    rows = [tuple(token[v] for v in row) for row in grid]
    inner = mu.parts
    rows = [(".",) * skip + row for skip, row in zip(inner, rows)] + rows[len(inner) :]
    return "[[" + "],[".join([",".join(row) for row in rows]) + "]]"


def _same_listing(family, lam, mu, n, m=0):
    try:
        want = [_reference_render(family, grid, lam, mu, n, m) for grid in _reference_grids(family, lam, mu, n, m)]
    except ValueError:
        with pytest.raises(ValueError):
            tableaux._listing(family, lam, mu, n, m)
        return
    assert list(tableaux._listing(family, lam, mu, n, m)) == want, (family, lam, mu, n, m)


@pytest.mark.parametrize("family", sorted(STRIP_FAMILIES))
def test_listing_matches_rendering_from_scratch(family):
    # The listing builds its text cell by cell as it assigns them; rendering
    # every row of every reference filling must give the same text.
    for n in (1, 2, 3):
        for m in STRIP_FAMILIES[family][1]:
            for lam in partitions_up_to(6):
                _same_listing(family, lam, Partition(), n, m)


def test_skew_listing_matches_rendering_from_scratch():
    # Fully inner rows, mu == lam (one filling of inner cells only), the
    # empty shape, and mu not inside lam (raises on both sides).
    for n in (1, 2, 3):
        for lam in partitions_up_to(5):
            for mu in partitions_up_to(5):
                _same_listing("ssyt", lam, mu, n)


# Shapes whose last two cells take every path of the listing's two-cell
# tail: one cell; the next-to-last cell as the last one's top neighbour, as
# its left neighbour, and as neither; inner cells and rows between them.
TAIL_SHAPES = [(1,), (1, 1), (2, 1), (2, 1, 1)]
SKEW_TAIL_SHAPES = [((2,), (1,)), ((3, 1), (2,)), ((2, 2), (2, 1)), ((3, 3), (3, 2)), ((2, 2), (1, 1))]


@pytest.mark.parametrize("family", sorted(STRIP_FAMILIES))
def test_two_cell_tail_edge_shapes(family):
    for n in (1, 2, 3):
        for m in STRIP_FAMILIES[family][1]:
            for lam in TAIL_SHAPES:
                _same_listing(family, Partition(lam), Partition(), n, m)


def test_two_cell_tail_skew_edge_shapes():
    for n in (1, 2, 3):
        for lam, mu in SKEW_TAIL_SHAPES + [(lam, lam) for lam in TAIL_SHAPES]:
            _same_listing("ssyt", Partition(lam), Partition(mu), n)


def test_listing_streams():
    # 142,506 tableaux in all; a listing that kept what it had listed, or
    # memoized rows across fillings, would grow with the count.
    tracemalloc.start()
    try:
        listing = itertools.islice(tableaux.ssyt_tableaux(Partition([25]), Partition(), 6), 50_000)
        kinds = collections.Counter(map(type, listing))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kinds == {str: 50_000}
    assert peak < 8 * 2**20


def test_enumerator_takes_shapes_deeper_than_the_recursion_limit():
    lam = Partition([1500])
    assert _weight_sum("symplectic", lam, Partition(), 1) == symplectic_weight_sum(lam, 1)


def test_domain_errors_are_raised_when_called():
    # No iteration: a listing that checked its domain lazily would pass here.
    with pytest.raises(ValueError):
        tableaux.ssyt_tableaux(Partition([1]), Partition([2]), 2)
    with pytest.raises(ValueError):
        tableaux.odd_symplectic_tableaux(Partition([1, 1]), 1)
    with pytest.raises(ValueError):
        family_tableaux("schur", Partition([1]), 2, 0, Partition([2]))
    with pytest.raises(ValueError):
        family_tableaux("odd_symplectic", Partition([1, 1]), 1, 0, Partition())


# -- structural invariants --------------------------------------------------------


def test_ssyt_agrees_with_jacobi_trudi():
    for n in (1, 2, 3):
        vs, xs = standard_x(n)
        for lam in partitions_up_to(6):
            assert ssyt_weight_sum(lam, Partition(), n) == skew_schur_jt(lam, Partition(), xs, vars=vs)


def test_symplectic_bar_symmetry():
    # x_i -> 1/x_i negates the exponent column of x_i
    for n in (1, 2):
        for lam in partitions_up_to(4, max_length=n):
            p = symplectic_weight_sum(lam, n)
            for i in range(n):
                barred = {e[:i] + (-e[i],) + e[i + 1 :]: c for e, c in p.tuple_terms().items()}
                assert p.vars.poly(barred) == p


def test_orthosymplectic_with_no_primes_is_symplectic():
    for n in (1, 2):
        for lam in partitions_up_to(4, max_length=n):
            assert orthosymplectic_weight_sum(lam, n, 0) == symplectic_weight_sum(lam, n)


def test_orthosymplectic_expands_over_symplectic_times_skew():
    for n, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
        vs, xs, ys = standard_xy(n, m)
        for lam in partitions_up_to(4, max_length=n):
            total = vs.zero()
            for mu in subpartitions(lam, max_length=n):
                # sp_mu(X) read in X, Y: zero exponent columns for Y
                sp = vs.poly({e + (0,) * m: c for e, c in symplectic_weight_sum(mu, n).tuple_terms().items()})
                total = total + sp * skew_schur_jt(lam.conjugate(), mu.conjugate(), ys, vars=vs)
            assert orthosymplectic_weight_sum(lam, n, m) == total


def test_super_vanishing_criterion():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for lam in partitions_up_to(6):
                value = super_weight_sum(lam, n, m)
                assert value.is_zero() == (lam.part(n + 1) > m)


# -- display ----------------------------------------------------------------------


def test_display_tokens():
    ts = [str(t) for t in symplectic_tableaux(Partition([1]), 1)]
    assert ts == ["[[1]]", "[[1b]]"]
    odd = [str(t) for t in odd_symplectic_tableaux(Partition([1]), 2)]
    assert odd == ["[[1]]", "[[1b]]", "[[2]]"]
    ortho = [str(t) for t in tableaux.orthosymplectic_tableaux(Partition([1]), 1, 1)]
    assert ortho == ["[[1]]", "[[1b]]", "[[1p]]"]
    skew = [str(t) for t in tableaux.ssyt_tableaux(Partition([2]), Partition([1]), 1)]
    assert skew == ["[[.,1]]"]
    # a skew shape with no cells has exactly one (empty) filling
    empty = [str(t) for t in tableaux.ssyt_tableaux(Partition([2, 1]), Partition([2, 1]), 1)]
    assert empty == ["[[.,.],[.]]"]
    assert ssyt_weight_sum(Partition([2, 1]), Partition([2, 1]), 1).is_one()
