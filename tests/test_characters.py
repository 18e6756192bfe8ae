"""Closed-form character routes against the tableau oracles and printed values."""

import pytest

from ospchar import characters, symfun
from ospchar.algebra import ExactDivisionError, VariableSet, det_cofactor, exact_div
from ospchar.symfun import Partition, complete_table, k_index, partitions_of, partitions_up_to, skew_schur_jt, subpartitions
from ospchar.characters import (
    CharacterRequest,
    hook_schur_det,
    hook_schur_jt,
    odd_denominator_product,
    odd_symplectic_det,
    odd_symplectic_matrix,
    ortho_det_laurent,
    ortho_det_rational,
    ortho_jt,
    ortho_single_y,
    ortho_sp_schur_sum,
    schur_bialternant,
    standard_x,
    standard_xy,
    symplectic_denominator_product,
    symplectic_matrix,
    symplectic_weyl,
)
from ospchar import tableaux


def sym_example_polynomial(vs, xs, ys):
    x1, y1, y2 = xs[0], ys[0], ys[1]
    xb = x1.inverse()
    return x1 ** 2 + xb ** 2 + vs.one() + y1 * (x1 + xb) + y2 * (x1 + xb) + y1 * y2


# -- general linear -----------------------------------------------------------


def test_schur_bialternant():
    vs, xs = standard_x(2)
    assert schur_bialternant(Partition(), xs).is_one()
    assert schur_bialternant(Partition([1]), xs) == xs[0] + xs[1]
    vs3, xs3 = standard_x(3)
    lam = Partition([2, 1])
    assert schur_bialternant(lam, xs3) == tableaux.ssyt_weight_sum(lam, Partition(), 3)
    with pytest.raises(ValueError):
        schur_bialternant(Partition([1, 1, 1]), xs)


# -- hook ----------------------------------------------------------------------


def test_hook_schur_jt_examples():
    vs, xs, ys = standard_xy(2, 1)
    lam = Partition([2, 1])
    assert hook_schur_jt(lam, xs, ys) == tableaux.super_weight_sum(lam, 2, 1)
    assert hook_schur_jt(Partition(), xs, ys).is_one()
    vs11, xs11, ys11 = standard_xy(1, 1)
    assert hook_schur_jt(Partition([2, 2]), xs11, ys11).is_zero()


def test_hook_schur_det_examples():
    vs, xs, ys = standard_xy(1, 1)
    assert hook_schur_det(Partition([1]), xs, ys) == xs[0] + ys[0]
    assert hook_schur_det(Partition(), xs, ys).is_one()
    vs2, xs2, ys2 = standard_xy(2, 1)
    lam = Partition([2, 1])
    assert hook_schur_det(lam, xs2, ys2) == hook_schur_jt(lam, xs2, ys2)


def test_hook_schur_det_domain():
    vs, xs, ys = standard_xy(1, 1)
    with pytest.raises(ValueError):
        hook_schur_det(Partition([2, 2]), xs, ys)


# -- symplectic -------------------------------------------------------------------


def test_symplectic_weyl_examples():
    vs, xs = standard_x(1)
    assert symplectic_weyl(Partition([1]), xs) == xs[0] + xs[0].inverse()
    assert symplectic_weyl(Partition(), xs).is_one()
    vs2, xs2 = standard_x(2)
    lam = Partition([2, 1])
    assert symplectic_weyl(lam, xs2) == tableaux.symplectic_weight_sum(lam, 2)
    with pytest.raises(ValueError):
        symplectic_weyl(Partition([1, 1]), xs)


# -- orthosymplectic ----------------------------------------------------------------


def test_ortho_jt_examples():
    vs, xs, ys = standard_xy(1, 2)
    assert ortho_jt(Partition(), xs, ys).is_one()
    assert ortho_jt(Partition([2]), xs, ys) == sym_example_polynomial(vs, xs, ys)
    vs2, xs2, ys2 = standard_xy(2, 1)
    lam = Partition([2, 1])
    assert ortho_jt(lam, xs2, ys2) == tableaux.orthosymplectic_weight_sum(lam, 2, 1)


def test_ortho_det_rational_examples():
    vs, xs, ys = standard_xy(1, 2)
    assert ortho_det_rational(Partition([2]), xs, ys) == sym_example_polynomial(vs, xs, ys)
    vs11, xs11, ys11 = standard_xy(1, 1)
    assert ortho_det_rational(Partition(), xs11, ys11).is_one()
    vs22, xs22, ys22 = standard_xy(2, 2)
    lam = Partition([2, 1])
    assert ortho_det_rational(lam, xs22, ys22) == tableaux.orthosymplectic_weight_sum(lam, 2, 2)


def test_ortho_det_laurent_examples():
    vs, xs, ys = standard_xy(1, 2)
    assert ortho_det_laurent(Partition([2]), xs, ys) == ortho_det_rational(Partition([2]), xs, ys)
    assert ortho_det_laurent(Partition(), xs, ys).is_one()
    vs21, xs21, ys21 = standard_xy(2, 1)
    lam = Partition([1, 1])
    assert ortho_det_laurent(lam, xs21, ys21) == tableaux.orthosymplectic_weight_sum(lam, 2, 1)


def test_ortho_dets_cover_the_whole_hook():
    # shapes longer than n with lam_{n+1} <= m are in the determinant's
    # domain; outside the hook both the character and the determinants are 0
    for n, m in ((1, 1), (1, 2), (2, 1)):
        vs, xs, ys = standard_xy(n, m)
        inside = outside = 0
        for lam in partitions_up_to(6):
            if lam.length <= n:
                continue
            want = tableaux.orthosymplectic_weight_sum(lam, n, m)
            if lam.part(n + 1) > m:
                outside += 1
                assert want.is_zero()
            else:
                inside += 1
            assert ortho_det_rational(lam, xs, ys) == want, (n, m, lam)
            assert ortho_det_laurent(lam, xs, ys) == want, (n, m, lam)
        assert inside and outside


def test_ortho_dets_with_empty_y_are_the_symplectic_character():
    # With Y empty the bordered matrix is symplectic_matrix(lam, xs).
    for n in range(1, 4):
        _, xs = standard_x(n)
        for lam in partitions_up_to(5, max_length=n):
            expected = symplectic_weyl(lam, xs)
            assert ortho_det_rational(lam, xs, []) == expected, (lam, n)
            assert ortho_det_laurent(lam, xs, []) == expected, (lam, n)
    # A shape longer than n has no symplectic tableau.
    lam = Partition([2, 1, 1])
    _, xs = standard_x(2)
    expected = tableaux.symplectic_weight_sum(lam, 2)
    assert expected.is_zero()
    assert ortho_det_rational(lam, xs, []) == expected
    assert ortho_det_laurent(lam, xs, []) == expected


def test_prefactor_exercised_across_k_values():
    # k runs over 1..n+1 as the first part grows
    n, m = 2, 3
    vs, xs, ys = standard_xy(n, m)
    seen = set()
    for lam in [Partition(), Partition([1, 1]), Partition([2, 2]), Partition([4, 1]), Partition([3, 3]), Partition([5, 5])]:
        k = k_index(lam, n, m)
        seen.add(k)
        want = tableaux.orthosymplectic_weight_sum(lam, n, m)
        assert ortho_det_rational(lam, xs, ys) == want
        assert ortho_det_laurent(lam, xs, ys) == want
    assert seen == {1, 2, 3}


def test_ortho_single_y_examples():
    vs, xs, ys = standard_xy(1, 1)
    assert ortho_single_y(Partition([1]), xs, ys[0]) == xs[0] + xs[0].inverse() + ys[0]
    assert ortho_single_y(Partition(), xs, ys[0]).is_one()
    vs2, xs2, ys2 = standard_xy(2, 1)
    lam = Partition([2, 1])
    assert ortho_single_y(lam, xs2, ys2[0]) == ortho_det_rational(lam, xs2, ys2)


def test_ortho_single_y_matches_the_tableau_sum():
    # the one-prime route against the orthosymplectic tableau sum at m = 1:
    # every lam with len(lam) <= n, |lam| <= 6 for n <= 3 and |lam| <= 5 at
    # n = 4, 64 points
    points = 0
    for n, size in ((1, 6), (2, 6), (3, 6), (4, 5)):
        vs, xs, (y,) = standard_xy(n, 1)
        for lam in partitions_up_to(size, max_length=n):
            assert ortho_single_y(lam, xs, y) == tableaux.orthosymplectic_weight_sum(lam, n, 1), (n, lam)
            points += 1
    assert points == 64


def test_ortho_det_long_shapes_with_one_prime():
    # below row n every row has one cell, and it carries the prime
    vs, xs, ys = standard_xy(1, 1)
    x, y = xs[0], ys[0]
    for parts in [(1, 1), (1, 1, 1), (2, 1, 1, 1)]:
        lam = Partition(parts)
        assert ortho_det_rational(lam, xs, ys) == tableaux.orthosymplectic_weight_sum(lam, 1, 1)
    assert ortho_det_rational(Partition([1, 1, 1]), xs, ys) == y ** 2 * (x + x.inverse() + y)
    # boundary: length n agrees with the single-prime determinant
    assert ortho_det_rational(Partition([2]), xs, ys) == ortho_single_y(Partition([2]), xs, y)
    # outside the hook
    assert ortho_det_rational(Partition([2, 2]), xs, ys).is_zero()


def test_ortho_sp_schur_sum_examples():
    vs, xs, ys = standard_xy(1, 2)
    assert ortho_sp_schur_sum(Partition([2]), xs, ys) == sym_example_polynomial(vs, xs, ys)
    vs2, xs2 = standard_x(2)
    lam = Partition([2, 1])
    assert ortho_sp_schur_sum(lam, xs2, []) == symplectic_weyl(lam, xs2)
    vs21, xs21, ys21 = standard_xy(2, 1)
    assert ortho_sp_schur_sum(lam, xs21, ys21) == tableaux.orthosymplectic_weight_sum(lam, 2, 1)


# -- odd symplectic --------------------------------------------------------------------


def test_odd_symplectic_det_examples():
    vs, xs = standard_x(2)
    lam = Partition([2, 1])
    assert odd_symplectic_det(lam, xs) == tableaux.odd_symplectic_weight_sum(lam, 2)
    assert odd_symplectic_det(Partition(), xs).is_one()
    assert odd_symplectic_det(Partition([1]), xs) == tableaux.odd_symplectic_weight_sum(Partition([1]), 2)
    with pytest.raises(ValueError):
        odd_symplectic_det(Partition([1, 1, 1]), xs)
    for lam in (Partition(), Partition([1])):
        with pytest.raises(ValueError):
            odd_symplectic_det(lam, [])


# -- the C_n-type denominators ---------------------------------------------------------


def _prod(vs, factors):
    out = vs.one()
    for f in factors:
        out = out * f
    return out


def root_groups(xs, singles):
    """The three root groups of a C_n-type denominator, as reference code:
    prod_{i<=singles}(x_i - 1/x_i) (roots 2e_i), prod_{i<j}(1 - 1/(x_i x_j))
    (roots e_i + e_j) and the Vandermonde prod_{i<j}(x_i - x_j) (roots
    e_i - e_j).  The last two multiply to prod_{i<j}(x_i + 1/x_i - x_j - 1/x_j),
    since x_i + 1/x_i - x_j - 1/x_j = (x_i - x_j)(1 - 1/(x_i x_j))."""
    vs = xs[0].vars
    n = len(xs)
    one = vs.one()
    inv = [x.inverse() for x in xs]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return (
        _prod(vs, (xs[i] - inv[i] for i in range(singles))),
        _prod(vs, (one - inv[i] * inv[j] for i, j in pairs)),
        _prod(vs, (xs[i] - xs[j] for i, j in pairs)),
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_denominator_factor_groups_multiply_to_the_product_form(n):
    vs, xs = standard_x(n)
    one = vs.one()
    empty = Partition()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for product, matrix, singles in (
        (symplectic_denominator_product, symplectic_matrix, n),
        (odd_denominator_product, odd_symplectic_matrix, n - 1),
    ):
        long_roots, plus_roots, minus_roots = root_groups(xs, singles)
        expected_long = one
        for x in xs[:singles]:
            expected_long = expected_long * (x - x.inverse())
        expected_plus, expected_minus = one, one
        for i, j in pairs:
            expected_plus = expected_plus * (one - (xs[i] * xs[j]).inverse())
            expected_minus = expected_minus * (xs[i] - xs[j])
        assert (long_roots, plus_roots, minus_roots) == (expected_long, expected_plus, expected_minus)
        assert long_roots * plus_roots * minus_roots == product(xs) == det_cofactor(matrix(empty, xs), vs)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reduced_denominators_are_the_product_forms_over_the_long_roots(n):
    # the Vandermonde in the routes' letters, which their divided differences
    # in z take out, times the long-root group prod(x_i - 1/x_i) is the
    # C_n-type denominator at z_i = x_i + 1/x_i; Okada's last letter is
    # x_n + 1/x_n
    vs, xs = standard_x(n)
    world = characters._ZWorld(xs, ())
    sp = world.back(_delta(world.ext, world.zs))
    assert sp * root_groups(xs, n)[0] == symplectic_denominator_product(xs)
    world = characters._ZWorld(xs[:-1], xs[-1:])
    (y,) = world.ys
    odd = world.back(_delta(world.ext, world.zs + [y + y.inverse()]))
    assert odd * root_groups(xs, n - 1)[0] == odd_denominator_product(xs)


# -- the x-world reference ---------------------------------------------------------
#
# The routes compute in z = x + 1/x.  What follows is the quotient they
# replaced: the determinant of the matrix in the x_i themselves, divided by
# prod_{i<j}(y_i - y_j) where the matrix carries it, then by the root groups of
# the C_n-type denominator in turn.  Every rewritten route is compared with it.


def _over_root_groups(det, *groups):
    for group in groups:
        det = exact_div(det, group)
    return det


def x_world_weyl(lam, xs):
    vs = xs[0].vars
    return _over_root_groups(det_cofactor(symplectic_matrix(lam, xs), vs), *root_groups(xs, len(xs)))


def x_world_okada(lam, xs):
    vs = xs[0].vars
    return _over_root_groups(det_cofactor(odd_symplectic_matrix(lam, xs), vs), *root_groups(xs, len(xs) - 1))


def x_world_single_y(lam, xs, y):
    n = len(xs)
    exps = [lam.part(j) + n - j for j in range(1, n + 1)]
    rows = [[x ** (a + 1) - x ** (-a - 1) + y * (x ** a - x ** (-a)) for a in exps] for x in xs]
    return _over_root_groups(det_cofactor(rows, xs[0].vars), *root_groups(xs, len(xs)))


def _bordered(lam, xs, ys, main_block, lower_border):
    """The bordered orthosymplectic matrix in x: each main row's entries from
    main_block(x, xb, j), then the k - 1 border columns
    x^e prod(x + y_q) - x^-e prod(1/x + y_q); lower_border(i) gives row n + i."""
    n, m = len(xs), len(ys)
    vs = xs[0].vars
    k = k_index(lam, n, m)
    rows = []
    for x in xs:
        xb = x.inverse()
        p = _prod(vs, (x + y for y in ys))
        q = _prod(vs, (xb + y for y in ys))
        row = [main_block(x, xb, j) for j in range(m)]
        row += [x ** e * p - xb ** e * q for e in (lam.part(j) + n - m - j + 1 for j in range(1, k))]
        rows.append(row)
    rows += [lower_border(i) + [vs.zero()] * (k - 1) for i in range(1, m - n + k)]
    sign = -1 if (m * n - n + k - 1) % 2 else 1
    return rows, sign


def _delta(vs, letters):
    return _prod(vs, (letters[i] - letters[j] for i in range(len(letters)) for j in range(i + 1, len(letters))))


def _rational_rows(lam, xs, ys):
    n, m = len(xs), len(ys)
    vs = xs[0].vars
    lamc = lam.conjugate()

    def main_block(x, xb, j):
        others = [ys[t] for t in range(m) if t != j]
        return x * _prod(vs, (x + y for y in others)) - xb * _prod(vs, (xb + y for y in others))

    return _bordered(lam, xs, ys, main_block, lambda i: [y ** (lamc.part(i) + m - n - i) for y in ys])


def x_world_det_rational(lam, xs, ys):
    vs = xs[0].vars
    rows, sign = _rational_rows(lam, xs, ys)
    return sign * _over_root_groups(det_cofactor(rows, vs), _delta(vs, ys), *root_groups(xs, len(xs)))


def x_world_det_laurent(lam, xs, ys):
    n, m = len(xs), len(ys)
    vs = xs[0].vars
    lamc = lam.conjugate()
    hy = complete_table(max(lamc.part(1) - n - 1 + m, 0), ys, vs)

    def main_block(x, xb, j):
        entry = x ** (j + 1) - xb ** (j + 1)
        return -entry if (m - j - 1) % 2 else entry

    def lower_border(i):
        a = lamc.part(i) - n - i
        return [hy[a + j] if a + j >= 0 else vs.zero() for j in range(1, m + 1)]

    rows, sign = _bordered(lam, xs, ys, main_block, lower_border)
    return sign * _over_root_groups(det_cofactor(rows, vs), *root_groups(xs, len(xs)))


def x_world_sp_schur_sum(lam, xs, ys):
    vs = xs[0].vars
    lamc = lam.conjugate()
    total = vs.zero()
    for mu in subpartitions(lam, max_length=len(xs)):
        total = total + x_world_weyl(mu, xs) * skew_schur_jt(lamc, mu.conjugate(), ys, vars=vs)
    return total


# name -> (rewritten route, x-world reference), each called as f(lam, xs, ys)
X_WORLD = {
    "det": (ortho_det_rational, x_world_det_rational),
    "det_equiv": (ortho_det_laurent, x_world_det_laurent),
    "sp_schur_sum": (ortho_sp_schur_sum, x_world_sp_schur_sum),
    "single_y": (lambda lam, xs, ys: ortho_single_y(lam, xs, ys[0]), lambda lam, xs, ys: x_world_single_y(lam, xs, ys[0])),
    "weyl": (lambda lam, xs, ys: symplectic_weyl(lam, xs), lambda lam, xs, ys: x_world_weyl(lam, xs)),
    "okada": (lambda lam, xs, ys: odd_symplectic_det(lam, xs), lambda lam, xs, ys: x_world_okada(lam, xs)),
}


def _desk_points(name):
    """The desk grid (n, m <= 3, |lam| <= 6) in each route's domain: the
    whole (n, m)-hook for the two determinants, len(lam) <= n otherwise."""
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            if name in ("weyl", "okada", "single_y") and m > 1:
                continue
            for lam in partitions_up_to(6, max_length=None if name in ("det", "det_equiv") else n):
                if lam.part(n + 1) <= m:
                    yield n, m, lam


@pytest.mark.parametrize("name", sorted(X_WORLD))
def test_routes_in_z_match_the_x_world_quotient_on_the_desk_grid(name):
    route, reference = X_WORLD[name]
    longer = 0
    for n, m, lam in _desk_points(name):
        _, xs, ys = standard_xy(n, m)
        assert route(lam, xs, ys) == reference(lam, xs, ys), (n, m, lam)
        longer += lam.length > n
    # the determinants also take the hook shapes longer than n
    assert longer if name in ("det", "det_equiv") else not longer


def _specialized_points():
    """(label, rows, xs, ys): letters other than the standard ones, each
    xs and ys over one variable set, for the shapes of at most ``rows`` rows."""
    for n in (2, 3):
        vs, xs, ys = standard_xy(n, 2)
        bar = xs[-1].inverse()
        # the odd-orthosymplectic specialization: x_n -> 1/x_n, y = -1/x_n
        yield "inverted", n, xs[:-1] + [bar], [-bar]
        yield "negated", n, [-xs[0]] + xs[1:], [-ys[0]] + ys[1:]
    # the product-sum identities call the routes on xs + ys + [z]
    vs, xs, ys, z = standard_xy(1, 2, "z")
    yield "joined", 3, xs + ys + [z], [z]
    # letters named like the routes' own z-letters
    z1, z2, w = VariableSet(["z1", "z2", "w"]).gens()
    yield "z-named", 2, [z1, z2], [w]


@pytest.mark.parametrize("name", sorted(X_WORLD))
def test_routes_in_z_match_the_x_world_quotient_at_specialized_letters(name):
    route, reference = X_WORLD[name]
    labels = set()
    for label, rows, xs, ys in _specialized_points():
        for lam in partitions_up_to(4, max_length=rows):
            assert route(lam, xs, ys) == reference(lam, xs, ys), (label, lam)
            labels.add(label)
    assert labels == {"inverted", "negated", "joined", "z-named"}


def test_z_world_lifts_the_caller_letters_and_maps_them_back():
    labels = set()
    for label, rows, xs, ys in _specialized_points():
        vs = xs[0].vars
        # the routes' worlds: one z-letter per x-letter, and Okada's, whose
        # one lifted letter is its last x-letter
        for x, y in ((xs, ys), (xs[:-1], xs[-1:])):
            world = characters._ZWorld(x, y)
            width = len(vs)
            assert world.ext.names[:width] == vs.names
            names = world.ext.names[width:]
            prefix = "zz" if label == "z-named" else "z"
            assert names == tuple(f"{prefix}{i}" for i in range(1, len(x) + 1))
            assert world.zs == [world.ext.gen(name) for name in names]
            for lifted in world.ys:
                assert all(not any(exps[width:]) for exps in lifted.tuple_terms())
            # back of a lifted caller polynomial gives it back
            lifted = (sum(world.ys, world.ext.one()) ** 2) * world.ys[0].inverse() - 3
            assert world.back(lifted) == (sum(y, vs.one()) ** 2) * y[0].inverse() - 3
            # z_i goes back to x_i + 1/x_i
            for a, z in zip(x, world.zs):
                assert world.back(z) == a + a.inverse()
        labels.add(label)
    assert labels == {"inverted", "negated", "joined", "z-named"}


def test_okada_world_at_n_1_has_no_z_letters():
    vs, xs = standard_x(1)
    world = characters._ZWorld(xs[:-1], xs[-1:])
    assert world.ext == vs and world.zs == [] and world.ys == xs
    p = (xs[0] + 2) ** 3 * xs[0].inverse()
    assert world.back(p) == p


# the row-table builder of the divided differences in x (s = 0) and in z
# (s = 1), unpatched
REAL_DIVIDED = characters._divided


def negating_row(i, s=1):
    """The row-table builder characters._divided with row i's table negated
    on its calls at s over the main letters, in z by default: a defect that
    flips the sign of every determinant read from it, at lam and at the
    empty partition alike.  The tables over the y-letters, which are built
    at s = 0 too, are left alone.  Negating any row but the first is the
    defect of a lost (-1)^(i-1)."""

    def broken(letters, top, at):
        tables = REAL_DIVIDED(letters, top, at)
        if at == s and letters and not letters[0].to_text().startswith("y"):
            tables[i] = [-c for c in tables[i]]
        return tables

    return broken


def _row_table_worlds():
    """(label, world, letters, units): each z-world a route builds, the
    letters its rows are divided over, and the caller's units x_i behind
    them.  Okada's last letter is y + 1/y for its lifted y = x_n, so its
    units are all of xs, n = 1 included."""
    points = [(label, xs, ys) for label, _, xs, ys in _specialized_points()]
    points.append(("n = 1", standard_x(1)[1], []))
    for label, xs, ys in points:
        if ys:
            world = characters._ZWorld(xs, ys)
            yield label, world, world.zs, xs
        world = characters._ZWorld(xs[:-1], xs[-1:])
        (y,) = world.ys
        yield f"{label}, okada", world, world.zs + [y + y.inverse()], xs


def test_row_tables_are_signed_complete_functions_of_the_leading_pairs():
    # row i's table holds odd(a)'s divided difference over l_1..l_i, signed
    # (-1)^(i-1): back to the caller's units that is h_{a-i} of the pairs
    # x_1, 1/x_1, ..., x_i, 1/x_i, built here from the x-letter branch
    top = 6
    labels = set()
    for label, world, letters, units in _row_table_worlds():
        vs = units[0].vars
        odds = characters._divided(letters, top, 1)
        assert len(odds) == len(units)
        for i, odd in enumerate(odds, 1):
            pairs = [u for x in units[:i] for u in (x, x.inverse())]
            h = complete_table(top, pairs, vs)
            for a in range(top + 1):
                want = (h[a - i] if i % 2 else -h[a - i]) if a >= i else vs.zero()
                assert world.back(odd[a]) == want, (label, i, a)
        labels.add(label)
    points = ("inverted", "negated", "joined", "z-named")
    assert labels == {*points, *(f"{label}, okada" for label in points + ("n = 1",))}
    # one letter: the table is odd(a) itself, (x^a - x^-a) / (x - 1/x)
    vs, (x,) = standard_x(1)
    world = characters._ZWorld([x], ())
    (odd,) = characters._divided(world.zs, top, 1)
    for a in range(top + 1):
        assert world.back(odd[a]) * (x - x.inverse()) == x ** a - x ** (-a)


def test_power_tables_are_signed_divided_differences():
    # row i's table holds x^d's divided difference over x_1..x_i, signed
    # (-1)^(i-1), against the recurrence f[x_1..x_i] =
    # (f[x_2..x_i] - f[x_1..x_(i-1)]) / (x_i - x_1) with f[x] = f(x)
    _, xs = standard_x(4)
    top = 6

    def divided(letters, d):
        if len(letters) == 1:
            return letters[0] ** d
        return exact_div(divided(letters[1:], d) - divided(letters[:-1], d), letters[-1] - letters[0])

    powers = characters._divided(xs, top, 0)
    assert len(powers) == len(xs)
    for i, row in enumerate(powers, 1):
        assert len(row) == top + 1
        for d in range(top + 1):
            want = divided(xs[:i], d)
            assert row[d] == (want if i % 2 else -want), (i, d)


@pytest.mark.parametrize("name", ["okada", "weyl"])
def test_weyl_type_quotients_match_the_x_world_quotient_one_size_up(name):
    route, reference = X_WORLD[name]
    vs, xs = standard_x(4)
    for lam in partitions_up_to(4, 4):
        assert route(lam, xs, []) == reference(lam, xs, []), lam


# the closed_form orthosymplectic shapes at n = m = 3, and one longer than n
ORTHO_STAGED_SHAPES = [lam.parts for size in (5, 6) for lam in partitions_of(size, 3)] + [(3, 2, 1, 1)]


@pytest.mark.parametrize("parts", ORTHO_STAGED_SHAPES, ids=lambda parts: ",".join(map(str, parts)))
def test_staged_ortho_det_rational_matches_one_shot_division(monkeypatch, parts):
    # the divided differences in y and in z leave the route no division (no
    # route divides: characters has no exact_div to call): its main rows are
    # read from row tables over the z-letters and its lower border from
    # tables over the lifted y-letters.  The x-world determinant divides by
    # prod(y_i - y_j) and the symplectic denominator in one call
    lam = Partition(list(parts))
    vs, xs, ys = standard_xy(3, 3)
    tables = []

    def recording_tables(letters, top, s):
        tables.append((letters, s))
        return REAL_DIVIDED(letters, top, s)

    with monkeypatch.context() as patch:
        patch.setattr(characters, "_divided", recording_tables)
        value = ortho_det_rational(lam, xs, ys)
    assert not hasattr(characters, "exact_div") and len(tables) == 2
    ext = tables[0][0][0].vars
    assert ext.names[6:] == ("z1", "z2", "z3")
    assert tables == [(ext.gens()[6:], 1), (ext.gens()[3:6], 0)]
    rows, sign = _rational_rows(lam, xs, ys)
    one_shot = _delta(vs, ys) * symplectic_denominator_product(xs)
    assert value == sign * exact_div(det_cofactor(rows, vs), one_shot)


# -- the routes before divided differences and before z in ortho_jt ----------------
#
# The Schur bialternant divided by prod(x_i - x_j); the hook determinant
# divided the determinant of its matrix, cleared of its denominators, by
# prod(x_i - x_j) prod(y_i - y_j), and the rational orthosymplectic one by
# prod(y_i - y_j); both orthosymplectic ones divided by the Vandermonde in z
# before their divided differences in z; ortho_jt built its J table in the
# x-letters.  Each is the reference for the route it became.


def _reference_schur_bialternant(lam, xs):
    n = len(xs)
    vs = xs[0].vars
    num = [[x ** (lam.part(j) + n - j) for j in range(1, n + 1)] for x in xs]
    den = [[x ** (n - j) for j in range(1, n + 1)] for x in xs]
    return exact_div(det_cofactor(num, vs), det_cofactor(den, vs))


def _reference_hook_schur_det(lam, xs, ys):
    n, m = len(xs), len(ys)
    vs = (xs or ys)[0].vars
    k = k_index(lam, n, m)
    lamc = lam.conjugate()
    rows = []
    for x in xs:
        p = _prod(vs, (x + y for y in ys))
        row = [_prod(vs, (x + ys[t] for t in range(m) if t != j)) for j in range(m)]
        row += [x ** (lam.part(j) + n - m - j) * p for j in range(1, k)]
        rows.append(row)
    for i in range(1, m - n + k):
        rows.append([y ** (lamc.part(i) + m - n - i) for y in ys] + [vs.zero()] * (k - 1))
    sign = -1 if (m * n - n + k - 1) % 2 else 1
    return sign * exact_div(det_cofactor(rows, vs), _delta(vs, xs) * _delta(vs, ys))


def _odd_reducer(z):
    """odd(a) = (x^a - x^-a) / (x - 1/x) as a polynomial in z = x + 1/x:
    odd(0) = 0, odd(1) = 1, odd(a + 1) = z odd(a) - odd(a - 1) and
    odd(-a) = -odd(a), by the recurrence the routes used before their
    divided differences in z."""
    table = [z.vars.zero(), z.vars.one()]

    def odd(a):
        while len(table) <= abs(a):
            table.append(z * table[-1] - table[-2])
        return -table[-a] if a < 0 else table[a]

    return odd


def _reference_ortho_det_rational(lam, xs, ys):
    n, m = len(xs), len(ys)
    world = characters._ZWorld(xs, ys)
    ext, ys = world.ext, world.ys
    k = k_index(lam, n, m)
    lamc = lam.conjugate()
    zero = ext.zero()
    e_all = complete_table(m, (), ext, ys=ys)
    e_rest = [complete_table(m - 1, (), ext, ys=ys[:j] + ys[j + 1 :]) for j in range(m)]
    rows = []
    for odd in map(_odd_reducer, world.zs):
        row = [sum((c * odd(m - r) for r, c in enumerate(e_rest[j])), zero) for j in range(m)]
        for j in range(1, k):
            e = lam.part(j) + n - m - j + 1
            row.append(sum((c * odd(e + m - r) for r, c in enumerate(e_all)), zero))
        rows.append(row)
    for i in range(1, m - n + k):
        rows.append([y ** (lamc.part(i) + m - n - i) for y in ys] + [zero] * (k - 1))
    quotient = exact_div(det_cofactor(rows, ext), _delta(ext, ys))
    quotient = exact_div(quotient, _delta(ext, world.zs))
    sign = -1 if (m * n - n + k - 1) % 2 else 1
    return sign * world.back(quotient)


def _reference_ortho_det_laurent(lam, xs, ys):
    n, m = len(xs), len(ys)
    world = characters._ZWorld(xs, ys)
    ext, ys = world.ext, world.ys
    k = k_index(lam, n, m)
    lamc = lam.conjugate()
    zero = ext.zero()
    e_all = complete_table(m, (), ext, ys=ys)
    hy = complete_table(max(lamc.part(1) - n - 1 + m, 0), ys, ext)
    rows = []
    for odd in map(_odd_reducer, world.zs):
        row = [-odd(j) if (m - j) % 2 else odd(j) for j in range(1, m + 1)]
        for j in range(1, k):
            e = lam.part(j) + n - m - j + 1
            row.append(sum((c * odd(e + m - r) for r, c in enumerate(e_all)), zero))
        rows.append(row)
    for i in range(1, m - n + k):
        a = lamc.part(i) - n - i
        rows.append([hy[a + j] if a + j >= 0 else zero for j in range(1, m + 1)] + [zero] * (k - 1))
    quotient = exact_div(det_cofactor(rows, ext), _delta(ext, world.zs))
    sign = -1 if (m * n - n + k - 1) % 2 else 1
    return sign * world.back(quotient)


def _reference_ortho_jt(lam, xs, ys):
    n = len(xs)
    vs = xs[0].vars
    jt = complete_table(max(lam.part(1) + n - 1, 0), xs + [x.inverse() for x in xs], vs, ys=ys)

    def J(r):
        return jt[r] if r >= 0 else vs.zero()

    rows = [
        [J(lam.part(i) - i + 1)] + [J(lam.part(i) - i + j) + J(lam.part(i) - i - j + 2) for j in range(2, n + 1)]
        for i in range(1, n + 1)
    ]
    return det_cofactor(rows, vs)


# name -> (route, its reference), each called as f(lam, xs, ys)
REFERENCES = {
    "det": (ortho_det_rational, _reference_ortho_det_rational),
    "det_equiv": (ortho_det_laurent, _reference_ortho_det_laurent),
    "hook": (hook_schur_det, _reference_hook_schur_det),
    "jt": (ortho_jt, _reference_ortho_jt),
}


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_routes_match_their_references(name):
    # every hook shape of the desk grid (len(lam) <= n for jt), then one size up
    route, reference = REFERENCES[name]
    points = [
        (n, m, lam)
        for n in (1, 2, 3)
        for m in (1, 2, 3)
        for lam in partitions_up_to(6, max_length=n if name == "jt" else None)
        if lam.part(n + 1) <= m
    ]
    points += [(4, 3, Partition([4, 3, 2, 1])), (4, 4, Partition([3, 2, 1]))]
    for n, m, lam in points:
        _, xs, ys = standard_xy(n, m)
        assert route(lam, xs, ys) == reference(lam, xs, ys), (n, m, lam)


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_routes_match_their_references_at_specialized_letters(name):
    route, reference = REFERENCES[name]
    for label, rows, xs, ys in _specialized_points():
        for lam in partitions_up_to(4, max_length=rows):
            assert route(lam, xs, ys) == reference(lam, xs, ys), (name, label, lam)


def test_schur_bialternant_matches_its_reference_and_the_tableau_sum():
    # the suite has no Schur identity, so this sweep and the next are the
    # route's full checks
    for n in range(1, 7):
        _, xs = standard_x(n)
        for lam in partitions_up_to(6, max_length=n):
            value = schur_bialternant(lam, xs)
            assert value == _reference_schur_bialternant(lam, xs), (n, lam)
            assert value == tableaux.ssyt_weight_sum(lam, Partition(), n), (n, lam)


def test_schur_bialternant_matches_its_reference_at_specialized_letters():
    labels = set()
    for label, rows, xs, ys in _specialized_points():
        for lam in partitions_up_to(4, max_length=len(xs)):
            assert schur_bialternant(lam, xs) == _reference_schur_bialternant(lam, xs), (label, lam)
        labels.add(label)
    assert labels == {"inverted", "negated", "joined", "z-named"}


@pytest.mark.parametrize("parts", [(2, 1), (3, 1, 1), (2, 2, 2)], ids=lambda parts: ",".join(map(str, parts)))
def test_routes_hold_at_repeated_x_letters(parts):
    # prod(x_i - x_j) is 0 at X = (t, t) and at X = (t, t, t): the references
    # divide by it, the routes do not
    lam = Partition(list(parts))
    vs, _, ys, t = standard_xy(0, 2, "t")
    xs = [t, t]
    value = hook_schur_det(lam, xs, ys)
    assert value == hook_schur_jt(lam, xs, ys) and not value.is_zero()
    value = schur_bialternant(lam, xs + [t])
    assert value == skew_schur_jt(lam, Partition(), xs + [t]) and not value.is_zero()
    with pytest.raises(ExactDivisionError, match="division by the zero polynomial"):
        _reference_hook_schur_det(lam, xs, ys)
    with pytest.raises(ExactDivisionError, match="division by the zero polynomial"):
        _reference_schur_bialternant(lam, xs + [t])
    # z_1 = z_2 at X = (t, t) and at X = (t, 1/t), padded with t to the
    # shape's length: the z-routes against ortho_jt, which makes no division
    n = max(lam.length, 2)
    for xs in ([t] * n, [t, t.inverse()] + [t] * (n - 2)):
        value = symplectic_weyl(lam, xs)
        assert value == ortho_jt(lam, xs, []) and not value.is_zero(), xs
        value = ortho_det_rational(lam, xs, ys)
        assert value == ortho_jt(lam, xs, ys) and not value.is_zero(), xs
        assert ortho_det_laurent(lam, xs, ys) == value == ortho_sp_schur_sum(lam, xs, ys), xs


@pytest.mark.parametrize("parts", [(2, 1), (3, 1, 1), (2, 2, 2)], ids=lambda parts: ",".join(map(str, parts)))
def test_bordered_determinants_hold_at_repeated_y_letters(parts):
    # prod(y_i - y_j) is 0 at Y = (t, t): the references divide by it, the
    # routes do not
    lam = Partition(list(parts))
    vs, xs, _, t = standard_xy(2, 0, "t")
    ys = [t, t]
    value = ortho_det_rational(lam, xs, ys)
    assert value == ortho_det_laurent(lam, xs, ys) and not value.is_zero()
    value = hook_schur_det(lam, xs, ys)
    assert value == hook_schur_jt(lam, xs, ys) and not value.is_zero()
    for reference in (_reference_ortho_det_rational, _reference_hook_schur_det):
        with pytest.raises(ExactDivisionError, match="division by the zero polynomial"):
            reference(lam, xs, ys)


@pytest.mark.parametrize(
    "route, s, family",
    [
        (ortho_det_rational, 1, "orthosymplectic"),
        (hook_schur_det, 0, "hook"),
        (lambda lam, xs, ys: symplectic_weyl(lam, xs), 1, "symplectic"),
        (lambda lam, xs, ys: ortho_single_y(lam, xs, ys[0]), 1, "symplectic"),
        (ortho_sp_schur_sum, 1, "symplectic"),
        (lambda lam, xs, ys: odd_symplectic_det(lam, xs), 1, "odd symplectic"),
        (ortho_det_laurent, 1, "orthosymplectic"),
        (lambda lam, xs, ys: schur_bialternant(lam, xs), 0, "schur"),
    ],
    ids=["orthosymplectic", "hook", "weyl", "single_y", "sp_schur_sum", "okada", "det_laurent", "schur"],
)
def test_bordered_determinants_check_their_divisor_at_the_empty_partition(monkeypatch, route, s, family):
    # a negated row table keeps every determinant polynomial; only the check
    # at the empty partition tells the wrong sign.  Every route with a
    # product-form denominator, taken out by divided differences in x or z,
    # makes that check.
    monkeypatch.setattr(characters, "_divided", negating_row(0, s))
    _, xs, ys = standard_xy(2, 2)
    with pytest.raises(RuntimeError, match=f"^{family} denominator does not match its product form$"):
        route(Partition([2, 1]), xs, ys)


def test_ortho_sp_schur_sum_builds_its_denominator_groups_once(monkeypatch):
    # every mu's symplectic determinant reads the same row tables, built and
    # checked once per call
    calls = []

    def counting(letters, top, s):
        calls.append(len(letters))
        return REAL_DIVIDED(letters, top, s)

    lam = Partition([3, 2, 1])
    vs, xs, ys = standard_xy(3, 2)
    monkeypatch.setattr(characters, "_divided", counting)
    value = ortho_sp_schur_sum(lam, xs, ys)
    assert calls == [3]
    assert value == tableaux.orthosymplectic_weight_sum(lam, 3, 2)


@pytest.mark.parametrize("parts", [(1,), (2, 2), (3, 2, 1)])
def test_ortho_sp_schur_sum_builds_one_table_in_y(monkeypatch, parts):
    # every mu's skew Schur determinant, at lam and at the empty partition,
    # reads one table of the e_r(Y), however many mu there are
    calls = []
    real = complete_table

    def counting(rmax, letters, vars=None, *, zs=(), ys=()):
        calls.append(len(ys))
        return real(rmax, letters, vars, zs=zs, ys=ys)

    lam = Partition(parts)
    vs, xs, ys = standard_xy(3, 2)
    monkeypatch.setattr(characters, "complete_table", counting)
    monkeypatch.setattr(symfun, "complete_table", counting)
    value = ortho_sp_schur_sum(lam, xs, ys)
    assert len(list(subpartitions(lam, max_length=3))) > 1
    assert [c for c in calls if c] == [2]
    assert value == tableaux.orthosymplectic_weight_sum(lam, 3, 2)


# -- one message per shape rule -------------------------------------------------------

# route -> its call on lam at n = m = 1.  Library callers pass raw variables,
# so each route guards len(lam) <= n itself, with the message the CLI prints.
LENGTH_GUARDED = {
    "schur_bialternant": lambda lam, xs, ys: schur_bialternant(lam, xs),
    "symplectic_weyl": lambda lam, xs, ys: symplectic_weyl(lam, xs),
    "ortho_jt": lambda lam, xs, ys: ortho_jt(lam, xs, ys),
    "ortho_single_y": lambda lam, xs, ys: ortho_single_y(lam, xs, ys[0]),
    "odd_symplectic_det": lambda lam, xs, ys: odd_symplectic_det(lam, xs),
    "odd_symplectic_weight_sum": lambda lam, xs, ys: tableaux.odd_symplectic_weight_sum(lam, 1),
    "odd_symplectic_tableaux": lambda lam, xs, ys: tableaux.odd_symplectic_tableaux(lam, 1),
}


@pytest.mark.parametrize("route", sorted(LENGTH_GUARDED))
def test_every_length_guard_gives_the_cli_message(route):
    _, xs, ys = standard_xy(1, 1)
    with pytest.raises(ValueError) as exc:
        LENGTH_GUARDED[route](Partition([1, 1]), xs, ys)
    assert str(exc.value) == "partition (1, 1) is longer than n=1"


def test_hook_guard_gives_the_cli_message():
    _, xs, ys = standard_xy(1, 1)
    with pytest.raises(ValueError) as exc:
        hook_schur_det(Partition([2, 2]), xs, ys)
    assert str(exc.value) == "outside the determinant formula's domain: lam_{n+1} > m"


@pytest.mark.parametrize(
    "call",
    [
        lambda lam, mu: skew_schur_jt(lam, mu, standard_x(2)[1]),
        lambda lam, mu: tableaux.ssyt_weight_sum(lam, mu, 2),
        lambda lam, mu: tableaux.ssyt_tableaux(lam, mu, 2),
    ],
    ids=["skew_schur_jt", "ssyt_weight_sum", "ssyt_tableaux"],
)
def test_every_containment_guard_gives_the_cli_message(call):
    with pytest.raises(ValueError) as exc:
        call(Partition([1]), Partition([2]))
    assert str(exc.value) == "Partition([2]) is not contained in Partition([1])"


# -- request dispatch --------------------------------------------------------------------


def test_request_dispatch_tableau_routes():
    req = CharacterRequest("symplectic", "tableau", Partition([1]), 1)
    vs, xs = standard_x(1)
    assert req.compute() == xs[0] + xs[0].inverse()


def test_request_validation():
    with pytest.raises(ValueError):
        CharacterRequest("schur", "det", Partition([1]), 2).validate()
    with pytest.raises(ValueError):
        CharacterRequest("nope", "jt", Partition(), 1).validate()
    with pytest.raises(ValueError):
        CharacterRequest("hook", "jt", Partition([1]), 1, 0).validate()
    # det needs lam_{n+1} <= m; orthosymplectic jt needs len(lam) <= n
    with pytest.raises(ValueError):
        CharacterRequest("orthosymplectic", "det", Partition([2, 2]), 1, 1).validate()
    with pytest.raises(ValueError):
        CharacterRequest("orthosymplectic", "jt", Partition([1, 1]), 1, 1).validate()
    CharacterRequest("orthosymplectic", "det", Partition([1, 1]), 1, 1).validate()
    CharacterRequest("orthosymplectic", "det", Partition([1]), 1, 1).validate()


def test_request_methods_agree():
    lam = Partition([2])
    values = {
        method: CharacterRequest("orthosymplectic", method, lam, 1, 2).compute()
        for method in ("tableau", "jt", "det", "sp_schur_sum")
    }
    assert len({v.to_text() for v in values.values()}) == 1
