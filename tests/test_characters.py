"""Closed-form character routes against the tableau oracles and printed values."""

import pytest

from ospchar import characters
from ospchar.algebra import det_cofactor, exact_div
from ospchar.symfun import Partition, k_index, partitions_of, partitions_up_to, skew_schur_jt
from ospchar.characters import (
    CharacterRequest,
    hook_schur_det,
    hook_schur_jt,
    odd_denominator_factors,
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
    symplectic_denominator_factors,
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


# -- staged division -------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_denominator_factor_groups_multiply_to_the_product_form(n):
    vs, xs = standard_x(n)
    one = vs.one()
    empty = Partition()
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for factors, product, matrix, singles in (
        (symplectic_denominator_factors, symplectic_denominator_product, symplectic_matrix, n),
        (odd_denominator_factors, odd_denominator_product, odd_symplectic_matrix, n - 1),
    ):
        long_roots, plus_roots, minus_roots = factors(xs)
        expected_long = one
        for x in xs[:singles]:
            expected_long = expected_long * (x - x.inverse())
        expected_plus, expected_minus = one, one
        for i, j in pairs:
            expected_plus = expected_plus * (one - (xs[i] * xs[j]).inverse())
            expected_minus = expected_minus * (xs[i] - xs[j])
        assert (long_roots, plus_roots, minus_roots) == (expected_long, expected_plus, expected_minus)
        assert long_roots * plus_roots * minus_roots == product(xs) == det_cofactor(matrix(empty, xs), vs)


def _reference_one_shot(monkeypatch, route, lam, *alphabet):
    """Run ``route`` and also divide its determinant in one call.

    Records the route's stage divisions, each of which must divide the
    previous stage's quotient.  Returns the route's value and the first
    stage's dividend divided by the product of all stage divisors in one
    exact_div call, as the routes did before they were staged.
    """
    calls = []

    def recording(a, b):
        q = exact_div(a, b)
        calls.append((a, b, q))
        return q

    with monkeypatch.context() as patch:
        patch.setattr(characters, "exact_div", recording)
        value = route(lam, *alphabet)
    (det, divisor, quotient), *later = calls
    for dividend, stage_divisor, stage_quotient in later:
        assert dividend == quotient
        divisor = divisor * stage_divisor
        quotient = stage_quotient
    return value, exact_div(det, divisor)


# the closed_form orthosymplectic shapes at n = m = 3, and one longer than n
ORTHO_STAGED_SHAPES = [lam.parts for size in (5, 6) for lam in partitions_of(size, 3)] + [(3, 2, 1, 1)]


@pytest.mark.parametrize("parts", ORTHO_STAGED_SHAPES, ids=lambda parts: ",".join(map(str, parts)))
def test_staged_ortho_det_rational_matches_one_shot_division(monkeypatch, parts):
    lam = Partition(list(parts))
    vs, xs, ys = standard_xy(3, 3)
    value, one_shot = _reference_one_shot(monkeypatch, ortho_det_rational, lam, xs, ys)
    sign = -1 if (9 - 3 + k_index(lam, 3, 3) - 1) % 2 else 1
    assert value == sign * one_shot


@pytest.mark.parametrize("route", [symplectic_weyl, odd_symplectic_det], ids=["weyl", "okada"])
def test_staged_weyl_type_quotients_match_one_shot_division(monkeypatch, route):
    vs, xs = standard_x(4)
    for lam in partitions_up_to(4, 4):
        value, one_shot = _reference_one_shot(monkeypatch, route, lam, xs)
        assert value == one_shot, lam


def test_ortho_sp_schur_sum_builds_its_denominator_groups_once(monkeypatch):
    # every mu's symplectic quotient divides by the groups checked once per call
    calls = []
    real = characters.symplectic_denominator_factors

    def counting(xs):
        calls.append(len(xs))
        return real(xs)

    lam = Partition([3, 2, 1])
    vs, xs, ys = standard_xy(3, 2)
    monkeypatch.setattr(characters, "symplectic_denominator_factors", counting)
    value = ortho_sp_schur_sum(lam, xs, ys)
    assert calls == [3]
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
