"""Core exact-arithmetic behaviour: ring ops, substitution, division, determinants."""

import json

import pytest
from hypothesis import given, strategies as st

from ospchar.algebra import (
    ExactDivisionError,
    LaurentPolynomial,
    PoleError,
    RationalFunction,
    VariableMismatchError,
    VariableSet,
    det_bareiss,
    det_cofactor,
    det_rational,
    embed,
    exact_div,
    substitute,
    union_vars,
)

VS2 = VariableSet(["a", "b"])
VS3 = VariableSet(["a", "b", "c"])


def poly_strategy(vs, max_terms=4, max_exp=2, max_coeff=8):
    width = len(vs)
    term = st.tuples(
        st.tuples(*[st.integers(-max_exp, max_exp) for _ in range(width)]),
        st.integers(-max_coeff, max_coeff),
    )
    return st.lists(term, min_size=0, max_size=max_terms).map(
        lambda items: vs.poly({e: c for e, c in items if c})
    )


polys2 = poly_strategy(VS2)
polys3 = poly_strategy(VS3)


# -- arithmetic ---------------------------------------------------------


def test_difference_of_squares():
    vs = VariableSet(["x1"])
    x = vs.gen("x1")
    assert (x + x.inverse()) * (x - x.inverse()) == x ** 2 - x ** -2


def test_additive_identity():
    vs = VariableSet(["x1", "y1"])
    p = vs.gen("x1") * 3 + vs.gen("y1") ** -2
    assert p + vs.zero() == p
    assert p + 0 == p


def test_binomial_square():
    vs = VariableSet(["x1", "y1"])
    x, y = vs.gens()
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2


def test_mismatched_variable_sets_rejected():
    p = VS2.gen("a")
    q = VariableSet(["a", "z"]).gen("z")
    with pytest.raises(VariableMismatchError):
        p + q


def test_no_zero_terms_stored():
    p = VS2.poly({(1, 0): 5})
    q = VS2.poly({(1, 0): -5, (0, 1): 2})
    assert (p + q).terms == {(0, 1): 2}


def test_large_product_matches_small_path():
    # same multiplication through the packed and the naive code paths
    vs = VariableSet(["a", "b"])
    a, b = vs.gens()
    p = sum((a ** i * b ** -i + i * a ** -i for i in range(1, 9)), vs.zero())
    q = sum((b ** i - a ** i for i in range(1, 9)), vs.one())
    slow = vs.zero()
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            slow = slow + vs.poly({(e1[0] + e2[0], e1[1] + e2[1]): c1 * c2})
    assert p * q == slow


@given(polys3, polys3, polys3)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


# -- substitution -------------------------------------------------------


def test_substitute_bar_involution():
    vs = VariableSet(["x1"])
    x = vs.gen("x1")
    assert substitute(x + x.inverse(), "x1", x.inverse()) == x.inverse() + x


def test_substitute_zero():
    vs = VariableSet(["x1", "y1"])
    x, y = vs.gens()
    assert substitute(x * y + y ** 2, "x1", 0) == y ** 2


def test_substitute_zero_pole():
    vs = VariableSet(["x1", "y1"])
    x, y = vs.gens()
    with pytest.raises(PoleError):
        substitute(x.inverse() * y, "x1", 0)


def test_substitute_new_variable_extends_set():
    vs = VariableSet(["x1"])
    t = VariableSet(["t"]).gen("t")
    out = substitute(vs.gen("x1") ** 2, "x1", t)
    assert out.vars.names == ("x1", "t")
    assert out == out.vars.gen("t") ** 2


def test_substitute_nonunit_negative_power_rejected():
    vs = VariableSet(["x1", "y1"])
    x, y = vs.gens()
    with pytest.raises(Exception):
        substitute(x.inverse(), "x1", x + y)


def test_embed_and_union():
    target = union_vars(VS2, VariableSet(["c", "a"]))
    assert target.names == ("a", "b", "c")
    p = VS2.gen("a") + VS2.gen("b") ** -1
    q = embed(p, target)
    assert q.vars == target
    assert q == target.gen("a") + target.gen("b") ** -1


# -- exact division ------------------------------------------------------


def test_exact_div_examples():
    vs = VariableSet(["x1"])
    x = vs.gen("x1")
    one = vs.one()
    assert exact_div(x ** 2 - one, x - one) == x + one
    assert exact_div(x ** 2 - x ** -2, x - x.inverse()) == x + x.inverse()


def test_exact_div_failure_carries_remainder():
    vs = VariableSet(["x1", "y1"])
    x, y = vs.gens()
    with pytest.raises(ExactDivisionError) as err:
        exact_div(x + y, x - y)
    assert err.value.remainder is not None
    assert not err.value.remainder.is_zero()


@given(polys3, polys3)
def test_exact_div_inverts_multiplication(a, b):
    if b.is_zero():
        return
    assert exact_div(a * b, b) == a


# -- determinants ----------------------------------------------------------


def test_det_integers():
    vs = VariableSet([])
    rows = [[vs.const(1), vs.const(2)], [vs.const(3), vs.const(4)]]
    assert det_cofactor(rows, vs) == vs.const(-2)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_det_identity_matrix(n):
    vs = VS2
    rows = [[vs.one() if i == j else vs.zero() for j in range(n)] for i in range(n)]
    assert det_cofactor(rows, vs) == vs.one()


def test_det_power_block():
    vs = VariableSet(["y1", "y2"])
    y1, y2 = vs.gens()
    assert det_cofactor([[y1, y2], [vs.one(), vs.one()]]) == y1 - y2


def matrix_strategy(size, vs=VS2):
    entry = poly_strategy(vs, max_terms=2, max_exp=1, max_coeff=4)
    return st.lists(
        st.lists(entry, min_size=size, max_size=size), min_size=size, max_size=size
    )


@given(matrix_strategy(3), poly_strategy(VS2, 2, 1, 3), poly_strategy(VS2, 2, 1, 3), st.integers(0, 2))
def test_det_multilinear_in_rows(rows, u, v, i):
    base_u = [r[:] for r in rows]
    base_v = [r[:] for r in rows]
    mixed = [r[:] for r in rows]
    other = [VS2.poly({(1, 0): 1, (0, -1): 2}), VS2.poly({(0, 1): 1}), VS2.one()]
    base_v[i] = other
    mixed[i] = [u * a + v * b for a, b in zip(rows[i], other)]
    lhs = det_cofactor(mixed, VS2)
    rhs = u * det_cofactor(base_u, VS2) + v * det_cofactor(base_v, VS2)
    assert lhs == rhs


@given(matrix_strategy(3), st.integers(0, 2), st.integers(0, 2))
def test_det_row_swap_and_transpose(rows, i, j):
    d = det_cofactor(rows, VS2)
    swapped = [r[:] for r in rows]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    if i == j:
        assert det_cofactor(swapped, VS2) == d
    else:
        assert det_cofactor(swapped, VS2) == -d
    transposed = [[rows[b][a] for b in range(3)] for a in range(3)]
    assert det_cofactor(transposed, VS2) == d


@given(st.integers(1, 4).flatmap(matrix_strategy))
def test_bareiss_equals_cofactor(rows):
    assert det_bareiss(rows, VS2) == det_cofactor(rows, VS2)


def test_bareiss_equals_cofactor_5x5():
    vs = VS2
    a, b = vs.gens()
    rows = [
        [a + b, vs.one(), vs.zero(), b, a ** -1],
        [vs.one(), b ** 2, a, vs.zero(), vs.one()],
        [a - b, vs.zero(), vs.one(), a * b, b],
        [vs.zero(), a + 1, b - 2, vs.one(), a],
        [b ** -1, a, vs.one(), vs.zero(), a + b],
    ]
    assert det_bareiss(rows, vs) == det_cofactor(rows, vs)


def test_det_rational_clears_rows():
    vs = VariableSet(["x1", "y1"])
    x, y = vs.gens()
    one = vs.one()
    rows = [
        [RationalFunction(one, x + y), RationalFunction(x)],
        [RationalFunction(one), RationalFunction(one, x + y)],
    ]
    d = det_rational(rows)
    # 1/(x+y) * 1/(x+y) - x = (1 - x(x+y)^2) / (x+y)^2
    expected = RationalFunction(one - x * (x + y) ** 2, (x + y) ** 2)
    assert d == expected


def test_det_rational_polynomial_entries_and_transpose():
    vs = VariableSet(["x1"])
    x = vs.gen("x1")
    one = vs.one()
    rows = [
        [RationalFunction(one, x), RationalFunction(x)],
        [RationalFunction(one), RationalFunction(x)],
    ]
    d = det_rational(rows)
    assert d == RationalFunction(one - x, one)
    assert det_rational([[rows[j][i] for j in range(2)] for i in range(2)]) == d


# -- rational functions ------------------------------------------------------


@given(polys2, polys2, polys2, polys2)
def test_rational_equality_is_equivalence(a, b, c, d):
    if b.is_zero() or c.is_zero() or d.is_zero():
        return
    r = RationalFunction(a, b)
    # reflexivity, and invariance under rescaling by c and by c*d
    s = RationalFunction(a * c, b * c)
    t = RationalFunction(a * c * d, b * c * d)
    assert r == r
    assert r == s and s == r
    assert s == t
    assert r == t


def test_rational_equality_over_equal_and_unequal_denominators():
    vs = VariableSet(["x1"])
    x = vs.gen("x1")
    one = vs.one()
    # equal denominators: the numerators decide
    assert RationalFunction(x, x + one) == RationalFunction(x, x + one)
    assert RationalFunction(x, x + one) != RationalFunction(2 * x, x + one)
    assert RationalFunction(x + one, x + one) != RationalFunction(2 * one, x + one)
    assert RationalFunction(x) == x
    # unequal denominators: cross-multiplication
    assert RationalFunction(x * x - x, x * x - one) == RationalFunction(x, x + one)
    assert RationalFunction(x * x + x, x + one) == x
    assert RationalFunction(x, x - one) != RationalFunction(x, x + one)


def test_rational_arithmetic_shortcuts():
    vs = VariableSet(["x1"])
    x = vs.gen("x1")
    one = vs.one()
    r = RationalFunction(one, x + one)
    s = RationalFunction(x, x + one)
    total = r + s
    assert total.den == x + one  # shared denominator reused


# -- serialization -------------------------------------------------------------


def test_text_format():
    vs = VariableSet(["x1", "y1"])
    x, y = vs.gens()
    p = x ** 2 + x ** -2 + vs.one() + x * y
    assert p.to_text() == "x1^2 + x1*y1 + 1 + x1^-2"
    assert vs.zero().to_text() == "0"
    assert (-x - 2 * y).to_text() == "-x1 - 2*y1"
    assert (x ** -1 * y ** 3 * 4).to_text() == "4*x1^-1*y1^3"


def test_json_round_trip():
    vs = VariableSet(["x1", "y1"])
    x, y = vs.gens()
    p = 3 * x ** 2 * y ** -1 - 7 * y + vs.const(11)
    blob = json.dumps(p.to_json_dict(), separators=(",", ":"))
    q = LaurentPolynomial.from_json_dict(json.loads(blob))
    assert q == p
    assert json.dumps(q.to_json_dict(), separators=(",", ":")) == blob


def test_hash_consistent_with_equality():
    p = VS2.poly({(1, -1): 2, (0, 0): 1})
    q = VS2.poly({(0, 0): 1, (1, -1): 2})
    assert p == q and hash(p) == hash(q)
