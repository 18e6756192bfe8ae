"""Core exact-arithmetic behaviour: ring ops, division, determinants.

LaurentPolynomial keys its terms on integers.  TuplePoly, below, keeps them
on exponent tuples and works term by term; the differential tests hold the
two equal, with sympy as a third oracle, on operands whose exponents cross
every field width.
"""

import json
from heapq import heapify, heappop, heappush
from itertools import product
from operator import add, mul, sub

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from ospchar.algebra import (
    AlgebraError,
    ExactDivisionError,
    LaurentPolynomial,
    VariableMismatchError,
    VariableSet,
    det_bareiss,
    det_cofactor,
    det_rational,
    exact_div,
    substitute_reciprocal_sums,
)
from ospchar.characters import standard_x, standard_xy
from ospchar.symfun import Partition

import test_characters  # the test-side references that still divide

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


def test_variable_set_rejects_a_single_string():
    # a string is an iterable of its characters: "x1" would name x and 1
    for names in ("x1", "xy", ""):
        with pytest.raises(AlgebraError, match="not the string"):
            VariableSet(names)
    with pytest.raises(AlgebraError, match="not the string"):
        LaurentPolynomial.from_json_dict({"vars": "xy", "terms": [{"e": [1, 0], "c": "1"}]})
    assert VariableSet(("x1",)).names == ("x1",) and VariableSet(iter(["x", "y"])).names == ("x", "y")


def test_no_zero_terms_stored():
    p = VS2.poly({(1, 0): 5})
    q = VS2.poly({(1, 0): -5, (0, 1): 2})
    assert (p + q).tuple_terms() == {(0, 1): 2}


def test_large_product_matches_small_path():
    # a product of 16 by 17 terms against the sum of its one-term products
    vs = VariableSet(["a", "b"])
    a, b = vs.gens()
    p = sum((a ** i * b ** -i + i * a ** -i for i in range(1, 9)), vs.zero())
    q = sum((b ** i - a ** i for i in range(1, 9)), vs.one())
    slow = vs.zero()
    for e1, c1 in p.tuple_terms().items():
        for e2, c2 in q.tuple_terms().items():
            slow = slow + vs.poly({(e1[0] + e2[0], e1[1] + e2[1]): c1 * c2})
    assert p * q == slow


@given(polys3, polys3, polys3)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)


@given(polys3, polys3)
def test_subtraction_adds_the_negative(p, q):
    assert p - q == p + (-q)
    assert (p - q) + q == p
    assert VS3.zero() - p == -p and p - VS3.zero() == p
    assert (p - p).is_zero()


def test_constructor_rejects_what_is_not_an_integer():
    vs = VariableSet(["x"])
    # int() would read 2.7 * x^1.5 as 2*x
    for terms in ({(1.5,): 2.7}, {(1.5,): 2}, {(1,): 2.7}, {(2.0,): 1}, {(1,): 2.0}, {("1",): 1}, {(1,): "2"}):
        with pytest.raises(AlgebraError, match="is not an integer"):
            vs.poly(terms)
    with pytest.raises(AlgebraError, match="has length 2, expected 1"):
        vs.poly({(1, 2): 1})
    assert vs.poly({(1,): 2, (0,): 0}).to_text() == "2*x"


def test_constants_and_powers_reject_what_is_not_an_integer():
    # int() would store const(0.5) as a zero coefficient, printed "-0" and
    # unequal to zero, and read const(2.5) as 2 and const("3") as 3
    vs = VariableSet(["x"])
    x = vs.gen("x")
    for c in (0.5, 2.5, -0.5, 2.0, "3"):
        with pytest.raises(AlgebraError, match="is not an integer"):
            vs.const(c)
    for e in (2.5, 2.0, "2"):
        with pytest.raises(AlgebraError, match="is not an integer"):
            x ** e
    assert vs.const(0).is_zero() and vs.const(-3).to_text() == "-3"
    assert (x ** -2).to_text() == "x^-2" and ((x + 1) ** 2).to_text() == "x^2 + 2*x + 1"


# -- the tuple-keyed reference -----------------------------------------------


class TuplePoly:
    """A term map from exponent tuples to coefficients, every operation term
    by term: the reference the integer-keyed class is held to."""

    def __init__(self, vars, terms):
        self.vars = vars
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def of(cls, p):
        return cls(p.vars, p.tuple_terms())

    def _merge(self, other, sign):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + sign * c
        return TuplePoly(self.vars, out)

    def __add__(self, other):
        return self._merge(other, 1)

    def __sub__(self, other):
        return self._merge(other, -1)

    def __neg__(self):
        return TuplePoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return TuplePoly(self.vars, out)

    def __eq__(self, other):
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)

    def to_text(self):
        pieces = []
        for i, (exps, coeff) in enumerate(self.sorted_terms()):
            factors = "*".join(f"{n}^{e}" if e != 1 else n for n, e in zip(self.vars.names, exps) if e)
            mag = abs(coeff)
            body = (factors if mag == 1 else f"{mag}*{factors}") if factors else str(mag)
            if i == 0:
                pieces.append("-" + body if coeff < 0 else body)
            else:
                pieces.append((" - " if coeff < 0 else " + ") + body)
        return "".join(pieces) or "0"

    def to_json_dict(self):
        return {"vars": list(self.vars.names), "terms": [{"c": str(c), "e": list(e)} for e, c in self.sorted_terms()]}


def _det_reference(rows, vs):
    """det(rows) as a TuplePoly: first-row cofactors memoized on column subsets."""
    rows = [[TuplePoly.of(p) for p in row] for row in rows]
    memo = {(): TuplePoly(vs, {(0,) * len(vs): 1})}

    def minor(r, cols):
        if cols not in memo:
            acc = TuplePoly(vs, {})
            for t, c in enumerate(cols):
                term = rows[r][c] * minor(r + 1, cols[:t] + cols[t + 1 :])
                acc = acc - term if t & 1 else acc + term
            memo[cols] = acc
        return memo[cols]

    return minor(0, tuple(range(len(rows))))


def _division_reference(a, b):
    """exact_div's walk on TuplePoly operands: the same weights, layers, box
    test and witness, every exponent a tuple."""
    width = len(a.vars)
    K = 1
    while True:
        weights = [(width - v) ** K for v in range(width)]
        tops = [e for e in b.terms if sum(map(mul, weights, e)) == max(sum(map(mul, weights, f)) for f in b.terms)]
        if len(tops) == 1:
            break
        K += 1
    (btop,) = tops
    acols, bcols = list(zip(*a.terms)), list(zip(*b.terms))
    lo = [t + min(x) - min(y) for t, x, y in zip(btop, acols, bcols)]
    hi = [t + max(x) - max(y) for t, x, y in zip(btop, acols, bcols)]
    rem, q = dict(a.terms), {}
    while rem:
        d = max(sum(map(mul, weights, e)) for e in rem)
        layer = [(e, c) for e, c in rem.items() if sum(map(mul, weights, e)) == d]
        if any(c % b.terms[btop] or not all(map(lambda l, x, h: l <= x <= h, lo, e, hi)) for e, c in layer):
            head = TuplePoly(a.vars, dict(TuplePoly(a.vars, rem).sorted_terms()[:3])).to_text()
            more = " + ..." if len(rem) > 3 else ""
            message = f"inexact division, remainder of {len(rem)} terms: {head}{more}"
            raise ExactDivisionError(message, remainder=TuplePoly(a.vars, rem))
        for e, c in layer:
            qe = tuple(map(sub, e, btop))
            q[qe] = c // b.terms[btop]
            for be, bc in b.terms.items():
                k = tuple(map(add, qe, be))
                rem[k] = rem.get(k, 0) - q[qe] * bc
                if not rem[k]:
                    del rem[k]
    return TuplePoly(a.vars, q)


def _same_division(a, b):
    """exact_div(a, b) against the tuple walk: the same quotient, or the same
    message and remainder."""
    try:
        want = _division_reference(TuplePoly.of(a), TuplePoly.of(b))
    except ExactDivisionError as err:
        with pytest.raises(ExactDivisionError) as got:
            exact_div(a, b)
        assert str(got.value) == str(err)
        assert TuplePoly.of(got.value.remainder) == err.remainder
        return None
    got = exact_div(a, b)
    assert TuplePoly.of(got) == want
    return got


def _substitution_reference(p, vs, units):
    """p's letters after vs's variables replaced by u + 1/u, on TuplePoly."""
    width = len(vs)
    out = TuplePoly(vs, {})
    for e, c in p.tuple_terms().items():
        term = TuplePoly(vs, {e[:width]: c})
        for k, u in zip(e[width:], units):
            ((d, s),) = u.tuple_terms().items()
            pair = TuplePoly(vs, {d: s}) + TuplePoly(vs, {tuple(-x for x in d): s})
            for _ in range(k):
                term = term * pair
        out = out + term
    return out


def _min_exponents(p):
    cols = list(zip(*p.tuple_terms()))
    return tuple(map(min, cols)) if cols else (0,) * len(p.vars)


# Exponents on both sides of four field widths: one signed byte holds
# magnitudes up to 127, two bytes up to 2^15 - 1, four up to 2^31 - 1 and
# eight up to 2^63 - 1; 2^70 takes nine.
WIDE = [127, 128, 2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63, 2**70]
exponents = st.one_of(st.integers(-3, 3), st.sampled_from(WIDE).flatmap(lambda w: st.sampled_from([w, -w, -w - 1])))


def boundary_terms(vs, max_terms=4, coefficients=st.integers(-9, 9)):
    term = st.tuples(st.tuples(*[exponents] * len(vs)), coefficients)
    return st.lists(term, max_size=max_terms).map(lambda items: {e: c for e, c in items if c})


def boundary_polys(vs, max_terms=4):
    return boundary_terms(vs, max_terms).map(vs.poly)


@given(boundary_polys(VS3), boundary_polys(VS3))
def test_ring_operations_match_the_tuple_keyed_reference(p, q):
    P, Q = TuplePoly.of(p), TuplePoly.of(q)
    assert (p == q) == (P == Q)
    cases = [(p * q, P * Q), (q * p, P * Q), (p + q, P + Q), (p - q, P - Q), (-p, -P)]
    # a one-term power runs the general square-and-multiply loop at every
    # field width, and a unit monomial's negative powers through its inverse
    power = TuplePoly(p.vars, {(0,) * len(p.vars): 1})
    inverse = TuplePoly(p.vars, {tuple(-x for x in e): c for e, c in P.terms.items()})
    inverse_power = power
    for k in range(4):
        cases.append((p ** k, power))
        if p.is_unit_monomial():
            cases.append((p ** -k, inverse_power))
        power, inverse_power = power * P, inverse_power * inverse
    for got, want in cases:
        assert TuplePoly.of(got) == want
        assert got.sorted_terms() == want.sorted_terms()
        assert got.to_text() == want.to_text()
        assert got.to_json_dict() == want.to_json_dict()
        # built afresh, the value takes the narrowest fields its exponents allow
        fresh = got.vars.poly(want.terms)
        assert fresh == got and hash(fresh) == hash(got)


@settings(max_examples=50)
@given(boundary_polys(VS3), boundary_polys(VS3))
def test_products_and_sums_agree_with_sympy(p, q):
    pytest.importorskip("sympy")
    from sympy import ZZ
    from sympy.polys.rings import ring

    R, *_ = ring(",".join(VS3.names), ZZ)

    def value(f, lo):
        return R.from_dict({tuple(map(sub, e, lo)): c for e, c in f.tuple_terms().items()})

    lo_p, lo_q = _min_exponents(p), _min_exponents(q)
    assert value(p * q, tuple(map(add, lo_p, lo_q))) == value(p, lo_p) * value(q, lo_q)
    lo = tuple(map(min, lo_p, lo_q))
    assert value(p + q, lo) == value(p, lo) + value(q, lo)
    assert value(p - q, lo) == value(p, lo) - value(q, lo)


def test_equality_and_hash_ignore_the_field_width():
    x, y = VS2.gens()
    narrow = x + 3 * y
    for big in (x**128, y ** -(2**15), x ** (2**31), x * y ** (2**70)):
        # wide fields left behind by a cancelled term and by a cancelled factor
        for p in (narrow + big - big, narrow * big * big.inverse()):
            assert p.fbytes > narrow.fbytes
            assert p == narrow and hash(p) == hash(narrow)
            assert p.to_text() == "a + 3*b" and p.sorted_terms() == narrow.sorted_terms()
            assert exact_div(p * big, big) == narrow == exact_div(narrow * big, big)
            assert exact_div(p * (x - y), narrow) == x - y


@given(boundary_polys(VS3, 3), boundary_polys(VS3, 3))
def test_exact_division_matches_the_tuple_keyed_reference(q, b):
    assume(not b.is_zero())
    assert _same_division(q * b, b) == q


@given(polys3, polys3, polys3, st.tuples(*[exponents] * 3), st.tuples(*[exponents] * 3))
def test_inexact_division_matches_the_tuple_keyed_reference(a, b, r, shift_a, shift_b):
    # small shapes keep the walk short; the monomial shifts move them across the field widths
    assume(not b.is_zero())
    _same_division((a * b + r) * VS3.poly({shift_a: 1}), b * VS3.poly({shift_b: 1}))


@settings(max_examples=50)
@given(st.integers(0, 4).flatmap(lambda n: st.lists(st.lists(boundary_polys(VS2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_matches_the_tuple_keyed_reference_across_field_widths(rows):
    assert TuplePoly.of(det_cofactor(rows, VS2)) == _det_reference(rows, VS2)


# -- packed multiplication -------------------------------------------------


def _reference_mul_packed(a: dict, b: dict) -> dict:
    """An earlier packed kernel on tuple-keyed term maps: one bit field per
    variable, each as wide as that variable's span, packed and unpacked a
    field at a time.  Kept as a reference for *."""
    width = len(next(iter(a)))
    if width == 0:
        ca = sum(a.values())
        cb = sum(b.values())
        return {(): ca * cb} if ca * cb else {}
    acols = list(zip(*a))
    bcols = list(zip(*b))
    amin = [min(col) for col in acols]
    bmin = [min(col) for col in bcols]
    spans = [
        max(col_a) - lo_a + max(col_b) - lo_b
        for col_a, lo_a, col_b, lo_b in zip(acols, amin, bcols, bmin)
    ]
    bits = [max(1, s.bit_length()) for s in spans]
    shifts = []
    pos = 0
    for w in reversed(bits):
        shifts.append(pos)
        pos += w
    shifts.reverse()

    def pack(terms, mins):
        packed = {}
        for e, c in terms.items():
            k = 0
            for x, lo, s in zip(e, mins, shifts):
                k |= (x - lo) << s
            packed[k] = c
        return packed

    pa = pack(a, amin)
    pb = pack(b, bmin)
    out: dict[int, int] = {}
    get = out.get
    for k2, c2 in pb.items():
        for k1, c1 in pa.items():
            k = k1 + k2
            nc = get(k, 0) + c1 * c2
            if nc:
                out[k] = nc
            else:
                del out[k]
    offs = [la + lb for la, lb in zip(amin, bmin)]
    masks = [(1 << w) - 1 for w in bits]
    result = {}
    for k, c in out.items():
        result[tuple(((k >> s) & m) + o for s, m, o in zip(shifts, masks, offs))] = c
    return result


def wide_poly_strategy(vs, scale):
    """A few drawn terms times a fixed factor of 27 terms, over three
    variables of which only the middle one is wide: its exponents lie within
    3 of -scale, 0 or scale, the others' within 4 of 0.  The product's
    middle exponents reach past 2 * scale and size every field, and the
    narrow fields on either side of it show a field sized by the wrong
    variable.  The draws stay small, so a failing example shrinks quickly."""
    scales = (1, scale, 1)
    cube = product((-1, 0, 1), repeat=3)
    dense = vs.poly({tuple(map(mul, t, scales)): i + 1 for i, t in enumerate(cube)})
    exps = st.tuples(
        *[st.tuples(st.integers(-1, 1), st.integers(-3, 3)).map(lambda t, s=s: t[0] * s + t[1]) for s in scales]
    )
    term = st.tuples(exps, st.integers(-9, 9).filter(bool))
    return st.lists(term, min_size=1, max_size=3).map(lambda items: vs.poly(dict(items)) * dense)


# field widths of the product, sized for exponents up to 4 * scale + 6: 1 byte,
# 2 bytes, 3 bytes (held in 4), 6 bytes (held in 8) and 9 bytes (past the
# struct formats); each operand's fields are narrower and widen first
FIELD_SCALES = [2 ** 4, 2 ** 11, 2 ** 18, 2 ** 38, 2 ** 68]


# a failing product is slow to report, and the explain phase reruns it
# hundreds of times
@settings(phases=[phase for phase in Phase if phase is not Phase.explain])
@given(st.sampled_from(FIELD_SCALES).flatmap(lambda scale: st.tuples(*[wide_poly_strategy(VS3, scale)] * 2)))
def test_packed_product_matches_the_bit_field_reference(operands):
    p, q = operands
    assert (p * q).tuple_terms() == _reference_mul_packed(p.tuple_terms(), q.tuple_terms())


def test_exponent_past_64_bits_through_product_and_division():
    x, y = VS2.gens()
    big = 2 ** 70
    q = sum((c * x ** (big - c) * y ** -c for c in range(1, 21)), x ** -big)
    b = sum((x ** c * y ** (big + c) for c in range(15)), x ** big * y ** -3)
    a = q * b
    assert a.tuple_terms() == _reference_mul_packed(q.tuple_terms(), b.tuple_terms())
    assert exact_div(a, b) == q == _reference_exact_div(a, b)
    assert exact_div(a, q) == b == _reference_exact_div(a, q)


# -- exact division ------------------------------------------------------


def _shift(p: LaurentPolynomial, offsets) -> LaurentPolynomial:
    """p times the monomial with the given exponent vector."""
    offsets = tuple(offsets)
    return p.vars.poly({tuple(map(add, e, offsets)): c for e, c in p.tuple_terms().items()})


def _reference_exact_div(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """The earlier exact_div: graded-lex long division with a heap of every
    pending term, kept as the reference that exact_div is compared against."""
    amin = _min_exponents(a)
    bmin = _min_exponents(b)
    A = _shift(a, (-x for x in amin)).tuple_terms()
    B = _shift(b, (-x for x in bmin)).tuple_terms()
    width = len(a.vars)
    dmax = max(max(sum(e) for e in A), max(sum(e) for e in B), 1)
    w = dmax.bit_length()
    mask = (1 << w) - 1
    shifts = [(width - 1 - v) * w for v in range(width)]

    def pack(e):
        k = sum(e) << (width * w)
        for x, s in zip(e, shifts):
            k |= x << s
        return k

    def unpack(k):
        return tuple((k >> s) & mask for s in shifts)

    rem = {pack(e): c for e, c in A.items()}
    bpacked = sorted((pack(e), c) for e, c in B.items())
    btop, btop_c = bpacked[-1]
    heap = [-k for k in rem]
    heapify(heap)
    q = {}
    while rem:
        k = -heappop(heap)
        rc = rem.get(k)
        if rc is None:
            continue
        if any((k >> s) & mask < (btop >> s) & mask for s in shifts) or rc % btop_c:
            witness = _shift(LaurentPolynomial(a.vars, {unpack(kk): cc for kk, cc in rem.items()}), amin)
            raise ExactDivisionError("inexact division", remainder=witness)
        qk = k - btop
        qc = rc // btop_c
        q[qk] = qc
        for bk, bc in bpacked:
            e = qk + bk
            nc = rem.get(e, 0) - qc * bc
            if nc:
                rem[e] = nc
                heappush(heap, -e)
            else:
                del rem[e]
    offset = tuple(x - y for x, y in zip(amin, bmin))
    return _shift(a.vars.poly({unpack(k): c for k, c in q.items()}), offset)


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


def test_exact_div_message_is_capped_and_remainder_is_whole():
    vs = VariableSet(["x1", "x2", "x3"])
    x1, x2, x3 = vs.gens()
    # the top term x1^7 is not divisible by 2*x1, so nothing is subtracted
    a = (x1 + x2 + x3 + vs.one()) ** 6 + x1 ** 7
    with pytest.raises(ExactDivisionError) as err:
        exact_div(a, 2 * x1 + x2)
    assert err.value.remainder == a
    message = str(err.value)
    assert message == "inexact division, remainder of 85 terms: x1^7 + x1^6 + 6*x1^5*x2 + ..."


def test_exact_div_tied_top_term_needs_a_higher_weight_power():
    # weights (2, 1) tie x1 with x2^2; (4, 1) separates them
    vs = VariableSet(["x1", "x2"])
    x1, x2 = vs.gens()
    b = x1 + x2 ** 2
    q = 3 * x1 ** 2 - x1 * x2 ** -1 + 2 * x2 ** 3 - vs.one()
    assert exact_div(q * b, b) == q == _reference_exact_div(q * b, b)
    a = q * b + x2
    with pytest.raises(ExactDivisionError) as err:
        exact_div(a, b)
    assert not err.value.remainder.is_zero()
    assert exact_div(a - err.value.remainder, b) * b == a - err.value.remainder
    with pytest.raises(ExactDivisionError):
        _reference_exact_div(a, b)


@pytest.mark.parametrize("top_bits", [8, 16, 32, 64])
def test_exact_div_keeps_a_guard_bit_above_a_full_field(top_bits):
    # the dividend's exponent fills top_bits bits exactly, so its signed field
    # is wider than top_bits, and so is each field of the box test
    x = VariableSet(["x1"]).gen("x1")
    half = 3 << (top_bits - 3)
    assert exact_div(x ** (2 * half) - 1, x ** half - 1) == x ** half + 1


@pytest.mark.parametrize("bits", [8, 16, 32, 64])
def test_exact_div_widens_when_a_span_passes_half_a_field(bits):
    # every exponent fits a signed field of ``bits`` bits, but the dividend's
    # y-exponents span more than half of one, so the box test needs wider fields
    x, y = VS2.gens()
    h = 3 << (bits - 3)
    q = y**h + y**-h
    a = q * (x + y)
    assert a.fbytes == bits // 8
    assert exact_div(a, x + y) == q
    assert _same_division(a + y, x + y) is None


@given(polys3, polys3)
def test_exact_div_inverts_multiplication(a, b):
    if b.is_zero():
        return
    assert exact_div(a * b, b) == a


def _is_multiple(r, b):
    try:
        _reference_exact_div(r, b)
    except ExactDivisionError:
        return False
    return True


@given(polys3, polys3, polys3)
def test_exact_div_rejects_a_non_multiple(a, b, r):
    assume(not b.is_zero() and not r.is_zero() and not _is_multiple(r, b))
    dividend = a * b + r
    with pytest.raises(ExactDivisionError) as err:
        exact_div(dividend, b)
    remainder = err.value.remainder
    assert remainder is not None and not remainder.is_zero()
    # the witness is the dividend minus a multiple of b
    assert exact_div(dividend - remainder, b) * b == dividend - remainder


def _route_divisions(monkeypatch, call):
    """The (dividend, divisor) pairs of every exact_div that ``call`` makes
    through test_characters' name for it."""
    seen = []
    real = test_characters.exact_div

    def record(a, b):
        seen.append((a, b))
        return real(a, b)

    with monkeypatch.context() as patch:
        patch.setattr(test_characters, "exact_div", record)
        call()
    assert seen, "the reference made no division"
    return seen


# case -> (reference call, sympy oracle).  No route divides: each takes its
# Vandermonde in x or in z out by divided differences, so the cases keep
# every dividend through the test-side references that still divide, at the
# same shapes: the x-world quotients, the two orthosymplectic determinants
# before their divided differences in z (the Laurent one's x-world divisions
# at n = 4 take sympy about 40 s), and the hook determinant and the Schur
# bialternant before their divided differences in x.  sympy's cancel takes
# minutes on the orthosymplectic divisions (a gcd over 6 or more variables),
# so those cases use the exact quotient instead.
ROUTE_DIVISIONS = {
    "symplectic_weyl n=4 lambda=5,1": (
        lambda: test_characters.x_world_weyl(Partition([5, 1]), standard_x(4)[1]),
        "cancel",
    ),
    "odd_symplectic_det n=4 lambda=5,1": (
        lambda: test_characters.x_world_okada(Partition([5, 1]), standard_x(4)[1]),
        "cancel",
    ),
    "ortho_det_rational n=m=3 lambda=3,2,1": (
        lambda: test_characters._reference_ortho_det_rational(Partition([3, 2, 1]), *standard_xy(3, 3)[1:]),
        "exquo",
    ),
    "ortho_det_laurent n=4 m=3 lambda=3,2,1": (
        lambda: test_characters._reference_ortho_det_laurent(Partition([3, 2, 1]), *standard_xy(4, 3)[1:]),
        "exquo",
    ),
    "ortho_single_y n=3 lambda=4,2": (
        lambda: test_characters.x_world_single_y(Partition([4, 2]), *standard_xy(3, 1)[1:2], standard_xy(3, 1)[2][0]),
        "cancel",
    ),
    "ortho_sp_schur_sum n=3 m=2 lambda=3,2,1": (
        lambda: test_characters.x_world_sp_schur_sum(Partition([3, 2, 1]), *standard_xy(3, 2)[1:]),
        "cancel",
    ),
    "hook_schur_det n=m=3 lambda=3,2,1": (
        lambda: test_characters._reference_hook_schur_det(Partition([3, 2, 1]), *standard_xy(3, 3)[1:]),
        "cancel",
    ),
    "schur_bialternant n=5 lambda=3,2,1": (
        lambda: test_characters._reference_schur_bialternant(Partition([3, 2, 1]), standard_x(5)[1]),
        "cancel",
    ),
}


@pytest.mark.parametrize("case", sorted(ROUTE_DIVISIONS))
def test_route_divisions_match_the_reference(monkeypatch, case):
    call, _ = ROUTE_DIVISIONS[case]
    for a, b in _route_divisions(monkeypatch, call):
        assert exact_div(a, b) == _reference_exact_div(a, b)


@pytest.mark.parametrize("case", sorted(ROUTE_DIVISIONS))
def test_route_divisions_agree_with_sympy(monkeypatch, case):
    pytest.importorskip("sympy")
    from sympy import ZZ
    from sympy.polys.rings import ring

    call, oracle = ROUTE_DIVISIONS[case]
    for a, b in _route_divisions(monkeypatch, call):
        R, *_ = ring(",".join(a.vars.names), ZZ)
        amin, bmin = _min_exponents(a), _min_exponents(b)
        A = R.from_dict(_shift(a, (-x for x in amin)).tuple_terms())
        B = R.from_dict(_shift(b, (-x for x in bmin)).tuple_terms())
        if oracle == "cancel":
            quotient, denominator = A.cancel(B)
            assert denominator == 1
        else:
            quotient = A.exquo(B)
        q = _shift(exact_div(a, b), (y - x for x, y in zip(amin, bmin)))
        assert R.from_dict(q.tuple_terms()) == quotient


# -- substituting z = u + 1/u -------------------------------------------------


def _naive_substitution(p, vs, units):
    """p's letters after vs's variables replaced by u + 1/u, term by term."""
    width = len(vs)
    out = vs.zero()
    for e, c in p.tuple_terms().items():
        term = vs.poly({e[:width]: c})
        for k, u in zip(e[width:], units):
            term = term * (u + u.inverse()) ** k
        out = out + term
    return out


VS2_UV = VariableSet(["a", "b", "u", "v"])
unit_strategy = st.tuples(st.sampled_from([1, -1]), st.tuples(st.integers(-3, 3), st.integers(-3, 3))).map(
    lambda t: VS2.poly({t[1]: t[0]})
)
polys_in_z = st.lists(
    st.tuples(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 4), st.integers(0, 4)), st.integers(-8, 8)),
    max_size=6,
).map(lambda items: VS2_UV.poly({e: c for e, c in items if c}))


@given(polys_in_z, unit_strategy, unit_strategy)
def test_substitution_matches_term_by_term_expansion(p, u, v):
    assert substitute_reciprocal_sums(p, VS2, [u, v]) == _naive_substitution(p, VS2, [u, v])


def test_substitution_with_wide_fields():
    # exponents past one byte per field, a negated unit and an inverted one
    a, b, u, v = VS2_UV.gens()
    p = a ** 200 * u ** 3 - b ** -150 * v ** 2 * u + 7 * u ** 40 + 1
    units = [-VS2.gen("a"), VS2.gen("b") ** -90]
    assert substitute_reciprocal_sums(p, VS2, units) == _naive_substitution(p, VS2, units)


wide_units = st.tuples(st.sampled_from([1, -1]), st.tuples(exponents, exponents)).map(lambda t: VS2.poly({t[1]: t[0]}))
wide_polys_in_z = st.lists(
    st.tuples(st.tuples(exponents, exponents, st.integers(0, 3), st.integers(0, 3)), st.integers(-8, 8)),
    max_size=4,
).map(lambda items: VS2_UV.poly({e: c for e, c in items if c}))


@settings(max_examples=50)
@given(wide_polys_in_z, wide_units, wide_units)
def test_substitution_matches_the_tuple_keyed_reference(p, u, v):
    got = substitute_reciprocal_sums(p, VS2, [u, v])
    assert TuplePoly.of(got) == _substitution_reference(p, VS2, [u, v])


def test_substitution_rejects_what_it_cannot_map():
    a, b, u, v = VS2_UV.gens()
    units = VS2.gens()
    with pytest.raises(AlgebraError):
        substitute_reciprocal_sums(u.inverse(), VS2, units)  # (a + 1/a)^-1 is not Laurent
    with pytest.raises(AlgebraError):
        substitute_reciprocal_sums(u, VS2, [units[0] + 1, units[1]])  # not a unit monomial
    with pytest.raises(VariableMismatchError):
        substitute_reciprocal_sums(u, VS2, units[:1])  # one letter too many
    assert substitute_reciprocal_sums(VS2_UV.zero(), VS2, units) == VS2.zero()


# -- determinants ----------------------------------------------------------


def test_det_integers():
    # no variables: every packed key has no fields, and a row still has terms
    vs = VariableSet([])
    rows = [[vs.const(1), vs.const(2)], [vs.const(3), vs.const(4)]]
    assert det_cofactor(rows, vs) == vs.const(-2)
    rows = [[vs.const(c) for c in row] for row in ((2, 0, 1), (0, 3, 0), (4, 5, 6))]
    assert det_cofactor(rows, vs) == vs.const(2 * 18 + 1 * -12)
    assert det_cofactor([[vs.zero()]], vs) == vs.zero()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_det_identity_matrix(n):
    vs = VS2
    rows = [[vs.one() if i == j else vs.zero() for j in range(n)] for i in range(n)]
    assert det_cofactor(rows, vs) == vs.one()


def test_det_power_block():
    vs = VariableSet(["y1", "y2"])
    y1, y2 = vs.gens()
    assert det_cofactor([[y1, y2], [vs.one(), vs.one()]]) == y1 - y2


def _sympy_det(rows, vs):
    """det(rows) by sympy over ZZ[vs], each row first shifted by its minimum
    exponents into a polynomial row."""
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.rings import ring

    R, *_ = ring(",".join(vs.names), ZZ)
    shift = (0,) * len(vs)
    matrix = []
    for row in rows:
        exps = [e for p in row for e in p.tuple_terms()]
        lo = tuple(map(min, zip(*exps))) if exps else (0,) * len(vs)
        shift = tuple(map(add, shift, lo))
        matrix.append([R.from_dict({tuple(x - y for x, y in zip(e, lo)): c for e, c in p.tuple_terms().items()}) for p in row])
    det = DomainMatrix(matrix, (len(rows), len(rows)), R.to_domain()).det()
    return vs.poly({tuple(map(add, e, shift)): int(c) for e, c in dict(det).items()})


VS0 = VariableSet([])
VS1 = VariableSet(["x"])


@st.composite
def sparse_laurent_matrices(draw, max_size=6):
    """Square matrices of size 0..max_size over 0, 1 or 3 variables: sparse
    entries with negative exponents and zeros, sometimes an all-zero row,
    and sometimes a lower row that is a monomial multiple of another, so
    that every minor on both rows cancels to zero."""
    vs = draw(st.sampled_from([VS0, VS1, VS3]))
    size = draw(st.integers(0, max_size))
    entry = poly_strategy(vs, max_terms=3, max_exp=3, max_coeff=5)
    rows = [[draw(entry) for _ in range(size)] for _ in range(size)]
    if size >= 3 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(1, size - 1), min_size=2, max_size=2, unique=True))
        unit = vs.poly({tuple(draw(st.integers(-2, 2)) for _ in range(len(vs))): draw(st.sampled_from([1, -1]))})
        rows[j] = [p * unit for p in rows[i]]
    if size and draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, size - 1))] = [vs.zero()] * size
    return rows, vs


@given(sparse_laurent_matrices())
def test_det_matches_the_tuple_keyed_expansion(case):
    rows, vs = case
    assert TuplePoly.of(det_cofactor(rows, vs)) == _det_reference(rows, vs)


@settings(max_examples=25)
@given(sparse_laurent_matrices())
def test_det_agrees_with_sympy(case):
    pytest.importorskip("sympy")
    rows, vs = case
    assert det_cofactor(rows, vs) == _sympy_det(rows, vs)


def test_det_with_cancelling_minors_and_zero_rows():
    x, y = VS2.gens()
    top = [x + y, x ** -1, 2 * y ** 3, x * y - 1]
    row = [y - 1, x ** 2, y ** -2, 3 * x]
    zero = VS2.zero()
    # rows 2 and 3 are monomial multiples of row 1: every minor on two of them is 0
    scaled = [p * x * y ** -1 for p in row]
    assert det_cofactor([top, row, scaled, [p * -x for p in row]], VS2) == zero
    assert det_cofactor([top, row, [zero] * 4, scaled], VS2) == zero
    # a partial cancellation: the last two rows' minors vanish on columns 0 and 1 only
    rows = [top, [x + y, x ** -1, y, zero], [y, x, zero, x ** 2], [y, x, y ** 2, x]]
    assert TuplePoly.of(det_cofactor(rows, VS2)) == _det_reference(rows, VS2)


@pytest.mark.parametrize(
    "s, fbytes",
    # each row's exponents reach s in x and the width is set by the three
    # rows' sum, 3s; past one byte, a single row's bound would fit the next
    # narrower width
    [(40, 1), (50, 2), (2 ** 14, 3), (2 ** 30, 5), (2 ** 62, 9), (2 ** 70, 10)],
)
def test_det_field_widths(s, fbytes):
    x, y = VS2.gens()
    rows = [
        [x ** s + y, 2 * x ** -s - y ** -1, x ** s * y],
        [3 * x ** -s, x ** s - x ** -s * y, y - 1],
        [x ** s * y ** 2 - 1, x ** -s, 5 * x ** s + x ** -s],
    ]
    det = det_cofactor(rows, VS2)
    assert det.fbytes == fbytes
    assert TuplePoly.of(det) == _det_reference(rows, VS2)
    assert {e[0] for e in det.tuple_terms()} >= {3 * s, -3 * s}


def test_det_rejects_a_variable_set_other_than_the_entries():
    a = VariableSet(["a"]).gen("a")
    b = VariableSet(["b"]).gen("b")
    for det in (det_cofactor, det_bareiss):
        with pytest.raises(VariableMismatchError):
            det([[a]], VariableSet(["b"]))
        assert det([[a]], VariableSet(["a"])) == a
    # mixed sets inside one matrix, with or without an explicit set
    mixed = [[a, a], [b, a]]
    for det in (det_cofactor, det_bareiss):
        with pytest.raises(VariableMismatchError):
            det(mixed)
        with pytest.raises(VariableMismatchError):
            det(mixed, a.vars)
    with pytest.raises(VariableMismatchError):
        det_cofactor([[a, a], [b.vars.zero(), a]])


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
        [(one, x + y), (x, one)],
        [(one, one), (one, x + y)],
    ]
    # 1/(x+y) * 1/(x+y) - x = (1 - x(x+y)^2) / (x+y)^2, each row over x + y
    assert det_rational(rows) == (one - x * (x + y) ** 2, (x + y) ** 2)


def test_det_rational_polynomial_entries_and_transpose():
    vs = VariableSet(["x1"])
    x = vs.gen("x1")
    one = vs.one()
    rows = [
        [(one, x), (x, one)],
        [(one, one), (x, one)],
    ]
    num, den = det_rational(rows)
    assert (num, den) == (x - x * x, x)  # (1 - x) / 1, not reduced
    assert det_rational([[rows[j][i] for j in range(2)] for i in range(2)]) == (num, den)


def test_det_rational_zero_numerator_adds_no_denominator():
    vs = VariableSet(["x1", "y1"])
    x, y = vs.gens()
    one = vs.one()
    rows = [
        [(vs.zero(), x + y), (x, one)],
        [(one, x - y), (one, x - y)],
    ]
    assert det_rational(rows) == (-x, x - y)


def test_det_rational_rejects_bad_matrices():
    vs = VariableSet(["x1"])
    x, one = vs.gen("x1"), vs.one()
    with pytest.raises(AlgebraError, match="0x0"):
        det_rational([])
    with pytest.raises(AlgebraError, match="not square"):
        det_rational([[(x, one), (one, one)]])
    with pytest.raises(AlgebraError, match="not square"):
        det_rational([[]])
    for det in (det_cofactor, det_bareiss):
        for rows in ([[]], [[], []], [[x, one]]):
            with pytest.raises(AlgebraError, match="not square"):
                det(rows, vs)
    with pytest.raises(AlgebraError, match="zero denominator"):
        det_rational([[(x, vs.zero())]])


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


# Coefficients of every sign, past 64 bits too.
WIDE_COEFFICIENTS = st.one_of(st.integers(-9, 9), st.sampled_from([2**64, -(2**64), 2**64 + 1, -(2**70) - 3]))


def _same_json(vs, terms):
    """to_json of the polynomial against the dict the format is defined by,
    built term by term from the exponent tuples it was made from, and back."""
    p = vs.poly(terms)
    want = json.dumps(TuplePoly(vs, terms).to_json_dict(), separators=(",", ":"))
    assert p.to_json() == want
    assert LaurentPolynomial.from_json_dict(json.loads(p.to_json())) == p


json_cases = st.sampled_from([VS0, VS1, VS3]).flatmap(
    lambda vs: st.tuples(st.just(vs), boundary_terms(vs, 5, WIDE_COEFFICIENTS))
)


@given(json_cases)
def test_to_json_matches_the_dict_reference(case):
    _same_json(*case)


def test_to_json_edges():
    # the zero polynomial, constants, no variables, and one polynomial per
    # field width, the exact byte count of its bound: 1, 2, 3, 5 and 9 bytes
    for vs in (VS0, VS1, VS3):
        _same_json(vs, {})
        _same_json(vs, {(0,) * len(vs): -5})
        _same_json(vs, {(0,) * len(vs): 2**64 + 1})
    widths = set()
    for bound in (3, 2**7, 2**15, 2**31, 2**63, 2**70):
        terms = {(bound, -bound, 0): -(2**64), (-1, 0, 2): 7, (0, 0, 0): -1}
        widths.add(VS3.poly(terms).fbytes)
        _same_json(VS3, terms)
    assert widths == {1, 2, 3, 5, 9}
    assert VS3.zero().to_json() == '{"vars":["a","b","c"],"terms":[]}'
    assert VS1.poly({(-2,): -3}).to_json() == '{"vars":["x"],"terms":[{"c":"-3","e":[-2]}]}'


def test_hash_consistent_with_equality():
    p = VS2.poly({(1, -1): 2, (0, 0): 1})
    q = VS2.poly({(0, 0): 1, (1, -1): 2})
    assert p == q and hash(p) == hash(q)
