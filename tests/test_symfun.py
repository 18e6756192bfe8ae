"""Partitions and symmetric-function generators."""

import itertools

import pytest
from hypothesis import given, strategies as st

from ospchar import characters
from ospchar.algebra import AlgebraError, VariableSet, substitute_reciprocal_sums
from ospchar.symfun import (
    Partition,
    box_partitions,
    complete_table,
    jseries_table,
    k_index,
    partitions_up_to,
    skew_schur_jt,
    subpartitions,
    super_complete,
)
from ospchar.characters import standard_x, standard_xy


partitions_small = st.builds(
    Partition,
    st.lists(st.integers(0, 4), min_size=0, max_size=4).map(
        lambda xs: sorted(xs, reverse=True)
    ),
)


# -- partitions -----------------------------------------------------------


def test_conjugate_examples():
    assert Partition([3, 2, 2]).conjugate() == Partition([3, 3, 1])
    assert Partition().conjugate() == Partition()
    assert Partition([1, 1, 1]).conjugate() == Partition([3])


@given(partitions_small)
def test_conjugate_involution(lam):
    assert lam.conjugate().conjugate() == lam


def test_trailing_zeros_trimmed():
    assert Partition([3, 2, 0, 0]) == Partition([3, 2])
    assert Partition([3, 2, 0, 0]).length == 2


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([-1])


def test_partition_parsing():
    assert Partition.from_string("3,2,2") == Partition([3, 2, 2])
    assert Partition.from_string("") == Partition()
    assert Partition([4, 1]).to_string() == "4,1"


def test_subpartitions_and_boxes():
    inside = list(subpartitions(Partition([2, 1])))
    assert Partition([2, 1]) in inside and Partition() in inside
    assert len(inside) == 5  # (), (1), (2), (1,1), (2,1)
    box = list(box_partitions(2, 2))
    assert len(box) == 6
    assert all(p.length <= 2 and p.part(1) <= 2 for p in box)


def test_partition_enumeration_is_deterministic():
    a = [p.parts for p in partitions_up_to(5, max_length=3)]
    b = [p.parts for p in partitions_up_to(5, max_length=3)]
    assert a == b
    assert len(set(a)) == len(a)


# -- elementary and complete ------------------------------------------------


def test_elementary_examples():
    vs, xs = standard_x(3)
    assert super_complete(1, (), xs) == xs[0] + xs[1] + xs[2]
    assert super_complete(-1, (), xs).is_zero()
    vs2, xs2 = standard_x(2)
    assert super_complete(2, (), xs2) == xs2[0] * xs2[1]
    assert super_complete(3, (), xs2).is_zero()
    assert super_complete(0, (), xs2) == vs2.one()


def test_complete_examples():
    vs, xs = standard_x(2)
    x1, x2 = xs
    assert super_complete(2, xs, ()) == x1 ** 2 + x1 * x2 + x2 ** 2
    assert super_complete(0, xs, ()) == vs.one()
    assert super_complete(-2, xs, ()).is_zero()


def test_complete_three_variables_by_enumeration():
    # independent oracle: sum x_i x_j over weakly increasing index pairs
    vs = VariableSet(["y1", "y2", "y3"])
    ys = vs.gens()
    expected = vs.zero()
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        expected = expected + ys[i] * ys[j]
    assert super_complete(2, ys, ()) == expected
    assert len(super_complete(2, ys, ()).terms) == 6


@given(st.integers(1, 3))
def test_generating_function_inverse_pair(n):
    # sum_r e_r t^r times sum_r h_r (-t)^r = 1, truncated at degree 6
    vs, xs = standard_x(n)
    for degree in range(1, 7):
        acc = vs.zero()
        for r in range(degree + 1):
            sign = -1 if (degree - r) % 2 else 1
            acc = acc + sign * super_complete(r, (), xs, vs) * super_complete(degree - r, xs, (), vs)
        assert acc.is_zero()


# -- supersymmetric generators ------------------------------------------------


def test_super_first_order():
    vs, xs, ys = standard_xy(2, 2)
    linear = xs[0] + xs[1] + ys[0] + ys[1]
    assert super_complete(1, xs, ys) == linear
    assert super_complete(0, xs, ys) == vs.one()
    assert super_complete(-1, xs, ys).is_zero()


def test_super_complete_expansion():
    # H_2((x1);(y1)) = h_2(x1) + h_1(x1) e_1(y1) + e_2(y1) = x1^2 + x1 y1
    vs, xs, ys = standard_xy(1, 1)
    x, y = xs[0], ys[0]
    assert super_complete(2, xs, ys) == x ** 2 + x * y


@given(st.integers(0, 5))
def test_super_h_e_swap_symmetry(r):
    vs, xs, ys = standard_xy(2, 2)
    # H_r(X;Y) = E_r(Y;X) = sum_j e_j(Y) h_{r-j}(X)
    swapped = vs.zero()
    for j in range(r + 1):
        swapped = swapped + super_complete(j, (), ys) * super_complete(r - j, xs, ())
    assert super_complete(r, xs, ys) == swapped


# -- the letter recurrence against the separate generators it replaced ---------


def _reference_elementary(r, letters, vars=None):
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


def _reference_complete(r, letters, vars=None):
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


def _reference_complete_table(rmax, letters, vars=None):
    vs = letters[0].vars if letters else vars
    if vs is None:
        raise AlgebraError("empty letter list needs an explicit variable set")
    table = [vs.one()] + [vs.zero()] * rmax
    for x in letters:
        for s in range(1, rmax + 1):
            table[s] = table[s] + x * table[s - 1]
    return table


def _reference_super_complete(r, xs, ys, vars=None):
    vs = xs[0].vars if xs else (ys[0].vars if ys else vars)
    if vs is None:
        raise AlgebraError("need at least one letter or an explicit variable set")
    if r < 0:
        return vs.zero()
    hx = _reference_complete_table(r, xs, vs)
    total = vs.zero()
    for j in range(max(0, r - len(ys)), r + 1):
        total = total + hx[j] * _reference_elementary(r - j, ys, vs)
    return total


def _reference_jseries_table(rmax, xs, ys, vars=None):
    """The J table in the x-letters themselves: h over X and 1/X, times e(Y)."""
    vs = xs[0].vars if xs else (ys[0].vars if ys else vars)
    if vs is None:
        raise AlgebraError("need at least one letter or an explicit variable set")
    letters = list(xs) + [x.inverse() for x in xs]
    hbar = _reference_complete_table(rmax, letters, vs)
    ey = [_reference_elementary(p, ys, vs) for p in range(min(rmax, len(ys)) + 1)]
    table = []
    for r in range(rmax + 1):
        total = vs.zero()
        for p in range(0, min(r, len(ys)) + 1):
            total = total + hbar[r - p] * ey[p]
        table.append(total)
    return table


def _letter_lists():
    """Letter lists for x and for y: unit monomials with inverses, negated
    letters such as -t, repeated letters, and the empty list."""
    vs = VariableSet(["x1", "x2", "y1", "y2", "t"])
    x1, x2, y1, y2, t = vs.gens()
    xs = [[], [x1], [x1, x2], [x1, x1.inverse()], [x2, -t], [x1, x2, t], [x1, x1]]
    ys = [[], [y1], [y1, -t], [y1, y2, -t], [y1.inverse(), y1], [-t, -t]]
    return vs, xs, ys


def _in_z(vs, x, y):
    """The z-letters standing for the pairs x_i, 1/x_i of ``x``, over vs and
    one z-letter per x-letter; y lifted there; and the map back to vs."""
    ext, zs, lift = characters._z_alphabet(vs, len(x))
    return ext, zs, [lift(b) for b in y], lambda p: substitute_reciprocal_sums(p, vs, x)


def test_letter_recurrence_matches_the_reference_generators():
    vs, xs, ys = _letter_lists()
    for rmax in range(-2, 7):
        for letters in xs + ys:
            assert super_complete(rmax, (), letters, vs) == _reference_elementary(rmax, letters, vs)
            assert super_complete(rmax, letters, (), vs) == _reference_complete(rmax, letters, vs)
        for x in xs:
            for y in ys:
                assert super_complete(rmax, x, y, vs) == _reference_super_complete(rmax, x, y, vs)
                want = [_reference_super_complete(r, x, y, vs) for r in range(rmax + 1)]
                assert complete_table(rmax, x, vs, ys=y) == want


def test_z_letters_match_the_x_world_j_table():
    # one z-letter z = x + 1/x multiplies the series by 1/(1 - z t + t^2),
    # as the pair x, 1/x does; the letters cover -t, inverses and repeats
    vs, xs, ys = _letter_lists()
    for rmax in range(-2, 7):
        for x in xs:
            for y in ys:
                ext, zs, lifted, back = _in_z(vs, x, y)
                got = [back(p) for p in jseries_table(rmax, zs, lifted, ext)]
                assert got == _reference_jseries_table(rmax, x, y, vs), (rmax, x, y)
                # z-letters next to x-letters: y's letters also taken as x-letters
                mixed = complete_table(rmax, lifted, ext, zs=zs, ys=lifted)
                assert [back(p) for p in mixed] == complete_table(rmax, y + x + [a.inverse() for a in x], vs, ys=y)


def test_letter_recurrence_needs_a_variable_set():
    # With no letter to take it from, the set must be given, as before.
    for view in (super_complete, jseries_table, lambda r, xs, ys: complete_table(r, xs, ys=ys)):
        with pytest.raises(AlgebraError):
            view(1, [], [])


# -- Laurent complete and J-series ---------------------------------------------


def test_laurent_complete_examples():
    vs, xs = standard_x(1)
    x = xs[0]
    letters = [x, x.inverse()]
    assert super_complete(1, letters, ()) == x + x.inverse()
    assert super_complete(2, letters, ()) == x ** 2 + vs.one() + x ** -2
    assert super_complete(-1, letters, ()).is_zero()


def test_jseries_examples():
    # in the z-letter z = x + 1/x: h_1(x, 1/x) = z, h_2(x, 1/x) = z^2 - 1
    vs, _, ys, z = standard_xy(0, 1, "z")
    y = ys[0]
    assert jseries_table(1, [z], ys) == [vs.one(), z + y]
    assert jseries_table(2, [z], ys) == [vs.one(), z + y, z * z - 1 + z * y]
    assert jseries_table(0, [z], ys) == [vs.one()]
    assert jseries_table(-3, [z], ys) == []
    # mapped back, J_1 = x + 1/x + y
    vs, xs, ys = standard_xy(1, 1)
    ext, zs, lifted, back = _in_z(vs, xs, ys)
    assert [back(p) for p in jseries_table(1, zs, lifted)] == [vs.one(), xs[0] + xs[0].inverse() + ys[0]]


# -- the standard alphabet -------------------------------------------------------


def test_standard_xy_puts_extra_letters_after_y():
    vs, xs, ys, t = standard_xy(2, 1, "t")
    assert vs.names == ("x1", "x2", "y1", "t")
    assert [g.to_text() for g in xs + ys + [t]] == ["x1", "x2", "y1", "t"]
    assert len(standard_xy(2, 1)) == 3
    vs, xs, ys, z, c = standard_xy(1, 0, "z", "c")
    assert vs.names == ("x1", "z", "c") and ys == []
    assert [g.to_text() for g in xs + [z, c]] == ["x1", "z", "c"]


# -- skew Schur ------------------------------------------------------------------


def test_skew_schur_examples():
    vs, xs = standard_x(2)
    lam = Partition([2, 1])
    assert skew_schur_jt(lam, lam, xs) == vs.one()
    assert skew_schur_jt(Partition([1]), Partition(), xs) == xs[0] + xs[1]
    # oracle: the two column-strict fillings 11/2 and 12/2
    assert skew_schur_jt(lam, Partition(), xs) == xs[0] ** 2 * xs[1] + xs[0] * xs[1] ** 2


def test_skew_schur_requires_containment():
    vs, xs = standard_x(2)
    with pytest.raises(ValueError):
        skew_schur_jt(Partition([1]), Partition([2]), xs)


@given(partitions_small, st.sampled_from([(0, 1), (0, 2), (1, 2)]))
def test_schur_symmetric_under_transposition(lam, swap):
    # x_a <-> x_b swaps the exponent columns a and b
    vs, xs = standard_x(3)
    s = skew_schur_jt(lam, Partition(), xs)
    a, b = swap

    def swapped(e):
        e = list(e)
        e[a], e[b] = e[b], e[a]
        return tuple(e)

    assert vs.poly({swapped(e): c for e, c in s.tuple_terms().items()}) == s


# -- the column threshold index ---------------------------------------------------


def test_k_index_examples():
    assert k_index(Partition([2]), 1, 2) == 2
    assert k_index(Partition(), 2, 3) == 1
    assert k_index(Partition(), 3, 3) == 1
    assert k_index(Partition([3, 3]), 2, 1) == 3


@given(partitions_small, st.integers(1, 4))
def test_k_index_weakly_decreasing_in_m(lam, n):
    values = [k_index(lam, n, m) for m in range(1, 6)]
    assert all(a >= b for a, b in zip(values, values[1:]))
