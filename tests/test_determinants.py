"""Differential checks of the determinant kernel on the matrices the routes build.

Each case runs one route with det_cofactor wrapped so that every polynomial
matrix it evaluates is recorded; each recorded matrix is then re-evaluated by
Bareiss elimination and, when sympy is installed, by sympy as a third oracle.
The bordered routes build their rows already cleared of denominators, so the
rational-entry statement of both theorems is checked here separately.
"""

import pytest

from ospchar import characters, identities
from ospchar.algebra import det_bareiss, det_cofactor, det_rational
from ospchar.characters import CharacterRequest, _prod, standard_x, standard_xy
from ospchar.symfun import Partition, k_index


def _recorded_matrices(monkeypatch, module, call):
    seen = []
    real = module.det_cofactor

    def record(rows, vars=None):
        seen.append(([list(row) for row in rows], vars))
        return real(rows, vars)

    with monkeypatch.context() as patch:
        patch.setattr(module, "det_cofactor", record)
        call()
    assert seen, "the route evaluated no determinant"
    return seen


ROUTE_CASES = {
    "ortho_jt n=m=2 lambda=3,1": (
        characters,
        lambda: characters.ortho_jt(Partition([3, 1]), *standard_xy(2, 2)[1:]),
    ),
    "ortho_det_laurent n=1 m=2 lambda=2": (
        characters,
        lambda: characters.ortho_det_laurent(Partition([2]), *standard_xy(1, 2)[1:]),
    ),
    "ortho_det_rational n=1 m=2 lambda=2": (
        characters,
        lambda: characters.ortho_det_rational(Partition([2]), *standard_xy(1, 2)[1:]),
    ),
    "hook_schur_det n=2 m=1 lambda=2,1": (
        characters,
        lambda: characters.hook_schur_det(Partition([2, 1]), *standard_xy(2, 1)[1:]),
    ),
    "kernel_det vrows n=1 p": (identities, lambda: identities.verify_kernel_det(1, "p")),
    "kernel_det vrows n=1 q": (identities, lambda: identities.verify_kernel_det(1, "q")),
    "schur_bialternant n=3 lambda=2,1": (
        characters,
        lambda: characters.schur_bialternant(Partition([2, 1]), standard_x(3)[1]),
    ),
}


def _to_sympy(p, sympy):
    """p as a sympy expression, 1/x written as x**-1."""
    syms = [sympy.Symbol(name) for name in p.vars.names]
    return sympy.Add(
        *[c * sympy.Mul(*[s ** e for s, e in zip(syms, exps)]) for exps, c in p.terms.items()]
    )


def _terms(expr, sympy):
    return dict(sympy.expand(expr).as_coefficients_dict())


@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
def test_route_matrices_cofactor_equals_bareiss(monkeypatch, case):
    module, call = ROUTE_CASES[case]
    for rows, vs in _recorded_matrices(monkeypatch, module, call):
        assert det_cofactor(rows, vs) == det_bareiss(rows, vs)


@pytest.mark.parametrize("case", sorted(ROUTE_CASES))
def test_route_matrices_agree_with_sympy(monkeypatch, case):
    sympy = pytest.importorskip("sympy")
    module, call = ROUTE_CASES[case]
    for rows, vs in _recorded_matrices(monkeypatch, module, call):
        matrix = sympy.Matrix([[_to_sympy(p, sympy) for p in row] for row in rows])
        oracle = _terms(matrix.det(method="berkowitz"), sympy)
        assert _terms(_to_sympy(det_cofactor(rows, vs), sympy), sympy) == oracle
        assert _terms(_to_sympy(det_bareiss(rows, vs), sympy), sympy) == oracle


def _delta(vs, zs):
    return _prod(vs, (zs[i] - zs[j] for i in range(len(zs)) for j in range(i + 1, len(zs))))


def _fraction_sum(f, g):
    """f + g for (numerator, denominator) pairs, over the product denominator."""
    return f[0] * g[1] + g[0] * f[1], f[1] * g[1]


def _lower_border(lam, n, ys, k):
    """The y-power rows shared by both bordered matrices, as rational entries."""
    m, lamc, vs = len(ys), lam.conjugate(), ys[0].vars
    return [
        [(y ** (lamc.part(i) + m - n - i), vs.one()) for y in ys] + [(vs.zero(), vs.one())] * (k - 1)
        for i in range(1, m - n + k)
    ]


def _hook_rational_matrix(lam, xs, ys):
    """Cauchy block 1/(x_i + y_j), x-power border, y-power border."""
    n, m, k = len(xs), len(ys), k_index(lam, len(xs), len(ys))
    one = xs[0].vars.one()
    main = [
        [(one, x + y) for y in ys]
        + [(x ** (lam.part(j) + n - m - j), one) for j in range(1, k)]
        for x in xs
    ]
    return main + _lower_border(lam, n, ys, k)


def _ortho_rational_matrix(lam, xs, ys):
    """Entries x/((x+y_j) prod(1/x+y)) - (1/x)/((1/x+y_j) prod(x+y)) and
    border x^e/prod(1/x+y) - x^-e/prod(x+y), each a sum of two fractions."""
    n, m, k = len(xs), len(ys), k_index(lam, len(xs), len(ys))
    vs = xs[0].vars
    main = []
    for x in xs:
        xb = x.inverse()
        p, q = _prod(vs, (x + y for y in ys)), _prod(vs, (xb + y for y in ys))
        row = [_fraction_sum((x, (x + y) * q), (-xb, (xb + y) * p)) for y in ys]
        for j in range(1, k):
            e = lam.part(j) + n - m - j + 1
            row.append(_fraction_sum((x ** e, q), (-(xb ** e), p)))
        main.append(row)
    return main + _lower_border(lam, n, ys, k)


RATIONAL_CASES = [
    ("hook", 1, 1, (2,)),
    ("hook", 2, 1, (2, 1, 1)),
    ("hook", 1, 2, (1, 1)),
    ("hook", 2, 2, (3, 1)),
    ("orthosymplectic", 1, 1, (2,)),
    ("orthosymplectic", 1, 2, (2,)),
    ("orthosymplectic", 2, 1, (1, 1)),
    ("orthosymplectic", 2, 2, (2, 1)),
]


@pytest.mark.parametrize("family, n, m, parts", RATIONAL_CASES)
def test_bordered_routes_satisfy_the_rational_determinant_statement(family, n, m, parts):
    """det of the rational-entry matrix == sign * value * D_num / D_den."""
    lam = Partition(list(parts))
    vs, xs, ys = standard_xy(n, m)
    k = k_index(lam, n, m)
    sign = -1 if (m * n - n + k - 1) % 2 else 1
    if family == "hook":
        rows = _hook_rational_matrix(lam, xs, ys)
        value = characters.hook_schur_det(lam, xs, ys)
        dnum = _delta(vs, xs) * _delta(vs, ys)
        dden = _prod(vs, (x + y for x in xs for y in ys))
    else:
        rows = _ortho_rational_matrix(lam, xs, ys)
        value = characters.ortho_det_rational(lam, xs, ys)
        dnum = characters.symplectic_denominator_product(xs) * _delta(vs, ys)
        dden = _prod(vs, ((x + y) * (x.inverse() + y) for x in xs for y in ys))
    num, den = det_rational(rows)
    assert num * dden == sign * value * dnum * den


def test_hook_jt_large_alphabet_matches_det_route():
    lam = Partition([6, 2, 1, 1, 1])
    jt = CharacterRequest("hook", "jt", lam, 3, 3).compute()
    assert jt == CharacterRequest("hook", "det", lam, 3, 3).compute()
