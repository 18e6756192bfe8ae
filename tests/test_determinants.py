"""Differential checks of the determinant kernel on the matrices the routes build.

Each case runs one route with det_cofactor wrapped so that every polynomial
matrix it evaluates is recorded; each recorded matrix is then re-evaluated by
Bareiss elimination and, when sympy is installed, by sympy as a third oracle.
"""

import pytest

from ospchar import characters, identities
from ospchar.algebra import det_bareiss, det_cofactor
from ospchar.characters import CharacterRequest, standard_x, standard_xy
from ospchar.symfun import Partition


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


def test_hook_jt_large_alphabet_matches_det_route():
    lam = Partition([6, 2, 1, 1, 1])
    jt = CharacterRequest("hook", "jt", lam, 3, 3).compute()
    assert jt == CharacterRequest("hook", "det", lam, 3, 3).compute()
