"""Identity verifiers: printed examples, failure detection, suite determinism."""

import json
from collections import Counter
from itertools import groupby

import pytest

from ospchar.algebra import VariableSet
from ospchar.symfun import Partition
from ospchar import characters, identities
from ospchar.identities import (
    IDENTITIES,
    VerificationReport,
    compare,
    first_difference,
    run_check,
    run_suite,
    verify_beta_complement,
    verify_bkw_general,
    verify_bkw_original,
    verify_cauchy_binet,
    verify_golden,
    verify_hook_methods,
    verify_kernel_det,
    verify_odd_denominator,
    verify_odd_methods,
    verify_odd_ortho_specialization,
    verify_ortho_methods,
    verify_power_product,
    verify_specialization_reduction,
    verify_supersymmetry,
    verify_symplectic_denominator,
    verify_symplectic_methods,
)
from ospchar import tableaux


def test_supersymmetry_examples():
    assert verify_supersymmetry(Partition([2, 1]), 2, 1).passed
    assert verify_supersymmetry(Partition(), 1, 1).passed
    assert verify_supersymmetry(Partition([1]), 1, 1).passed


def test_power_product_examples():
    assert verify_power_product(1, 0).passed
    assert verify_power_product(2, 3).passed
    assert verify_power_product(3, 5).passed
    with pytest.raises(ValueError):
        verify_power_product(0, 1)  # no variables: nothing to check


def test_beta_complement_examples():
    assert verify_beta_complement(Partition(), 2, 2).passed
    assert verify_beta_complement(Partition([3, 2, 2]), 3, 3).passed
    assert verify_beta_complement(Partition([1]), 1, 1).passed
    with pytest.raises(ValueError):
        verify_beta_complement(Partition([2]), 1, 1)


def test_beta_complement_failure_shows_a_doubled_value(monkeypatch):
    # with lam' = lam, lam = (2) in the 1 x 2 box gives the values {2} and
    # {-1, 2}: 2 is hit twice, 0 and 1 not at all
    monkeypatch.setattr(Partition, "conjugate", lambda self: self)
    rep = verify_beta_complement(Partition([2]), 1, 2)
    assert rep.status == "fail"
    assert rep.witness["first_diff"] == "q^2: 2 vs 1"


def test_cauchy_binet_examples():
    assert verify_cauchy_binet(2, 2, seed=5).passed  # square case
    assert verify_cauchy_binet(1, 3, seed=5).passed
    assert verify_cauchy_binet(2, 4, seed=5).passed
    rep = verify_cauchy_binet(2, 3, seed=9)
    assert rep.note and "seed=9" in rep.note


def test_specialization_reduction_examples():
    for n in (1, 2):
        for r in (1, 2, 3):
            for variant in ("sp", "spo"):
                assert verify_specialization_reduction(Partition([r]), n, r, variant).passed
                assert verify_specialization_reduction(Partition([r - 1]), n, r, variant).passed
    assert verify_specialization_reduction(Partition(), 1, 0, "sp").passed
    assert verify_specialization_reduction(Partition(), 1, 0, "spo").passed


def test_specialization_reduction_domain_messages():
    # the length rule is the routes' guard, with the CLI's message; only
    # lam_1 <= r is this identity's own
    with pytest.raises(ValueError) as exc:
        verify_specialization_reduction(Partition([1, 1]), 1, 1, "sp")
    assert str(exc.value) == "partition (1, 1) is longer than n=1"
    with pytest.raises(ValueError) as exc:
        verify_specialization_reduction(Partition([2]), 1, 1, "spo")
    assert str(exc.value) == "needs lam_1 <= r"


def test_kernel_det_examples():
    assert verify_kernel_det(1, "q").passed
    assert verify_kernel_det(1, "p").passed
    with pytest.raises(ValueError):
        verify_kernel_det(1, "x")


def test_kernel_det_variable_order(monkeypatch):
    # x, y, a, b, then z and c: the order of every monomial in a witness
    seen = []
    real = identities.compare

    def record(identity, params, left, right, note=None):
        seen.append(left.vars.names)
        return real(identity, params, left, right, note)

    monkeypatch.setattr(identities, "compare", record)
    assert verify_kernel_det(2, "p").passed
    assert seen == [("x1", "x2", "y1", "y2", "a1", "a2", "b1", "b2", "z", "c")]


def test_kernel_det_detects_a_sign_flip(monkeypatch):
    real = identities._kernel_numerator
    # only the kernel side flips: det V does not use the kernel entries
    monkeypatch.setattr(identities, "_kernel_numerator", lambda *args: -real(*args))
    for variant in ("p", "q"):
        rep = verify_kernel_det(1, variant)
        assert rep.status == "fail"
        assert set(rep.witness) == {"left", "right", "first_diff"}
        assert rep.witness["first_diff"]
        assert rep.witness["left"] != rep.witness["right"]


def test_bkw_examples():
    assert verify_bkw_general(1, 1, 0).passed
    assert verify_bkw_general(1, 1, 1).passed
    rep0 = verify_bkw_general(1, 2, 0)
    assert rep0.passed and rep0.note  # negative-part labels skipped, noted
    assert verify_bkw_original(1, 1, 0).passed
    assert verify_bkw_original(1, 1, 1).passed
    with pytest.raises(ValueError):
        verify_bkw_general(2, 1, 1)


def test_method_agreement_spot_checks():
    assert verify_ortho_methods(Partition([2, 1]), 2, 1).passed
    assert verify_hook_methods(Partition([2, 1]), 2, 1).passed
    assert verify_symplectic_methods(Partition([2]), 2).passed
    assert verify_odd_methods(Partition([2]), 2).passed
    assert verify_odd_ortho_specialization(Partition([2, 1]), 2).passed
    assert verify_symplectic_denominator(3).passed
    assert verify_odd_denominator(3).passed


@pytest.mark.parametrize(
    "identity, route, method, params",
    [
        ("ortho_methods", "ortho_det_laurent", "det_equiv", {"lam": Partition([2, 1]), "n": 2, "m": 1}),
        ("hook_methods", "hook_schur_det", "det", {"lam": Partition([2, 1]), "n": 2, "m": 1}),
        ("symplectic_methods", "symplectic_weyl", "weyl", {"lam": Partition([2]), "n": 2}),
        ("odd_methods", "odd_symplectic_det", "okada", {"lam": Partition([2]), "n": 2}),
    ],
)
def test_method_agreement_failure_names_its_route(monkeypatch, identity, route, method, params):
    real = getattr(identities, route)
    monkeypatch.setattr(identities, route, lambda *args: real(*args) + 1)
    (rep,) = run_check(identity, params)
    assert rep.status == "fail"
    assert rep.witness["method"] == method
    assert rep.witness["first_diff"].startswith("1: ")


def test_supersymmetry_failure_shows_a_t_monomial(monkeypatch):
    real = identities.hook_schur_jt
    monkeypatch.setattr(identities, "hook_schur_jt", lambda lam, xs, ys: real(lam, xs, ys) + xs[-1].vars.gen("t"))
    rep = verify_supersymmetry(Partition([2, 1]), 2, 1)
    assert rep.status == "fail"
    assert rep.witness["first_diff"] == "t: 1 vs 0"


def test_specialization_reduction_failure_shows_a_negative_power(monkeypatch):
    real = identities.symplectic_weyl
    monkeypatch.setattr(identities, "symplectic_weyl", lambda lam, xs: real(lam, xs) * xs[0] ** -5)
    rep = verify_specialization_reduction(Partition([1]), 2, 1, "sp")
    assert rep.status == "fail"
    monomial, counts = rep.witness["first_diff"].split(": ")
    assert "x1^-" in monomial and counts.endswith(" vs 0")


def test_golden_examples():
    reports = verify_golden()
    assert len(reports) == 4
    assert all(r.passed for r in reports)


def test_corrupted_formula_is_detected():
    # flip the sign of one term of a correct value and compare
    base = tableaux.orthosymplectic_weight_sum(Partition([2]), 1, 2)
    mono = next(iter(base.sorted_terms()))[0]
    corrupted = base - 2 * base.vars.poly({mono: base.tuple_terms()[mono]})
    rep = compare("corrupted_demo", {"lambda": "2", "n": 1, "m": 2}, base, corrupted)
    assert not rep.passed
    assert rep.witness["first_diff"]
    assert rep.witness["left"] != rep.witness["right"]
    assert first_difference(base, corrupted) is not None
    assert first_difference(base, base) is None


def test_first_difference_names_the_largest_monomial_in_graded_lex_order():
    vs = VariableSet(["x1", "x2"])
    x1, x2 = vs.gens()
    # equal total degree: the larger exponent vector wins
    assert first_difference(x1 ** 2, x2 ** 2) == "x1^2: 1 vs 0"
    # a higher total degree beats a larger exponent vector
    assert first_difference(3 * x1 ** 2, x1 * x2 ** 2) == "x1*x2^2: 0 vs 1"


def test_report_json_schema():
    rep = verify_power_product(1, 1)
    blob = rep.to_json_dict()
    assert set(blob) <= {"identity", "params", "status", "witness", "note"}
    assert blob["status"] == "pass"
    failing = compare("demo", {"n": 1}, tableaux.symplectic_weight_sum(Partition([1]), 1), tableaux.symplectic_weight_sum(Partition([1]), 1) * 2)
    blob = failing.to_json_dict()
    assert set(blob["witness"]) == {"left", "right", "first_diff"}


def test_run_suite_small_grid_passes_and_is_deterministic():
    first = run_suite(1, 1, 2)
    second = run_suite(1, 1, 2)
    assert all(r.passed for r in first)
    assert [r.to_json_dict() for r in first] == [r.to_json_dict() for r in second]


SUITE_2_2_4_COUNTS = {
    "ortho_methods": 28,
    "hook_methods": 47,
    "symplectic_methods": 14,
    "odd_methods": 14,
    "odd_ortho_specialization": 9,
    "supersymmetry": 47,
    "symplectic_denominator": 2,
    "odd_denominator": 2,
    "power_product": 10,
    "beta_complement": 6,
    "cauchy_binet": 7,
    "specialization_reduction": 60,
    "kernel_det": 4,
    "bkw_general": 9,
    "bkw_original": 6,
    "golden": 4,
}


def test_run_suite_medium_grid_passes():
    reports = run_suite(2, 2, 4)
    assert all(r.passed for r in reports)
    assert Counter(r.identity for r in reports) == SUITE_2_2_4_COUNTS and len(reports) == 269
    # grouped by identity, in registry order
    assert [name for name, _ in groupby(r.identity for r in reports)] == list(IDENTITIES)


def test_run_suite_covers_the_registry():
    assert {r.identity for r in run_suite(2, 2, 2)} == set(IDENTITIES)


def test_run_check_turns_a_computation_error_into_a_report(monkeypatch):
    real = characters.symplectic_reduced_denominator
    monkeypatch.setattr(characters, "symplectic_reduced_denominator", lambda zs: real(zs) + 1)
    (rep,) = run_check("symplectic_methods", {"lam": Partition([1]), "n": 2})
    assert rep.status == "error" and not rep.passed
    assert rep.params == {"lambda": "1", "n": 2}
    assert rep.witness["exception"] == "RuntimeError"
    assert "denominator does not match its product form" in rep.witness["message"]
    assert str(rep).startswith("ERROR symplectic_methods lambda=1 n=2  [error: RuntimeError: ")
    assert set(rep.to_json_dict()["witness"]) == {"exception", "message"}
    with pytest.raises(ValueError):
        run_check("power_product", {"n": 0, "l": 1})


def test_run_suite_desk_scale_passes():
    reports = run_suite(3, 3, 6)
    bad = [r for r in reports if not r.passed]
    assert not bad, bad[:3]


def test_run_suite_sweeps_n_4():
    """run_suite(4, 3, 6): every identity at n <= 4, m <= 3 and |lam| <= 6,
    1,132 reports; about 7 s of CPU on a shared 2-vCPU Xeon (Python 3.11)."""
    reports = run_suite(4, 3, 6)
    bad = [r for r in reports if not r.passed]
    assert not bad, bad[:3]
    assert len(reports) == 1132


def test_run_suite_rejects_bad_bounds():
    with pytest.raises(ValueError):
        run_suite(0, 1, 1)
