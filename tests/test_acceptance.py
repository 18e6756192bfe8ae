"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all)
and asserts exact equality plus the stated runtime budget.
"""

import time

from ospchar.symfun import Partition, box_partitions, partitions_up_to
from ospchar.characters import (
    hook_schur_det,
    hook_schur_jt,
    odd_symplectic_det,
    ortho_det_laurent,
    ortho_det_rational,
    ortho_jt,
    ortho_sp_schur_sum,
    standard_x,
    standard_xy,
)
from ospchar.identities import (
    verify_beta_complement,
    verify_bkw_general,
    verify_bkw_original,
    verify_cauchy_binet,
    verify_kernel_det,
    verify_odd_denominator,
    verify_odd_ortho_specialization,
    verify_power_product,
    verify_specialization_reduction,
    verify_supersymmetry,
    verify_symplectic_denominator,
)
from ospchar import tableaux


def _finish(name, ok, started, budget, detail=""):
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s of {budget:.0f}s budget){detail}")
    assert ok, f"{name}: exactness failed{detail}"
    assert elapsed < budget, f"{name}: exceeded {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_orthosymplectic_example():
    started = time.time()
    vs, xs, ys = standard_xy(1, 2)
    x1, y1, y2 = xs[0], ys[0], ys[1]
    xb = x1.inverse()
    printed = x1 ** 2 + xb ** 2 + vs.one() + y1 * (x1 + xb) + y2 * (x1 + xb) + y1 * y2
    ok = ortho_det_rational(Partition([2]), xs, ys) == printed
    _finish("1 bordered-determinant example", ok, started, 1.0)


def test_criterion_02_hook_example():
    started = time.time()
    vs, xs, ys = standard_xy(2, 1)
    x1, x2, y1 = xs[0], xs[1], ys[0]
    printed = (
        x1 ** 2 * x2
        + x1 * x2 ** 2
        + x1 ** 2 * y1
        + 2 * x1 * x2 * y1
        + x2 ** 2 * y1
        + x1 * y1 ** 2
        + x2 * y1 ** 2
    )
    lam = Partition([2, 1])
    ok = (
        tableaux.super_weight_sum(lam, 2, 1) == printed
        and hook_schur_jt(lam, xs, ys) == printed
        and hook_schur_det(lam, xs, ys) == printed
    )
    _finish("2 hook example", ok, started, 1.0)


def test_criterion_03_odd_symplectic_example():
    started = time.time()
    vs, xs = standard_x(2)
    x1, x2 = xs
    printed = (
        x1 ** 2 * x2
        + x2
        + x1 * x2 ** 2
        + x1.inverse() ** 2 * x2
        + x1.inverse() * x2 ** 2
    )
    lam = Partition([2, 1])
    ok = (
        tableaux.odd_symplectic_weight_sum(lam, 2) == printed
        and odd_symplectic_det(lam, xs) == printed
    )
    _finish("3 odd symplectic example", ok, started, 1.0)


def test_criterion_04_five_way_orthosymplectic_agreement():
    started = time.time()
    failures = []
    checked = 0
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            vs, xs, ys = standard_xy(n, m)
            # the whole (n, m)-hook; Jacobi-Trudi only where len(lam) <= n
            for lam in partitions_up_to(6):
                if lam.part(n + 1) > m:
                    continue
                checked += 1
                base = tableaux.orthosymplectic_weight_sum(lam, n, m)
                routes = (
                    ("jt", ortho_jt),
                    ("det", ortho_det_rational),
                    ("det_equiv", ortho_det_laurent),
                    ("sp_schur_sum", ortho_sp_schur_sum),
                )
                for name, fn in routes if lam.length <= n else routes[1:]:
                    if fn(lam, xs, ys) != base:
                        failures.append((n, m, lam.parts, name))
    _finish(
        "4 five-way orthosymplectic agreement",
        not failures,
        started,
        300.0,
        f" [{checked} shapes]{failures or ''}",
    )


def test_criterion_05_three_way_hook_agreement():
    started = time.time()
    failures = []
    checked = 0
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            vs, xs, ys = standard_xy(n, m)
            for lam in partitions_up_to(6):
                if lam.part(n + 1) > m:
                    continue
                checked += 1
                base = tableaux.super_weight_sum(lam, n, m)
                if hook_schur_jt(lam, xs, ys) != base:
                    failures.append((n, m, lam.parts, "jt"))
                if hook_schur_det(lam, xs, ys) != base:
                    failures.append((n, m, lam.parts, "det"))
    _finish(
        "5 three-way hook agreement",
        not failures,
        started,
        120.0,
        f" [{checked} shapes]{failures or ''}",
    )


def test_criterion_06_odd_ortho_specialization():
    started = time.time()
    failures = []
    for n in (2, 3):
        for lam in partitions_up_to(5, max_length=n):
            if not verify_odd_ortho_specialization(lam, n).passed:
                failures.append((n, lam.parts))
    _finish("6 odd-orthosymplectic specialization", not failures, started, 60.0, f"{failures or ''}")


def test_criterion_07_product_sum_identities():
    started = time.time()
    failures = []
    for n, m, rs in ((1, 1, (1, 2, 3)), (1, 2, (1, 2)), (2, 2, (1, 2)), (2, 3, (1,))):
        for r in rs:
            if not verify_bkw_general(n, m, r).passed:
                failures.append(("general", n, m, r))
    for n, m, rs in ((1, 1, (1, 2)), (1, 2, (1,))):
        for r in rs:
            if not verify_bkw_original(n, m, r).passed:
                failures.append(("original", n, m, r))
    _finish("7 product-sum identities", not failures, started, 180.0, f"{failures or ''}")


def test_criterion_08_lemma_suite():
    started = time.time()
    failures = []
    for n in (1, 2, 3):
        for l in range(0, 7):
            if not verify_power_product(n, l).passed:
                failures.append(("power_product", n, l))
    for lam in box_partitions(3, 3):
        if not verify_beta_complement(lam, 3, 3).passed:
            failures.append(("beta_complement", lam.parts))
    for variant in ("p", "q"):
        for n in (1, 2):
            if not verify_kernel_det(n, variant).passed:
                failures.append(("kernel_det", variant, n))
    for m in (1, 2):
        for n in range(m, 5):
            if not verify_cauchy_binet(m, n, seed=100 + 10 * m + n).passed:
                failures.append(("cauchy_binet", m, n))
    for variant in ("sp", "spo"):
        for n in (1, 2):
            for r in range(0, 4):
                for lam in box_partitions(n, r):
                    if not verify_specialization_reduction(lam, n, r, variant).passed:
                        failures.append(("specialization", variant, n, r, lam.parts))
    _finish("8 lemma suite", not failures, started, 180.0, f"{failures or ''}")


def test_criterion_09_denominator_identities():
    started = time.time()
    failures = []
    for n in (1, 2, 3, 4):
        if not verify_symplectic_denominator(n).passed:
            failures.append(("symplectic", n))
        if not verify_odd_denominator(n).passed:
            failures.append(("odd", n))
    _finish("9 denominator identities", not failures, started, 30.0, f"{failures or ''}")


def test_criterion_10_supersymmetry_property():
    started = time.time()
    failures = []
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for lam in partitions_up_to(5):
                if not verify_supersymmetry(lam, n, m).passed:
                    failures.append((n, m, lam.parts))
    _finish("10 supersymmetry property", not failures, started, 60.0, f"{failures or ''}")


def test_criterion_11_determinant_one_size_up():
    # compute --method det at n = 4 against the tableau sum.  The x-world
    # route took 35 s and 16 s on these two points (2-vCPU Xeon, CPU time);
    # in z = x + 1/x they take about 1.5 s and 2 s.
    started = time.time()
    failures = []
    for n, m, parts in ((4, 3, (4, 3, 2, 1)), (4, 4, (3, 2, 1))):
        lam = Partition(list(parts))
        vs, xs, ys = standard_xy(n, m)
        if ortho_det_rational(lam, xs, ys) != tableaux.orthosymplectic_weight_sum(lam, n, m):
            failures.append((n, m, parts))
    _finish("11 bordered determinant at n = 4", not failures, started, 20.0, f"{failures or ''}")
