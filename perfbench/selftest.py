"""Self-test of the benchmark's checks: corrupted outputs must count as failures.

Run through ``python3 perfbench/run.py --self-test``.  It checks the
dimension formulas against known values, then runs small real operations of
every kind through the benchmark's own round loop: each must pass as
printed, and must be counted as a failed operation once corrupted (a
coefficient bumped, the output cut short, a tableau dropped, a suite report
failed or dropped).
It also feeds a bumped value to each property check on its own.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import checks
import refs
import workloads

KNOWN_DIMENSIONS = (
    (checks.sp_weyl_dim, (4, 3, 2, 1), 4, 2**16),
    (checks.hook_content_dim, (5, 4, 3, 2, 1), 6, 2**15),
    (checks.hook_content_dim, (2, 1), 3, 8),
    (checks.sp_weyl_dim, (1,), 2, 4),
    (checks.sp_weyl_dim, (1, 1), 2, 5),
)


def bump_coefficient(op, text: str) -> str:
    data = json.loads(text)
    data["terms"][0]["c"] = str(int(data["terms"][0]["c"]) + 1)
    return json.dumps(data)


def truncate_output(op, text: str) -> str:
    return text[: len(text) // 2]


def drop_tableau(op, text: str) -> str:
    return "".join(text.splitlines(keepends=True)[1:])


def _first_ortho(reports) -> int:
    return next(i for i, r in enumerate(reports) if r.identity == "ortho_methods")


def fail_report(op, reports):
    reports = list(reports)
    i = _first_ortho(reports)
    reports[i] = replace(reports[i], status="fail")
    return reports


def drop_report(op, reports):
    reports = list(reports)
    del reports[_first_ortho(reports)]
    return reports


CORRUPTIONS = {
    "compute": (bump_coefficient, truncate_output),
    "enumerate": (drop_tableau,),
    "suite": (fail_report, drop_report),
}


def cases() -> list[tuple[str, object]]:
    """The smallest operation of every closed-form route, one tableau pair, a small suite."""
    out, seen = [], set()
    for op in workloads.closed_form_ops():
        if (op.family, op.method) not in seen:
            seen.add((op.family, op.method))
            out.append(("closed_form", op))
    out += [("tableau", op) for op in workloads.tableau_ops() if op.family == "odd_symplectic" and op.lam == (6, 2)]
    out.append(("suite", workloads.SuiteOp(1, 2, 3)))
    return out


def property_problems(op, text: str, ref: dict) -> list[str]:
    """Each property check on its own must reject a bumped leading coefficient."""
    names, terms = checks.parse_poly(bump_coefficient(op, text))
    sym, inv, _ = checks.FAMILY_PROPERTIES[op.family]
    letters = list(range(op.n if sym == "all" else op.n - 1))
    lead = max(terms, key=lambda e: (sum(e), e))
    found = []
    if len(set(lead[i] for i in letters)) > 1 and checks.symmetry_error(terms, letters) is None:
        found.append("symmetry check missed it")
    if inv is not None and any(lead[i] for i in letters) and checks.inversion_error(terms, letters) is None:
        found.append("inversion check missed it")
    formula = checks.expected_sum(op.family, op.lam, op.n)
    if formula is not None and sum(terms.values()) == formula:
        found.append("dimension formula missed it")
    if checks.digest(names, terms) == ref["sha256"]:
        found.append("reference digest missed it")
    return [f"{op}: {p}" for p in found]


def main(run_round) -> int:
    problems = []
    for fn, lam, n, want in KNOWN_DIMENSIONS:
        if fn(lam, n) != want:
            problems.append(f"{fn.__name__}({lam}, {n}) = {fn(lam, n)}, expected {want}")
    all_refs = refs.load()
    corrupted = 0
    for workload, op in cases():
        refs_for = all_refs.get(workload, {})
        _, clean = run_round([op], refs_for)
        if clean:
            problems.append(f"{op}: real output counted as failed")
        kind = "suite" if workload == "suite" else op.command
        for corrupt in CORRUPTIONS[kind]:
            _, dirty = run_round([op], refs_for, corrupt=corrupt)
            corrupted += 1
            if dirty != 1:
                problems.append(f"{op}: {corrupt.__name__} not counted as failed")
        if kind == "compute":
            problems += property_problems(op, op.run(), refs_for[op.key])
    for p in problems:
        print(f"SELF-TEST: {p}", file=sys.stderr)
    print(json.dumps({"self_test": "fail" if problems else "pass", "corrupted_outputs": corrupted}))
    return 1 if problems else 0
