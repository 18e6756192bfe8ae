"""The benchmark's operations: what each workload asks ospchar to do.

An operation calls one public entry point the way a user does: ``run_suite``
for the suite, and ``ospchar compute`` or ``ospchar enumerate`` through
``ospchar.cli.main`` in the same process.  A workload is a fixed batch of
operations (one round); the seed only permutes its order.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass

import checks

# run_suite bounds; the desk-scale sweep (3, 3, 6) takes about a minute,
# longer than one benchmark run may last (see README.md).
SUITE_GRID = (3, 3, 4)

# family -> (n, m, closed-form routes) for the closed_form workload
CLOSED_FORM_ALPHABETS = {
    "schur": (5, 0, ("jt", "weyl")),
    "hook": (3, 3, ("jt", "det")),
    "symplectic": (4, 0, ("weyl",)),
    "odd_symplectic": (4, 0, ("okada",)),
    "orthosymplectic": (3, 3, ("jt", "det", "sp_schur_sum")),
}
CLOSED_FORM_SIZES = (5, 6)

# family -> (n, m, shapes) for the tableau workload; the comment gives the
# number of tableaux of each shape.
TABLEAU_SHAPES = {
    "schur": (6, 0, ((5, 4, 3, 2, 1), (6, 3, 1), (5, 3, 2), (6, 2, 1))),  # 32768 24255 15750 11550
    "hook": (3, 3, ((6, 2, 1, 1, 1), (5, 3, 2, 1), (6, 3, 1, 1), (6, 2, 2, 1), (7, 3, 1))),  # 16320 15456 14784 12960 10080
    "symplectic": (4, 0, ((4, 3, 2, 1), (4, 3, 1), (4, 2, 2), (5, 2))),  # 65536 29106 16848 12936
    "odd_symplectic": (4, 0, ((5, 2, 1), (6, 2), (5, 3), (4, 3, 2, 1))),  # 12012 11550 10290 9009
    "orthosymplectic": (3, 3, ((4, 3, 1), (6, 2), (4, 2, 1), (3, 3, 2), (3, 2, 1))),  # 57519 36125 28116 24192 9009
}

# Reference routes for stored values: a route the workload does not time.
REFERENCE_ROUTES = {
    "closed_form": {family: "tableau" for family in CLOSED_FORM_ALPHABETS},
    "tableau": {
        "schur": "weyl",
        "hook": "det",
        "symplectic": "weyl",
        "odd_symplectic": "okada",
        "orthosymplectic": "sp_schur_sum",
    },
}


def closed_form_shapes(family: str, n: int) -> list[tuple[int, ...]]:
    """All shapes of the closed_form sizes inside every route's domain."""
    # Jacobi-Trudi, bordered and Weyl routes need at most n rows; the
    # hook routes admit any shape with lambda_{n+1} <= m, which every
    # shape of size <= 6 meets at n = m = 3.
    max_length = None if family == "hook" else n
    return [lam for size in CLOSED_FORM_SIZES for lam in checks.partitions(size, max_length)]


def ref_key(family: str, n: int, m: int, lam: tuple[int, ...]) -> str:
    return f"{family} {n} {m} {checks.lam_text(lam)}"


@dataclass(frozen=True)
class SuiteOp:
    """One ``run_suite`` call; its output is the list of reports."""

    max_n: int
    max_m: int
    max_weight: int

    def run(self):
        import ospchar.identities

        return ospchar.identities.run_suite(self.max_n, self.max_m, self.max_weight)

    def error(self, reports, refs) -> str | None:
        return checks.suite_error(reports, self.max_n, self.max_m, self.max_weight)


@dataclass(frozen=True)
class CliOp:
    """One ``ospchar compute`` or ``ospchar enumerate``; its output is stdout."""

    command: str
    family: str
    n: int
    m: int
    lam: tuple[int, ...]
    method: str = ""

    @property
    def key(self) -> str:
        return ref_key(self.family, self.n, self.m, self.lam)

    def argv(self) -> list[str]:
        args = [self.command, "--family", self.family, "--n", str(self.n), "--m", str(self.m)]
        args += ["--lambda", checks.lam_text(self.lam)]
        if self.command == "compute":
            args += ["--method", self.method, "--format", "json"]
        return args

    def run(self) -> str:
        import ospchar.cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = ospchar.cli.main(self.argv())
        if code != 0:
            raise RuntimeError(f"ospchar {' '.join(self.argv())} exited with {code}")
        return buf.getvalue()

    def error(self, text: str, refs: dict) -> str | None:
        ref = refs[self.key]
        if self.command == "enumerate":
            return checks.listing_error(self.lam, text, ref)
        return checks.value_error(self.family, self.lam, self.n, self.m, text, ref)


def closed_form_ops() -> list[CliOp]:
    return [
        CliOp("compute", family, n, m, lam, route)
        for family, (n, m, routes) in CLOSED_FORM_ALPHABETS.items()
        for lam in closed_form_shapes(family, n)
        for route in routes
    ]


def tableau_ops() -> list[CliOp]:
    return [
        CliOp(command, family, n, m, lam, "tableau" if command == "compute" else "")
        for family, (n, m, shapes) in TABLEAU_SHAPES.items()
        for lam in shapes
        for command in ("compute", "enumerate")
    ]


def reference_points(workload: str) -> list[tuple[str, int, int, tuple[int, ...]]]:
    """Every (family, n, m, shape) whose value the workload checks against a reference."""
    ops = closed_form_ops() if workload == "closed_form" else tableau_ops()
    return sorted({(op.family, op.n, op.m, op.lam) for op in ops})


def operations(workload: str, seed: int) -> list:
    """One round of the workload, in the order the seed picks."""
    if workload == "suite":
        return [SuiteOp(*SUITE_GRID)]
    ops = closed_form_ops() if workload == "closed_form" else tableau_ops()
    random.Random(seed).shuffle(ops)
    return ops


# Highest percentile of one operation that leaves at least ten samples of a
# single round beyond it (nearest rank): 136 closed_form operations give
# p90, 44 tableau operations give p75.  A suite round is a single call, so
# its "tail" is the slowest call of the run.
TAIL_PERCENTILE = {"suite": 100, "closed_form": 90, "tableau": 75}
WORKLOADS = tuple(TAIL_PERCENTILE)
