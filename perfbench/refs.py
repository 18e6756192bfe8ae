"""Regenerate perfbench/refs.json, the reference values the workloads check.

Each entry is the digest and coefficient sum of one character computed by a
route the workload does not time: the tableau route for the closed_form
workload, a closed-form route for the tableau workload.  Run it from the
repository root after a change to the workloads' shape lists:

    python3 perfbench/refs.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "refs.json"


def build() -> dict:
    sys.path.insert(0, str(HERE.parent / "src"))
    from ospchar import CharacterRequest, Partition

    out = {}
    for workload, routes in workloads.REFERENCE_ROUTES.items():
        entries = {}
        for family, n, m, lam in workloads.reference_points(workload):
            route = routes[family]
            t0 = time.perf_counter()
            value = CharacterRequest(family, route, Partition(lam), n, m).compute()
            names, terms = checks.parse_poly(json.dumps(value.to_json_dict()))
            entries[workloads.ref_key(family, n, m, lam)] = {
                "route": route,
                "sum": sum(terms.values()),
                "sha256": checks.digest(names, terms),
            }
            print(f"{workload} {family} {lam} by {route}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
        out[workload] = entries
    return out


def load() -> dict:
    return json.loads(REFS_PATH.read_text())


if __name__ == "__main__":
    REFS_PATH.write_text(json.dumps(build(), indent=1, sort_keys=True) + "\n")
