"""Output checks for the ospchar benchmark, written without the program's code.

Every check returns ``None`` when the output is right and a short message
when it is wrong.  Values arrive as the JSON that ``ospchar compute --format
json`` prints, tableau lists as the text that ``ospchar enumerate`` prints,
and suite results as the report objects ``run_suite`` returns.  Nothing here
imports ospchar: the partitions, dimension formulas and symmetry tests are
the benchmark's own, so a fault in the program cannot pass both sides.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import prod

# family -> (letters of X that the value is symmetric in, letters of X it is
# invariant under x -> 1/x in, whether Y is a second symmetric alphabet).
# "all" means x_1..x_n; "first" means x_1..x_{n-1}: the odd symplectic
# character distinguishes its last variable and is a character of Sp(2n-2)
# in the others.
FAMILY_PROPERTIES = {
    "schur": ("all", None, False),
    "hook": ("all", None, True),
    "symplectic": ("all", "all", False),
    "odd_symplectic": ("first", "first", False),
    "orthosymplectic": ("all", "all", True),
}


def partitions(size: int, max_length: int | None = None):
    """Partitions of ``size`` as tuples, largest first part first."""

    def rec(rest: int, cap: int, room: int):
        if rest == 0:
            yield ()
            return
        if room == 0:
            return
        for first in range(min(cap, rest), 0, -1):
            for tail in rec(rest - first, first, room - 1):
                yield (first,) + tail

    yield from rec(size, size, size if max_length is None else max_length)


def lam_text(lam: tuple[int, ...]) -> str:
    return ",".join(map(str, lam))


def hook_content_dim(lam: tuple[int, ...], n: int) -> int:
    """s_lam(1^n) by the hook-content formula: prod (n + j - i) / hook(i, j)."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)]
    value = Fraction(1)
    for i, part in enumerate(lam):
        for j in range(part):
            hook = (part - j) + (conj[j] - i) - 1
            value *= Fraction(n + j - i, hook)
    return int(value)


def sp_weyl_dim(lam: tuple[int, ...], n: int) -> int:
    """Dimension of the Sp(2n) module of highest weight lam (Weyl's formula)."""
    parts = list(lam) + [0] * (n - len(lam))
    l = [parts[i] + n - i for i in range(n)]
    r = [n - i for i in range(n)]
    num = prod(l) * prod((l[i] - l[j]) * (l[i] + l[j]) for i in range(n) for j in range(i + 1, n))
    den = prod(r) * prod((r[i] - r[j]) * (r[i] + r[j]) for i in range(n) for j in range(i + 1, n))
    return num // den


def parse_poly(text: str) -> tuple[list[str], dict[tuple[int, ...], int]]:
    """Variable names and exponent -> coefficient map of one JSON value."""
    data = json.loads(text)
    terms: dict[tuple[int, ...], int] = {}
    for term in data["terms"]:
        exps = tuple(term["e"])
        coeff = int(term["c"])
        if exps in terms or coeff == 0 or len(exps) != len(data["vars"]):
            raise ValueError(f"malformed term {term}")
        terms[exps] = coeff
    return data["vars"], terms


def digest(names: list[str], terms: dict[tuple[int, ...], int]) -> str:
    """SHA-256 of a canonical form of the value: equal values, equal digests."""
    body = json.dumps([list(names), sorted([list(e), c] for e, c in terms.items())], separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _swapped(e: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    s = list(e)
    s[a], s[b] = s[b], s[a]
    return tuple(s)


def _inverted(e: tuple[int, ...], a: int) -> tuple[int, ...]:
    s = list(e)
    s[a] = -s[a]
    return tuple(s)


def symmetry_error(terms: dict, letters: list[int]) -> str | None:
    """Invariance under every adjacent transposition of ``letters``."""
    for a, b in zip(letters, letters[1:]):
        for e, c in terms.items():
            if terms.get(_swapped(e, a, b)) != c:
                return f"not symmetric under swapping variables {a + 1} and {b + 1} at exponent {list(e)}"
    return None


def inversion_error(terms: dict, letters: list[int]) -> str | None:
    """Invariance under x_a -> 1/x_a for every a in ``letters``."""
    for a in letters:
        for e, c in terms.items():
            if terms.get(_inverted(e, a)) != c:
                return f"not invariant under inverting variable {a + 1} at exponent {list(e)}"
    return None


def expected_sum(family: str, lam: tuple[int, ...], n: int) -> int | None:
    """Coefficient sum known in closed form, or None for families without one here."""
    if family == "schur":
        return hook_content_dim(lam, n)
    if family == "symplectic":
        return sp_weyl_dim(lam, n)
    return None


def value_error(family: str, lam: tuple[int, ...], n: int, m: int, text: str, ref: dict) -> str | None:
    """Check one printed character value against properties and a reference.

    ``ref`` holds the digest and coefficient sum of the same character
    computed by a route the workload does not time (see refs.py).
    """
    names, terms = parse_poly(text)
    want = [f"x{i}" for i in range(1, n + 1)]
    sym, inv, has_y = FAMILY_PROPERTIES[family]
    if has_y:
        want += [f"y{j}" for j in range(1, m + 1)]
    if names != want:
        return f"variables {names}, expected {want}"
    xs = list(range(n)) if sym == "all" else list(range(n - 1))
    problem = symmetry_error(terms, xs)
    if problem is None and has_y:
        problem = symmetry_error(terms, list(range(n, n + m)))
    if problem is None and inv is not None:
        problem = inversion_error(terms, list(range(n)) if inv == "all" else list(range(n - 1)))
    if problem is not None:
        return problem
    total = sum(terms.values())
    formula = expected_sum(family, lam, n)
    if formula is not None and total != formula:
        return f"coefficient sum {total}, dimension formula gives {formula}"
    if digest(names, terms) != ref["sha256"]:
        return f"value differs from the {ref['route']} route"
    return None


def listing_error(lam: tuple[int, ...], text: str, ref: dict) -> str | None:
    """Check an ``ospchar enumerate`` listing: right shape, distinct, complete.

    Its length must equal the character's coefficient sum, which the
    reference route gives and the ``compute`` operation must reproduce.
    """
    lines = text.splitlines()
    if len(set(lines)) != len(lines):
        return "listing repeats a tableau"
    if len(lines) != ref["sum"]:
        return f"{len(lines)} tableaux listed, coefficient sum is {ref['sum']}"
    for line in lines:
        if not (line.startswith("[[") and line.endswith("]]")):
            return f"malformed tableau {line!r}"
        rows = line[2:-2].split("],[")
        if [len(row.split(",")) for row in rows] != list(lam):
            return f"tableau {line!r} does not have shape {list(lam)}"
    return None


def suite_grid(max_n: int, max_m: int, max_weight: int) -> dict[str, list]:
    """The ortho_methods and hook_methods parameter points a suite must cover."""
    ortho, hook = [], []
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            for size in range(max_weight + 1):
                for lam in partitions(size):
                    point = (lam_text(lam), n, m)
                    if len(lam) <= n:
                        ortho.append(point)
                    if (lam[n] if len(lam) > n else 0) <= m:
                        hook.append(point)
    return {"ortho_methods": sorted(ortho), "hook_methods": sorted(hook)}


def suite_error(reports: list, max_n: int, max_m: int, max_weight: int) -> str | None:
    """Every report passes and the method sweeps cover exactly the grid."""
    for r in reports:
        if r.status != "pass":
            return f"{r.identity} {r.params} reported {r.status}"
    for identity, want in suite_grid(max_n, max_m, max_weight).items():
        got = sorted(
            (r.params["lambda"], r.params["n"], r.params["m"]) for r in reports if r.identity == identity
        )
        if got != want:
            return f"{identity} covered {len(got)} points, the grid has {len(want)}"
    return None
