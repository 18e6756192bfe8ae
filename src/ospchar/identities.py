"""Machine verification of the package's character identities.

Each ``verify_*`` function evaluates both sides of one identity exactly and
returns a VerificationReport; a failure carries the two values and the first
term where they differ, so a broken formula is immediately localizable.
``compare`` decides pass or fail for every identity except ``golden``,
which compares stored text: a method agreement runs each route through it
in turn and names the first that disagrees in ``witness["method"]``; a
claim that a variable drops out, or that a value is a polynomial, compares
the value with its part that meets the claim; a determinant lemma with
rational entries clears each row's denominator first; and a claim about a
set of integers compares generating polynomials in one variable.
``IDENTITIES`` maps each identity name to its parameter grid; ``run_suite``
sweeps them all, in registry order, through ``run_check``, which turns a
computation error into an "error" report.  A ValueError means a point
outside the identity's domain: ``run_check`` raises it, since its point comes
from the caller, but every grid point of ``run_suite`` is in its identity's
domain, so there a ValueError is a formula defect and an "error" report too.
The identities build their x- and y-variables, and any extra letter, with
``symfun.standard_xy``, the alphabet the routes and the tableau sums use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from importlib import resources
from itertools import combinations

from .algebra import (
    AlgebraError,
    LaurentPolynomial,
    VariableSet,
    det_cofactor,
)
from .symfun import (
    Partition,
    box_partitions,
    complete_table,
    partitions_up_to,
    require_length,
    standard_x,
    standard_xy,
)
from .characters import (
    CharacterRequest,
    _prod,
    hook_schur_det,
    hook_schur_jt,
    odd_denominator_product,
    odd_symplectic_det,
    odd_symplectic_matrix,
    ortho_det_laurent,
    ortho_det_rational,
    ortho_jt,
    ortho_single_y,
    ortho_sp_schur_sum,
    symplectic_denominator_product,
    symplectic_matrix,
    symplectic_weyl,
)
from . import tableaux

Poly = LaurentPolynomial


@dataclass
class VerificationReport:
    """Outcome of one identity check; pass means exact equality."""

    identity: str
    params: dict
    status: str  # "pass" | "fail" | "error" (the check raised; see witness)
    witness: dict | None = None
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        out = {"identity": self.identity, "params": self.params, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.note is not None:
            out["note"] = self.note
        return out

    def __str__(self) -> str:
        args = " ".join(f"{k}={v}" for k, v in self.params.items())
        head = f"{self.status.upper():4s} {self.identity} {args}".rstrip()
        if self.witness and "first_diff" in self.witness:
            head += f"  [first differing term: {self.witness['first_diff']}]"
        elif self.witness and "exception" in self.witness:
            head += f"  [error: {self.witness['exception']}: {self.witness['message']}]"
        return head


# A check that raises one of these has hit a formula defect (a broken
# arithmetic contract or a failed consistency check); it is reported as an
# "error".  A ValueError is a point outside the check's domain, which only a
# caller-chosen point can be: run_check raises it, run_suite reports it.
COMPUTATION_ERRORS = (AlgebraError, RuntimeError)


def _error_report(identity: str, params: dict, exc: Exception) -> VerificationReport:
    witness = {"exception": type(exc).__name__, "message": str(exc)}
    return VerificationReport(identity, params, "error", witness=witness)


def first_difference(left: Poly, right: Poly) -> str | None:
    """Canonical text of the largest monomial whose coefficients differ."""
    if left == right:
        return None
    mono = (left - right).sorted_terms()[0][0]
    lc = left.tuple_terms().get(mono, 0)
    rc = right.tuple_terms().get(mono, 0)
    body = left.vars.poly({mono: 1}).to_text()
    return f"{body}: {lc} vs {rc}"


def compare(identity: str, params: dict, left: Poly, right: Poly, note: str | None = None) -> VerificationReport:
    if left == right:
        return VerificationReport(identity, params, "pass", note=note)
    return VerificationReport(
        identity,
        params,
        "fail",
        witness={
            "left": left.to_text(),
            "right": right.to_text(),
            "first_diff": first_difference(left, right),
        },
        note=note,
    )


def _params(**params) -> dict:
    """Report parameters in the given order, with the partition ``lam`` shown
    as its text under "lambda"."""
    return {("lambda" if k == "lam" else k): (v.to_string() if k == "lam" else v) for k, v in params.items()}


def _route_value(route, *args) -> Poly:
    """route(*args) at a point already validated: a ValueError the route
    raises is a formula defect, raised as a RuntimeError, as compute does."""
    try:
        return route(*args)
    except ValueError as exc:
        raise RuntimeError(str(exc)) from exc


def _agreement(identity: str, params: dict, base: Poly, routes, *args) -> VerificationReport:
    """Compare the tableau sum ``base`` with each (method, route) of
    ``routes`` called on ``args``, in order; the first failure names its
    method in witness["method"]."""
    for method, route in routes:
        report = compare(identity, params, base, _route_value(route, *args))
        if not report.passed:
            report.witness["method"] = method
            break
    return report


# -- character method agreements ------------------------------------------

# Each agreement first validates the request of the route whose domain it
# checks, so a point outside it raises the ValueError compute gives there.


def verify_ortho_methods(lam: Partition, n: int, m: int) -> VerificationReport:
    """Tableau sum against the four closed orthosymplectic formulas, on the
    (n, m)-hook; the Jacobi-Trudi one only where len(lam) <= n."""
    CharacterRequest("orthosymplectic", "det", lam, n, m).validate()
    base = tableaux.orthosymplectic_weight_sum(lam, n, m)
    routes = (
        ("jt", ortho_jt),
        ("det", ortho_det_rational),
        ("det_equiv", ortho_det_laurent),
        ("sp_schur_sum", ortho_sp_schur_sum),
    )
    if lam.length > n:
        routes = routes[1:]
    return _agreement("ortho_methods", _params(lam=lam, n=n, m=m), base, routes, lam, *standard_xy(n, m)[1:])


def verify_hook_methods(lam: Partition, n: int, m: int) -> VerificationReport:
    """Tableau sum against the Jacobi-Trudi and Cauchy-block hook formulas."""
    CharacterRequest("hook", "det", lam, n, m).validate()
    base = tableaux.super_weight_sum(lam, n, m)
    routes = (("jt", hook_schur_jt), ("det", hook_schur_det))
    return _agreement("hook_methods", _params(lam=lam, n=n, m=m), base, routes, lam, *standard_xy(n, m)[1:])


def verify_symplectic_methods(lam: Partition, n: int) -> VerificationReport:
    CharacterRequest("symplectic", "weyl", lam, n).validate()
    base = tableaux.symplectic_weight_sum(lam, n)
    routes = (("weyl", symplectic_weyl),)
    return _agreement("symplectic_methods", _params(lam=lam, n=n), base, routes, lam, standard_x(n)[1])


def verify_odd_methods(lam: Partition, n: int) -> VerificationReport:
    CharacterRequest("odd_symplectic", "okada", lam, n).validate()
    base = tableaux.odd_symplectic_weight_sum(lam, n)
    routes = (("okada", odd_symplectic_det),)
    return _agreement("odd_methods", _params(lam=lam, n=n), base, routes, lam, standard_x(n)[1])


def verify_odd_ortho_specialization(lam: Partition, n: int) -> VerificationReport:
    """Odd symplectic character equals the orthosymplectic one at
    (x_1, ..., x_{n-1}, 1/x_n) with single prime variable -1/x_n."""
    CharacterRequest("odd_symplectic", "okada", lam, n).validate()
    _, xs = standard_x(n)
    lhs = _route_value(odd_symplectic_det, lam, xs)
    rhs = _route_value(ortho_single_y, lam, xs[:-1] + [xs[-1].inverse()], -xs[-1].inverse())
    return compare("odd_ortho_specialization", _params(lam=lam, n=n), lhs, rhs)


# -- denominators ----------------------------------------------------------


def _verify_denominator(identity: str, n: int, matrix, product) -> VerificationReport:
    if n < 1:
        raise ValueError("needs n >= 1")
    vs, xs = standard_x(n)
    return compare(identity, {"n": n}, det_cofactor(matrix(Partition(), xs), vs), product(xs))


def verify_symplectic_denominator(n: int) -> VerificationReport:
    return _verify_denominator("symplectic_denominator", n, symplectic_matrix, symplectic_denominator_product)


def verify_odd_denominator(n: int) -> VerificationReport:
    return _verify_denominator("odd_denominator", n, odd_symplectic_matrix, odd_denominator_product)


# -- supersymmetry ----------------------------------------------------------


def verify_supersymmetry(lam: Partition, n: int, m: int) -> VerificationReport:
    """Hook Schur polynomials lose all dependence on t at the letters
    (x_1, ..., x_{n-1}, t), (y_1, ..., y_{m-1}, -t)."""
    if n < 1 or m < 1:
        raise ValueError("needs n, m >= 1")
    vs, xs, ys, t = standard_xy(n, m, "t")
    value = _route_value(hook_schur_jt, lam, xs[:-1] + [t], ys[:-1] + [-t])
    # t is the last variable: the t-free part keeps the terms without it
    t_free = vs.poly({e: c for e, c in value.tuple_terms().items() if not e[-1]})
    return compare("supersymmetry", _params(lam=lam, n=n, m=m), value, t_free)


# -- matrix-product evaluation of power differences --------------------------


def verify_power_product(n: int, l: int) -> VerificationReport:
    """x_j^l - x_j^-l as (h-row) x (signed-e matrix) x (alternant column).

    The h's run over the 2n letters x_i, 1/x_i; the matrix entry at (u, v)
    is (-1)^(v-u) e_{v-u} of the same letters; the column holds
    x_j^(n+1-u) - x_j^-(n+1-u).
    """
    if n < 1:
        raise ValueError("needs n >= 1")
    if l < 0:
        raise ValueError("l must be nonnegative")
    params = {"n": n, "l": l}
    vs, xs = standard_x(n)
    letters = xs + [x.inverse() for x in xs]
    zero = vs.zero()
    h = complete_table(l - 1, letters)
    esign = [-e if r % 2 else e for r, e in enumerate(complete_table(n - 1, (), vs, ys=letters))]

    def hbar(r: int) -> Poly:
        return h[r] if r >= 0 else zero

    row = [hbar(l - n)] + [hbar(l - n - 1 + j) + hbar(l - n + 1 - j) for j in range(2, n + 1)]
    mid = [[esign[v - u] if v >= u else zero for v in range(n)] for u in range(n)]
    prod_row = [zero] * n
    for v in range(n):
        for u in range(n):
            prod_row[v] = prod_row[v] + row[u] * mid[u][v]
    lhs = vs.zero()
    rhs = vs.zero()
    for j in range(n):
        x = xs[j]
        got = vs.zero()
        for u in range(1, n + 1):
            got = got + prod_row[u - 1] * (x ** (n + 1 - u) - x ** (u - n - 1))
        want = x ** l - x ** (-l)
        if got != want:
            return compare("power_product", {**params, "j": j + 1}, got, want)
    return VerificationReport("power_product", params, "pass")


# -- first-column hook coordinates and their complement ----------------------


def verify_beta_complement(lam: Partition, n1: int, n2: int) -> VerificationReport:
    """{lam_i + n1 - i} and {n1 - 1 + j - lam'_j} partition {0..n1+n2-1}."""
    if n1 < 1 or n2 < 1:
        raise ValueError("needs n1, n2 >= 1")
    if lam.length > n1 or lam.part(1) > n2:
        raise ValueError("partition does not fit the given box")
    params = _params(lam=lam, n1=n1, n2=n2)
    vs = VariableSet(["q"])
    q = vs.gen("q")
    conj = lam.conjugate()
    # the values fill 0..n1+n2-1 once each exactly when their generating
    # polynomial in q is 1 + q + ... + q^(n1+n2-1)
    values = sum((q ** (lam.part(i) + n1 - i) for i in range(1, n1 + 1)), vs.zero())
    values = sum((q ** (n1 - 1 + j - conj.part(j)) for j in range(1, n2 + 1)), values)
    return compare("beta_complement", params, values, sum((q ** k for k in range(n1 + n2)), vs.zero()))


# -- Cauchy-Binet ------------------------------------------------------------


def verify_cauchy_binet(m: int, n: int, seed: int = 0) -> VerificationReport:
    """sum over m-subsets B of det X[B] det Y[B] equals det(X Y^t).

    X and Y are m x n integer matrices with entries in -9..9 drawn from
    random.Random(seed)."""
    if m < 1:
        raise ValueError("needs m >= 1")
    if m > n:
        raise ValueError("needs m <= n")
    vs = VariableSet([])
    rng = random.Random(seed)
    X = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    Y = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
    cX = [[vs.const(v) for v in row] for row in X]
    cY = [[vs.const(v) for v in row] for row in Y]
    lhs = vs.zero()
    for cols in combinations(range(n), m):
        dx = det_cofactor([[row[c] for c in cols] for row in cX], vs)
        dy = det_cofactor([[row[c] for c in cols] for row in cY], vs)
        lhs = lhs + dx * dy
    prod = [
        [
            vs.const(sum(X[i][t] * Y[j][t] for t in range(n)))
            for j in range(m)
        ]
        for i in range(m)
    ]
    rhs = det_cofactor(prod, vs)
    params = {"m": m, "n": n, "seed": seed}
    return compare("cauchy_binet", params, lhs, rhs, note=f"seeded random entries, seed={seed}")


# -- clearing powers and specializing the first variable ---------------------


def verify_specialization_reduction(
    lam: Partition, n: int, r: int, variant: str
) -> VerificationReport:
    """(x_1...x_n)^r char is a polynomial, and its x_1 = 0 value is the
    same expression one variable down when lam_1 = r, else zero.

    variant "sp" uses the symplectic character; "spo" the orthosymplectic
    character with a single prime variable z.
    """
    if variant not in ("sp", "spo"):
        raise ValueError(f"unknown variant {variant!r}")
    if n < 1:
        raise ValueError("needs n >= 1")
    require_length(lam, n)
    if lam.part(1) > r:
        raise ValueError("needs lam_1 <= r")
    params = _params(lam=lam, n=n, r=r, variant=variant)
    vs, xs, _, z = standard_xy(n, 0, "z")  # z is the spo variant's prime variable

    def char(p: Partition, vars_: list[Poly]) -> Poly:
        if not vars_:
            return vs.one()
        if variant == "sp":
            return _route_value(symplectic_weyl, p, vars_)
        return _route_value(ortho_single_y, p, vars_, z)

    cleared = char(lam, xs)
    for x in xs:
        cleared = cleared * x ** r
    # the x-variables come first: the polynomial part drops every term with
    # a negative power of one of them
    polynomial = vs.poly({e: c for e, c in cleared.tuple_terms().items() if min(e[:n]) >= 0})
    report = compare("specialization_reduction", params, cleared, polynomial)
    if not report.passed:
        return report
    # x_1 = 0: keep the terms free of x_1
    specialized = vs.poly({e: c for e, c in cleared.tuple_terms().items() if not e[0]})
    if lam.part(1) == r:
        expected = char(lam.drop_first(), xs[1:])
        for x in xs[1:]:
            expected = expected * x ** r
    else:
        expected = vs.zero()
    return compare("specialization_reduction", params, specialized, expected)


# -- kernel determinants ------------------------------------------------------


def _kernel_numerator(x: Poly, y: Poly, z: Poly, a: Poly, b: Poly, sign: int) -> Poly:
    """Numerator N of the p (sign=-1) or q (sign=+1) kernel entry
    N / ((1 - xy)(x - y)) = num_xy / (1 - xy) + num_diff / (x - y)."""
    vs = x.vars
    one = vs.one()
    s = vs.const(sign)
    num_xy = (one + s * x * z) * (one + s * y * z) - a * b * (x + s * z) * (y + s * z)
    num_diff = -a * (x + s * z) * (one + s * y * z) + b * (one + s * x * z) * (y + s * z)
    return num_xy * (x - y) + num_diff * (one - x * y)


def verify_kernel_det(n: int, variant: str) -> VerificationReport:
    """Bordered rational kernel determinants against alternant determinants.

    variant "p": the (n+1) x (n+1) matrix of p-kernel entries bordered by
    1 - a_i, 1 - b_j and (1-c)/(1-z^2) equals
    (-1)^n det V / ((1-z^2) prod (x_i - y_j)(1 - x_i y_j)) with V the
    (2n+1) x (2n+1) matrix of rows x_i^(j-1) - a_i x_i^(2n+1-j) and a final
    z-row with c.  variant "q": the plain n x n q-kernel determinant equals
    the same expression without the 1-z^2 factor and with final row
    (-z)^(2n+1-j).  Kernel row i is multiplied by
    d_i = prod_j (x_i - y_j)(1 - x_i y_j), and for "p" the last row by
    1 - z^2; these factors make up the right side's denominator, so the
    check is det(cleared) = (-1)^n det V, a polynomial identity.
    """
    if variant not in ("p", "q"):
        raise ValueError(f"unknown variant {variant!r}")
    if n < 1:
        raise ValueError("needs n >= 1")
    ab = [f"{name}{i}" for name in "ab" for i in range(1, n + 1)]
    vs, xs, ys, *rest = standard_xy(n, n, *ab, "z", "c")
    as_, bs, (z, c) = rest[:n], rest[n : 2 * n], rest[2 * n :]
    one = vs.one()
    sign_entry = -1 if variant == "p" else 1
    dens = [[(x - y) * (one - x * y) for y in ys] for x in xs]
    rows = [
        [
            _kernel_numerator(xs[i], ys[j], z, as_[i], bs[j], sign_entry)
            * _prod(vs, (d for t, d in enumerate(dens[i]) if t != j))
            for j in range(n)
        ]
        for i in range(n)
    ]
    if variant == "p":
        for row, a, den in zip(rows, as_, dens):
            row.append((one - a) * _prod(vs, den))
        rows.append([(one - b) * (one - z * z) for b in bs] + [one - c])
    # det(cleared) first, while no other large value is alive: its memoized
    # minors set the check's peak memory
    left = det_cofactor(rows, vs)
    big = 2 * n + 1
    if variant == "p":
        last = [z ** (j - 1) - c * z ** (big - j) for j in range(1, big + 1)]
    else:
        last = [(-z) ** (big - j) for j in range(1, big + 1)]
    vrows = [
        [v ** (j - 1) - w * v ** (big - j) for j in range(1, big + 1)]
        for v, w in zip(xs + ys, as_ + bs)
    ]
    detv = det_cofactor(vrows + [last], vs)
    return compare("kernel_det", {"n": n, "variant": variant}, left, -detv if n % 2 else detv)


# -- product-sum identities ----------------------------------------------------


def verify_bkw_general(n: int, m: int, r: int) -> VerificationReport:
    """Sum of z^r spo(X; z) spo(Y; z) over box shapes against a z-graded sum
    of symplectic characters of near-rectangles in the joint alphabet.

    The right side's label with part r - 1 < 0 (only possible at r = 0) is
    treated as absent; at r = 0 both sides collapse to 1.
    """
    if not (1 <= n <= m):
        raise ValueError("needs 1 <= n <= m")
    if r < 0:
        raise ValueError("needs r >= 0")
    params = {"n": n, "m": m, "r": r}
    vs, xs, ys, z = standard_xy(n, m, "z")
    lhs = vs.zero()
    for lam in box_partitions(n, r):
        left = _route_value(ortho_single_y, lam, xs, z)
        right = _route_value(ortho_single_y, lam.prepend(r, m - n), ys, z)
        lhs = lhs + z ** r * left * right
    rhs = vs.zero()
    skipped = 0
    for j in range(1, m + n + 2):
        tail = m + n + 1 - j
        if r == 0 and tail > 0:
            skipped += 1
            continue
        nu = Partition((r,) * (j - 1) + (r - 1,) * tail)
        rhs = rhs + z ** (r + tail) * _route_value(symplectic_weyl, nu, xs + ys)
    note = None
    if skipped:
        note = f"r=0: skipped {skipped} right-side labels with a negative part"
    return compare("bkw_general", params, lhs, rhs, note=note)


def verify_bkw_original(n: int, m: int, r: int) -> VerificationReport:
    """Sum of z^-r times products of two odd symplectic characters against a
    single rectangular symplectic character in all m + n + 1 variables."""
    if not (1 <= n <= m):
        raise ValueError("needs 1 <= n <= m")
    if r < 0:
        raise ValueError("needs r >= 0")
    params = {"n": n, "m": m, "r": r}
    vs, xs, ys, z = standard_xy(n, m, "z")
    lhs = vs.zero()
    for lam in box_partitions(n + 1, r):
        left = _route_value(odd_symplectic_det, lam, xs + [z])
        right = _route_value(odd_symplectic_det, lam.prepend(r, m - n), ys + [z])
        lhs = lhs + z ** (-r) * left * right
    rhs = _route_value(symplectic_weyl, Partition((r,) * (m + n + 1)), xs + ys + [z])
    return compare("bkw_original", params, lhs, rhs)


# -- pinned worked examples -----------------------------------------------------


GOLDEN_CASES = (
    ("orthosymplectic_det_n1_m2_lam_2.txt", CharacterRequest("orthosymplectic", "det", Partition([2]), 1, 2)),
    ("orthosymplectic_tableau_n1_m2_lam_2.txt", CharacterRequest("orthosymplectic", "tableau", Partition([2]), 1, 2)),
    ("hook_jt_n2_m1_lam_2_1.txt", CharacterRequest("hook", "jt", Partition([2, 1]), 2, 1)),
    ("odd_symplectic_okada_n2_lam_2_1.txt", CharacterRequest("odd_symplectic", "okada", Partition([2, 1]), 2)),
)


def verify_golden() -> list[VerificationReport]:
    """Recompute the pinned worked examples and compare with the stored text.

    Each example gets its own report, so a computation error in one is an
    "error" report that leaves the others checked.
    """
    reports = []
    for fname, req in GOLDEN_CASES:
        want = resources.files("ospchar").joinpath("golden").joinpath(fname).read_text().strip()
        params = _params(family=req.family, method=req.method, lam=req.lam, n=req.n, m=req.m)
        try:
            got = req.compute().to_text()
        except COMPUTATION_ERRORS as exc:
            reports.append(_error_report("golden", params, exc))
            continue
        witness = None if got == want else {"left": got, "right": want, "first_diff": fname}
        reports.append(VerificationReport("golden", params, "pass" if witness is None else "fail", witness=witness))
    return reports


# -- the registry and the full sweep -------------------------------------------


def _symplectic_grid(max_n: int, max_m: int, max_w: int):
    return (dict(lam=lam, n=n) for n in range(1, max_n + 1) for lam in partitions_up_to(max_w, max_length=n))


def _hook_grid(max_n: int, max_m: int, max_w: int):
    return (
        dict(lam=lam, n=n, m=m)
        for n in range(1, max_n + 1)
        for m in range(1, max_m + 1)
        for lam in partitions_up_to(max_w)
        if lam.part(n + 1) <= m
    )


def _denominator_grid(max_n: int, max_m: int, max_w: int):
    return (dict(n=n) for n in range(1, max_n + 1))


# identity name -> grid(max_n, max_m, max_weight): the keyword arguments of
# the verify_<name> calls that run_suite makes, in order.  Adding an identity
# takes one verify_<name> function and one entry here.
IDENTITIES = {
    "ortho_methods": lambda max_n, max_m, max_w: (
        dict(lam=lam, n=n, m=m)
        for n in range(1, max_n + 1)
        for m in range(1, max_m + 1)
        for lam in partitions_up_to(max_w, max_length=n)
    ),
    "hook_methods": _hook_grid,
    "symplectic_methods": _symplectic_grid,
    "odd_methods": _symplectic_grid,
    "odd_ortho_specialization": lambda max_n, max_m, max_w: (
        dict(lam=lam, n=n) for n in range(2, max_n + 1) for lam in partitions_up_to(min(max_w, 5), max_length=n)
    ),
    "supersymmetry": lambda max_n, max_m, max_w: _hook_grid(max_n, max_m, min(max_w, 5)),
    "symplectic_denominator": _denominator_grid,
    "odd_denominator": _denominator_grid,
    "power_product": lambda max_n, max_m, max_w: (
        dict(n=n, l=l) for n in range(1, max_n + 1) for l in range(max_w + 1)
    ),
    "beta_complement": lambda max_n, max_m, max_w: (
        dict(lam=lam, n1=min(max_n, 3), n2=min(max_m, 3)) for lam in box_partitions(min(max_n, 3), min(max_m, 3))
    ),
    "cauchy_binet": lambda max_n, max_m, max_w: (
        dict(m=m, n=n, seed=m * 10 + n) for m in range(1, min(max_n, 2) + 1) for n in range(m, 5)
    ),
    "specialization_reduction": lambda max_n, max_m, max_w: (
        dict(lam=lam, n=n, r=r, variant=variant)
        for variant in ("sp", "spo")
        for n in range(1, min(max_n, 2) + 1)
        for r in range(min(max_w, 3) + 1)
        for lam in box_partitions(n, r)
    ),
    "kernel_det": lambda max_n, max_m, max_w: (
        dict(n=n, variant=variant) for variant in ("p", "q") for n in range(1, min(max_n, 2) + 1)
    ),
    "bkw_general": lambda max_n, max_m, max_w: (
        dict(n=n, m=m, r=r)
        for n in range(1, min(max_n, 2) + 1)
        for m in range(n, min(max_m, 2) + 1)
        for r in range(min(max_w, 2) + 1)
    ),
    "bkw_original": lambda max_n, max_m, max_w: (
        dict(n=n, m=m, r=r) for n, m in ((1, 1), (1, 2)) if n <= max_n and m <= max_m for r in range(min(max_w, 2) + 1)
    ),
    "golden": lambda max_n, max_m, max_w: [{}],
}


def verifier(name: str):
    """verify_<name>, looked up in this module's namespace when called, so a
    wrapper installed on the module attribute sees every call."""
    return globals()[f"verify_{name}"]


def run_check(name: str, params: dict, errors: tuple = COMPUTATION_ERRORS) -> list[VerificationReport]:
    """Call verify_<name>(**params) and return its reports; one of ``errors``
    becomes an "error" report.  A ValueError, by default not among them,
    propagates: it says the caller's point is outside the identity's domain."""
    try:
        result = verifier(name)(**params)
    except errors as exc:
        return [_error_report(name, _params(**params), exc)]
    return result if isinstance(result, list) else [result]


def run_suite(max_n: int, max_m: int, max_weight: int) -> list[VerificationReport]:
    """Run every registered identity over its grid, grouped in registry order.

    Character-method agreements sweep all shapes of weight up to max_weight
    for each alphabet; the lemma-style checks run over small grids derived
    from the bounds.  Failed and errored checks become reports, a ValueError
    among them: every grid point is in its identity's domain, so one raised
    there is a formula defect.  Only bad bounds raise.
    """
    if max_n < 1 or max_m < 1 or max_weight < 1:
        raise ValueError("bounds must be at least 1")
    return [
        report
        for name, grid in IDENTITIES.items()
        for params in grid(max_n, max_m, max_weight)
        for report in run_check(name, params, COMPUTATION_ERRORS + (ValueError,))
    ]
