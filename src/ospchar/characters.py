"""Closed-form character computations for five families.

Every function takes explicit variable arguments: ``xs`` (and ``ys``) are
unit monomials in a shared variable set, so the same formulas evaluate both
at the standard alphabets x_1..x_n / y_1..y_m and at specialized points such
as (x_1, ..., 1/x_n).  Bars are inverses: ``xb = x.inverse()``.  A route
checks its domain with the symfun guard that CharacterRequest.validate calls.

Routes implemented per family (all agreeing, which the identity suite and
the acceptance tests verify against tableau enumeration):

* general linear: ratio of alternants; Jacobi-Trudi determinant
* general linear superalgebra (hook): Jacobi-Trudi in the complete
  supersymmetric functions; bordered Cauchy-block determinant
* symplectic: Weyl quotient of alternants in x^e - x^-e
* orthosymplectic: hyperoctahedral Jacobi-Trudi; a bordered determinant with
  rational entries; an equivalent bordered determinant with Laurent entries;
  the expansion sum over symplectic times skew Schur
* odd symplectic: quotient determinant with one distinguished variable
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebra import LaurentPolynomial, VariableSet, det_cofactor, exact_div
from .symfun import (
    Partition,
    complete_table,
    jseries_table,
    k_index,
    require_hook,
    require_length,
    skew_schur_jt,
    standard_x,
    standard_xy,
    subpartitions,
)
from . import tableaux

Poly = LaurentPolynomial


def _vs_of(xs: Sequence[Poly], ys: Sequence[Poly] = ()) -> VariableSet:
    if xs:
        return xs[0].vars
    if ys:
        return ys[0].vars
    raise ValueError("at least one variable is required")


def _prod(vs: VariableSet, factors) -> Poly:
    out = vs.one()
    for f in factors:
        out = out * f
    return out


# -- general linear -----------------------------------------------------


def schur_bialternant(lam: Partition, xs: Sequence[Poly]) -> Poly:
    """det(x_i^(lam_j + n - j)) / det(x_i^(n - j))."""
    n = len(xs)
    require_length(lam, n)
    vs = _vs_of(xs)
    num = [[xs[i] ** (lam.part(j) + n - j) for j in range(1, n + 1)] for i in range(n)]
    den = [[xs[i] ** (n - j) for j in range(1, n + 1)] for i in range(n)]
    return exact_div(det_cofactor(num, vs), det_cofactor(den, vs))


# -- hook (general linear superalgebra) ----------------------------------


def hook_schur_jt(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """det(H_{lam_i - i + j}) over the complete supersymmetric functions."""
    return skew_schur_jt(lam, Partition(), xs, _vs_of(xs, ys), ys=ys)


def hook_schur_det(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """Bordered determinant with Cauchy block 1/(x_i + y_j).

    Valid for lam_{n+1} <= m.  The block matrix has the n x m Cauchy block,
    k - 1 columns of x-powers, m - n + k - 1 rows of y-powers and a zero
    block; the result is (-1)^(mn - n + k - 1) / D times its determinant,
    where D = prod(x_i - x_j) prod(y_i - y_j) / prod(x_i + y_j).

    Each main-block row is built scaled by its common denominator
    prod_q(x_i + y_q), so every entry is a Laurent polynomial and the value
    is the signed exact quotient of that determinant by the product form
    prod(x_i - x_j) prod(y_i - y_j).
    """
    n, m = len(xs), len(ys)
    require_hook(lam, n, m)
    vs = _vs_of(xs, ys)
    k = k_index(lam, n, m)
    size = m + k - 1
    lamc = lam.conjugate()
    rows: list[list[Poly]] = []
    for i in range(n):
        x = xs[i]
        p = _prod(vs, (x + y for y in ys))
        row = [_prod(vs, (x + ys[t] for t in range(m) if t != j)) for j in range(m)]
        row += [x ** (lam.part(j) + n - m - j) * p for j in range(1, k)]
        rows.append(row)
    zero = vs.zero()
    for i in range(1, m - n + k):
        row = [ys[j] ** (lamc.part(i) + m - n - i) for j in range(m)]
        row += [zero] * (k - 1)
        rows.append(row)
    assert len(rows) == size
    dnum = _prod(vs, (xs[i] - xs[j] for i in range(n) for j in range(i + 1, n)))
    dnum = dnum * _prod(vs, (ys[i] - ys[j] for i in range(m) for j in range(i + 1, m)))
    sign = -1 if (m * n - n + k - 1) % 2 else 1
    return sign * exact_div(det_cofactor(rows, vs), dnum)


# -- symplectic -----------------------------------------------------------


def _denominator_factors(xs: Sequence[Poly], singles: int) -> tuple[Poly, Poly, Poly]:
    """The three root groups of a C_n-type denominator, in division order:
    prod_{i<=singles}(x_i - 1/x_i) (roots 2e_i), prod_{i<j}(1 - 1/(x_i x_j))
    (roots e_i + e_j) and the Vandermonde prod_{i<j}(x_i - x_j) (roots
    e_i - e_j).  The last two multiply to prod_{i<j}(x_i + 1/x_i - x_j - 1/x_j),
    since x_i + 1/x_i - x_j - 1/x_j = (x_i - x_j)(1 - 1/(x_i x_j))."""
    vs = _vs_of(xs)
    n = len(xs)
    one = vs.one()
    inv = [x.inverse() for x in xs]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return (
        _prod(vs, (xs[i] - inv[i] for i in range(singles))),
        _prod(vs, (one - inv[i] * inv[j] for i, j in pairs)),
        _prod(vs, (xs[i] - xs[j] for i, j in pairs)),
    )


def symplectic_denominator_factors(xs: Sequence[Poly]) -> tuple[Poly, Poly, Poly]:
    """The three root groups of the symplectic denominator: the singles
    prod(x_i - 1/x_i), prod_{i<j}(1 - 1/(x_i x_j)) and the Vandermonde
    prod_{i<j}(x_i - x_j)."""
    return _denominator_factors(xs, len(xs))


def symplectic_denominator_product(xs: Sequence[Poly]) -> Poly:
    """prod(x_i - 1/x_i) * prod_{i<j}(x_i + 1/x_i - x_j - 1/x_j), as the
    product of the three root groups of symplectic_denominator_factors."""
    return _prod(_vs_of(xs), symplectic_denominator_factors(xs))


def symplectic_matrix(lam: Partition, xs: Sequence[Poly]) -> list[list[Poly]]:
    """Rows x_i^a - x_i^-a with a = lam_j + n - j + 1.

    Its determinant at the empty partition is the symplectic denominator.
    """
    n = len(xs)
    exps = [lam.part(j) + n - j + 1 for j in range(1, n + 1)]
    return [[x ** a - x ** (-a) for a in exps] for x in xs]


def _checked_denominator(matrix, xs: Sequence[Poly], groups: tuple[Poly, ...]) -> tuple[Poly, ...]:
    """The root groups, once det matrix(empty, xs) is checked against their
    product; a mismatch is a RuntimeError naming the matrix's family."""
    vs = _vs_of(xs)
    if det_cofactor(matrix(Partition(), xs), vs) != _prod(vs, groups):
        family = matrix.__name__.removesuffix("_matrix").replace("_", " ")
        raise RuntimeError(f"{family} denominator does not match its product form")
    return groups


def _alternant_quotient(matrix, lam: Partition, xs: Sequence[Poly], groups: tuple[Poly, ...]) -> Poly:
    """det matrix(lam, xs) divided by each root group in turn, one exact stage each."""
    quotient = det_cofactor(matrix(lam, xs), _vs_of(xs))
    for group in groups:
        quotient = exact_div(quotient, group)
    return quotient


def symplectic_weyl(lam: Partition, xs: Sequence[Poly]) -> Poly:
    """Weyl quotient det(x_i^a - x_i^-a), a = lam_j + n - j + 1, over the
    same determinant at the empty partition (both from symplectic_matrix),
    checked on every call and divided by the three root groups of
    symplectic_denominator_factors in turn."""
    require_length(lam, len(xs))
    groups = _checked_denominator(symplectic_matrix, xs, symplectic_denominator_factors(xs))
    return _alternant_quotient(symplectic_matrix, lam, xs, groups)


# -- orthosymplectic -------------------------------------------------------


def ortho_jt(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """det of the n x n matrix with first column J_{lam_i - i + 1} and
    j-th column J_{lam_i - i + j} + J_{lam_i - i - j + 2} for j >= 2,
    J_r = sum_l h_l(X, 1/X) e_{r-l}(Y)."""
    n = len(xs)
    require_length(lam, n)
    vs = _vs_of(xs, ys)
    rmax = max(lam.part(1) + n - 1, 0)
    jt = jseries_table(rmax, xs, ys, vs)
    zero = vs.zero()

    def J(r: int) -> Poly:
        return jt[r] if r >= 0 else zero

    rows = []
    for i in range(1, n + 1):
        a = lam.part(i) - i
        row = [J(a + 1)]
        row += [J(a + j) + J(a - j + 2) for j in range(2, n + 1)]
        rows.append(row)
    return det_cofactor(rows, vs)


def ortho_det_rational(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """Bordered determinant with rational entries.

    Row i of the main block carries the common denominator
    prod_q (x_i + y_q)(1/x_i + y_q); its entries are
    x_i/((x_i+y_j) prod(1/x_i+y_q)) - (1/x_i)/((1/x_i+y_j) prod(x_i+y_q))
    and the k - 1 border columns x_i^e/prod(1/x_i+y_q) - x_i^-e/prod(x_i+y_q)
    with e = lam_j + n - m - j + 1.  The lower border holds y-powers.
    With Y empty and len(lam) <= n the matrix is symplectic_matrix(lam, xs),
    so the value is the symplectic character.  Valid on the whole
    (n, m)-hook, lam_{n+1} <= m, shapes longer than n included; outside it
    k - 1 > n border columns are nonzero only in the n main rows, so the
    value is 0, as is the character.

    Each main-block row is built scaled by its common denominator, so every
    entry is a Laurent polynomial and the value is the signed exact quotient
    of that determinant by the product form: the symplectic denominator
    product times prod_{i<j}(y_i - y_j), with sign (-1)^(mn - n + k - 1).
    The division runs in two exact stages: first by prod_{i<j}(y_i - y_j),
    then by the symplectic denominator product in one piece.
    """
    n, m = len(xs), len(ys)
    vs = _vs_of(xs, ys)
    k = k_index(lam, n, m)
    lamc = lam.conjugate()
    rows: list[list[Poly]] = []
    for i in range(n):
        x = xs[i]
        xb = x.inverse()
        p = _prod(vs, (x + y for y in ys))
        q = _prod(vs, (xb + y for y in ys))
        row = [
            x * _prod(vs, (x + ys[t] for t in range(m) if t != j))
            - xb * _prod(vs, (xb + ys[t] for t in range(m) if t != j))
            for j in range(m)
        ]
        for j in range(1, k):
            e = lam.part(j) + n - m - j + 1
            row.append(x ** e * p - xb ** e * q)
        rows.append(row)
    zero = vs.zero()
    for i in range(1, m - n + k):
        row = [ys[j] ** (lamc.part(i) + m - n - i) for j in range(m)]
        row += [zero] * (k - 1)
        rows.append(row)
    assert len(rows) == m + k - 1
    delta_y = _prod(vs, (ys[i] - ys[j] for i in range(m) for j in range(i + 1, m)))
    sign = -1 if (m * n - n + k - 1) % 2 else 1
    return sign * exact_div(exact_div(det_cofactor(rows, vs), delta_y), symplectic_denominator_product(xs))


def ortho_det_laurent(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """Equivalent bordered determinant with Laurent polynomial entries.

    Main block (-1)^(m-j) (x_i^j - x_i^-j); border columns
    x_i^e prod(x_i + y_q) - x_i^-e prod(1/x_i + y_q), e = lam_j + n - m - j + 1;
    lower border h_{lam'_i - n - i + j}(Y); divided by the symplectic
    denominator product with sign (-1)^(mn - n + k - 1).  Like
    ortho_det_rational, valid on the (n, m)-hook and 0 outside it; with Y
    empty it has only the border columns, symplectic_matrix(lam, xs) when
    len(lam) <= n.
    """
    n, m = len(xs), len(ys)
    vs = _vs_of(xs, ys)
    k = k_index(lam, n, m)
    lamc = lam.conjugate()
    zero = vs.zero()
    rows: list[list[Poly]] = []
    for i in range(n):
        x = xs[i]
        xb = x.inverse()
        p = _prod(vs, (x + y for y in ys))
        q = _prod(vs, (xb + y for y in ys))
        row = []
        for j in range(1, m + 1):
            entry = x ** j - xb ** j
            row.append(-entry if (m - j) % 2 else entry)
        for j in range(1, k):
            e = lam.part(j) + n - m - j + 1
            row.append(x ** e * p - xb ** e * q)
        rows.append(row)
    hy = complete_table(lamc.part(1) - n - 1 + m, ys, vs)
    for i in range(1, m - n + k):
        a = lamc.part(i) - n - i
        row = [hy[a + j] if a + j >= 0 else zero for j in range(1, m + 1)]
        row += [zero] * (k - 1)
        rows.append(row)
    assert len(rows) == m + k - 1
    det = det_cofactor(rows, vs)
    sign = -1 if (m * n - n + k - 1) % 2 else 1
    return sign * exact_div(det, symplectic_denominator_product(xs))


def ortho_single_y(lam: Partition, xs: Sequence[Poly], y: Poly) -> Poly:
    """One-prime-variable case: det(x_i^(a+1) - x_i^-(a+1) + y (x_i^a - x_i^-a))
    over the symplectic denominator product, a = lam_j + n - j."""
    n = len(xs)
    require_length(lam, n)
    vs = _vs_of(xs)
    rows = []
    for i in range(n):
        x = xs[i]
        row = []
        for j in range(1, n + 1):
            a = lam.part(j) + n - j
            row.append(x ** (a + 1) - x ** (-a - 1) + y * (x ** a - x ** (-a)))
        rows.append(row)
    return exact_div(det_cofactor(rows, vs), symplectic_denominator_product(xs))


def ortho_sp_schur_sum(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """Sum over mu inside lam of sp_mu(X) * s_{lam'/mu'}(Y); every sp_mu is
    a Weyl quotient by the same root groups, checked once per call."""
    n = len(xs)
    vs = _vs_of(xs, ys)
    lamc = lam.conjugate()
    total = vs.zero()
    groups = _checked_denominator(symplectic_matrix, xs, symplectic_denominator_factors(xs))
    for mu in subpartitions(lam, max_length=n):
        sp = _alternant_quotient(symplectic_matrix, mu, xs, groups)
        sk = skew_schur_jt(lamc, mu.conjugate(), ys, vars=vs)
        total = total + sp * sk
    return total


# -- odd symplectic ---------------------------------------------------------


def odd_denominator_factors(xs: Sequence[Poly]) -> tuple[Poly, Poly, Poly]:
    """The three root groups of the odd symplectic denominator: the singles
    prod_{i<n}(x_i - 1/x_i), prod_{i<j<=n}(1 - 1/(x_i x_j)) and the
    Vandermonde prod_{i<j<=n}(x_i - x_j)."""
    return _denominator_factors(xs, len(xs) - 1)


def odd_denominator_product(xs: Sequence[Poly]) -> Poly:
    """prod_{i<n}(x_i - 1/x_i) * prod_{i<j<=n}(x_i + 1/x_i - x_j - 1/x_j), as
    the product of the three root groups of odd_denominator_factors."""
    return _prod(_vs_of(xs), odd_denominator_factors(xs))


def odd_symplectic_matrix(lam: Partition, xs: Sequence[Poly]) -> list[list[Poly]]:
    """A_lam with the last variable y distinguished.

    Rows i < n: (x_i^(a+1) - x_i^-(a+1)) - (1/y)(x_i^a - x_i^-a) with
    a = lam_j + n - j; row n: y^(lam_j + n - j).
    """
    n = len(xs)
    y = xs[n - 1]
    yb = y.inverse()
    rows = []
    for i in range(n - 1):
        x = xs[i]
        row = []
        for j in range(1, n + 1):
            a = lam.part(j) + n - j
            row.append(x ** (a + 1) - x ** (-a - 1) - yb * (x ** a - x ** (-a)))
        rows.append(row)
    rows.append([y ** (lam.part(j) + n - j) for j in range(1, n + 1)])
    return rows


def odd_symplectic_det(lam: Partition, xs: Sequence[Poly]) -> Poly:
    """Quotient det A_lam / det A_empty of odd_symplectic_matrix, checked on
    every call and divided by the three root groups of
    odd_denominator_factors in turn."""
    require_length(lam, len(xs))
    groups = _checked_denominator(odd_symplectic_matrix, xs, odd_denominator_factors(xs))
    return _alternant_quotient(odd_symplectic_matrix, lam, xs, groups)


# -- request dispatch --------------------------------------------------------


FAMILIES = ("schur", "hook", "symplectic", "orthosymplectic", "odd_symplectic")
METHODS = ("tableau", "jt", "det", "weyl", "okada", "sp_schur_sum")

# (family, method) -> route(lam, n, m).  Each lambda looks its route up by
# name when called, so a wrapper installed on the module attribute sees it.
_ROUTES = {
    ("schur", "tableau"): lambda lam, n, m: tableaux.ssyt_weight_sum(lam, Partition(), n),
    ("schur", "jt"): lambda lam, n, m: skew_schur_jt(lam, Partition(), standard_x(n)[1]),
    ("schur", "weyl"): lambda lam, n, m: schur_bialternant(lam, standard_x(n)[1]),
    ("hook", "tableau"): lambda lam, n, m: tableaux.super_weight_sum(lam, n, m),
    ("hook", "jt"): lambda lam, n, m: hook_schur_jt(lam, *standard_xy(n, m)[1:]),
    ("hook", "det"): lambda lam, n, m: hook_schur_det(lam, *standard_xy(n, m)[1:]),
    ("symplectic", "tableau"): lambda lam, n, m: tableaux.symplectic_weight_sum(lam, n),
    ("symplectic", "weyl"): lambda lam, n, m: symplectic_weyl(lam, standard_x(n)[1]),
    ("orthosymplectic", "tableau"): lambda lam, n, m: tableaux.orthosymplectic_weight_sum(lam, n, m),
    ("orthosymplectic", "jt"): lambda lam, n, m: ortho_jt(lam, *standard_xy(n, m)[1:]),
    ("orthosymplectic", "det"): lambda lam, n, m: ortho_det_rational(lam, *standard_xy(n, m)[1:]),
    ("orthosymplectic", "sp_schur_sum"): lambda lam, n, m: ortho_sp_schur_sum(lam, *standard_xy(n, m)[1:]),
    ("odd_symplectic", "tableau"): lambda lam, n, m: tableaux.odd_symplectic_weight_sum(lam, n),
    ("odd_symplectic", "okada"): lambda lam, n, m: odd_symplectic_det(lam, standard_x(n)[1]),
}

# family -> the tableaux its tableau route sums over, as f(lam, mu, n, m),
# looked up when called like the routes.  The inner shape mu is schur's only.
_LISTINGS = {
    "schur": lambda lam, mu, n, m: tableaux.ssyt_tableaux(lam, mu, n),
    "hook": lambda lam, mu, n, m: tableaux.super_tableaux(lam, n, m),
    "symplectic": lambda lam, mu, n, m: tableaux.symplectic_tableaux(lam, n),
    "orthosymplectic": lambda lam, mu, n, m: tableaux.orthosymplectic_tableaux(lam, n, m),
    "odd_symplectic": lambda lam, mu, n, m: tableaux.odd_symplectic_tableaux(lam, n),
}


def _check_counts(family: str, n: int, m: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if m < 0:
        raise ValueError("m must be nonnegative")
    if family in ("hook", "orthosymplectic"):
        if m < 1:
            raise ValueError(f"family {family!r} needs m >= 1")
    elif m:
        raise ValueError(f"family {family!r} does not take --m")


def family_tableaux(family: str, lam: Partition, n: int, m: int, mu: Partition) -> Iterator[str]:
    """The tableaux whose weights the family's tableau route sums, in
    enumeration order, each as its display text; mu is an inner shape
    (schur only).

    Raises ValueError when called, before any tableau is listed, outside
    the tableau route's domain, with the same message as
    CharacterRequest.validate.  A skew schur shape only needs valid counts:
    its outer shape may be longer than n, and mu must lie inside lam.
    """
    if family == "schur" and mu.length:
        _check_counts(family, n, m)
    else:
        CharacterRequest(family, "tableau", lam, n, m).validate()
    return _LISTINGS[family](lam, mu, n, m)


@dataclass(frozen=True)
class CharacterRequest:
    """One character computation: which family, by which route, at which point."""

    family: str
    method: str
    lam: Partition
    n: int
    m: int = 0

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if (self.family, self.method) not in _ROUTES:
            raise ValueError(f"method {self.method!r} is not available for {self.family!r}")
        _check_counts(self.family, self.n, self.m)
        if self.family in ("schur", "symplectic", "odd_symplectic") or (self.family, self.method) == ("orthosymplectic", "jt"):
            require_length(self.lam, self.n)
        if self.method == "det":
            require_hook(self.lam, self.n, self.m)

    def compute(self) -> Poly:
        """The character by the requested route.  A request outside the
        route's domain raises ValueError before the route runs; a ValueError
        the route raises afterwards is a formula defect, a RuntimeError."""
        self.validate()
        try:
            return _ROUTES[(self.family, self.method)](self.lam, self.n, self.m)
        except ValueError as exc:
            raise RuntimeError(str(exc)) from exc
