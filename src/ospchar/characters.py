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

The C_n-type routes (symplectic, all four orthosymplectic routes, odd
symplectic) compute in z_i = x_i + 1/x_i and map back at the end; see the
comment that opens their section.  The two bordered determinants (hook and
orthosymplectic rational) apply divided differences in y to their m main
columns, which takes the factor prod(y_i - y_j) out of their divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebra import LaurentPolynomial, VariableSet, det_cofactor, exact_div, substitute_reciprocal_sums
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


def _vandermonde(vs: VariableSet, letters: Sequence[Poly]) -> Poly:
    """prod_{i<j}(letters_i - letters_j)."""
    n = len(letters)
    return _prod(vs, (letters[i] - letters[j] for i in range(n) for j in range(i + 1, n)))


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


def _bordered_sign(n: int, m: int, k: int) -> int:
    """(-1)^(mn - n + k - 1) of a bordered determinant, times the
    (-1)^(m(m-1)/2) that its divided differences in y bring."""
    return -1 if (m * n - n + k - 1 + m * (m - 1) // 2) % 2 else 1


def _divided_lower_border(lam: Partition, n: int, ys: Sequence[Poly], vs: VariableSet):
    """lower(p, k): the lower border of a bordered determinant at p, for any
    p with p'_1 <= lam'_1, after divided differences in y over its m main
    columns.  Row i holds y_j^a, a = p'_i + m - n - i >= 0, in column j; the
    divided difference of y^a over y_1..y_j is h_{a-j+1}(y_1..y_j), zero for
    a negative index.  The k - 1 border columns hold zeros."""
    m = len(ys)
    top = lam.conjugate().part(1) + m - n - 1
    hs = [complete_table(top, ys[: j + 1], vs) for j in range(m)]
    zero = vs.zero()

    def lower(p: Partition, k: int) -> list[list[Poly]]:
        pc = p.conjugate()
        rows = []
        for i in range(1, m - n + k):
            a = pc.part(i) + m - n - i
            rows.append([hs[j][a - j] if a >= j else zero for j in range(m)] + [zero] * (k - 1))
        return rows

    return lower


def _bordered_quotient(family: str, bordered, lam: Partition, divisor: Poly) -> Poly:
    """sign * det(rows) / divisor for (rows, sign) = bordered(lam).  Then
    the empty partition's sign * det(rows) is checked against the divisor,
    after the division, so a divisor that leaves a remainder still reports
    that remainder."""
    rows, sign = bordered(lam)
    quotient = exact_div(det_cofactor(rows, divisor.vars), divisor)
    empty_rows, empty_sign = bordered(Partition())
    _checked_denominator(family, empty_rows, empty_sign * divisor)
    return sign * quotient


def hook_schur_det(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """Bordered determinant with Cauchy block 1/(x_i + y_j).

    Valid for lam_{n+1} <= m.  The block matrix has the n x m Cauchy block,
    k - 1 columns of x-powers, m - n + k - 1 rows of y-powers and a zero
    block; the result is (-1)^(mn - n + k - 1) / D times its determinant,
    where D = prod(x_i - x_j) prod(y_i - y_j) / prod(x_i + y_j).

    Each main-block row is built scaled by its common denominator
    P_i = prod_q(x_i + y_q), so main column j holds P_i / (x_i + y_j).  The
    route replaces main column j by the divided difference in y of main
    columns 1..j over y_1..y_j.  That of 1/(x + y) is
    (-1)^(j-1) / prod_{t<=j}(x + y_t), so column j becomes
    (-1)^(j-1) prod_{t>j}(x_i + y_t), and the lower border is
    _divided_lower_border's.  The transform is triangular and divides the
    determinant by prod_{s<t}(y_t - y_s), so the value is the exact
    quotient by prod(x_i - x_j) alone, with sign _bordered_sign, and it
    holds at repeated y-letters.  Sign times the determinant of the rows at
    the empty partition is checked against that divisor on every call.
    """
    n, m = len(xs), len(ys)
    require_hook(lam, n, m)
    vs = _vs_of(xs, ys)
    main, full = [], []
    for x in xs:
        tail = [vs.one()]  # tail[s] = prod of (x + y) over the last s y-letters
        for y in reversed(ys):
            tail.append((x + y) * tail[-1])
        main.append([-tail[m - 1 - j] if j % 2 else tail[m - 1 - j] for j in range(m)])
        full.append(tail[m])
    lower = _divided_lower_border(lam, n, ys, vs)

    def bordered(p: Partition) -> tuple[list[list[Poly]], int]:
        k = k_index(p, n, m)
        rows = [row + [x ** (p.part(j) + n - m - j) * f for j in range(1, k)] for row, x, f in zip(main, xs, full)]
        return rows + lower(p, k), _bordered_sign(n, m, k)

    return _bordered_quotient("hook", bordered, lam, _vandermonde(vs, xs))


# -- C_n-type routes in z = x + 1/x -----------------------------------------------
#
# Every main row of a C_n-type matrix is odd under x_i -> 1/x_i, so it is
# (x_i - 1/x_i) times a row of polynomials in z_i = x_i + 1/x_i:
# x^a - x^-a = (x - 1/x) odd(a), with odd(0) = 0, odd(1) = 1 and
# odd(a + 1) = z odd(a) - odd(a - 1).  The symplectic denominator is
# prod(x_i - 1/x_i) * prod_{i<j}(z_i - z_j), so its long-root factors cancel
# from every quotient.  Each route builds its reduced rows over the caller's
# variables plus one z-letter per x-letter, divides their determinant by a
# Vandermonde in the z_i, and maps the quotient back with z_i -> x_i + 1/x_i
# (substitute_reciprocal_sums).  That map is a ring homomorphism for any unit
# monomial x_i, so the routes still evaluate at points such as
# (x_1, ..., 1/x_n) or (-x_1, x_2, ...).  ortho_jt has no divisor: every
# J_r is already a polynomial in the z_i, built by jseries_table.


def _denominator_factors(xs: Sequence[Poly], singles: int) -> tuple[Poly, Poly, Poly]:
    """The three root groups of a C_n-type denominator:
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


def symplectic_reduced_denominator(zs: Sequence[Poly]) -> Poly:
    """prod_{i<j}(z_i - z_j): the symplectic denominator over
    prod(x_i - 1/x_i), at z_i = x_i + 1/x_i."""
    return _vandermonde(_vs_of(zs), zs)


def _z_alphabet(vs: VariableSet, count: int):
    """vs followed by ``count`` z-letters named apart from vs's: the new
    variable set, its z-letters and the map of vs's polynomials into it."""
    prefix = "z"
    while any(f"{prefix}{i}" in vs.names for i in range(1, count + 1)):
        prefix += "z"
    ext = VariableSet(vs.names + tuple(f"{prefix}{i}" for i in range(1, count + 1)))

    def lift(p: Poly) -> Poly:
        # zero fields for the z-letters at the bottom of each key
        shift = 8 * p.fbytes * count
        return LaurentPolynomial._raw(ext, {k << shift: c for k, c in p.terms.items()}, p.fbytes, p.bound)

    return ext, [ext.gen(name) for name in ext.names[len(vs) :]], lift


def _reducer(z: Poly):
    """odd(a) = (x^a - x^-a) / (x - 1/x) as a polynomial in z = x + 1/x:
    odd(0) = 0, odd(1) = 1, odd(a + 1) = z odd(a) - odd(a - 1) and
    odd(-a) = -odd(a).  The table grows as far as it is asked."""
    table = [z.vars.zero(), z.vars.one()]

    def odd(a: int) -> Poly:
        b = abs(a)
        while len(table) <= b:
            table.append(z * table[-1] - table[-2])
        return -table[b] if a < 0 else table[b]

    return odd


def _checked_denominator(family: str, empty_rows: list[list[Poly]], divisor: Poly) -> Poly:
    """The divisor, once the determinant of the reduced rows at the empty
    partition is checked against it; a mismatch is a RuntimeError naming the
    family."""
    if det_cofactor(empty_rows, divisor.vars) != divisor:
        raise RuntimeError(f"{family} denominator does not match its product form")
    return divisor


def symplectic_matrix(lam: Partition, xs: Sequence[Poly]) -> list[list[Poly]]:
    """Rows x_i^a - x_i^-a with a = lam_j + n - j + 1.

    Its determinant at the empty partition is the symplectic denominator.
    """
    n = len(xs)
    exps = [lam.part(j) + n - j + 1 for j in range(1, n + 1)]
    return [[x ** a - x ** (-a) for a in exps] for x in xs]


def _symplectic_rows(lam: Partition, odds) -> list[list[Poly]]:
    """symplectic_matrix(lam, xs) with row i divided by x_i - 1/x_i."""
    n = len(odds)
    return [[odd(lam.part(j) + n - j + 1) for j in range(1, n + 1)] for odd in odds]


def symplectic_weyl(lam: Partition, xs: Sequence[Poly]) -> Poly:
    """Weyl quotient det(x_i^a - x_i^-a) / det(x_i^b - x_i^-b), with
    a = lam_j + n - j + 1 and b = n - j + 1, in z = x + 1/x: the reduced
    rows' determinant over symplectic_reduced_denominator, which is checked
    on every call against the reduced rows at the empty partition."""
    require_length(lam, len(xs))
    vs = _vs_of(xs)
    ext, zs, _ = _z_alphabet(vs, len(xs))
    odds = [_reducer(z) for z in zs]
    delta = _checked_denominator("symplectic", _symplectic_rows(Partition(), odds), symplectic_reduced_denominator(zs))
    return substitute_reciprocal_sums(exact_div(det_cofactor(_symplectic_rows(lam, odds), ext), delta), vs, xs)


# -- orthosymplectic -------------------------------------------------------


def ortho_jt(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """det of the n x n matrix with first column J_{lam_i - i + 1} and
    j-th column J_{lam_i - i + j} + J_{lam_i - i - j + 2} for j >= 2,
    J_r = sum_l h_l(X, 1/X) e_{r-l}(Y).  Every J_r is invariant under
    x_i -> 1/x_i, so the matrix is built and expanded over the z-letters
    z_i = x_i + 1/x_i, and the determinant is mapped back once."""
    n = len(xs)
    require_length(lam, n)
    vs = _vs_of(xs, ys)
    ext, zs, lift = _z_alphabet(vs, n)
    rmax = max(lam.part(1) + n - 1, 0)
    jt = jseries_table(rmax, zs, [lift(y) for y in ys], ext)
    zero = ext.zero()

    def J(r: int) -> Poly:
        return jt[r] if r >= 0 else zero

    rows = []
    for i in range(1, n + 1):
        a = lam.part(i) - i
        row = [J(a + 1)]
        row += [J(a + j) + J(a - j + 2) for j in range(2, n + 1)]
        rows.append(row)
    return substitute_reciprocal_sums(det_cofactor(rows, ext), vs, xs)


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

    Cleared of its denominator, a main-block row holds f(x_i) - f(1/x_i)
    with f(x) = x prod_{t != j}(x + y_t), and the border g(x_i) - g(1/x_i)
    with g(x) = x^e prod_q(x + y_q).  As in hook_schur_det, the route
    replaces main column j by the divided difference in y of main columns
    1..j over y_1..y_j: f becomes (-1)^(j-1) x prod_{t>j}(x + y_t) =
    (-1)^(j-1) sum_r e_r(y_{j+1}..y_m) x^(m-j+1-r), and the lower border is
    _divided_lower_border's.  Each main row is then x_i - 1/x_i times a row
    of sums c_r odd(r) in z_i.  The transform divides the determinant by
    prod_{s<t}(y_t - y_s), so the value is the exact quotient of the reduced
    determinant by symplectic_reduced_denominator alone, with sign
    _bordered_sign, and it holds at repeated y-letters.  Sign times the
    determinant of the reduced rows at the empty partition is checked
    against that divisor on every call.
    """
    n, m = len(xs), len(ys)
    vs = _vs_of(xs, ys)
    ext, zs, lift = _z_alphabet(vs, n)
    ys = [lift(y) for y in ys]
    zero = ext.zero()
    # tails[t] = [e_0, ..., e_{m-t}](y_{t+1}..y_m); tails[0] is e(Y)
    tails = [complete_table(m - t, (), ext, ys=ys[t:]) for t in range(m + 1)]
    odds = [_reducer(z) for z in zs]

    def combine(odd, es, top: int) -> Poly:
        return sum((c * odd(top - r) for r, c in enumerate(es)), zero)

    main = [[(-1) ** j * combine(odd, tails[j + 1], m - j) for j in range(m)] for odd in odds]
    lower = _divided_lower_border(lam, n, ys, ext)

    def bordered(p: Partition) -> tuple[list[list[Poly]], int]:
        k = k_index(p, n, m)
        exps = [p.part(j) + n - m - j + 1 for j in range(1, k)]
        rows = [row + [combine(odd, tails[0], e + m) for e in exps] for row, odd in zip(main, odds)]
        return rows + lower(p, k), _bordered_sign(n, m, k)

    quotient = _bordered_quotient("orthosymplectic", bordered, lam, symplectic_reduced_denominator(zs))
    return substitute_reciprocal_sums(quotient, vs, xs)


def ortho_det_laurent(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """Equivalent bordered determinant with Laurent polynomial entries.

    Main block (-1)^(m-j) (x_i^j - x_i^-j); border columns
    x_i^e prod(x_i + y_q) - x_i^-e prod(1/x_i + y_q), e = lam_j + n - m - j + 1;
    lower border h_{lam'_i - n - i + j}(Y); divided by the symplectic
    denominator product with sign (-1)^(mn - n + k - 1).  Like
    ortho_det_rational, valid on the (n, m)-hook and 0 outside it; with Y
    empty it has only the border columns, symplectic_matrix(lam, xs) when
    len(lam) <= n.

    Row i of the main block and border is x_i - 1/x_i times a row in z_i:
    (-1)^(m-j) odd(j), and sum_r e_r(Y) odd(e + m - r) from
    prod_q(x + y_q) = sum_r e_r(Y) x^(m-r).  The value is the signed exact
    quotient of that determinant by symplectic_reduced_denominator.
    """
    n, m = len(xs), len(ys)
    vs = _vs_of(xs, ys)
    ext, zs, lift = _z_alphabet(vs, n)
    ys = [lift(y) for y in ys]
    k = k_index(lam, n, m)
    lamc = lam.conjugate()
    zero = ext.zero()
    e_all = complete_table(m, (), ext, ys=ys)
    rows: list[list[Poly]] = []
    for odd in map(_reducer, zs):
        row = [-odd(j) if (m - j) % 2 else odd(j) for j in range(1, m + 1)]
        for j in range(1, k):
            e = lam.part(j) + n - m - j + 1
            row.append(sum((c * odd(e + m - r) for r, c in enumerate(e_all)), zero))
        rows.append(row)
    hy = complete_table(lamc.part(1) - n - 1 + m, ys, ext)
    for i in range(1, m - n + k):
        a = lamc.part(i) - n - i
        row = [hy[a + j] if a + j >= 0 else zero for j in range(1, m + 1)]
        row += [zero] * (k - 1)
        rows.append(row)
    assert len(rows) == m + k - 1
    quotient = exact_div(det_cofactor(rows, ext), symplectic_reduced_denominator(zs))
    sign = -1 if (m * n - n + k - 1) % 2 else 1
    return sign * substitute_reciprocal_sums(quotient, vs, xs)


def ortho_single_y(lam: Partition, xs: Sequence[Poly], y: Poly) -> Poly:
    """One-prime-variable case: det(x_i^(a+1) - x_i^-(a+1) + y (x_i^a - x_i^-a))
    over the symplectic denominator product, a = lam_j + n - j.  In z:
    rows odd(a + 1) + y odd(a) over symplectic_reduced_denominator, checked
    on every call against the same rows at the empty partition."""
    n = len(xs)
    require_length(lam, n)
    vs = _vs_of(xs)
    ext, zs, lift = _z_alphabet(vs, n)
    y = lift(y)
    odds = [_reducer(z) for z in zs]

    def rows(p: Partition) -> list[list[Poly]]:
        exps = [p.part(j) + n - j for j in range(1, n + 1)]
        return [[odd(a + 1) + y * odd(a) for a in exps] for odd in odds]

    delta = _checked_denominator("symplectic", rows(Partition()), symplectic_reduced_denominator(zs))
    return substitute_reciprocal_sums(exact_div(det_cofactor(rows(lam), ext), delta), vs, xs)


def ortho_sp_schur_sum(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """Sum over mu inside lam of sp_mu(X) * s_{lam'/mu'}(Y), summed in z and
    mapped back once; every sp_mu is symplectic_weyl's reduced quotient by
    the same divisor, checked once per call."""
    n = len(xs)
    vs = _vs_of(xs, ys)
    ext, zs, lift = _z_alphabet(vs, n)
    ys = [lift(y) for y in ys]
    odds = [_reducer(z) for z in zs]
    delta = _checked_denominator("symplectic", _symplectic_rows(Partition(), odds), symplectic_reduced_denominator(zs))
    lamc = lam.conjugate()
    total = ext.zero()
    for mu in subpartitions(lam, max_length=n):
        sp = exact_div(det_cofactor(_symplectic_rows(mu, odds), ext), delta)
        total = total + sp * skew_schur_jt(lamc, mu.conjugate(), ys, vars=ext)
    return substitute_reciprocal_sums(total, vs, xs)


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


def odd_reduced_denominator(zs: Sequence[Poly], y: Poly) -> Poly:
    """prod_{i<j<n}(z_i - z_j) * prod_{i<n}(z_i - y - 1/y): the odd
    symplectic denominator over prod_{i<n}(x_i - 1/x_i), at
    z_i = x_i + 1/x_i and y = x_n."""
    return _vandermonde(y.vars, list(zs) + [y + y.inverse()])


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


def _odd_rows(lam: Partition, odds, y: Poly) -> list[list[Poly]]:
    """odd_symplectic_matrix(lam, xs) with row i < n divided by x_i - 1/x_i."""
    n = len(odds) + 1
    yb = y.inverse()
    exps = [lam.part(j) + n - j for j in range(1, n + 1)]
    rows = [[odd(a + 1) - yb * odd(a) for a in exps] for odd in odds]
    rows.append([y ** a for a in exps])
    return rows


def odd_symplectic_det(lam: Partition, xs: Sequence[Poly]) -> Poly:
    """Quotient det A_lam / det A_empty of odd_symplectic_matrix, in z for
    x_1..x_{n-1}: the reduced rows' determinant over
    odd_reduced_denominator, which is checked on every call against the
    reduced rows at the empty partition."""
    require_length(lam, len(xs))
    vs = _vs_of(xs)
    ext, zs, lift = _z_alphabet(vs, len(xs) - 1)
    y = lift(xs[-1])
    odds = [_reducer(z) for z in zs]
    divisor = _checked_denominator("odd symplectic", _odd_rows(Partition(), odds, y), odd_reduced_denominator(zs, y))
    return substitute_reciprocal_sums(exact_div(det_cofactor(_odd_rows(lam, odds, y), ext), divisor), vs, xs[:-1])


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
