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

The seven C_n-type routes (symplectic_weyl, ortho_jt, ortho_det_rational,
ortho_det_laurent, ortho_single_y, ortho_sp_schur_sum, odd_symplectic_det)
compute in z_i = x_i + 1/x_i, in a _ZWorld over their own letters, and map
back at the end.  All but ortho_jt take their Vandermonde in z out by
divided differences in z over their n main rows (see the comment that
opens their section).  schur_bialternant and hook_schur_det take
prod(x_i - x_j) out the same way, by divided differences in x over their
n main rows.  One builder, _divided, makes the tables of divided
differences in every alphabet, with one sign convention: in x or y
(s = 0) and in z (s = 1).

One builder, _bordered_cauchy, computes four routes: the two bordered
determinants with a Cauchy-type block, hook_schur_det in x and
ortho_det_rational in z, and, with no y-letters, their bialternants
schur_bialternant in x and symplectic_weyl in z.  It also takes
prod(y_i - y_j) out by divided differences in y over its m main columns,
with its lower border read from _divided's tables in y.
ortho_det_laurent, ortho_sp_schur_sum, ortho_single_y and
odd_symplectic_det build their own rows from _divided's tables in z.

No route divides.  Each determinant *is* the character.  Every route with
a product-form denominator builds value(p), its signed determinant (or, for
ortho_sp_schur_sum, its whole sum) at the partition p, and _checked checks
value at the empty partition, where the character is 1, against 1, and
raises a RuntimeError naming the family when they differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .algebra import LaurentPolynomial, VariableSet, det_cofactor, substitute_reciprocal_sums
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


# -- divided differences and the check at the empty partition ---------------
#
# A route whose main row i is f_c(l_i), the same polynomials f_c in every
# row, reads row i from a table of (-1)^(i-1) times the divided differences
# over l_1..l_i, built by _divided: in x or y (s = 0) or in z = x + 1/x
# (s = 1).  _bordered_cauchy treats its y-columns the same way.
# Its determinant is then its quotient by prod_{i<j}(l_i - l_j), with no
# division, and holds at repeated letters.


def _checked(family: str, value, lam: Partition) -> Poly:
    """value(lam), the route's polynomial at lam with its product-form
    denominator taken out.  Every character is 1 at the empty partition, so
    a RuntimeError naming the family is raised unless value is 1 there."""
    if value(Partition()) != 1:
        raise RuntimeError(f"{family} denominator does not match its product form")
    return value(lam)


def _divided(letters: Sequence[Poly], top: int, s: int) -> list[list[Poly]]:
    """The tables of divided differences over the letters l_1..l_n, the main
    letters in x or z, or the y-letters: tables[i - 1][d], 0 <= d <= top, is
    (-1)^(i-1) times the divided difference over l_1..l_i of f_d, which is
    h_(d-i+1-s) of l_1..l_i (zero for d < i - 1 + s), from complete_table.
    In x or y (s = 0) f_d is l^d and the h are of the letters; in z
    (s = 1) each l = x + 1/x stands for a pair x, 1/x, f_d is
    odd(d) = (x^d - x^-d) / (x - 1/x), and, as
    sum_d odd(d) t^(d-1) = 1/(1 - l t + t^2), the h are of the pairs.
    Rows (or columns) sum_d c_d f_d(l_i), the same c_d in every one, have
    prod_{i<j}(l_i - l_j) times the determinant that the same rows read
    from these tables have."""
    tables = []
    for i in range(1, len(letters) + 1):
        rmax, head = top - i + 1 - s, letters[:i]
        h = complete_table(rmax, (), zs=head) if s else complete_table(rmax, head)
        tables.append([letters[0].vars.zero()] * (i - 1 + s) + (h if i % 2 else [-c for c in h]))
    return tables


def _combine(table: Sequence[Poly], es: Sequence[Poly], top: int) -> Poly:
    """sum_r es[r] * table[top - r]: the entry of a row sum_r es[r] f(top - r),
    read from the row's table of f.  es is a table of e_r, so es[0] is 1."""
    return sum((c * table[top - r] for r, c in enumerate(es[1:], 1)), table[top])


# -- the bordered Cauchy determinant ------------------------------------------


def _bordered_cauchy(family: str, lam: Partition, letters: Sequence[Poly], ys: Sequence[Poly], s: int) -> Poly:
    """The bordered Cauchy determinant at lam over the main letters l_1..l_n
    and y_1..y_m, read from the row tables _divided(letters, top, s): in x
    (s = 0) it is Moens-Van der Jeugt's for gl(m|n), in z = x + 1/x (s = 1)
    the orthosymplectic one.  Checked at the empty partition under the
    family's name in _checked; no division.

    The block matrix has the n x m Cauchy-type block, k - 1 border columns,
    m - n + k - 1 lower border rows y_j^(lam'_i + m - n - i) and a zero
    block, k = k_index(lam, n, m); the character is (-1)^(mn - n + k - 1)
    times its determinant over its product-form denominator.  Each main
    row i is built scaled by its common denominator P_i = prod_q(x_i + y_q)
    (times prod_q(1/x_i + y_q) for s = 1).  Main column j then holds
    f(x_i) with f(x) = x^s prod_{t != j}(x + y_t), and border column j holds
    g(x_i) with g(x) = x^e prod_q(x + y_q), e = lam_j + n - m - j + s; for
    s = 1 each entry is f(x_i) - f(1/x_i), that is x_i - 1/x_i, a factor of
    the denominator, times f read with odd(a) = (x^a - x^-a) / (x - 1/x)
    for x^a at z_i.

    Column j is replaced by (-1)^(j-1) times the divided difference in y
    of columns 1..j over y_1..y_j, _divided's convention, which divides
    the determinant by prod_{i<j}(y_i - y_j) and keeps the sign.  The
    divided difference of 1/(x + y) is (-1)^(j-1) / prod_{t<=j}(x + y_t),
    so f becomes x^s prod_{t>j}(x + y_t) = sum_r e_r(y_{j+1}..y_m)
    x^(m-j+s-r); the lower border's y_j^a becomes
    _divided(ys, top, 0)[j - 1][a], zero for a < 0; the k - 1 border
    columns of the lower border hold zeros.  Every main row is now a sum of
    x^a (or odd(a) in z), the same in every row, so the rows are read from
    the row tables: divided differences over the main letters.  The two
    transforms take prod(y_i - y_j) and the Vandermonde in the main letters
    out, so the determinant is the character with no division, and it
    holds at repeated letters.

    With no y-letters there is no Cauchy block and no lower border, k - 1
    is n, and the matrix is the bialternant: x_i^(lam_j + n - j) for s = 0,
    the Schur character, and x_i^a - x_i^-a, a = lam_j + n - j + 1, for
    s = 1, the symplectic one (symplectic_matrix).
    """
    n, m = len(letters), len(ys)
    vs = _vs_of(letters, ys)
    # tails[t] = [e_0, ..., e_{m-t}](y_{t+1}..y_m); tails[0] is e(Y)
    tails = [complete_table(m - t, (), vs, ys=ys[t:]) for t in range(m + 1)]
    tables = _divided(letters, max(lam.part(1) + n - 1, m - 1) + s, s)
    main = [[_combine(row, tails[j + 1], m - 1 - j + s) for j in range(m)] for row in tables]
    # the lower border's tables in y, at lam and below
    ydiv = _divided(ys, lam.conjugate().part(1) + m - n - 1, 0)
    zero = vs.zero()

    def bordered(p: Partition) -> Poly:
        k = k_index(p, n, m)
        pc = p.conjugate()
        exps = [p.part(j) + n - m - j + s for j in range(1, k)]
        rows = [head + [_combine(row, tails[0], e + m) for e in exps] for head, row in zip(main, tables)]
        for i in range(1, m - n + k):
            a = pc.part(i) + m - n - i
            rows.append([ydiv[j][a] if a >= 0 else zero for j in range(m)] + [zero] * (k - 1))
        det = det_cofactor(rows, vs)
        return -det if (m * n - n + k - 1) % 2 else det

    return _checked(family, bordered, lam)


# -- general linear -----------------------------------------------------


def schur_bialternant(lam: Partition, xs: Sequence[Poly]) -> Poly:
    """det(x_i^(lam_j + n - j)) / det(x_i^(n - j)): _bordered_cauchy with no
    y-letters, by divided differences in x; no division."""
    require_length(lam, len(xs))
    return _bordered_cauchy("schur", lam, xs, (), 0)


# -- hook (general linear superalgebra) ----------------------------------


def hook_schur_jt(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """det(H_{lam_i - i + j}) over the complete supersymmetric functions."""
    return skew_schur_jt(lam, Partition(), xs, _vs_of(xs, ys), ys=ys)


def hook_schur_det(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """Bordered determinant with Cauchy block 1/(x_i + y_j), valid for
    lam_{n+1} <= m: (-1)^(mn - n + k - 1) / D times its determinant, where
    D = prod(x_i - x_j) prod(y_i - y_j) / prod(x_i + y_j).  _bordered_cauchy
    in x computes it, by divided differences in x and in y; no division,
    and it holds at repeated x- and y-letters."""
    require_hook(lam, len(xs), len(ys))
    return _bordered_cauchy("hook", lam, xs, ys, 0)


# -- C_n-type routes in z = x + 1/x -----------------------------------------------
#
# Every main row of a C_n-type matrix is odd under x_i -> 1/x_i, so it is
# (x_i - 1/x_i) times g_c(z_i), z_i = x_i + 1/x_i, for polynomials g_c that
# are the same in every row, sums of odd(a) = (x^a - x^-a) / (x - 1/x).  The
# symplectic denominator is prod(x_i - 1/x_i) * prod_{i<j}(z_i - z_j), so
# what is left to divide by is a Vandermonde in z.  Divided differences in
# z take it out with no division: row i becomes (-1)^(i-1) g_c[z_1..z_i],
# read from _divided with s = 1, and the determinant *is* the quotient,
# checked at the empty partition by _checked.  Each route builds its
# rows in one _ZWorld per call and maps the value back by
# z_i -> x_i + 1/x_i, a ring homomorphism for any unit monomial x_i, so the
# routes still evaluate at points such as (x_1, ..., 1/x_n) or
# (-x_1, x_2, ...).  ortho_jt needs no divided difference: every J_r is
# already a polynomial in the z_i.


def symplectic_denominator_product(xs: Sequence[Poly]) -> Poly:
    """prod(x_i - 1/x_i) * prod_{i<j}(x_i + 1/x_i - x_j - 1/x_j)."""
    vs = _vs_of(xs)
    return _prod(vs, (x - x.inverse() for x in xs)) * _vandermonde(vs, [x + x.inverse() for x in xs])


class _ZWorld:
    """The z-world of one call over the letters xs and ys, which share one
    variable set: that set followed by one z-letter z_i = x_i + 1/x_i per
    x-letter, named apart from its names.  ext is the extended set, zs the
    z-letters, ys the y-letters lifted into ext with zero z-exponents, and
    back(p) maps a polynomial in ext to the caller's variables by
    z_i -> x_i + 1/x_i.  Rows come from divided differences in z over zs
    (_divided with s = 1); no division."""

    def __init__(self, xs: Sequence[Poly], ys: Sequence[Poly]):
        vs = _vs_of(xs, ys)
        count = len(xs)
        prefix = "z"
        while any(f"{prefix}{i}" in vs.names for i in range(1, count + 1)):
            prefix += "z"
        self.ext = ext = VariableSet(vs.names + tuple(f"{prefix}{i}" for i in range(1, count + 1)))
        self.zs = [ext.gen(name) for name in ext.names[len(vs) :]]
        self.ys = [ext.poly({e + (0,) * count: c for e, c in y.tuple_terms().items()}) for y in ys]
        self._vs, self._xs = vs, xs

    def back(self, p: Poly) -> Poly:
        return substitute_reciprocal_sums(p, self._vs, self._xs)


def symplectic_matrix(lam: Partition, xs: Sequence[Poly]) -> list[list[Poly]]:
    """Rows x_i^a - x_i^-a with a = lam_j + n - j + 1.

    Its determinant at the empty partition is the symplectic denominator.
    """
    n = len(xs)
    exps = [lam.part(j) + n - j + 1 for j in range(1, n + 1)]
    return [[x ** a - x ** (-a) for a in exps] for x in xs]


def symplectic_weyl(lam: Partition, xs: Sequence[Poly]) -> Poly:
    """Weyl quotient det(x_i^a - x_i^-a) / det(x_i^b - x_i^-b), with
    a = lam_j + n - j + 1 and b = n - j + 1: _bordered_cauchy with no
    y-letters, in z = x + 1/x by divided differences in z; no division."""
    require_length(lam, len(xs))
    w = _ZWorld(xs, ())
    return w.back(_bordered_cauchy("symplectic", lam, w.zs, (), 1))


# -- orthosymplectic -------------------------------------------------------


def ortho_jt(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """det of the n x n matrix with first column J_{lam_i - i + 1} and
    j-th column J_{lam_i - i + j} + J_{lam_i - i - j + 2} for j >= 2,
    J_r = sum_l h_l(X, 1/X) e_{r-l}(Y).  Every J_r is invariant under
    x_i -> 1/x_i, so the matrix is built and expanded over the z-letters
    z_i = x_i + 1/x_i, and the determinant is mapped back once."""
    n = len(xs)
    require_length(lam, n)
    w = _ZWorld(xs, ys)
    jt = jseries_table(max(lam.part(1) + n - 1, 0), w.zs, w.ys, w.ext)
    zero = w.ext.zero()

    def J(r: int) -> Poly:
        return jt[r] if r >= 0 else zero

    rows = []
    for i in range(1, n + 1):
        a = lam.part(i) - i
        row = [J(a + 1)]
        row += [J(a + j) + J(a - j + 2) for j in range(2, n + 1)]
        rows.append(row)
    return w.back(det_cofactor(rows, w.ext))


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

    _bordered_cauchy in z = x + 1/x computes it, by divided differences in
    z and in y; no division, and it holds at repeated y-letters.
    """
    w = _ZWorld(xs, ys)
    return w.back(_bordered_cauchy("orthosymplectic", lam, w.zs, w.ys, 1))


def ortho_det_laurent(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """Equivalent bordered determinant with Laurent polynomial entries.

    Main block (-1)^(m-j) (x_i^j - x_i^-j); border columns
    x_i^e prod(x_i + y_q) - x_i^-e prod(1/x_i + y_q), e = lam_j + n - m - j + 1;
    lower border h_{lam'_i - n - i + j}(Y); sign (-1)^(mn - n + k - 1) times
    its determinant over the symplectic denominator product.  Like
    ortho_det_rational, valid on the (n, m)-hook and 0 outside it; with Y
    empty it has only the border columns, symplectic_matrix(lam, xs) when
    len(lam) <= n.

    Row i of the main block and border is x_i - 1/x_i times a row in z_i:
    (-1)^(m-j) odd(j), and sum_r e_r(Y) odd(e + m - r) from
    prod_q(x + y_q) = sum_r e_r(Y) x^(m-r).  Read from _divided in z, those
    rows are divided differences in z, so the signed determinant is the
    character with no division, checked at the empty partition.
    """
    n, m = len(xs), len(ys)
    w = _ZWorld(xs, ys)
    zero = w.ext.zero()
    e_all = complete_table(m, (), w.ext, ys=w.ys)
    hy = complete_table(lam.conjugate().part(1) - n - 1 + m, w.ys, w.ext)
    odds = _divided(w.zs, max(lam.part(1) + n, m), 1)
    main = [[-odd[j] if (m - j) % 2 else odd[j] for j in range(1, m + 1)] for odd in odds]

    def bordered(p: Partition) -> Poly:
        k = k_index(p, n, m)
        pc = p.conjugate()
        exps = [p.part(j) + n - m - j + 1 for j in range(1, k)]
        rows = [row + [_combine(odd, e_all, e + m) for e in exps] for row, odd in zip(main, odds)]
        for i in range(1, m - n + k):
            a = pc.part(i) - n - i
            rows.append([hy[a + j] if a + j >= 0 else zero for j in range(1, m + 1)] + [zero] * (k - 1))
        det = det_cofactor(rows, w.ext)
        return -det if (m * n - n + k - 1) % 2 else det

    return w.back(_checked("orthosymplectic", bordered, lam))


def ortho_single_y(lam: Partition, xs: Sequence[Poly], y: Poly) -> Poly:
    """One-prime-variable case: det(x_i^(a+1) - x_i^-(a+1) + y (x_i^a - x_i^-a))
    over the symplectic denominator product, a = lam_j + n - j.  In z, by
    divided differences: the checked determinant of the rows
    odd(a + 1) + y odd(a) read from _divided in z; no division."""
    n = len(xs)
    require_length(lam, n)
    w = _ZWorld(xs, [y])
    (y,) = w.ys
    odds = _divided(w.zs, lam.part(1) + n, 1)

    def value(p: Partition) -> Poly:
        exps = [p.part(j) + n - j for j in range(1, n + 1)]
        return det_cofactor([[odd[a + 1] + y * odd[a] for a in exps] for odd in odds], w.ext)

    return w.back(_checked("symplectic", value, lam))


def ortho_sp_schur_sum(lam: Partition, xs: Sequence[Poly], ys: Sequence[Poly]) -> Poly:
    """Sum over mu inside lam of sp_mu(X) * s_{lam'/mu'}(Y), summed in z and
    mapped back once.  Each sp_mu is the determinant of the rows
    odd(mu_j + n - j + 1) read from _divided, divided differences in z (no
    division).  Each s_{lam'/mu'}(Y) is the dual Jacobi-Trudi determinant
    det(e_{lam_i - mu_j - i + j}(Y)) of order len(lam): skew_schur_jt with
    no x-letters.  The sum is checked at the empty partition, where it is
    sp_empty(X)."""
    n = len(xs)
    w = _ZWorld(xs, ys)
    odds = _divided(w.zs, lam.part(1) + n, 1)

    def value(p: Partition) -> Poly:
        total = w.ext.zero()
        for mu in subpartitions(p, max_length=n):
            sp = det_cofactor([[odd[mu.part(j) + n - j + 1] for j in range(1, n + 1)] for odd in odds], w.ext)
            total = total + sp * skew_schur_jt(p, mu, (), w.ext, ys=w.ys)
        return total

    return w.back(_checked("symplectic", value, lam))


# -- odd symplectic ---------------------------------------------------------


def odd_denominator_product(xs: Sequence[Poly]) -> Poly:
    """prod_{i<n}(x_i - 1/x_i) * prod_{i<j<=n}(x_i + 1/x_i - x_j - 1/x_j)."""
    vs = _vs_of(xs)
    return _prod(vs, (x - x.inverse() for x in xs[:-1])) * _vandermonde(vs, [x + x.inverse() for x in xs])


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
    """Quotient det A_lam / det A_empty of odd_symplectic_matrix, by divided
    differences in z; no division.  Row i < n of A_lam is x_i - 1/x_i times
    g(z_i), g = odd(a + 1) - (1/y) odd(a), and row n is y^a = g(y + 1/y), so
    _divided in z over the letters z_1..z_{n-1}, y + 1/y gives every row."""
    n = len(xs)
    require_length(lam, n)
    w = _ZWorld(xs[:-1], xs[-1:])
    (y,) = w.ys
    yb = y.inverse()
    odds = _divided(w.zs + [y + yb], lam.part(1) + n, 1)

    def value(p: Partition) -> Poly:
        exps = [p.part(j) + n - j for j in range(1, n + 1)]
        return det_cofactor([[odd[a + 1] - yb * odd[a] for a in exps] for odd in odds], w.ext)

    return w.back(_checked("odd symplectic", value, lam))


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


def _route_value(route, *args) -> Poly:
    """route(*args) at a point already validated: a ValueError the route
    raises is a formula defect, raised as a RuntimeError."""
    try:
        return route(*args)
    except ValueError as exc:
        raise RuntimeError(str(exc)) from exc


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
    enumeration order, as chunks of display text; mu is an inner shape
    (schur only).  Each chunk is a run of whole lines, one tableau per line,
    each ending in a newline.

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
        return _route_value(_ROUTES[(self.family, self.method)], self.lam, self.n, self.m)
