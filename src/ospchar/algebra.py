"""Exact arithmetic for multivariate Laurent polynomials.

A Laurent polynomial is a finite map from exponent vectors (entries may be
negative) to nonzero arbitrary-precision integer coefficients.  The inverse
of a variable is represented by a negative exponent, never by an extra
variable, so a unit monomial and its inverse share one variable set.

Monomials are ordered graded-lexicographically on the exponent vector, and
that order fixes only canonical serialization.  Exact division walks the
layers of a weighted degree chosen per divisor instead (see exact_div); an
exact quotient is unique, so only the remainder an inexact division reports
depends on that choice.

The kernels, large products (_mul_packed), exact division, the cofactor
determinant (det_cofactor) and the substitution z -> u + 1/u
(substitute_reciprocal_sums), work on packed keys: an exponent vector minus
a per-operand offset (per row, for a determinant), one field per
variable, every field the same whole number of bytes wide, read as one
big-endian integer.  Monomial multiplication is then one integer addition.
A key packs and unpacks through bytes, and struct for fields of 2, 4 or 8
bytes, in one pass per vector, and the offsets fold into packing and
unpacking, so no shifted copy of an operand is made.

Determinants: one algorithm serves every matrix, a cofactor expansion along
the first row memoized on column subsets (det_cofactor).  It costs O(2^n * n)
entry products and never divides, so sparse multivariate entries do not swell
the way they do under fraction-free elimination; matrix sizes stay in the
single digits throughout this package, so the exponential factor is small.
It expands on packed keys from start to end: each entry packs once and the
determinant unpacks once, so no entry-by-minor product builds an exponent
tuple.  Every library caller builds its rows already cleared of
denominators, with entries over one variable set.  Two
more determinants have no library caller: Bareiss elimination (det_bareiss),
the reference that the tests compare det_cofactor against, and det_rational,
which clears a common denominator per row of a matrix of (numerator,
denominator) pairs and is the tests' reference for the rational-entry
statements; the benchmark tracer wraps both by name.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import comb
from operator import add, mul, sub
from struct import Struct
from typing import Iterable, Sequence

_from_bytes = int.from_bytes


class AlgebraError(Exception):
    """Base class for arithmetic contract violations.

    Not a ValueError: inside a computation it signals a defect in a formula
    or in the arithmetic, never a bad argument from the user.
    """


class VariableMismatchError(AlgebraError):
    """Operands belong to different variable sets."""


class ExactDivisionError(AlgebraError):
    """Division was requested but the quotient is not exact."""

    def __init__(self, message: str, remainder: "LaurentPolynomial | None" = None):
        super().__init__(message)
        self.remainder = remainder


def _term_key(exps: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(exps), exps)


# -- packed exponent keys ----------------------------------------------
#
# Field v of a key holds e[v] - lo[v], most significant first.  Adding two
# keys adds their exponent vectors as long as no field overflows; each
# kernel sizes its fields so that none does.


def _field_bytes(bits: int) -> int:
    """Bytes per field for values of up to ``bits`` bits: 1, 2, 4, 8 or,
    past 64 bits, the exact byte count."""
    size = max(1, (bits + 7) // 8)
    if size <= 2 or size > 8:
        return size
    return 4 if size <= 4 else 8


def _struct(width: int, fbytes: int) -> Struct:
    return Struct(">" + {2: "H", 4: "I", 8: "Q"}[fbytes] * width)


def _packer(fbytes: int, lo: tuple[int, ...]):
    """pack(e): the key of the fields e - lo, each ``fbytes`` bytes wide."""
    width = len(lo)
    if fbytes == 1:
        return lambda e: _from_bytes(bytes(map(sub, e, lo)), "big")
    if fbytes <= 8:
        spack = _struct(width, fbytes).pack
        return lambda e: _from_bytes(spack(*map(sub, e, lo)), "big")
    shifts = [8 * fbytes * (width - 1 - v) for v in range(width)]

    def pack(e):
        k = 0
        for x, low, s in zip(e, lo, shifts):
            k |= (x - low) << s
        return k

    return pack


def _unpacker(fbytes: int, off: tuple[int, ...]):
    """unpack(k): the exponent vector of key k's fields plus off."""
    width = len(off)
    size = width * fbytes
    if fbytes == 1:
        return lambda k: tuple(map(add, k.to_bytes(size, "big"), off))
    if fbytes <= 8:
        sunpack = _struct(width, fbytes).unpack
        return lambda k: tuple(map(add, sunpack(k.to_bytes(size, "big")), off))
    bits = 8 * fbytes
    mask = (1 << bits) - 1
    shifts = [bits * (width - 1 - v) for v in range(width)]
    return lambda k: tuple(((k >> s) & mask) + o for s, o in zip(shifts, off))


def _mul_packed(a: dict, b: dict) -> dict:
    """Multiply two term maps through packed exponent keys.

    Every field is wide enough, in whole bytes, for the largest sum of both
    operands' exponent ranges over the variables, so a monomial product is
    one integer addition.  Each operand is packed relative to its own
    per-variable minimum exponents, and the product unpacks with their sum
    added back.  Used only above a size threshold, so each operand has more
    than one term and hence at least one variable; result is a normalized
    term map.
    """
    acols = list(zip(*a))
    bcols = list(zip(*b))
    amin = tuple(map(min, acols))
    bmin = tuple(map(min, bcols))
    span = max(
        max(col_a) - lo_a + max(col_b) - lo_b
        for col_a, lo_a, col_b, lo_b in zip(acols, amin, bcols, bmin)
    )
    fbytes = _field_bytes(span.bit_length())
    pack_a = _packer(fbytes, amin)
    pack_b = _packer(fbytes, bmin)
    pa = {pack_a(e): c for e, c in a.items()}
    out: dict[int, int] = {}
    get = out.get
    for e2, c2 in b.items():
        k2 = pack_b(e2)
        for k1, c1 in pa.items():
            k = k1 + k2
            nc = get(k, 0) + c1 * c2
            if nc:
                out[k] = nc
            else:
                del out[k]
    unpack = _unpacker(fbytes, tuple(map(add, amin, bmin)))
    return {unpack(k): c for k, c in out.items()}


class VariableSet:
    """An immutable, ordered collection of distinct variable names."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        names = tuple(str(n) for n in names)
        if len(set(names)) != len(names):
            raise AlgebraError(f"duplicate variable names in {names!r}")
        self.names = names
        self._index = {n: i for i, n in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableSet({list(self.names)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise AlgebraError(f"unknown variable {name!r} in {self.names}") from None

    def zero(self) -> "LaurentPolynomial":
        return LaurentPolynomial._raw(self, {})

    def one(self) -> "LaurentPolynomial":
        return self.const(1)

    def const(self, c: int) -> "LaurentPolynomial":
        if c == 0:
            return self.zero()
        return LaurentPolynomial._raw(self, {(0,) * len(self.names): int(c)})

    def gen(self, name: str) -> "LaurentPolynomial":
        exps = [0] * len(self.names)
        exps[self.index(name)] = 1
        return LaurentPolynomial._raw(self, {tuple(exps): 1})

    def gens(self) -> list["LaurentPolynomial"]:
        return [self.gen(n) for n in self.names]

    def poly(self, terms: dict) -> "LaurentPolynomial":
        return LaurentPolynomial(self, terms)


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial with integer coefficients.

    ``terms`` maps exponent tuples (one entry per variable, possibly
    negative) to nonzero coefficients.  Instances are equal iff they have the
    same variable set and identical term maps.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VariableSet, terms: dict):
        width = len(vars)
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != width:
                raise AlgebraError(
                    f"exponent vector {exps} has length {len(exps)}, expected {width}"
                )
            coeff = int(coeff)
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
                if not clean[exps]:
                    del clean[exps]
        self.vars = vars
        self.terms = clean

    @classmethod
    def _raw(cls, vars: VariableSet, terms: dict) -> "LaurentPolynomial":
        # Internal fast path: terms must already be normalized.
        self = object.__new__(cls)
        self.vars = vars
        self.terms = terms
        return self

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * len(self.vars): 1}

    def is_unit_monomial(self) -> bool:
        """True for c*x^e with c = +-1, the units of the Laurent ring."""
        if len(self.terms) != 1:
            return False
        return next(iter(self.terms.values())) in (1, -1)

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            if other.vars != self.vars:
                raise VariableMismatchError(
                    f"operands use different variables: {self.vars.names} vs {other.vars.names}"
                )
            return other
        if isinstance(other, int):
            return self.vars.const(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = self.vars.const(other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                del out[e]
        return LaurentPolynomial._raw(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = out.get(e, 0) - c
            if nc:
                out[e] = nc
            else:
                del out[e]
        return LaurentPolynomial._raw(self.vars, out)

    def __rsub__(self, other) -> "LaurentPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return self.vars.zero()
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            (e2, c2), = b.items()
            if not any(e2):
                return LaurentPolynomial._raw(
                    self.vars, {e: c * c2 for e, c in a.items()}
                )
            return LaurentPolynomial._raw(
                self.vars,
                {tuple(map(add, e, e2)): c * c2 for e, c in a.items()},
            )
        if len(a) * len(b) > 256:
            return LaurentPolynomial._raw(self.vars, _mul_packed(a, b))
        out: dict[tuple[int, ...], int] = {}
        get = out.get
        for e2, c2 in b.items():
            for e1, c1 in a.items():
                e = tuple(map(add, e1, e2))
                nc = get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc
                else:
                    del out[e]
        return LaurentPolynomial._raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            return self.inverse() ** (-n)
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            return LaurentPolynomial._raw(
                self.vars, {tuple(x * n for x in e): c ** n}
            )
        result = self.vars.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def inverse(self) -> "LaurentPolynomial":
        """Inverse of a unit monomial; anything else has no Laurent inverse."""
        if not self.is_unit_monomial():
            raise AlgebraError(f"not invertible in the Laurent ring: {self.to_text()}")
        (e, c), = self.terms.items()
        return LaurentPolynomial._raw(self.vars, {tuple(-x for x in e): c})

    def min_exponents(self) -> tuple[int, ...]:
        """Per-variable minimum exponent over all terms (zero polynomial: all 0)."""
        if not self.terms:
            return (0,) * len(self.vars)
        cols = zip(*self.terms)
        return tuple(min(col) for col in cols)

    # -- serialization ------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda t: _term_key(t[0]), reverse=True)

    def to_text(self) -> str:
        """Canonical text form, terms in decreasing monomial order."""
        if not self.terms:
            return "0"
        names = self.vars.names
        pieces = []
        for i, (exps, coeff) in enumerate(self.sorted_terms()):
            factors = [f"{n}^{e}" if e != 1 else n for n, e in zip(names, exps) if e]
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = f"{mag}*" + "*".join(factors)
            if i == 0:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def to_json_dict(self) -> dict:
        return {
            "vars": list(self.vars.names),
            "terms": [
                {"c": str(c), "e": list(e)} for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LaurentPolynomial":
        vs = VariableSet(data["vars"])
        return cls(vs, {tuple(t["e"]): int(t["c"]) for t in data["terms"]})

    def __repr__(self) -> str:
        return f"<{self.to_text()}>"


def exact_div(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """Quotient q with q*b == a, verified; raises ExactDivisionError otherwise.

    Both operands are packed (see _packer) relative to their own per-variable
    minimum exponents, amin and bmin, so every field is nonnegative; no
    shifted copy of either operand is made.  Variable v weighs
    (width - v)^K, for the smallest K >= 1 that gives the divisor b one
    w-leading term btop.  Each w-degree layer of the dividend, from the top,
    divided by btop is a layer of the quotient, and that layer times each
    other term of b lands in one fixed lower layer.  The quotient's keys
    unpack with amin - bmin added back: per-variable minimum exponents are
    additive over products, so that offset is exact whenever the division
    is.
    """
    if a.vars != b.vars:
        raise VariableMismatchError("exact_div operands use different variables")
    if b.is_zero():
        raise ExactDivisionError("division by the zero polynomial")
    if a.is_zero():
        return a.vars.zero()
    amin = a.min_exponents()
    bmin = b.min_exponents()

    width = len(a.vars)
    K = 1
    while True:
        weights = [(width - v) ** K for v in range(width)]
        bdeg = {e: sum(map(mul, weights, e)) for e in b.terms}
        dtop = max(bdeg.values())
        if sum(d == dtop for d in bdeg.values()) == 1:
            break
        K += 1
    adeg = {e: sum(map(mul, weights, e)) for e in a.terms}

    # Each field carries a guard bit on top: (k | guard) - btop keeps a
    # field's guard bit iff that exponent of k is at least btop's.  Relative
    # to amin and bmin every intermediate monomial has nonnegative exponents
    # and a w-degree at most dmax, the larger top w-degree of the dividend
    # and the divisor, each relative to its offset.  Every weight is at
    # least 1, so dmax bounds each exponent and no field reaches its guard.
    dmax = max(
        max(adeg.values()) - sum(map(mul, weights, amin)),
        dtop - sum(map(mul, weights, bmin)),
        1,
    )
    fbytes = _field_bytes(dmax.bit_length() + 1)
    guard = _from_bytes(bytes([0x80] + [0] * (fbytes - 1)) * width, "big")
    pack_a = _packer(fbytes, amin)
    pack_b = _packer(fbytes, bmin)

    layers: dict[int, dict[int, int]] = {}
    for e, c in a.terms.items():
        layers.setdefault(adeg[e], {})[pack_a(e)] = c
    drops: dict[int, list[tuple[int, int]]] = {}
    for e, d in bdeg.items():
        if d == dtop:
            btop, btop_c = pack_b(e), b.terms[e]
        else:
            drops.setdefault(dtop - d, []).append((pack_b(e), b.terms[e]))
    heap = [-d for d in layers]
    heapify(heap)
    q: dict[int, int] = {}
    while heap:
        d = -heappop(heap)
        layer = layers.pop(d)
        if not layer:
            continue
        qlayer = {}
        for k, c in layer.items():
            # the field test also ends the walk: no term below btop's layer passes it
            if ((k | guard) - btop) & guard != guard or c % btop_c:
                layers[d] = layer
                unpack = _unpacker(fbytes, amin)
                witness = LaurentPolynomial(
                    a.vars, {unpack(kk): cc for lay in layers.values() for kk, cc in lay.items()}
                )
                # the whole remainder can run to megabytes of text: name its size and head
                head = LaurentPolynomial._raw(a.vars, dict(witness.sorted_terms()[:3])).to_text()
                more = " + ..." if len(witness.terms) > 3 else ""
                raise ExactDivisionError(
                    f"inexact division, remainder of {len(witness.terms)} terms: {head}{more}", remainder=witness
                )
            qlayer[k - btop] = c // btop_c
        q.update(qlayer)
        # qlayer * btop cancels this layer exactly; each other divisor term
        # lands in the layer its w-degree drop below btop selects
        for drop, bterms in drops.items():
            target = layers.get(d - drop)
            if target is None:
                target = layers[d - drop] = {}
                heappush(heap, drop - d)
            get = target.get
            for bk, bc in bterms:
                for qk, qc in qlayer.items():
                    e = qk + bk
                    nc = get(e, 0) - qc * bc
                    if nc:
                        target[e] = nc
                    else:
                        del target[e]
    unpack = _unpacker(fbytes, tuple(map(sub, amin, bmin)))
    quot = LaurentPolynomial._raw(a.vars, {unpack(k): c for k, c in q.items()})
    if quot * b != a:
        raise ExactDivisionError("division self-check failed", remainder=None)
    return quot


def substitute_reciprocal_sums(
    p: LaurentPolynomial, vars: VariableSet, units: Sequence[LaurentPolynomial]
) -> LaurentPolynomial:
    """p with its letter len(vars) + i replaced by units[i] + 1/units[i], in ``vars``.

    p's variables are ``vars`` followed by one letter per unit, each unit a
    unit monomial s*x^d of ``vars``, and p is a polynomial in those letters.
    The letters go one at a time, last first: z^k becomes
    s^k * sum_j C(k, j) x^((k - 2j) d).  Keys are packed (see _packer) with
    the letters in the lowest fields and every other field offset by its
    minimum minus the farthest the substitution can move it, so a field
    never leaves its range and moving a term by x^(k d) is adding one
    integer to its key.
    """
    width, count = len(vars), len(units)
    if p.vars.names[:width] != vars.names or len(p.vars) != width + count:
        raise VariableMismatchError("substitution needs the variables followed by one letter per unit")
    moves = []
    for u in units:
        if u.vars != vars or not u.is_unit_monomial():
            raise AlgebraError(f"not a unit monomial of {vars.names}: {u.to_text()}")
        moves.append(next(iter(u.terms.items())))
    if not p.terms:
        return vars.zero()
    cols = list(zip(*p.terms))
    kmax = [max(col) for col in cols[width:]]
    if any(min(col) < 0 for col in cols[width:]):
        raise AlgebraError("a negative power of u + 1/u is not a Laurent polynomial")
    reach = [sum(k * abs(d[v]) for k, (d, _) in zip(kmax, moves)) for v in range(width)]
    lo = tuple(min(col) - r for col, r in zip(cols, reach))
    span = max([max(col) + r - low for col, r, low in zip(cols, reach, lo)] + kmax + [1])
    fbytes = _field_bytes(span.bit_length())
    bits = 8 * fbytes
    pack = _packer(fbytes, lo + (0,) * count)
    terms = {pack(e): c for e, c in p.terms.items()}
    mask = (1 << bits) - 1
    for i in range(count - 1, -1, -1):
        shift = bits * (count - 1 - i)
        d, s = moves[i]
        step = sum(dv << (bits * (count + width - 1 - v)) for v, dv in enumerate(d))
        spread: dict[int, list[tuple[int, int]]] = {}
        out: dict[int, int] = {}
        get = out.get
        for key, c in terms.items():
            k = (key >> shift) & mask
            moved = spread.get(k)
            if moved is None:
                moved = spread[k] = [((k - 2 * j) * step - (k << shift), comb(k, j) * s**k) for j in range(k + 1)]
            for off, b in moved:
                kk = key + off
                nc = get(kk, 0) + c * b
                if nc:
                    out[kk] = nc
                else:
                    del out[kk]
        terms = out
    unpack = _unpacker(fbytes, lo)
    drop = bits * count
    return LaurentPolynomial._raw(vars, {unpack(k >> drop): c for k, c in terms.items()})


# -- determinants -----------------------------------------------------


def _det_vars(rows, vars):
    """The entries' variable set; an explicit ``vars`` must be the same set.

    Checks first that the matrix is square, before any entry is read.
    """
    if any(len(row) != len(rows) for row in rows):
        raise AlgebraError("matrix is not square")
    if not rows:
        if vars is None:
            raise AlgebraError("0x0 determinant needs an explicit variable set")
        return vars
    vs = rows[0][0].vars
    if vars is not None and vars != vs:
        raise VariableMismatchError(
            f"determinant entries use {vs.names}, not the given {vars.names}"
        )
    return vs


def det_bareiss(
    rows: Sequence[Sequence[LaurentPolynomial]], vars: VariableSet | None = None
) -> LaurentPolynomial:
    """Fraction-free determinant of a square Laurent polynomial matrix.

    Every division along the way is exact (by the previous pivot); the empty
    matrix has determinant 1.  No route uses it: it is the independent
    reference that the tests compare det_cofactor against.
    """
    vs = _det_vars(rows, vars)
    n = len(rows)
    if n == 0:
        return vs.one()
    m = [list(row) for row in rows]
    sign = 1
    prev = vs.one()
    for k in range(n - 1):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return vs.zero()
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = exact_div(pivot * m[i][j] - m[i][k] * m[k][j], prev)
        prev = pivot
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d


def det_cofactor(
    rows: Sequence[Sequence[LaurentPolynomial]], vars: VariableSet | None = None
) -> LaurentPolynomial:
    """Determinant by first-row expansion, memoized on column subsets.

    The only determinant the library calls: every route and identity check
    builds its rows cleared of denominators and calls it directly.  Each
    subset of columns is expanded once, so an n x n matrix costs O(2^n * n)
    entry products and no division; the empty matrix has determinant 1.
    The entries are Laurent polynomials over one variable set, which an
    explicit ``vars`` must equal; anything else raises
    VariableMismatchError.

    The expansion runs on packed keys (see _packer) with one field width
    for the whole matrix, sized for the sum over the rows of each row's
    exponent span.  Each entry is packed once, relative to its row's
    minimum exponents, so a minor of rows r.. is keyed relative to the sum
    of those rows' minima and every term of it lies in the box of their
    summed spans: entry key + minor key is the product's key and no field
    overflows, cancellation included.  Each product adds into the minor's
    term map directly.  The result unpacks once, with the sum of all row
    minima added back.
    """
    vs = _det_vars(rows, vars)
    n = len(rows)
    if n == 0:
        return vs.one()
    if any(p.vars != vs for row in rows for p in row):
        raise VariableMismatchError("determinant entries use different variables")
    lows = []
    spans = [0] * len(vs)
    for row in rows:
        exps = [e for p in row for e in p.terms]
        if not exps:
            return vs.zero()
        cols = list(zip(*exps))
        lo = tuple(map(min, cols))
        lows.append(lo)
        spans = list(map(add, spans, map(sub, map(max, cols), lo)))
    fbytes = _field_bytes(max(spans, default=0).bit_length())
    # entry (r, c) as its term pairs, for an even and for an odd position
    packed = []
    for row, lo in zip(rows, lows):
        pack = _packer(fbytes, lo)
        prow = []
        for p in row:
            even = [(pack(e), c) for e, c in p.terms.items()]
            prow.append((even, [(k, -c) for k, c in even]))
        packed.append(prow)
    memo: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}

    def minor(r: int, cols: tuple[int, ...]) -> dict[int, int]:
        got = memo.get(cols)
        if got is not None:
            return got
        row = packed[r]
        acc: dict[int, int] = {}
        get = acc.get
        for t, c in enumerate(cols):
            a = row[c][t & 1]
            if not a:
                continue
            b = minor(r + 1, cols[:t] + cols[t + 1 :]).items()
            if not b:
                continue
            for k1, c1 in a:
                for k2, c2 in b:
                    k = k1 + k2
                    nc = get(k, 0) + c1 * c2
                    if nc:
                        acc[k] = nc
                    else:
                        del acc[k]
        memo[cols] = acc
        return acc

    det = minor(0, tuple(range(n)))
    # minor refers to itself through its closure; without this the cycle
    # would keep every memoized minor alive until the cyclic collector ran
    del minor
    unpack = _unpacker(fbytes, tuple(map(sum, zip(*lows))))
    return LaurentPolynomial._raw(vs, {unpack(k): c for k, c in det.items()})


def det_rational(
    rows: Sequence[Sequence[tuple[LaurentPolynomial, LaurentPolynomial]]]
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """Determinant of a matrix of fractions, each entry and the result a
    (numerator, denominator) pair of Laurent polynomials.

    Each row is first put over a single denominator, the product of its
    distinct entry denominators (an entry with numerator 0 or denominator 1
    adds none), which by row-linearity factors out of the determinant; the
    remaining polynomial matrix is expanded by cofactors.  The result is not
    reduced: its denominator is the product of the row denominators.  No
    library code calls it: it is the tests' reference for the determinant
    statements with rational entries.
    """
    n = len(rows)
    if n == 0:
        raise AlgebraError("0x0 rational determinant needs no clearing; use det_cofactor")
    if any(len(row) != n for row in rows):
        raise AlgebraError("matrix is not square")
    vs = rows[0][0][0].vars
    one = vs.one()
    cleared: list[list[LaurentPolynomial]] = []
    denprod = one
    for row in rows:
        distinct: list[LaurentPolynomial] = []
        for num, den in row:
            if den.is_zero():
                raise AlgebraError("zero denominator")
            if not (num.is_zero() or den.is_one() or den in distinct):
                distinct.append(den)
        mult = one
        for d in distinct:
            mult = mult * d
        cleared.append(
            [
                num if num.is_zero() or den == mult else num * exact_div(mult, den)
                for num, den in row
            ]
        )
        denprod = denprod * mult
    return det_cofactor(cleared, vs), denprod
