"""Exact arithmetic for multivariate Laurent polynomials.

A Laurent polynomial is a finite map from exponent vectors (entries may be
negative) to nonzero arbitrary-precision integer coefficients.  The inverse
of a variable is represented by a negative exponent, never by an extra
variable, so a unit monomial and its inverse share one variable set.

Every polynomial keys its terms on one integer per monomial.  Over n
variables, with fields of fbytes bytes and B = 2^(8 * fbytes),

    key(e) = sum(e) * B^n + e_1 * B^(n-1) + ... + e_n,

the total degree on top and one signed (balanced) field per variable, each
e_v in [-B/2, B/2).  Monomial multiplication is then integer addition,
inversion is negation, and integer order on keys is graded-lexicographic
order on exponent vectors, the canonical order of serialization.  Each
polynomial carries its field width and a bound on the magnitude of its
exponents: a product's bound is the sum of its operands', a sum's the
larger, an exact quotient's the box its dividend and divisor leave.  The
fields grow with the bound, to the exact byte count it needs, and an
operand is re-encoded only when an operation needs wider fields than it
has.  Equality and hash do not depend on the width.

Exponent tuples appear only at the edges: the constructor encodes them,
tuple_terms and sorted_terms decode (to_text reads sorted_terms, to_json
decodes each key as it writes its term), and exact_div reads each term's
exponents once to place it in a layer of a weighted degree chosen per
divisor.  An exact quotient is unique, so only the remainder an inexact
division reports depends on that choice.

Determinants: one algorithm serves every matrix, a cofactor expansion along
the first row memoized on column subsets (det_cofactor).  It costs O(2^n * n)
entry products and never divides, so sparse multivariate entries do not swell
the way they do under fraction-free elimination; matrix sizes stay in the
single digits throughout this package, so the exponential factor is small.
Every entry-by-minor product is one key addition into the minor's term map.
Every library caller builds its rows already cleared of denominators, with
entries over one variable set.  Two more determinants have no library
caller: Bareiss elimination (det_bareiss), the reference that the tests
compare det_cofactor against, and det_rational, which clears a common
denominator per row of a matrix of (numerator, denominator) pairs and is the
tests' reference for the rational-entry statements; the benchmark tracer
wraps both by name.
"""

from __future__ import annotations

import json
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import add, index, mul, sub
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


# -- the key codec ------------------------------------------------------


def _width(bound: int) -> int:
    """Bytes per field for exponents of magnitude at most ``bound``, the
    exact byte count."""
    return (bound.bit_length() + 8) // 8


@lru_cache(maxsize=None)
def _codec(width: int, fbytes: int):
    """(encode, decode) between the exponent vectors of ``width`` variables
    and keys with fields of ``fbytes`` bytes.  Both pass through key + bias,
    whose fields e_v + B/2 are nonnegative and carry into nothing: bytes for
    one-byte fields, shifts for wider ones."""
    bits = 8 * fbytes
    half = 1 << (bits - 1)
    top = bits * width
    shifts = [bits * (width - 1 - v) for v in range(width)]
    bias = sum(half << s for s in shifts)
    if fbytes == 1:
        low = (1 << top) - 1
        up, down = (half,) * width, (-half,) * width
        return (
            lambda e: (sum(e) << top) + _from_bytes(bytes(map(add, e, up)), "big") - bias,
            lambda k: tuple(map(add, ((k + bias) & low).to_bytes(width, "big"), down)),
        )
    mask = (1 << bits) - 1

    def encode(e):
        return (sum(e) << top) + sum(x << s for x, s in zip(e, shifts))

    def decode(k):
        k += bias
        return tuple(((k >> s) & mask) - half for s in shifts)

    return encode, decode


def _at(p: "LaurentPolynomial", fbytes: int) -> dict:
    """p's term map with fields of ``fbytes`` bytes, re-encoded only if p's differ."""
    if p.fbytes == fbytes:
        return p.terms
    width = len(p.vars)
    encode, decode = _codec(width, fbytes)[0], _codec(width, p.fbytes)[1]
    return {encode(decode(k)): c for k, c in p.terms.items()}


def _common(p: "LaurentPolynomial", q: "LaurentPolynomial", bound: int = 0):
    """(fbytes, p's terms, q's terms) in the narrowest fields that hold both
    operands and exponents of magnitude ``bound``."""
    fbytes = max(p.fbytes, q.fbytes, _width(bound))
    return fbytes, _at(p, fbytes), _at(q, fbytes)


def _integer(x) -> int:
    try:
        return index(x)
    except TypeError:
        raise AlgebraError(f"{x!r} is not an integer") from None


class VariableSet:
    """An immutable, ordered collection of distinct variable names."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Iterable[str]):
        if isinstance(names, str):
            raise AlgebraError(f"variable names must be a sequence of names, not the string {names!r}")
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
        return LaurentPolynomial._raw(self, {}, 1, 0)

    def one(self) -> "LaurentPolynomial":
        return self.const(1)

    def const(self, c: int) -> "LaurentPolynomial":
        c = _integer(c)
        if c == 0:
            return self.zero()
        return LaurentPolynomial._raw(self, {0: c}, 1, 0)

    def gen(self, name: str) -> "LaurentPolynomial":
        width = len(self.names)
        key = (1 << 8 * width) + (1 << 8 * (width - 1 - self.index(name)))
        return LaurentPolynomial._raw(self, {key: 1}, 1, 1)

    def gens(self) -> list["LaurentPolynomial"]:
        return [self.gen(n) for n in self.names]

    def poly(self, terms: dict) -> "LaurentPolynomial":
        return LaurentPolynomial(self, terms)


class LaurentPolynomial:
    """Immutable sparse Laurent polynomial with integer coefficients.

    ``terms`` maps monomial keys (see the module docstring) to nonzero
    coefficients, in fields of ``fbytes`` bytes that hold every exponent of
    magnitude up to ``bound``.  The constructor takes a map from exponent
    tuples (one integer per variable, possibly negative) to integer
    coefficients; tuple_terms gives that map back.  Instances are equal iff
    they have the same variable set and the same terms.
    """

    __slots__ = ("vars", "terms", "fbytes", "bound")

    def __init__(self, vars: VariableSet, terms: dict):
        width = len(vars)
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            exps = tuple(map(_integer, exps))
            if len(exps) != width:
                raise AlgebraError(
                    f"exponent vector {exps} has length {len(exps)}, expected {width}"
                )
            coeff = _integer(coeff)
            if coeff:
                clean[exps] = clean.get(exps, 0) + coeff
                if not clean[exps]:
                    del clean[exps]
        self.vars = vars
        self.bound = max((abs(x) for exps in clean for x in exps), default=0)
        self.fbytes = _width(self.bound)
        encode = _codec(width, self.fbytes)[0]
        self.terms = {encode(exps): c for exps, c in clean.items()}

    @classmethod
    def _raw(cls, vars: VariableSet, terms: dict, fbytes: int, bound: int) -> "LaurentPolynomial":
        # Internal fast path: terms must already be normalized keys in
        # fields of fbytes bytes, every exponent of magnitude at most bound.
        self = object.__new__(cls)
        self.vars = vars
        self.terms = terms
        self.fbytes = fbytes
        self.bound = bound
        return self

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {0: 1}

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
        if self.vars != other.vars or len(self.terms) != len(other.terms):
            return False
        _, a, b = _common(self, other)
        return a == b

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.tuple_terms().items())))

    def __add__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        fbytes, a, b = _common(self, other)
        out = dict(a)
        for k, c in b.items():
            nc = out.get(k, 0) + c
            if nc:
                out[k] = nc
            else:
                del out[k]
        return LaurentPolynomial._raw(self.vars, out, fbytes, max(self.bound, other.bound))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial._raw(self.vars, {k: -c for k, c in self.terms.items()}, self.fbytes, self.bound)

    def __sub__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.terms:
            return self
        fbytes, a, b = _common(self, other)
        out = dict(a)
        for k, c in b.items():
            nc = out.get(k, 0) - c
            if nc:
                out[k] = nc
            else:
                del out[k]
        return LaurentPolynomial._raw(self.vars, out, fbytes, max(self.bound, other.bound))

    def __rsub__(self, other) -> "LaurentPolynomial":
        return (-self) + other

    def __mul__(self, other) -> "LaurentPolynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.terms or not other.terms:
            return self.vars.zero()
        bound = self.bound + other.bound
        fbytes, a, b = _common(self, other, bound)
        if len(a) < len(b):
            a, b = b, a
        out: dict[int, int] = {}
        get = out.get
        for k2, c2 in b.items():
            for k1, c1 in a.items():
                k = k1 + k2
                nc = get(k, 0) + c1 * c2
                if nc:
                    out[k] = nc
                else:
                    del out[k]
        return LaurentPolynomial._raw(self.vars, out, fbytes, bound)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        n = _integer(n)
        if n < 0:
            return self.inverse() ** (-n)
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
        (k, c), = self.terms.items()
        return LaurentPolynomial._raw(self.vars, {-k: c}, self.fbytes, self.bound)

    # -- exponent tuples and serialization -----------------------------

    def tuple_terms(self) -> dict[tuple[int, ...], int]:
        """The term map keyed on exponent tuples."""
        decode = _codec(len(self.vars), self.fbytes)[1]
        return {decode(k): c for k, c in self.terms.items()}

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """(exponent tuple, coefficient) pairs in decreasing monomial order."""
        decode = _codec(len(self.vars), self.fbytes)[1]
        terms = self.terms
        return [(decode(k), terms[k]) for k in sorted(terms, reverse=True)]

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

    def to_json(self) -> str:
        """The JSON form with no spaces, terms in decreasing monomial order:
        ``{"vars":["x1"],"terms":[{"c":"2","e":[1]}]}``, each coefficient a
        decimal string.  Every term is one fill of a format string for its
        variable count, straight from its key."""
        terms = self.terms
        decode = _codec(len(self.vars), self.fbytes)[1]
        form = '{"c":"%d","e":[' + ",".join(["%d"] * len(self.vars)) + "]}"
        body = ",".join([form % ((terms[k],) + decode(k)) for k in sorted(terms, reverse=True)])
        return '{"vars":' + json.dumps(self.vars.names, separators=(",", ":")) + ',"terms":[' + body + "]}"

    def to_json_dict(self) -> dict:
        return json.loads(self.to_json())

    @classmethod
    def from_json_dict(cls, data: dict) -> "LaurentPolynomial":
        vs = VariableSet(data["vars"])
        return cls(vs, {tuple(t["e"]): int(t["c"]) for t in data["terms"]})

    def __repr__(self) -> str:
        return f"<{self.to_text()}>"


def exact_div(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """Quotient q with q*b == a, verified; raises ExactDivisionError otherwise.

    Each term's exponents are read once.  Variable v weighs (width - v)^K,
    for the smallest K >= 1 that gives the divisor b one w-leading term
    btop.  Each w-degree layer of the dividend, from the top, divided by
    btop is a layer of the quotient, and that layer times each other term
    of b lands in one fixed lower layer.  Per-variable minimum and maximum
    exponents add over products, so an exact quotient lies in the box
    [amin - bmin, amax - bmax]; a remainder term whose quotient by btop
    leaves that box, or whose coefficient btop's does not divide, ends the
    walk.  Every term the walk makes then lies in a's box, so the keys stay
    in fields wide enough for a's and b's spans and the quotient's box.
    """
    if a.vars != b.vars:
        raise VariableMismatchError("exact_div operands use different variables")
    if b.is_zero():
        raise ExactDivisionError("division by the zero polynomial")
    if a.is_zero():
        return a.vars.zero()
    width = len(a.vars)
    aexps = list(map(_codec(width, a.fbytes)[1], a.terms))
    bexps = list(map(_codec(width, b.fbytes)[1], b.terms))
    acols, bcols = list(zip(*aexps)), list(zip(*bexps))
    amin, amax = list(map(min, acols)), list(map(max, acols))
    bmin, bmax = list(map(min, bcols)), list(map(max, bcols))
    qmin, qmax = list(map(sub, amin, bmin)), list(map(sub, amax, bmax))
    qbound = max(map(abs, qmin + qmax), default=0)
    spans = list(map(sub, amax, amin)) + list(map(sub, bmax, bmin))
    fbytes = max(a.fbytes, b.fbytes, _width(max(spans + [qbound])))
    a_terms, b_terms = _at(a, fbytes), _at(b, fbytes)

    K = 1
    while True:
        weights = [(width - v) ** K for v in range(width)]
        bdeg = [sum(map(mul, weights, e)) for e in bexps]
        dtop = max(bdeg)
        if bdeg.count(dtop) == 1:
            break
        K += 1

    # With B/2 added to every field, a field of k - L keeps its top (guard)
    # bit iff that exponent of k is at least L's, and one of U - k iff it is
    # at most U's: every span and the quotient's box fit below B/2, so no
    # field carries into the next.
    bits = 8 * fbytes
    shifts = [bits * (width - 1 - v) for v in range(width)]
    guard = sum((1 << bits - 1) << s for s in shifts)
    top = bexps[bdeg.index(dtop)]
    lo = guard - sum((t + x) << s for t, x, s in zip(top, qmin, shifts))
    hi = guard + sum((t + x) << s for t, x, s in zip(top, qmax, shifts))

    layers: dict[int, dict[int, int]] = {}
    for (k, c), e in zip(a_terms.items(), aexps):
        layers.setdefault(sum(map(mul, weights, e)), {})[k] = c
    drops: dict[int, list[tuple[int, int]]] = {}
    for (k, c), d in zip(b_terms.items(), bdeg):
        if d == dtop:
            btop, btop_c = k, c
        else:
            drops.setdefault(dtop - d, []).append((k, c))
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
            if (k + lo) & (hi - k) & guard != guard or c % btop_c:
                layers[d] = layer
                rest = {kk: cc for lay in layers.values() for kk, cc in lay.items()}
                # the whole remainder can run to megabytes of text: name its size and head
                head = LaurentPolynomial._raw(a.vars, dict(sorted(rest.items(), reverse=True)[:3]), fbytes, a.bound)
                more = " + ..." if len(rest) > 3 else ""
                raise ExactDivisionError(
                    f"inexact division, remainder of {len(rest)} terms: {head.to_text()}{more}",
                    remainder=LaurentPolynomial._raw(a.vars, rest, fbytes, a.bound),
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
    quot = LaurentPolynomial._raw(a.vars, q, fbytes, qbound)
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
    s^k * sum_j C(k, j) x^((k - 2j) d), its coefficients built once per k
    by C(k, j + 1) = C(k, j) (k - j) / (j + 1).  The letters hold the
    lowest fields of p's keys, so the letter being replaced sits just above
    fields that are already zero, and moving a term from z^k to
    x^((k - 2j) d) is adding one integer to its key.  The fields are wide
    enough for the farthest any exponent can move; once every letter is
    gone, dropping their fields is one shift per key.
    """
    width, count = len(vars), len(units)
    if p.vars.names[:width] != vars.names or len(p.vars) != width + count:
        raise VariableMismatchError("substitution needs the variables followed by one letter per unit")
    moves = []
    for u in units:
        if u.vars != vars or not u.is_unit_monomial():
            raise AlgebraError(f"not a unit monomial of {vars.names}: {u.to_text()}")
        moves.append(next(iter(u.tuple_terms().items())))
    if not p.terms:
        return vars.zero()
    reach = max((sum(abs(d[v]) for d, _ in moves) for v in range(width)), default=0)
    bound = p.bound * (1 + reach)
    fbytes = max(p.fbytes, _width(bound))
    terms = _at(p, fbytes)
    bits = 8 * fbytes
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    top = bits * (width + count)
    for i in range(count - 1, -1, -1):
        shift = bits * (count - 1 - i)
        d, s = moves[i]
        step = (sum(d) << top) + sum(x << bits * (width + count - 1 - v) for v, x in enumerate(d))
        letter = (1 << top) + (1 << shift)
        spread: dict[int, list[tuple[int, int]]] = {}
        out: dict[int, int] = {}
        get = out.get
        for key, c in terms.items():
            k = (((key >> shift) + half) & mask) - half
            moved = spread.get(k)
            if moved is None:
                if k < 0:
                    raise AlgebraError("a negative power of u + 1/u is not a Laurent polynomial")
                moved = spread[k] = []
                b = s**k
                for j in range(k + 1):
                    moved.append(((k - 2 * j) * step - k * letter, b))
                    b = b * (k - j) // (j + 1)
            for off, b in moved:
                kk = key + off
                nc = get(kk, 0) + c * b
                if nc:
                    out[kk] = nc
                else:
                    del out[kk]
        terms = out
    drop = bits * count
    return LaurentPolynomial._raw(vars, {k >> drop: c for k, c in terms.items()}, fbytes, bound)


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

    Every entry is brought to one field width, wide enough for the sum
    over the rows of each row's largest exponent bound, which bounds every
    term of every minor, cancellation included.  Entry key + minor key is
    then the product's key, and each product adds into the minor's term map
    directly.
    """
    vs = _det_vars(rows, vars)
    n = len(rows)
    if n == 0:
        return vs.one()
    if any(p.vars != vs for row in rows for p in row):
        raise VariableMismatchError("determinant entries use different variables")
    if any(not any(p.terms for p in row) for row in rows):
        return vs.zero()
    bound = sum(max(p.bound for p in row) for row in rows)
    fbytes = max(_width(bound), *(p.fbytes for row in rows for p in row))
    # entry (r, c) as its term pairs, for an even and for an odd position
    entries = []
    for row in rows:
        prow = []
        for p in row:
            even = list(_at(p, fbytes).items())
            prow.append((even, [(k, -c) for k, c in even]))
        entries.append(prow)
    memo: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}

    def minor(r: int, cols: tuple[int, ...]) -> dict[int, int]:
        got = memo.get(cols)
        if got is not None:
            return got
        row = entries[r]
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
    return LaurentPolynomial._raw(vs, det, fbytes, bound)


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
