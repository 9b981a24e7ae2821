"""Exact arithmetic foundation.

Everything downstream is built on three immutable value types:

* ``PrimeLaurent`` -- Laurent polynomial in the formal prime ``p`` with
  exact rational coefficients.  This is the coefficient ring of the whole
  project; negative ``p``-exponents are first class.
* ``XPoly`` -- sparse multivariate polynomial in the Satake parameters
  ``x0 .. x_{nvars-1}`` over ``PrimeLaurent``.  A subclass names its own
  variables and is a ring of its own: ``series.HeckeExpr`` is the same
  polynomial ring over the four Hecke generators.
* ``VSeries`` -- truncated power series in ``v`` with ``XPoly`` coefficients.

``PrimeLaurent`` and ``XPoly`` share one set of ring operators (sum,
difference, negation, powers, zero test) from the private base ``_Ring``;
each keeps its own coercion, product and exact division.  All arithmetic
runs on the packed kernel below.  A rational coefficient is an ``int`` when
integral and a ``Fraction`` otherwise, never zero; an exponent is an
integer.  Any other type raises ``TypeError``.  Equality is exact identity
of canonical forms.
"""

from __future__ import annotations

import heapq
import operator
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import lcm, prod

from .errors import (
    DivisionByZero,
    NonUnitConstantTerm,
    NotDivisible,
    UnassignedVariable,
    VarMismatch,
)


def _exact(c):
    """c in canonical form: an int when integral, a Fraction otherwise."""
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"coefficient {c!r} is neither an int nor a Fraction")


class _Ring:
    """The ring operators that PrimeLaurent and XPoly share.

    A subclass stores its canonical terms in ``terms`` and supplies
    ``_coerce`` (an operand as an element of its ring, or NotImplemented),
    ``_combine`` (self + scale * other, other already coerced), ``_raw``
    (an element of its ring from canonical terms) and ``__mul__``.
    """

    __slots__ = ()

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._combine(other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self._raw({e: -c for e, c in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power of a {type(self).__name__}")
        result = self._coerce(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result


class PrimeLaurent(_Ring):
    """Laurent polynomial in p over the rationals, stored exponent -> coefficient:
    the packed kernel's dict in zero variables, with canonical coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int | Fraction] | None = None):
        self.terms = {operator.index(e): x for e, c in terms.items() if (x := _exact(c))} if terms else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(value) -> "PrimeLaurent":
        return PrimeLaurent({0: value})

    @staticmethod
    def p_power(k: int, coeff=1) -> "PrimeLaurent":
        return PrimeLaurent({k: coeff})

    @staticmethod
    def _raw(terms: dict) -> "PrimeLaurent":
        """The Laurent polynomial of packed terms; zeros are dropped."""
        out = PrimeLaurent.__new__(PrimeLaurent)
        out.terms = {e: c if type(c) is int else _exact(c) for e, c in terms.items() if c}
        return out

    # -- predicates ---------------------------------------------------

    def is_one(self) -> bool:
        return self.terms == {0: 1}

    def min_exp(self) -> int:
        return min(self.terms)

    def max_exp(self) -> int:
        return max(self.terms)

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(other) -> "PrimeLaurent":
        if isinstance(other, PrimeLaurent):
            return other
        if isinstance(other, (int, Fraction)):
            return PrimeLaurent.const(other)
        return NotImplemented

    def _combine(self, other: "PrimeLaurent", scale: int) -> "PrimeLaurent":
        """self + scale * other."""
        acc = dict(self.terms)
        _add_into(acc, other.terms, scale)
        return PrimeLaurent._raw(acc)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc: dict = {}
        _mul_into(acc, self.terms, other.terms)
        return PrimeLaurent._raw(acc)

    __rmul__ = __mul__

    def div_exact(self, other: "PrimeLaurent") -> "PrimeLaurent":
        """Exact Laurent quotient; raises NotDivisible if none exists."""
        divisor = self._coerce(other)
        if divisor is NotImplemented:
            raise TypeError(f"cannot divide a PrimeLaurent by {type(other).__name__}")
        if divisor.is_zero():
            raise DivisionByZero("division by zero Laurent polynomial")
        if self.is_zero():
            return PL_ZERO
        a, b = self.terms, divisor.terms
        width = _width(0, max(map(abs, a)) + max(map(abs, b)))
        return PrimeLaurent._raw(_div_packed(a, b, 0, width))

    def evaluate(self, value) -> Fraction:
        """Specialize p to a concrete rational value."""
        value = Fraction(value)
        return sum((c * value**e for e, c in self.terms.items()), Fraction(0))

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant hashes like the int or Fraction it equals
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*p" if c != 1 else "p")
            else:
                parts.append(f"{c}*p^{e}" if c != 1 else f"p^{e}")
        return " + ".join(parts).replace("+ -", "- ")

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {str(e): str(c) for e, c in sorted(self.terms.items(), reverse=True)}

    @staticmethod
    def from_json(data: Mapping[str, str]) -> "PrimeLaurent":
        return PrimeLaurent({int(e): Fraction(s) for e, s in data.items()})


PL_ZERO = PrimeLaurent()
PL_ONE = PrimeLaurent.const(1)
#: the formal prime itself
p = PrimeLaurent.p_power(1)
#: a coefficient: an int, a Fraction or a Laurent polynomial in p
Scalar = int | Fraction | PrimeLaurent


def _laurent(value: Scalar) -> PrimeLaurent:
    """value as a Laurent polynomial; anything but a PrimeLaurent, an int or
    a Fraction raises TypeError."""
    return value if isinstance(value, PrimeLaurent) else PrimeLaurent.const(value)


def _grlex_key(exps: tuple) -> tuple:
    return (sum(exps), exps)


def monomial_text(exps: tuple, names, tex: bool = False) -> str:
    """The monomial with exponents exps in the variables names, as text
    (x0^2*x1) or as LaTeX (x0^{2}x1)."""
    power = "{}^{{{}}}" if tex else "{}^{}"
    return ("" if tex else "*").join(
        power.format(names[i], k) if k > 1 else names[i] for i, k in enumerate(exps) if k
    )


# -- packed kernel ----------------------------------------------------
#
# XPoly arithmetic runs on flat dicts {key: coefficient}.  A key packs one
# (x-monomial, p-exponent) pair into an int: the p-exponent sits in the
# lowest field, stored signed (biased by half the field), and the exponent
# of x_i in field i + 1.  Every field is `width` bits wide, and each
# operation sizes the width from its operands so that no field of any
# result can carry into its neighbour.  Adding two keys then multiplies the
# monomials, adding a key shifts by a monomial (p^k is the key k), and
# comparing keys is a monomial order: lex on x_{n-1} .. x_0, then p.  The
# top bit of every x field stays clear; division uses it as a guard bit.
# Every XPoly and VSeries operation keeps rationals at its boundary: it
# clears its packed operands once to ints over one denominator (_clear), runs
# the kernel loops on ints and divides each result term once as _unpack
# stores it.  Of those loops only _div_packed, by a divisor whose cleared
# lead is not +-1, meets Fractions; PrimeLaurent runs them on its
# coefficients as they are.  Sums and products may leave zeros and integral
# Fractions; _unpack and PrimeLaurent._raw drop and demote them (see _exact).


def _width(xdeg: int, pabs: int) -> int:
    """Field width for x-exponents up to xdeg and p-exponents in [-pabs, pabs]."""
    return max(xdeg, pabs).bit_length() + 1


def _bounds(polys: Iterable["XPoly"]) -> tuple[int, int]:
    """Largest x-exponent and largest |p-exponent| over the terms of polys."""
    xdeg = pabs = 0
    for a in polys:
        if a.terms:
            if a.nvars:
                xdeg = max(xdeg, max(map(max, a.terms)))
            pes = [pe for c in a.terms.values() for pe in c.terms]
            pabs = max(pabs, max(pes), -min(pes))
    return xdeg, pabs


def _key(exps: tuple, width: int, pe: int = 0) -> int:
    """Packed key of x^exps * p^pe."""
    x = 0
    for k in reversed(exps):
        x = (x | k) << width
    return x + pe


def _pack(a: "XPoly", width: int) -> dict:
    """Packed terms of a."""
    out = {}
    for e, c in a.terms.items():
        x = _key(e, width)
        for pe, f in c.terms.items():
            out[x + pe] = f
    return out


def _unpack(packed: dict, nvars: int, width: int, cls: type | None = None, den: int = 1) -> "XPoly":
    """The polynomial (an XPoly, or of class cls) of a packed dict divided by
    den, with canonical coefficients; zeros are dropped."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    laurents: dict[int, dict] = {}
    if den == 1:
        for key, c in packed.items():
            if c:
                pe = ((key + half) & mask) - half
                x = (key - pe) >> width
                g = laurents.get(x)
                if g is None:
                    laurents[x] = g = {}
                g[pe] = c if type(c) is int else _exact(c)
    else:
        for key, c in packed.items():
            if c:
                pe = ((key + half) & mask) - half
                laurents.setdefault((key - pe) >> width, {})[pe] = Fraction(c, den) if c % den else c // den
    terms = {}
    for x, g in laurents.items():
        e = []
        for _ in range(nvars):
            e.append(x & mask)
            x >>= width
        c = PrimeLaurent.__new__(PrimeLaurent)
        c.terms = g
        terms[tuple(e)] = c
    cls = cls or XPoly
    out = cls.__new__(cls)
    out.nvars = nvars
    out.terms = terms
    return out


def _extent(packed: dict, nvars: int, width: int) -> tuple[list, int, int]:
    """Per-variable largest x-exponent and the p-exponent range of a nonempty packed dict."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    pes = [((key + half) & mask) - half for key in packed]
    degs = [0] * nvars
    for x in {key - pe for key, pe in zip(packed, pes)}:
        x >>= width
        for i in range(nvars):
            f = x & mask
            if f > degs[i]:
                degs[i] = f
            x >>= width
    return degs, min(pes), max(pes)


def _clear(packs: list) -> tuple[list, int]:
    """(numerators, d): each packed dict of packs times d as ints, d the lcm
    of all their denominators; packs itself and 1 when every coefficient is an int."""
    d = lcm(*{c.denominator for a in packs for c in a.values()})
    if d == 1:
        return packs, 1
    return [{k: c.numerator * (d // c.denominator) for k, c in a.items()} for a in packs], d


def _add_into(acc: dict, b: dict, scale=1, offset: int = 0) -> None:
    """acc += scale * b * (the monomial whose key is offset); zeros may remain in acc."""
    get = acc.get
    for k, c in b.items():
        k += offset
        acc[k] = get(k, 0) + scale * c


def _mul_into(acc: dict, a: dict, b: dict) -> None:
    """acc += a * b; zeros may remain in acc."""
    if len(a) > len(b):
        a, b = b, a
    get = acc.get
    items = b.items()
    for ka, ca in a.items():
        for kb, cb in items:
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb


def _cdiv(a, b):
    """Exact rational a / b, as an int when integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


def _div_packed(a: dict, b: dict, nvars: int, width: int) -> dict:
    """Exact quotient of packed a by packed b (b has no zero coefficients).

    Heap-driven division in the packed order: the largest remainder key is
    divided by the largest key of b until the remainder is empty.  An exact
    quotient has x-degrees deg(a) - deg(b) per variable and p-exponents in
    [min_p(a) - min_p(b), max_p(a) - max_p(b)]; a quotient term outside that
    box raises NotDivisible, so every input terminates.  The width must
    also fit p-exponents up to the sum of the largest |p-exponent| of a and b.
    """
    rem = {k: c for k, c in a.items() if c}
    if not rem:
        return {}
    da, alo, ahi = _extent(rem, nvars, width)
    db, blo, bhi = _extent(b, nvars, width)
    qmax = [x - y for x, y in zip(da, db)]
    qlo, qhi = alo - blo, ahi - bhi
    if qlo > qhi or min(qmax, default=0) < 0:
        raise NotDivisible("degree bounds admit no exact quotient")
    half, mask = 1 << (width - 1), (1 << width) - 1
    # guard: the top bit of every x field; slack pushes a field above its
    # quotient bound into that bit
    guard = _key((half,) * nvars, width)
    slack = _key(tuple(half - 1 - m for m in qmax), width)
    lead = max(b)
    lc = b[lead]
    # dividing by +-1 is multiplying by it
    unit = lc == 1 or lc == -1
    lead_pe = ((lead + half) & mask) - half
    lead_x = lead - lead_pe
    rest = [(k - lead, c) for k, c in b.items() if k != lead]
    heap = [-k for k in rem]
    heapq.heapify(heap)
    quot = {}
    while heap:
        k = -heapq.heappop(heap)
        c = rem.pop(k, 0)
        if not c:
            continue  # cancelled after it was queued
        pe = ((k + half) & mask) - half
        qpe = pe - lead_pe
        t = k - pe + guard - lead_x
        if t & guard != guard:
            raise NotDivisible("leading monomial not divisible")
        qx = t - guard
        if (qx + slack) & guard or not qlo <= qpe <= qhi:
            raise NotDivisible("quotient term outside the degree bounds")
        q = c * lc if unit else _cdiv(c, lc)
        quot[qx + qpe] = q
        for dk, cb in rest:
            kk = k + dk
            old = rem.get(kk)
            if old is None:
                rem[kk] = -q * cb
                heapq.heappush(heap, -kk)
            else:
                s = old - q * cb
                if s:
                    rem[kk] = s
                else:
                    del rem[kk]
    return quot


class XPoly(_Ring):
    """Sparse polynomial in x0..x_{nvars-1} with PrimeLaurent coefficients.

    A subclass is a ring of its own (``series.HeckeExpr``): arithmetic keeps
    the class of self and refuses an operand of another class.
    """

    __slots__ = ("nvars", "terms")

    #: variable names for repr; None names them x0, x1, ...
    var_names: tuple | None = None

    def __init__(self, nvars: int, terms: Mapping[tuple, Scalar] | None = None):
        if self.var_names is not None and nvars != len(self.var_names):
            raise VarMismatch(f"{type(self).__name__} has {len(self.var_names)} variables, not {nvars}")
        self.nvars = nvars
        clean = {}
        if terms:
            for e, c in terms.items():
                e = tuple(map(operator.index, e))
                if len(e) != nvars:
                    raise VarMismatch(f"exponent vector {e} has wrong length for nvars={nvars}")
                if min(e, default=0) < 0:
                    raise VarMismatch(f"exponent vector {e} has a negative exponent")
                c = _laurent(c)
                if c:
                    clean[e] = c
        self.terms = clean

    # -- constructors (each builds the class it is called on) ------------

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "XPoly":
        return cls.monomial(nvars, (0,) * nvars, value)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "XPoly":
        e = [0] * nvars
        e[index] = 1
        return cls.monomial(nvars, e)

    @classmethod
    def monomial(cls, nvars: int, exps: tuple, coeff: Scalar = 1) -> "XPoly":
        out = cls.__new__(cls)
        XPoly.__init__(out, nvars, {tuple(exps): coeff})
        return out

    def _raw(self, terms: dict) -> "XPoly":
        out = type(self).__new__(type(self))
        out.nvars = self.nvars
        out.terms = terms
        return out

    def _constant(self, value: Scalar) -> "XPoly":
        """value as a constant of the ring of self."""
        c = _laurent(value)
        return self._raw({(0,) * self.nvars: c} if c else {})

    # -- predicates ---------------------------------------------------

    def is_one(self) -> bool:
        z = (0,) * self.nvars
        return set(self.terms) == {z} and self.terms[z].is_one()

    def sorted_terms(self):
        """Terms in the canonical graded-lex-descending order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]), reverse=True)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if type(other) is type(self):
            if other.nvars != self.nvars:
                raise VarMismatch(f"nvars {self.nvars} != {other.nvars}")
            return other
        if isinstance(other, (int, Fraction, PrimeLaurent)):
            return self._constant(other)
        return NotImplemented

    def _combine(self, other: "XPoly", scale: int) -> "XPoly":
        """self + scale * other."""
        width = _width(*_bounds((self, other)))
        (a, b), d = _clear([_pack(self, width), _pack(other, width)])
        _add_into(a, b, scale)
        return _unpack(a, self.nvars, width, type(self), d)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        (xa, pa), (xb, pb) = _bounds((self,)), _bounds((other,))
        width = _width(xa + xb, pa + pb)
        (a,), da = _clear([_pack(self, width)])
        (b,), db = _clear([_pack(other, width)])
        acc: dict = {}
        _mul_into(acc, a, b)
        return _unpack(acc, self.nvars, width, type(self), da * db)

    __rmul__ = __mul__

    def div_exact(self, other: "XPoly") -> "XPoly":
        """Exact quotient q with q*other == self; raises NotDivisible."""
        divisor = self._coerce(other)
        if divisor is NotImplemented:
            raise TypeError(f"cannot divide a {type(self).__name__} by {type(other).__name__}")
        if divisor.is_zero():
            raise DivisionByZero("division by zero polynomial")
        (xa, pa), (xb, pb) = _bounds((self,)), _bounds((divisor,))
        width = _width(max(xa, xb), pa + pb)
        # self / divisor = (a / b) * db / da, on ints when the lead of b is +-1
        (a,), da = _clear([_pack(self, width)])
        (b,), db = _clear([_pack(divisor, width)])
        quot = _div_packed(a, b, self.nvars, width)
        if db != 1:
            quot = {k: c * db for k, c in quot.items()}
        return _unpack(quot, self.nvars, width, type(self), da)

    def substitute(self, assignment: Mapping[int, XPoly | Scalar]) -> "XPoly":
        """Ring-homomorphism image under variable -> polynomial assignment.

        The image lies in the ring of the polynomial values, which must all
        share one class and nvars, or in the ring of self when every value
        is a scalar.  Every variable occurring in self must be assigned;
        unassigned occurrences raise UnassignedVariable.
        """
        ring = next((v for v in assignment.values() if isinstance(v, XPoly)), self)
        images: dict[int, XPoly] = {}
        for i, val in assignment.items():
            if isinstance(val, XPoly):
                if type(val) is not type(ring) or val.nvars != ring.nvars:
                    raise VarMismatch("assignment values lie in different rings")
                images[i] = val
            else:
                images[i] = ring._constant(val)
        bounds = {i: _bounds((img,)) for i, img in images.items()}
        xdeg = pabs = 0
        top = [0] * self.nvars
        for e, c in self.terms.items():
            x, pe = 0, max(max(c.terms), -min(c.terms))
            for i, k in enumerate(e):
                if k:
                    if i not in images:
                        raise UnassignedVariable(f"variable x{i} is not assigned")
                    x += k * bounds[i][0]
                    pe += k * bounds[i][1]
                    top[i] = max(top[i], k)
            xdeg, pabs = max(xdeg, x), max(pabs, pe)
        width = _width(xdeg, pabs)
        # over ints: x_i goes to d_i * images[i], and a term c * x^k of self
        # to L * c * prod d_i^(top_i - k_i) * x^k, which puts the whole image
        # over one denominator, L * prod d_i^top_i
        powers: dict[tuple[int, int], dict] = {}
        lifts = {}
        for i, t in enumerate(top):
            if t:
                (powers[i, 1],), d = _clear([_pack(images[i], width)])
                if d != 1:
                    lifts[i] = [d ** (t - k) for k in range(t + 1)]
        monos, L = _clear([c.terms for c in self.terms.values()])
        den = L * prod(ds[0] for ds in lifts.values())

        def power(i, k):
            if (i, k) not in powers:
                powers[i, k] = acc = {}
                _mul_into(acc, power(i, k - 1), power(i, 1))
            return powers[i, k]

        result: dict = {}
        for e, mono in zip(self.terms, monos):
            scale = 1
            for i, ds in lifts.items():
                scale *= ds[e[i]]
            for i, k in enumerate(e):
                if k:
                    term: dict = {}
                    _mul_into(term, mono, power(i, k))
                    mono = term
            _add_into(result, mono, scale)
        return _unpack(result, ring.nvars, width, type(ring), den)

    def specialize_prime(self, prime) -> "XPoly":
        """Evaluate every coefficient at p = prime (rational coefficients remain)."""
        res = {}
        for e, c in self.terms.items():
            val = c.evaluate(prime)
            if val:
                res[e] = PrimeLaurent.const(val)
        return self._raw(res)

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, PrimeLaurent)):
            other = self._constant(other)
        if type(other) is not type(self):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        # a constant hashes like the PrimeLaurent, and so the scalar, it equals
        z = (0,) * self.nvars
        if self.terms.keys() <= {z}:
            return hash(self.terms.get(z, 0))
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = self.var_names or [f"x{i}" for i in range(self.nvars)]
        parts = []
        for e, c in self.sorted_terms():
            mono = monomial_text(e, names)
            cs = repr(c)
            if " " in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}" if mono and cs != "1" else (mono or cs))
        return " + ".join(parts)

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"x": list(e), "c": c.to_json()} for e, c in self.sorted_terms()
            ],
        }

    @staticmethod
    def from_json(data: Mapping) -> "XPoly":
        return XPoly(
            data["nvars"],
            {tuple(t["x"]): PrimeLaurent.from_json(t["c"]) for t in data["terms"]},
        )


class VSeries:
    """Power series in v, truncated at a fixed order, with XPoly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[XPoly]):
        if order < 0:
            raise ValueError(f"series order must be >= 0, got {order}")
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(f"expected {order + 1} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if not isinstance(c, XPoly):
                raise TypeError(f"series coefficient {c!r} is not an XPoly")
            if c.nvars != coeffs[0].nvars:
                raise VarMismatch("mixed nvars in series coefficients")
        self.order = order
        self.coeffs = coeffs

    @staticmethod
    def from_dict(order: int, nvars: int, entries: Mapping[int, XPoly]) -> "VSeries":
        coeffs = [XPoly(nvars) for _ in range(order + 1)]
        for k, c in entries.items():
            if k < 0:
                raise ValueError(f"negative power v^{k} in a series")
            if k <= order:
                coeffs[k] = c
        return VSeries(order, coeffs)

    @staticmethod
    def one(order: int, nvars: int) -> "VSeries":
        return VSeries.from_dict(order, nvars, {0: XPoly.constant(nvars, 1)})

    @property
    def nvars(self) -> int:
        return self.coeffs[0].nvars

    def __add__(self, other: "VSeries") -> "VSeries":
        if not isinstance(other, VSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return VSeries(n, [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other: "VSeries") -> "VSeries":
        if not isinstance(other, VSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return VSeries(n, [self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __mul__(self, other: "VSeries") -> "VSeries":
        if not isinstance(other, VSeries):
            return NotImplemented
        if self.nvars != other.nvars:
            raise VarMismatch("series over different nvars")
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        (xa, pa), (xb, pb) = _bounds(a), _bounds(b)
        width = _width(xa + xb, pa + pb)
        a, da = _clear([_pack(c, width) for c in a])
        b, db = _clear([_pack(c, width) for c in b])
        out = []
        for k in range(n + 1):
            acc: dict = {}
            for i in range(k + 1):
                if a[i] and b[k - i]:
                    _mul_into(acc, a[i], b[k - i])
            out.append(_unpack(acc, self.nvars, width, den=da * db))
        return VSeries(n, out)

    def recip(self) -> "VSeries":
        """Multiplicative inverse mod v^(order+1); constant term must be 1."""
        if not self.coeffs[0].is_one():
            raise NonUnitConstantTerm("series constant term is not 1")
        # the v^k coefficient of the inverse is a sum of products of at most
        # k coefficients of self
        xdeg, pabs = _bounds(self.coeffs)
        width = _width(self.order * xdeg, self.order * pabs)
        # over ints: with self = 1 + sum A_j v^j / d, the v^k coefficient of
        # the inverse is I_k / d^k, where I_k = -sum_j A_j d^(j-1) I_(k-j)
        a, d = _clear([_pack(c, width) for c in self.coeffs])
        if d != 1:
            for j in range(2, len(a)):
                a[j] = {key: c * d ** (j - 1) for key, c in a[j].items()}
        inv = [{0: 1}]
        for k in range(1, self.order + 1):
            acc: dict = {}
            for j in range(1, k + 1):
                if a[j] and inv[k - j]:
                    _mul_into(acc, a[j], inv[k - j])
            inv.append({key: -c for key, c in acc.items() if c})
        return VSeries(self.order, [_unpack(c, self.nvars, width, den=d**k) for k, c in enumerate(inv)])

    def truncate(self, order: int) -> "VSeries":
        if order >= self.order:
            return self
        return VSeries(order, self.coeffs[: order + 1])

    def degree(self) -> int:
        """Largest k <= order with nonzero coefficient (-1 for the zero series)."""
        for k in range(self.order, -1, -1):
            if self.coeffs[k].terms:
                return k
        return -1

    def __eq__(self, other):
        if not isinstance(other, VSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __repr__(self):
        lines = [f"v^{k}: {c}" for k, c in enumerate(self.coeffs)]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {"order": self.order, "coeffs": [c.to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(data: Mapping) -> "VSeries":
        return VSeries(data["order"], [XPoly.from_json(c) for c in data["coeffs"]])
