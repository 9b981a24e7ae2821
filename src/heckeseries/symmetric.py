"""Monomial and elementary symmetric polynomial bases in x1..xn.

Convention used project-wide: every XPoly has nvars = n + 1, index 0 is
reserved for x0 and the symmetric machinery acts on indices 1..n only.
A signature is a non-increasing tuple of non-negative integers of length n.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import permutations
from math import factorial

from .algebra import PrimeLaurent, XPoly, _add_into, _bounds, _cdiv, _clear, _key, _mul_into, _pack, _unpack, _width
from .errors import IndexOutOfRange, LengthMismatch, NotSymmetric

Signature = tuple


def check_signature(sig, n: int) -> Signature:
    sig = tuple(map(operator.index, sig))
    if len(sig) != n:
        raise LengthMismatch(f"signature {sig} has length {len(sig)}, expected {n}")
    if any(v < 0 for v in sig):
        raise LengthMismatch(f"signature {sig} has negative parts")
    if any(sig[i] < sig[i + 1] for i in range(n - 1)):
        raise LengthMismatch(f"signature {sig} is not non-increasing")
    return sig


def signatures_of_degree(degree: int, max_part: int, n: int):
    """Every signature of length n, parts at most max_part, of sum degree, lex-decreasing."""
    if n < 2:  # at most one part: (degree,), or () at degree 0
        if 0 <= degree <= n * max_part:
            yield (degree,) * n
        return
    # the first part is the largest: at least degree / n, rounded up
    for first in range(min(degree, max_part), -(-degree // n) - 1, -1):
        for rest in signatures_of_degree(degree - first, first, n - 1):
            yield (first,) + rest


def signatures(max_part: int, n: int):
    """Every signature of length n with parts at most max_part, each once, by degree."""
    return (sig for degree in range(n * max_part + 1) for sig in signatures_of_degree(degree, max_part, n))


def msym(sig, n: int) -> XPoly:
    """Orbit sum of x1^i1 * ... * xn^in under S_n, all coefficients 1."""
    return from_msym({tuple(sig): 1}, n)


def elem(i: int, n: int) -> XPoly:
    """Elementary symmetric polynomial s_i(x1..xn)."""
    if not 0 <= i <= n:
        raise IndexOutOfRange(f"elem index {i} outside 0..{n}")
    return msym((1,) * i + (0,) * (n - i), n)


def x0_weight(a: XPoly) -> int:
    """The common x0-exponent of all terms; raises if the weights are mixed."""
    weights = {e[0] for e in a.terms}
    if not weights:
        return 0
    if len(weights) > 1:
        raise NotSymmetric(f"mixed x0-weights {sorted(weights)}")
    return weights.pop()


def to_msym(a: XPoly) -> dict[Signature, PrimeLaurent]:
    """Decompose a symmetric polynomial into the monomial basis.

    The input must be symmetric in x1..xn (x0 is a spectator of uniform
    weight); returns {signature: coefficient}, signatures descending, such
    that a = sum c_sig * x0^w * msym(sig).  The coefficient on msym(sig) is
    the coefficient at the exponent sig itself, so it is read, not solved
    for.  Certifying: NotSymmetric is raised unless every term carries the
    coefficient of its orbit and the orbits met are complete.
    """
    x0_weight(a)  # raises NotSymmetric on mixed x0-weights
    out: dict[Signature, PrimeLaurent] = {}
    for e, c in a.terms.items():
        sig = tuple(sorted(e[1:], reverse=True))
        if out.setdefault(sig, c) != c:
            raise NotSymmetric(f"term {e} differs in coefficient from its orbit {sig}")
    # each term lies in exactly one orbit, so the counts match iff no term is missing
    if sum(map(_orbit_size, out)) != len(a.terms):
        raise NotSymmetric("an orbit is missing terms")
    return {sig: out[sig] for sig in sorted(out, reverse=True)}


@lru_cache(maxsize=None)
def _orbit_size(parts: tuple) -> int:
    """The number of distinct orderings of parts: n! / |Stab parts|."""
    size = factorial(len(parts))
    for v in set(parts):
        size //= factorial(parts.count(v))
    return size


def _dominant_product(f: XPoly, g: XPoly) -> XPoly:
    """The terms of f * g at weakly decreasing exponents, for f and g symmetric
    in x1..xn: f held on its terms at weakly decreasing exponents, g in full.

    Since g is symmetric, the coefficient of m_lambda in f * g is the sum over
    the terms mu of f, and the terms gamma of g with sort(mu + gamma) = lambda,
    of f_mu g_gamma |O(mu)| / |O(lambda)|, O the orbit (Macdonald, Symmetric
    Functions and Hall Polynomials, I.2).  The kernel multiplies f's terms,
    each times |O(mu)|, by g on ints; each product term is added at its sorted
    exponent, and each sum divided once at the end.
    """
    (xf, pf), (xg, pg) = _bounds((f,)), _bounds((g,))
    width = _width(xf + xg, pf + pg)
    weighted = {}
    for e, c in f.terms.items():
        x, size = _key(e, width), _orbit_size(e[1:])
        for pe, v in c.terms.items():
            weighted[x + pe] = size * v
    (a, b), d = _clear([weighted, _pack(g, width)])
    product: dict = {}
    _mul_into(product, a, b)
    sums: dict[tuple, dict] = {}
    for e, c in _unpack(product, f.nvars, width).terms.items():
        lam = (e[0], *sorted(e[1:], reverse=True))
        if lam in sums:
            _add_into(sums[lam], c.terms)
        else:
            sums[lam] = c.terms
    terms = {}
    for lam, s in sums.items():
        den = d * d * _orbit_size(lam[1:])
        c = PrimeLaurent._raw({pe: _cdiv(v, den) for pe, v in s.items() if v})
        if c:
            terms[lam] = c
    return f._raw(terms)


def _orbit_sums(dominant: XPoly) -> XPoly:
    """The polynomial symmetric in x1..xn with the terms of dominant at its
    weakly decreasing exponents; the terms of an orbit share one coefficient."""
    terms = {}
    for e, c in dominant.terms.items():
        head = e[:1]
        for perm in permutations(e[1:]):
            terms[head + perm] = c
    return dominant._raw(terms)


def from_msym(decomp: dict, n: int, weight: int = 0) -> XPoly:
    """Inverse of to_msym: rebuild x0^weight * sum c_sig * msym(sig)."""
    dominant = {(weight,) + check_signature(sig, n): c for sig, c in decomp.items()}
    return _orbit_sums(XPoly(n + 1, dominant))
