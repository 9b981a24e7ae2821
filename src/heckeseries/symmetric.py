"""Monomial and elementary symmetric polynomial bases in x1..xn.

Convention used project-wide: every XPoly has nvars = n + 1, index 0 is
reserved for x0 and the symmetric machinery acts on indices 1..n only.
A signature is a non-increasing tuple of non-negative integers of length n.
"""

from __future__ import annotations

import operator
from itertools import combinations_with_replacement, permutations

from .algebra import PrimeLaurent, XPoly
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


def signatures(max_part: int, n: int):
    """Every signature of length n with parts at most max_part, each once."""
    return combinations_with_replacement(range(max_part, -1, -1), n)


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
    weight); returns {signature: coefficient} such that
    a = sum c_sig * x0^w * msym(sig).  Certifying: the reconstruction
    is exact or NotSymmetric is raised.
    """
    n = a.nvars - 1
    w = x0_weight(a)
    rem = dict(a.terms)
    out: dict[Signature, PrimeLaurent] = {}
    # every key has x0-exponent w, and keys are only ever deleted, so the
    # leading remaining key is the next one left in one descending sort
    for lead in sorted(rem, reverse=True):
        c = rem.get(lead)
        if c is None:
            continue
        sig = lead[1:]
        if any(sig[i] < sig[i + 1] for i in range(n - 1)):
            raise NotSymmetric(f"leading exponent {sig} is not non-increasing")
        out[sig] = c
        for perm in set(permutations(sig)):
            e = (w,) + perm
            s = rem.get(e)
            if s is None:
                raise NotSymmetric(f"missing orbit term {e}")
            s = s - c
            if s.terms:
                rem[e] = s
            else:
                del rem[e]
    return out


def from_msym(decomp: dict, n: int, weight: int = 0) -> XPoly:
    """Inverse of to_msym: rebuild x0^weight * sum c_sig * msym(sig)."""
    terms = {}
    for sig, c in decomp.items():
        # distinct signatures have disjoint orbits
        for perm in set(permutations(check_signature(sig, n))):
            terms[(weight,) + perm] = c
    return XPoly(n + 1, terms)

