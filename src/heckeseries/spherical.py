"""Spherical maps for the local Hecke rings.

Two independent routes to the GL_n spherical map are implemented:

* ``omega_hl`` -- closed form via a signed symmetrization divided by the
  Vandermonde (a Hall-Littlewood specialization at t = 1/p), with the
  multiplicity normalization v_lambda(1/p) and the prefactor
  p^(-sum i*lambda_i);
* ``omega_cosets`` -- brute-force enumeration of Hermite-normal-form left
  coset representatives filtered by their Smith-normal-form elementary
  divisors, at a concrete prime.

On the symplectic side only the generator images are needed:
T(p), T_i(p^2) for i = 1..n and the scalar element [p]_n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from .algebra import (
    PL_ONE,
    PrimeLaurent,
    XPoly,
    _add_into,
    _bounds,
    _div_packed,
    _pack,
    _unpack,
    _width,
)
from .errors import EnumerationTooLarge, IndexOutOfRange, UnsupportedRank
from .symmetric import check_signature, elem, msym

#: hard bound on the number of candidate coset matrices per enumeration
COSET_CANDIDATE_BOUND = 10**7


@lru_cache(maxsize=None)
def phi(r: int) -> PrimeLaurent:
    """phi_r(p) = (p-1)(p^2-1)...(p^r-1), with phi_0 = 1."""
    if r < 0:
        raise IndexOutOfRange("phi needs r >= 0")
    acc = PL_ONE
    for k in range(1, r + 1):
        acc = acc * (PrimeLaurent.p_power(k) - 1)
    return acc


# Counts of full-rank symmetric r x r matrices over F_p.  Ranks 0..2 cover
# every term of the T_i(p^2) images for n <= 3; rank 2 is pinned against a
# brute-force count over small fields in the test suite.
_SM_FULL_RANK = {
    0: PL_ONE,
    1: PrimeLaurent({1: 1, 0: -1}),          # p - 1
    2: PrimeLaurent({3: 1, 2: -1}),          # p^3 - p^2
}


def sm(r: int, a: int) -> PrimeLaurent:
    """Number of symmetric a x a matrices of rank r over F_p, as a polynomial in p."""
    if not 0 <= r <= a:
        raise IndexOutOfRange(f"need 0 <= r <= a, got r={r}, a={a}")
    if r not in _SM_FULL_RANK:
        raise UnsupportedRank(f"sm_p({r}, {r}) base case not wired (rank {r} >= 3)")
    num = _SM_FULL_RANK[r] * phi(a)
    return num.div_exact(phi(r) * phi(a - r))


def _sgn(perm: tuple) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv & 1 else 1


@lru_cache(maxsize=None)
def _vandermonde(n: int) -> XPoly:
    acc = XPoly.constant(n + 1, 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            acc = acc * (XPoly.variable(n + 1, i) - XPoly.variable(n + 1, j))
    return acc


@lru_cache(maxsize=None)
def _deformed_product(n: int) -> XPoly:
    """prod_{1 <= i < j <= n} (x_i - x_j / p)."""
    inv_p = PrimeLaurent.p_power(-1)
    acc = XPoly.constant(n + 1, 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            acc = acc * (XPoly.variable(n + 1, i) - XPoly.variable(n + 1, j) * inv_p)
    return acc


def _multiplicity_norm(lam, n: int) -> PrimeLaurent:
    """v_lambda(1/p) = prod over part-multiplicities m of prod_{j<=m} (1 + 1/p + ... + 1/p^(j-1))."""
    acc = PL_ONE
    for m in _multiplicity_class(lam):
        for j in range(1, m + 1):
            acc = acc * PrimeLaurent({-k: 1 for k in range(j)})
    return acc


def _multiplicity_class(lam) -> tuple:
    """The sorted part-multiplicities of lam; v_lambda(1/p) depends only on them."""
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    return tuple(sorted(mult.values()))


@lru_cache(maxsize=None)
def _packed_orbit(n: int, width: int) -> tuple:
    """(sign of w, the bit offset of the key field of x_w(i) for each i,
    packed w(D)) for every permutation w of x1..xn, where D is the deformed
    product."""
    d = _deformed_product(n)
    return tuple(
        (_sgn(w), tuple(width * (j + 1) for j in w), _pack(d.permute((0,) + w), width))
        for w in permutations(range(1, n + 1))
    )


def _hl_sums(groups: list, n: int, xdeg: int, pshift: int = 0) -> tuple[int, list[dict]]:
    """The field width and, for each group of signatures, the packed sum over
    the group of p^pshift * Antisym(x^lambda * D) / V / v_lambda(1/p).

    D is the deformed product and V the Vandermonde.  Antisymmetrization
    and both divisions are linear and v_lambda depends only on the
    multiplicity class of lambda, so each class in a group is
    antisymmetrized by key shifts of the packed w(D) and then divided
    once by V and once by its norm.  The width fits x-exponents up to
    xdeg, which must be at least every part.
    """
    nv = n + 1
    reps = {_multiplicity_class(lam): lam for sigs in groups for lam in sigs}
    norms = {cls: _multiplicity_norm(lam, n) for cls, lam in reps.items()}
    # the dividends' p-exponents lie in pshift + [-pabs(D), 0], and dividing
    # by a norm needs room for its p-range besides
    _, dpabs = _bounds((_deformed_product(n),))
    npabs = max((-c.min_exp() for c in norms.values()), default=0)
    width = _width(xdeg + n - 1, dpabs + npabs + abs(pshift))
    orbit = _packed_orbit(n, width)
    vdm = _pack(_vandermonde(n), width)
    out = []
    for sigs in groups:
        totals: dict[tuple, dict] = {}
        for lam in sigs:
            total = totals.setdefault(_multiplicity_class(lam), {})
            for sgn, shifts, wd in orbit:
                key = pshift
                for part, shift in zip(lam, shifts):
                    key += part << shift
                _add_into(total, wd, sgn, key)
        acc: dict = {}
        for cls, total in totals.items():
            quot = _div_packed(total, vdm, nv, width)
            # the normalized result is always Laurent
            _add_into(acc, _div_packed(quot, norms[cls].terms, nv, width))
        out.append(acc)
    return width, out


@lru_cache(maxsize=None)
def omega_hl(lam: tuple, n: int) -> XPoly:
    """omega(t(p^lambda)) in closed form: symmetric XPoly in x1..xn over Laurent-in-p.

    Computed as p^(-sum i*lambda_i) / v_lambda(1/p) times the signed
    S_n-symmetrization of x^lambda * prod_{i<j}(x_i - x_j/p), divided
    exactly by the Vandermonde (``_hl_sums`` of the one signature).
    """
    lam = check_signature(lam, n)
    weight = sum((i + 1) * part for i, part in enumerate(lam))
    width, (packed,) = _hl_sums([[lam]], n, max(lam, default=0), -weight)
    return _unpack(packed, n + 1, width)


def omega_pi(i: int, n: int) -> XPoly:
    """omega of the GL_n generator with i entries p on the diagonal: p^(-i(i+1)/2) s_i."""
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"omega_pi index {i} outside 1..{n}")
    return elem(i, n) * PrimeLaurent.p_power(-i * (i + 1) // 2)


# -- coset-enumeration oracle ----------------------------------------


def _valuation(value: int, prime: int, cap: int) -> int:
    if value == 0:
        return cap
    v = 0
    while value % prime == 0 and v < cap:
        value //= prime
        v += 1
    return v


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _coset_buckets(n: int, prime: int, delta: int):
    """Enumerate all HNF matrices of determinant prime^delta.

    Returns {snf_type: {diag_exponents: count}} where snf_type is the
    ascending tuple of p-valuations of the elementary divisors.
    """
    candidates = sum(
        prime ** sum(i * d[i] for i in range(n)) for d in _compositions(delta, n)
    )
    if candidates > COSET_CANDIDATE_BOUND:
        raise EnumerationTooLarge(
            f"{candidates} candidate cosets for prime^{delta} exceeds the bound"
        )
    buckets: dict[tuple, dict[tuple, int]] = {}
    for d in _compositions(delta, n):
        for typ in _enumerate_types(n, prime, d, delta):
            per_d = buckets.setdefault(typ, {})
            per_d[d] = per_d.get(d, 0) + 1
    return buckets


def _enumerate_types(n: int, prime: int, d: tuple, delta: int):
    """Yield the SNF valuation type of every HNF matrix with diagonal prime^d."""
    if n == 1:
        yield (delta,)
        return
    if n == 2:
        d1, d2 = d
        q2 = prime**d2
        for a in range(q2):
            v1 = min(d1, d2, _valuation(a, prime, delta))
            yield (v1, delta - v1)
        return
    if n != 3:
        raise IndexOutOfRange("coset enumeration wired for n <= 3")
    d1, d2, d3 = d
    q2, q3 = prime**d2, prime**d3
    pairs_12 = d1 + d2
    pairs_13 = d1 + d3
    pairs_23 = d2 + d3
    minor_base = min(pairs_12, pairs_13, pairs_23)
    for a in range(q2):
        va = _valuation(a, prime, delta)
        v1a = min(d1, d2, d3, va)
        m_a = min(minor_base, d3 + va)
        for b in range(q3):
            vb = _valuation(b, prime, delta)
            v1ab = min(v1a, vb)
            qb = q2 * b
            for c in range(q3):
                vc = _valuation(c, prime, delta)
                v1 = min(v1ab, vc)
                v2 = min(m_a, d1 + vc, _valuation(a * c - qb, prime, delta))
                yield (v1, v2 - v1, delta - v2)


def omega_cosets(lam: tuple, n: int, prime: int) -> XPoly:
    """Coset-enumeration oracle for omega(t(p^lambda)) at a concrete prime.

    Sums prod_i (prime^-i * x_i)^(d_i) over all HNF left-coset
    representatives whose elementary divisors have p-parts lambda.
    A common scalar part of lambda is split off first (the corresponding
    cosets are exactly the scalar multiples), which keeps the enumeration
    within the candidate bound.
    """
    lam = check_signature(lam, n)
    nv = n + 1
    base = lam[-1]
    mu = tuple(part - base for part in lam)
    delta = sum(mu)
    target = tuple(sorted(mu))
    buckets = _coset_buckets(n, prime, delta).get(target, {})
    acc = XPoly(nv)
    q = Fraction(prime)
    for d, count in buckets.items():
        full = tuple(di + base for di in d)
        coeff = count * q ** (-sum((i + 1) * e for i, e in enumerate(full)))
        acc = acc + XPoly.monomial(nv, (0,) + full, coeff)
    return acc


def coset_count(lam: tuple, n: int, prime: int) -> int:
    """Number of left cosets in t(p^lambda) at the given prime."""
    lam = check_signature(lam, n)
    mu = tuple(part - lam[-1] for part in lam)
    buckets = _coset_buckets(n, prime, sum(mu)).get(tuple(sorted(mu)), {})
    return sum(buckets.values())


# -- symplectic generator images -------------------------------------


def sp_image_Tp(n: int) -> XPoly:
    """Image of T(p): x0 * prod_{i=1}^n (1 + x_i)."""
    if n < 1:
        raise IndexOutOfRange("need n >= 1")
    acc = XPoly.variable(n + 1, 0)
    for i in range(1, n + 1):
        acc = acc * (XPoly.constant(n + 1, 1) + XPoly.variable(n + 1, i))
    return acc


def sp_image_Ti(i: int, n: int) -> XPoly:
    """Image of T_i(p^2): sum over a+b <= n, a >= i of
    p^(b(a+b+1)) sm_p(a-i, a) x0^2 omega(pi_{a,b})."""
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"T_i index {i} outside 1..{n}")
    nv = n + 1
    x0sq = XPoly.monomial(nv, (2,) + (0,) * n)
    acc = XPoly(nv)
    for a in range(i, n + 1):
        for b in range(0, n - a + 1):
            lam = (2,) * b + (1,) * a + (0,) * (n - a - b)
            term = omega_hl(lam, n) * sm(a - i, a) * PrimeLaurent.p_power(b * (a + b + 1))
            acc = acc + term
    return x0sq * acc


def sp_image_pbracket(n: int) -> XPoly:
    """Image of the scalar element [p]_n: p^(-n(n+1)/2) x0^2 x1...xn."""
    if n < 1:
        raise IndexOutOfRange("need n >= 1")
    exps = (2,) + (1,) * n
    return XPoly.monomial(n + 1, exps, PrimeLaurent.p_power(-n * (n + 1) // 2))
