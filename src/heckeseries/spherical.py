"""Spherical maps for the local Hecke rings.

Two independent routes to the GL_n spherical map are implemented:

* ``omega_hl`` -- closed form via a signed symmetrization divided by the
  Vandermonde (a Hall-Littlewood specialization at t = 1/p), with the
  multiplicity normalization v_lambda(1/p) and the prefactor
  p^(-sum i*lambda_i), computed on orbit representatives (the bialternant
  identity) and written out once;
* ``omega_cosets`` -- brute-force enumeration of Hermite-normal-form left
  coset representatives filtered by their Smith-normal-form elementary
  divisors, at a concrete prime.

On the symplectic side only the generator images are needed:
T(p), T_i(p^2) for i = 1..n and the scalar element [p]_n.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, permutations
from math import isqrt
from operator import add, lshift, sub

from .algebra import (
    PL_ONE,
    PrimeLaurent,
    XPoly,
    _add_into,
    _div_packed,
    _key,
    _unpack,
    _width,
)
from .errors import EnumerationTooLarge, IndexOutOfRange, UnsupportedRank
from .symmetric import _orbit_sums, check_signature, elem, signatures_of_degree

#: hard bound on the number of candidate coset matrices per enumeration.
#: Near it, `heckeseries omega --oracle` runs in under 0.2 s cold (2-vCPU Xeon,
#: Python 3.11.7): 7,0,0 at the prime 3 (8.07 M candidates) 0.10-0.16 s, 4,0,0
#: at 7 (6.87 M) 0.09-0.12 s, 10,0,0 at 2 (2.80 M) 0.11-0.12 s; 4,0,0 at 5 0.10-0.11 s
COSET_CANDIDATE_BOUND = 10**7
#: largest prime the coset oracle accepts, checked before its trial division,
#: which is O(sqrt(prime)): 0.06 ms at 999983, 0.06 s at 10^12 + 39 and about
#: a minute near 10^18 (2-vCPU Xeon, Python 3.11.7)
PRIME_BOUND = 10**6


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


@lru_cache(maxsize=None)
def _deformed_product(n: int) -> XPoly:
    """prod_{1 <= i < j <= n} (x_i - x_j / p)."""
    unit = [tuple(int(m == i) for m in range(n + 1)) for i in range(n + 1)]
    acc = XPoly.constant(n + 1, 1)
    for i, j in combinations(range(1, n + 1), 2):
        acc = acc * XPoly(n + 1, {unit[i]: 1, unit[j]: PrimeLaurent.p_power(-1, -1)})
    return acc


def _multiplicity_norm(lam) -> PrimeLaurent:
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


def _sort_sign(beta: tuple) -> int:
    """The sign of the sort of beta into decreasing order; 0 on a repeated entry."""
    if len(set(beta)) < len(beta):
        return 0
    return -1 if sum(x < y for x, y in combinations(beta, 2)) & 1 else 1


@lru_cache(maxsize=None)
def _vandermonde_terms(n: int) -> tuple:
    """V = sum_w sgn(w) x^(delta_w1, ..., delta_wn), delta = (n-1, ..., 0), as the
    pairs (w, sgn(w)): w over the permutations of 0..n-1, the identity first."""
    return tuple((w, _sort_sign(tuple(-i for i in w))) for w in permutations(range(n)))


def _div_vandermonde(anti: XPoly, n: int) -> XPoly:
    """Q with Q * V = A, V the Vandermonde in x1..xn: A antisymmetric in
    x1..xn and held at its strictly decreasing exponents (``_alternant_sums``),
    Q in x0..xn at its weakly decreasing exponents, x0 to the power 0.

    By V = sum_w sgn(w) x^w(delta), delta = (n-1, ..., 0), A at alpha + delta
    is the sum of sgn(w) Q_sort(alpha + delta - w(delta)), zero where an entry
    is negative.  delta - w(delta) = (w_i - i) has degree 0 and is
    lex-positive for w != 1, so Q_alpha follows from known ones when alpha
    runs lex-decreasing within its degree (``signatures_of_degree``, at the
    degrees A holds only).  An antisymmetric A is a multiple of V: the
    quotient is exact and nothing is checked.
    """
    anti = {beta: c.terms for beta, c in anti.terms.items()}
    delta = tuple(range(n - 1, -1, -1))
    # (delta - w(delta), -sgn(w)) for w != 1
    shifts = [(tuple(map(sub, w, range(n))), -sign) for w, sign in _vandermonde_terms(n)[1:]]
    hi = max((beta[0] for beta in anti), default=0) - (n - 1)
    quot: dict[tuple, PrimeLaurent] = {}
    for degree in sorted({sum(beta) - sum(delta) for beta in anti}):
        for alpha in signatures_of_degree(degree, hi, n):
            q = dict(anti.get(tuple(map(add, alpha, delta)), ()))
            get = q.get
            for shift, sign in shifts:
                beta = sorted(map(add, alpha, shift), reverse=True)
                if beta[-1] >= 0 and (known := quot.get(tuple(beta))):
                    for pe, c in known.terms.items():
                        q[pe] = get(pe, 0) + sign * c
            if q := PrimeLaurent._raw(q):
                quot[alpha] = q
    return XPoly(n + 1)._raw({(0,) + alpha: q for alpha, q in quot.items()})


def _gap_entry(gaps: tuple, n: int, width: int, pshift: int) -> tuple:
    """The multiplicity class of the signatures lambda whose adjacent gaps,
    capped at n, are gaps, and per permutation w that sorts some lambda +
    gamma (x^gamma a term of D) strictly decreasing: the field shifts that
    pack w(lambda), and the packed terms sgn(w) c x^w(gamma) p^(e + pshift)
    of those c x^gamma p^e of D.  Entries of gamma lie in 0..n-1, so a gap of
    n or more decides each comparison across it, while one of n - 1 can tie:
    the signature with these gaps and last part 0 stands for them all."""
    lam = tuple(accumulate(reversed(gaps), initial=0))[::-1]
    by_w: dict[tuple, dict] = {}
    for e, c in _deformed_product(n).terms.items():
        beta = tuple(map(add, lam, e[1:]))
        if sign := _sort_sign(beta):
            w = tuple(sorted(range(n), key=beta.__getitem__, reverse=True))
            x = _key(tuple(e[1 + i] for i in w), width, pshift)
            by_w.setdefault(w, {}).update((x + pe, sign * f) for pe, f in c.terms.items())
    return _multiplicity_class(lam), [
        ([width * (w.index(i) + 1) for i in range(n)], terms) for w, terms in by_w.items()
    ]


def _alternant_sums(groups: list, n: int, pshift: int = 0) -> list[XPoly]:
    """For each group of signatures, the sum over the group of
    p^pshift Antisym(x^lambda D) / v_lambda(1/p) in x1..xn, at its strictly
    decreasing exponents (D the deformed product).

    Both steps are linear and v_lambda depends only on the multiplicity
    class of lambda.  Each term c x^gamma p^e of D adds sgn * c p^(e + pshift)
    to its class's antisymmetric sum at sort(lambda + gamma) = w(lambda) +
    w(gamma), w the sorting permutation and sgn its sign, unless lambda + gamma
    has a repeated entry.  The class, each w and its packed terms depend only
    on the gaps of lambda capped at n: a table built lazily per call holds
    them per gap pattern (``_gap_entry``), so each signature packs w(lambda)
    once per w, by field shifts, and adds the terms to it.  Each class's sum
    is divided by its norm, exactly as ``_div_packed`` certifies, but for the
    class of distinct parts, of norm 1, which is added as it is.  The packed
    width fits the largest part of the groups plus the n - 1 of D.
    """
    # the sums' p-exponents lie in pshift + [-n(n - 1)/2, 0], D's range, and
    # dividing by a norm needs room for its p-range besides, as wide at most
    xdeg = max((lam[0] for sigs in groups for lam in sigs), default=0) + n - 1
    width = _width(xdeg, n * (n - 1) + abs(pshift))
    cap, unit = (n,) * (n - 1), (1,) * n
    table, norms, out = {}, {}, []
    for sigs in groups:
        anti: dict = {}
        totals = {unit: anti}
        for lam in sigs:
            gaps = tuple(map(min, map(sub, lam, lam[1:]), cap))
            if (entry := table.get(gaps)) is None:
                entry = table[gaps] = _gap_entry(gaps, n, width, pshift)
                if entry[0] not in norms:
                    norms[entry[0]] = _multiplicity_norm(lam).terms
            total = totals.setdefault(entry[0], {})
            for shifts, terms in entry[1]:
                _add_into(total, terms, 1, sum(map(lshift, lam, shifts)))
        for cls, total in totals.items():
            if total is not anti:
                # the normalized sum is always Laurent
                _add_into(anti, _div_packed(total, norms[cls], n, width))
        out.append(_unpack(anti, n, width))
    return out


@lru_cache(maxsize=None)
def omega_hl(lam: tuple, n: int) -> XPoly:
    """omega(t(p^lambda)) in closed form: symmetric XPoly in x1..xn over Laurent-in-p.

    Computed as p^(-sum i*lambda_i) / v_lambda(1/p) times the signed
    S_n-symmetrization of x^lambda * prod_{i<j}(x_i - x_j/p), divided
    exactly by the Vandermonde: the ``_alternant_sums`` of the one signature,
    the step by V (``_div_vandermonde``) and each orbit written out once.
    """
    if n < 1:
        raise IndexOutOfRange("need n >= 1")
    lam = check_signature(lam, n)
    weight = sum((i + 1) * part for i, part in enumerate(lam))
    (anti,) = _alternant_sums([[lam]], n, -weight)
    return _orbit_sums(_div_vandermonde(anti, n))


def omega_pi(i: int, n: int) -> XPoly:
    """omega of the GL_n generator with i entries p on the diagonal: p^(-i(i+1)/2) s_i."""
    if not 1 <= i <= n:
        raise IndexOutOfRange(f"omega_pi index {i} outside 1..{n}")
    return elem(i, n) * PrimeLaurent.p_power(-i * (i + 1) // 2)


# -- coset-enumeration oracle ----------------------------------------


def _valuation_table(prime: int, delta: int) -> bytearray:
    """v_prime(x) capped at delta, for x in range(prime**delta), one byte each.

    Since the cap is delta, v(x) capped at delta is the entry at
    x % prime**delta for every integer x, and the entry at 0 is delta.
    """
    size = prime**delta
    table = bytearray(size)
    for k in range(1, delta + 1):
        step = prime**k
        table[::step] = bytes((k,)) * (size // step)
    return table


def _compositions(total: int, parts: int) -> list:
    """Every tuple of parts non-negative integers with sum total, ascending:
    the orderings of the signatures of that degree."""
    return sorted({w for sig in signatures_of_degree(total, total, parts) for w in permutations(sig)})


def _valuation_classes(prime: int, e: int) -> list[tuple[int, int]]:
    """The valuation classes of the residues mod prime^e as (representative,
    size): 0 alone, then prime^k (k < e) with prime^(e-k) - prime^(e-k-1) members."""
    return [(0, 1)] + [(prime**k, prime ** (e - k) - prime ** (e - k - 1)) for k in range(e)]


@lru_cache(maxsize=None)
def _coset_buckets(n: int, prime: int, delta: int):
    """Enumerate all HNF matrices of determinant prime^delta.

    Returns {snf_type: {diag_exponents: count}} where snf_type is the
    ascending tuple of p-valuations of the elementary divisors.

    For the diagonal prime^(d1, d2, d3) the HNF matrices are
    [[p^d1, 0, 0], [a, p^d2, 0], [b, c, p^d3]] with 0 <= a < p^d2 and
    0 <= b, c < p^d3.  The first elementary divisor has the valuation of
    the gcd of all entries and the first two that of the gcd of the 2 x 2
    minors, so the type depends only on v(a), v(b), v(c) and v(a*c - p^d2*b).
    For a unit u, (b, c) -> (u*b, u*c) mod p^d3 permutes the candidates of
    a, keeps v(b) and v(c), and multiplies the minor by u modulo
    p^(min(v(a), d2) + d3); the type reads v(minor) only up to that.  For
    u*a = a' + k*p^d2 with 0 <= a' < p^d2, (b, c) -> (u*b - k*c, c) mod p^d3
    maps the candidates of a one to one onto those of a', keeps v(a), v(c)
    and min(v(b), v(c)), and multiplies the minor by u modulo p^(d2 + d3),
    past anything the type reads.  So one a and one b per valuation class
    are visited, each row of c weighted by the sizes of both classes.
    """
    if n not in (1, 2, 3):
        raise IndexOutOfRange("coset enumeration wired for n <= 3")
    candidates = sum(
        prime ** sum(i * d[i] for i in range(n)) for d in _compositions(delta, n)
    )
    if candidates > COSET_CANDIDATE_BOUND:
        raise EnumerationTooLarge(
            f"{candidates} candidate cosets for prime^{delta} exceeds the bound"
        )
    if n == 1:
        return {(delta,): {(delta,): 1}}
    table = _valuation_table(prime, delta)
    size = len(table)
    buckets: dict[tuple, dict[tuple, int]] = {}
    for d in _compositions(delta, n):
        types: Counter = Counter()
        if n == 2:
            d1, d2 = d
            for a, weight in _valuation_classes(prime, d2):
                v1 = min(d1, d2, table[a])
                types[v1, delta - v1] += weight
        else:
            d1, d2, d3 = d
            q2, q3 = prime**d2, prime**d3
            minor_base = min(d1 + d2, d1 + d3, d2 + d3)
            row_c = table[:q3]
            for a, weight_a in _valuation_classes(prime, d2):
                va = table[a]
                v1a = min(d1, d2, d3, va)
                m_a = min(minor_base, d3 + va)
                for b, weight_b in _valuation_classes(prime, d3):
                    # tally (v(c), v(a*c - p^d2*b)) over the row of c
                    qb = q2 * b
                    row = Counter(zip(row_c, [table[(a * c - qb) % size] for c in range(q3)]))
                    for (vc, vm), count in row.items():
                        v1 = min(v1a, table[b], vc)
                        v2 = min(m_a, d1 + vc, vm)
                        types[v1, v2 - v1, delta - v2] += count * weight_a * weight_b
        for typ, count in types.items():
            buckets.setdefault(typ, {})[d] = count
    return buckets


def _is_prime(q: int) -> bool:
    """Whether q is a prime, by trial division up to its square root."""
    return q >= 2 and all(q % d for d in range(2, isqrt(q) + 1))


def _cosets(lam: tuple, n: int, prime: int) -> tuple[int, dict]:
    """The common scalar part of lambda and {diagonal exponents: count} of the
    HNF cosets of the rest.  The cosets of lambda are exactly the scalar
    multiples of those, which keeps the enumeration within the candidate bound.
    A prime past PRIME_BOUND, or a number that is not prime, is refused
    before any table is built."""
    lam = check_signature(lam, n)
    if prime > PRIME_BOUND:
        raise EnumerationTooLarge(f"prime {prime} exceeds the bound {PRIME_BOUND}")
    if not _is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    base = lam[-1]
    mu = tuple(part - base for part in lam)
    return base, _coset_buckets(n, prime, sum(mu)).get(tuple(sorted(mu)), {})


def omega_cosets(lam: tuple, n: int, prime: int) -> XPoly:
    """Coset-enumeration oracle for omega(t(p^lambda)) at a concrete prime.

    Sums prod_i (prime^-i * x_i)^(d_i) over all HNF left-coset
    representatives whose elementary divisors have p-parts lambda: those
    of lambda less its scalar part (``_cosets``), each diagonal shifted
    back by it.
    """
    base, buckets = _cosets(lam, n, prime)
    terms = {}
    for d, count in buckets.items():
        full = tuple(di + base for di in d)
        terms[(0,) + full] = Fraction(count, prime ** sum((i + 1) * e for i, e in enumerate(full)))
    return XPoly(n + 1, terms)


def coset_count(lam: tuple, n: int, prime: int) -> int:
    """Number of left cosets in t(p^lambda) at the given prime."""
    return sum(_cosets(lam, n, prime)[1].values())


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
