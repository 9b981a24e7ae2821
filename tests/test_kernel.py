"""Differential tests: XPoly, HeckeExpr and PrimeLaurent arithmetic on the
packed kernel against a reference.

The reference functions below are the dict-of-tuple loops XPoly used before
it had a packed kernel: sum, product, exact division and substitution on
``terms``.  Their coefficient arithmetic is the dict-of-Fraction sum and
product loops of ``PrimeLaurent`` from before it ran on the kernel
(``ref_laurent_add``, ``ref_laurent_mul``) and the dense univariate division
``PrimeLaurent.div_exact`` used before that (``ref_laurent_div_exact``).  The same sum and product loops were HeckeExpr's own arithmetic
before it became an XPoly over the generator names, and ``ref_hecke_image``
is the hecke_image of that time: a sum of products of cached generator-image
powers.  ``ref_r_series`` sums the generating series chain by chain, one
``omega_hl`` per chain, as ``r_series`` did before it grouped signatures.
``ref_times_factors`` multiplies by the linear factors (1 - x0 x_S v) as
plain ``VSeries`` products of binomials, and ``ref_numerator_product`` is
the product ``p_numerator`` formed before it used them: ``r_series`` times
the expanded denominator, zero-padded to the series order.
``ref_class_sum`` is the finite identity ``p_numerator`` now computes, in
plain ``XPoly`` arithmetic: per class of signatures, products of binomials,
a signed sum of permuted exponents, and ``div_exact`` by the class norm and
by the Vandermonde.
``ref_to_msym`` decomposes into the monomial basis as ``to_msym`` did before
it read the basis: it subtracts each lead's coefficient from every term of
the lead's orbit in a remainder.  ``ref_omega_hl`` antisymmetrizes over every
permutation and divides the whole antisymmetric sum by the Vandermonde, as
``omega_hl`` did before it worked on orbit representatives; the packed heap
division by the Vandermonde it then used is ``XPoly.div_exact``, the
reference of the step by V, ``_div_vandermonde``.
They live only here, as the oracle the kernel must agree with.
"""

import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import prod

import pytest

from heckeseries.algebra import PL_ZERO, PrimeLaurent, VSeries, XPoly, _bounds, _pack, _unpack, _width, p
from heckeseries.errors import NotDivisible, NotSymmetric, VarMismatch
from heckeseries.series import (
    P_BRACKET,
    SERIES_ORDER_BOUND,
    T_P,
    HeckeExpr,
    _factor_loop,
    express_in_generators,
    generator_monomials,
    hecke_image,
    p3_closed_form,
    p_numerator,
    q_poly,
    r_series,
)
from heckeseries.spherical import (
    _alternant_sums,
    _div_vandermonde,
    _multiplicity_norm,
    omega_hl,
    sp_image_pbracket,
    sp_image_Ti,
    sp_image_Tp,
)
from heckeseries.symmetric import _dominant_product, _orbit_sums, check_signature, from_msym, signatures, to_msym

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# -- reference implementation ------------------------------------------


def _grlex_key(exps):
    return (sum(exps), exps)


def _dense(a, shift):
    """Coefficient list of a * p^(-shift), constant term first."""
    out = [Fraction(0)] * (a.max_exp() - shift + 1)
    for e, c in a.terms.items():
        out[e - shift] = Fraction(c)
    return out


def _poly_divmod(a, b):
    """Dense univariate division over Q; returns (quotient, remainder)."""
    while b and not b[-1]:
        b = b[:-1]
    r = list(a)
    q = [Fraction(0)] * max(len(r) - len(b) + 1, 0)
    lead = b[-1]
    for i in range(len(r) - len(b), -1, -1):
        c = r[i + len(b) - 1] / lead
        if c:
            q[i] = c
            for j, bc in enumerate(b):
                r[i + j] -= c * bc
    return q, r


def ref_laurent_div_exact(a, b):
    """Exact Laurent quotient a / b by dense division of the shifted polynomials."""
    if a.is_zero():
        return PrimeLaurent()
    sa, sb = a.min_exp(), b.min_exp()
    q, r = _poly_divmod(_dense(a, sa), _dense(b, sb))
    if any(r):
        raise NotDivisible(f"{a} is not divisible by {b}")
    return PrimeLaurent({i + sa - sb: c for i, c in enumerate(q) if c})


def ref_laurent_add(a, b):
    res = {e: Fraction(c) for e, c in a.terms.items()}
    for e, c in b.terms.items():
        s = res.get(e, 0) + c
        if s:
            res[e] = s
        else:
            res.pop(e, None)
    return PrimeLaurent(res)


def ref_laurent_mul(a, b):
    res = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = e1 + e2
            s = res.get(e, 0) + Fraction(c1) * c2
            if s:
                res[e] = s
            else:
                res.pop(e, None)
    return PrimeLaurent(res)


def ref_laurent_neg(a):
    return ref_laurent_mul(a, PrimeLaurent({0: -1}))


def ref_laurent_pow(a, k):
    out = PrimeLaurent({0: 1})
    for _ in range(k):
        out = ref_laurent_mul(out, a)
    return out


def ref_add(a, b):
    res = dict(a.terms)
    for e, c in b.terms.items():
        s = res.get(e)
        s = c if s is None else ref_laurent_add(s, c)
        if s.is_zero():
            res.pop(e, None)
        else:
            res[e] = s
    return XPoly(a.nvars, res)


def ref_neg(a):
    return XPoly(a.nvars, {e: ref_laurent_neg(c) for e, c in a.terms.items()})


def ref_mul(a, b):
    res = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = ref_laurent_mul(c1, c2)
            s = res.get(e)
            s = c if s is None else ref_laurent_add(s, c)
            if s.terms:
                res[e] = s
            else:
                res.pop(e, None)
    return XPoly(a.nvars, res)


def ref_div_exact(a, b):
    quot = {}
    rem = dict(a.terms)
    lead_b = max(b.terms, key=_grlex_key)
    lc_b = b.terms[lead_b]
    while rem:
        lead_r = max(rem, key=_grlex_key)
        diff = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(d < 0 for d in diff):
            raise NotDivisible("leading monomial not divisible")
        c = ref_laurent_div_exact(rem[lead_r], lc_b)
        quot[diff] = c
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(diff, e2))
            s = ref_laurent_add(rem.get(e, PL_ZERO), ref_laurent_neg(ref_laurent_mul(c, c2)))
            if s.terms:
                rem[e] = s
            else:
                rem.pop(e, None)
    return XPoly(a.nvars, quot)


def ref_substitute(a, assignment):
    result = XPoly(a.nvars)
    for e, c in a.terms.items():
        mono = XPoly.constant(a.nvars, c)
        for i, k in enumerate(e):
            for _ in range(k):
                mono = ref_mul(mono, assignment[i])
        result = ref_add(result, mono)
    return result


def ref_vseries_mul(s, t):
    n = min(s.order, t.order)
    out = []
    for k in range(n + 1):
        acc = XPoly(s.nvars)
        for i in range(k + 1):
            acc = ref_add(acc, ref_mul(s.coeffs[i], t.coeffs[k - i]))
        out.append(acc)
    return VSeries(n, out)


def permute(a, perm):
    """Relabel the variables of a: index i becomes perm[i]."""
    terms = {}
    for e, c in a.terms.items():
        ne = [0] * a.nvars
        for i, k in enumerate(e):
            ne[perm[i]] = k
        terms[tuple(ne)] = c
    return XPoly(a.nvars, terms)


def _sgn(perm):
    """The sign of a permutation, by its inversions."""
    inv = sum(1 for i, j in combinations(range(len(perm)), 2) if perm[i] > perm[j])
    return -1 if inv & 1 else 1


def ref_omega_hl(lam, n):
    """omega_hl as a signed symmetrization, a Vandermonde division and a
    per-coefficient normalization, all in reference arithmetic."""
    lam = check_signature(lam, n)
    nv = n + 1
    x = [XPoly.variable(nv, i) for i in range(nv)]
    inv_p = XPoly.constant(nv, PrimeLaurent.p_power(-1))
    core, vdm = XPoly.monomial(nv, (0,) + lam), XPoly.constant(nv, 1)
    for i in range(1, nv):
        for j in range(i + 1, nv):
            core = ref_mul(core, ref_add(x[i], ref_mul(x[j], ref_neg(inv_p))))
            vdm = ref_mul(vdm, ref_add(x[i], ref_neg(x[j])))
    total = XPoly(nv)
    for w in permutations(range(1, nv)):
        img = permute(core, (0,) + w)
        total = ref_add(total, img if _sgn(w) == 1 else ref_neg(img))
    quot = ref_div_exact(total, vdm)
    weight = sum((i + 1) * part for i, part in enumerate(lam))
    norm, prefactor = _multiplicity_norm(lam), PrimeLaurent.p_power(-weight)
    return XPoly(
        nv,
        {
            e: ref_laurent_div_exact(ref_laurent_mul(c, prefactor), norm)
            for e, c in quot.terms.items()
        },
    )


def ref_r_series(n, N):
    """r_series by its definition, chain by chain in plain dicts: the v^delta
    coefficient is the sum over chains d1 <= ... <= dn <= delta of
    p^(n*d1 + ... + dn) * omega_hl(the chain reversed) * x0^delta."""
    acc, coeffs = {}, []
    for delta in range(N + 1):
        for chain in combinations_with_replacement(range(delta + 1), n):
            if chain[-1] != delta:
                continue
            weight = sum((n - i) * d for i, d in enumerate(chain))
            for e, c in omega_hl(chain[::-1], n).terms.items():
                laurent = acc.setdefault(e[1:], {})
                for pe, f in c.terms.items():
                    laurent[pe + weight] = laurent.get(pe + weight, 0) + f
        coeffs.append(XPoly(n + 1, {(delta,) + e: PrimeLaurent(c) for e, c in acc.items()}))
    return VSeries(N, coeffs)


def ref_times_factors(s, sizes):
    """s times (1 - x0 x_S v) over the subsets S of {1..n} with |S| in sizes,
    one VSeries product with a binomial series per factor."""
    nv, order = s.nvars, s.order
    one = VSeries.one(order, nv)
    for size in sizes:
        for subset in combinations(range(1, nv), size):
            exps = tuple(int(i == 0 or i in subset) for i in range(nv))
            s = s * (one - VSeries.from_dict(order, nv, {1: XPoly.monomial(nv, exps)}))
    return s


def ref_numerator_product(n, N):
    """r_series(n, N) times the expanded denominator zero-padded to order N."""
    q = ref_times_factors(VSeries.one(2**n, n + 1), range(n + 1))
    return r_series(n, N) * VSeries(N, q.coeffs + (XPoly(n + 1),) * (N - q.order))


def ref_class_sum(n):
    """P_n by the class sum, in x0..xn with v carried by x0 (v-degree is
    x0-degree): for each set P of positive gaps lambda_k - lambda_(k+1),
    k < n, D times y_k = x0 x1...xk for k in P times (1 - x0 x_S) for every
    nonempty S but {1..k}, k in P and n, antisymmetrized over x1..xn and
    divided by the norm of lambda = sum over P of (1^k, 0^(n-k)); the sum
    divided by the Vandermonde."""
    nv = n + 1
    x = [XPoly.variable(nv, i) for i in range(nv)]
    one = XPoly.constant(nv, 1)
    pairs = list(combinations(range(1, nv), 2))
    d = prod((x[i] - x[j] * PrimeLaurent.p_power(-1) for i, j in pairs), start=one)
    vdm = prod((x[i] - x[j] for i, j in pairs), start=one)
    total = XPoly(nv)
    for size in range(n):
        for gaps in combinations(range(1, n), size):
            chain = [tuple(range(1, k + 1)) for k in gaps + (n,)]
            f = prod((prod(x[: k + 1]) for k in gaps), start=d)
            for s in (s for size in range(1, nv) for s in combinations(range(1, nv), size)):
                if s not in chain:
                    f = f * (one - x[0] * prod((x[i] for i in s), start=one))
            anti = XPoly(nv)
            for w in permutations(range(1, nv)):
                anti = anti + permute(f, (0,) + w) * _sgn(w)
            lam = [sum(k >= i for k in gaps) for i in range(1, nv)]
            norm = PrimeLaurent({0: 1})
            for m in {part: lam.count(part) for part in lam}.values():
                for j in range(1, m + 1):
                    norm = norm * PrimeLaurent({-i: 1 for i in range(j)})
            total = total + anti.div_exact(XPoly.constant(nv, norm))
    quot = total.div_exact(vdm)
    top = 2**n - 2
    assert all(e[0] <= top for e in quot.terms)
    return VSeries(top, [XPoly(nv, {e: c for e, c in quot.terms.items() if e[0] == k}) for k in range(top + 1)])


def as_hecke(a):
    """The generator polynomial with the terms of a (reference results are XPoly)."""
    return HeckeExpr(a.terms)


def ref_hecke_pow(a, k):
    result = HeckeExpr.const(1)
    base = a
    while k:
        if k & 1:
            result = as_hecke(ref_mul(result, base))
        base = as_hecke(ref_mul(base, base))
        k >>= 1
    return result


_REF_IMAGE_POWERS = {}


def ref_image_power(index, k):
    if (index, k) not in _REF_IMAGE_POWERS:
        if k == 0:
            power = XPoly.constant(4, 1)
        else:
            base = [sp_image_Tp(3), sp_image_Ti(1, 3), sp_image_Ti(2, 3), sp_image_pbracket(3)]
            power = ref_mul(ref_image_power(index, k - 1), base[index])
        _REF_IMAGE_POWERS[index, k] = power
    return _REF_IMAGE_POWERS[index, k]


def ref_hecke_image(e):
    acc = XPoly(4)
    for g, c in e.terms.items():
        term = XPoly.constant(4, c)
        for index, k in enumerate(g):
            if k:
                term = ref_mul(term, ref_image_power(index, k))
        acc = ref_add(acc, term)
    return acc


def ref_hecke_to_json(e):
    terms = sorted(e.terms.items(), key=lambda t: (sum(t[0]), t[0]))
    return {"terms": [{"g": list(g), "c": c.to_json()} for g, c in terms]}


def ref_to_msym(a):
    n = a.nvars - 1
    weights = {e[0] for e in a.terms}
    if len(weights) > 1:
        raise NotSymmetric(f"mixed x0-weights {sorted(weights)}")
    w = weights.pop() if weights else 0
    rem = dict(a.terms)
    out = {}
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


# -- strategies ----------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
laurents = st.dictionaries(st.integers(-4, 4), rationals, max_size=3).map(PrimeLaurent)
wide_laurents = st.dictionaries(st.integers(-6, 6), rationals, max_size=4).map(PrimeLaurent)
nonzero_laurents = laurents.filter(lambda c: not c.is_zero())


def xpolys(nvars, max_exp=3, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(exps, laurents, max_size=max_terms).map(lambda t: XPoly(nvars, t))


def nonzero(polys):
    return polys.filter(lambda a: not a.is_zero())


def hecke_exprs(max_degree=3, max_terms=4):
    gens = st.tuples(*[st.integers(0, 2)] * 4).filter(lambda g: sum(g) <= max_degree)
    return st.dictionaries(gens, wide_laurents, max_size=max_terms).map(HeckeExpr)


def msym_decomps(min_nvars=1, max_nvars=4):
    """(n, w, decomposition): nonzero coefficients on signatures of length n."""
    def decomps(n):
        sigs = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
            lambda v: tuple(sorted(v, reverse=True))
        )
        return st.tuples(st.just(n), st.integers(0, 3), st.dictionaries(sigs, nonzero_laurents, max_size=4))

    return st.integers(min_nvars, max_nvars).flatmap(decomps)


def weighted_hecke_exprs(max_weight=8, max_terms=4):
    """(w, e) with every generator monomial of e at x0-weight w."""
    return st.integers(0, max_weight).flatmap(
        lambda w: st.tuples(
            st.just(w),
            st.dictionaries(
                st.sampled_from(generator_monomials(w)), wide_laurents, max_size=max_terms
            ).map(HeckeExpr),
        )
    )


#: denominators of whole operands: 1, equal pairs and coprime pairs among them
DENOMINATORS = (1, 4, 6, 9, 35)


def over(den, max_exps, max_terms=4):
    """XPoly in len(max_exps) variables with coefficients n/den (n a nonzero
    integer, so some may reduce) and the exponent of x_i at most max_exps[i]."""
    coeffs = st.dictionaries(
        st.integers(-3, 3), st.integers(-40, 40).filter(bool).map(lambda n: Fraction(n, den)),
        min_size=1, max_size=3,
    ).map(PrimeLaurent)
    exps = st.tuples(*[st.integers(0, m) for m in max_exps])
    return st.dictionaries(exps, coeffs, max_size=max_terms).map(lambda t: XPoly(len(max_exps), t))


def over_pair(nvars):
    """(a, b) whose denominators are 1, equal or coprime, in either order."""
    dens = st.tuples(st.sampled_from(DENOMINATORS), st.sampled_from(DENOMINATORS))
    return dens.flatmap(lambda d: st.tuples(over(d[0], (3,) * nvars), over(d[1], (3,) * nvars)))


def substitutions(nvars):
    """(a, images): a rational or integral, with a top degree of its own for
    each variable, and images each over its own denominator and degree."""
    return st.tuples(
        st.sampled_from(DENOMINATORS).flatmap(lambda d: over(d, (3, 1, 2)[:nvars])),
        st.lists(
            st.sampled_from(DENOMINATORS).flatmap(lambda d: over(d, (1, 2, 1)[:nvars], max_terms=2)),
            min_size=nvars,
            max_size=nvars,
        ),
    )


# mixed denominators per term, and whole operands over one denominator each
over_pairs = st.integers(1, 3).flatmap(over_pair)
pairs = st.integers(1, 4).flatmap(lambda n: st.tuples(xpolys(n), xpolys(n))) | over_pairs
divisions = st.integers(1, 4).flatmap(lambda n: st.tuples(xpolys(n), nonzero(xpolys(n))))
divisions |= over_pairs.filter(lambda ab: not ab[1].is_zero())


def assert_canonical_laurent(c):
    """Every coefficient is a nonzero int or a Fraction with denominator != 1."""
    for f in c.terms.values():
        assert f, "zero coefficient stored"
        assert type(f) is int or (type(f) is Fraction and f.denominator != 1), repr(f)


def assert_canonical(a):
    for c in a.terms.values():
        assert c.terms, "zero coefficient stored"
        assert_canonical_laurent(c)


@contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the body runs longer than seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- differential tests ----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_mul_matches_reference(ab):
    a, b = ab
    got = a * b
    assert got == ref_mul(a, b)
    assert_canonical(got)


_X, _Y = XPoly.variable(2, 0), XPoly.variable(2, 1)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(over_pair))
@example((_X * Fraction(1, 4) + Fraction(3, 4), _Y * Fraction(5, 9) - Fraction(1, 9)))  # coprime
@example((_X * Fraction(1, 6) + Fraction(5, 6), _X * Fraction(5, 6) - Fraction(1, 6)))  # equal
@example((_X * Fraction(1, 6) - _Y, _X * 6 + _Y * 3))  # rational times integral
@example((_X * 2 - _Y, _X * 2 + _Y * 7))  # integral
def test_mul_over_common_denominator_matches_reference(ab):
    a, b = ab
    got = a * b
    assert got == ref_mul(a, b)
    assert_canonical(got)
    # the cross terms of (a + b)(a - b) cancel to zero inside the product
    diff = (a + b) * (a - b)
    assert diff == ref_mul(ref_add(a, b), ref_add(a, ref_neg(b))) == a * a - b * b
    assert_canonical(diff)
    assert (a * (b - b)).is_zero()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(substitutions))
@example((_X ** 3 * Fraction(1, 6) + _Y * Fraction(5, 4), [_X * 3 - _Y, _X * Fraction(2, 9)]))
@example((_X ** 3 * 5 - _X * _Y, [_X * Fraction(1, 4) + 1, _Y ** 2 * Fraction(3, 35)]))  # integral self
@example((_X * Fraction(1, 6) + _Y ** 2 * Fraction(5, 9), [_X * 2 + _Y, _Y - 1]))  # integral images
def test_substitute_over_common_denominator_matches_reference(case):
    a, images = case
    assignment = dict(enumerate(images))
    got = a.substitute(assignment)
    assert got == ref_substitute(a, assignment)
    assert_canonical(got)
    # with x0 and x1 sent to one image, a and a with x0, x1 swapped have the
    # same image, so every term of the difference cancels
    if a.nvars > 1:
        swap = a - permute(a, (1, 0) + tuple(range(2, a.nvars)))
        assert swap.substitute({**assignment, 1: images[0]}).is_zero()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(xpolys(n), laurents)))
def test_scalar_mul_matches_reference(ac):
    a, c = ac
    assert a * c == c * a == ref_mul(a, XPoly.constant(a.nvars, c))
    assert a * 3 == ref_mul(a, XPoly.constant(a.nvars, 3))


@settings(max_examples=200, deadline=None)
@given(pairs)
def test_add_sub_match_reference(ab):
    a, b = ab
    assert a + b == ref_add(a, b)
    assert a - b == ref_add(a, ref_neg(b))
    assert_canonical(a - b)
    assert (a - a).is_zero()
    one, half = XPoly.constant(a.nvars, 1), XPoly.constant(a.nvars, Fraction(1, 2))
    assert 1 - a == ref_add(one, ref_neg(a))
    assert a + Fraction(1, 2) == ref_add(a, half)
    assert -a == ref_neg(a)


# divisors over 6 and 9: cleared, the lead of the first is 1 (the quotient
# stays on ints) and of the second 6 (_div_packed divides by it)
_UNIT_LEAD = _X * Fraction(1, 6) + Fraction(5, 6)
_NON_UNIT_LEAD = _X * PrimeLaurent({1: Fraction(2, 3)}) + Fraction(1, 9)


@settings(max_examples=150, deadline=None)
@given(divisions)
@example((_Y * Fraction(3, 4) - Fraction(1, 4), _UNIT_LEAD))
@example((_Y * Fraction(3, 4) - _X * Fraction(1, 4), _NON_UNIT_LEAD))
def test_div_exact_of_products(ab):
    a, b = ab
    prod = a * b
    got = prod.div_exact(b)
    assert got == a == ref_div_exact(prod, b)
    assert_canonical(got)


@settings(max_examples=150, deadline=None)
@given(divisions)
@example(((_Y * Fraction(3, 4) - Fraction(1, 4)) * _UNIT_LEAD, _UNIT_LEAD))
@example(((_Y * Fraction(1, 4) + 1) * _NON_UNIT_LEAD, _NON_UNIT_LEAD))
@example((_Y * Fraction(1, 4) + _X * Fraction(5, 6), _NON_UNIT_LEAD))  # not divisible
def test_div_exact_agrees_on_arbitrary_pairs(ab):
    a, b = ab
    try:
        expected = ref_div_exact(a, b)
    except NotDivisible:
        with time_limit(10), pytest.raises(NotDivisible):
            a.div_exact(b)
    else:
        got = a.div_exact(b)
        assert got == expected
        assert_canonical(got)


@settings(max_examples=300, deadline=None)
@given(wide_laurents, wide_laurents)
@example(PrimeLaurent({0: Fraction(1, 2)}), PrimeLaurent({0: 2}))
@example(PrimeLaurent({1: Fraction(3, 4), 0: 1}), PrimeLaurent({-1: Fraction(4, 3), 0: Fraction(1, 2)}))
def test_laurent_arithmetic_matches_reference(a, b):
    neg_b = ref_laurent_neg(b)
    for got, expected in (
        (a + b, ref_laurent_add(a, b)),
        (a - b, ref_laurent_add(a, neg_b)),
        (-b, neg_b),
        (a * b, ref_laurent_mul(a, b)),
        (b * a, ref_laurent_mul(a, b)),
        (a * 2, ref_laurent_mul(a, PrimeLaurent({0: 2}))),
        (Fraction(1, 2) - a, ref_laurent_add(PrimeLaurent({0: Fraction(1, 2)}), ref_laurent_neg(a))),
        (1 + a, ref_laurent_add(PrimeLaurent({0: 1}), a)),
        (2 - a, ref_laurent_add(PrimeLaurent({0: 2}), ref_laurent_neg(a))),
        *((a**k, ref_laurent_pow(a, k)) for k in range(4)),
    ):
        assert type(got) is PrimeLaurent
        assert got.terms == expected.terms
        assert_canonical_laurent(got)


@settings(max_examples=300, deadline=None)
@given(wide_laurents, wide_laurents.filter(bool))
def test_laurent_div_exact_matches_dense_reference(a, b):
    with time_limit(10):
        got = (a * b).div_exact(b)
    assert got == a == ref_laurent_div_exact(ref_laurent_mul(a, b), b)
    assert_canonical_laurent(got)
    try:
        expected = ref_laurent_div_exact(a, b)
    except NotDivisible:
        with time_limit(10), pytest.raises(NotDivisible):
            a.div_exact(b)
    else:
        with time_limit(10):
            assert a.div_exact(b) == expected


@pytest.mark.parametrize(
    "a,b",
    [
        (XPoly.constant(4, 1), XPoly.constant(4, 1 - PrimeLaurent.p_power(-1))),
        (
            XPoly.constant(2, 1 + PrimeLaurent.p_power(-5)),
            XPoly.constant(2, 1 - PrimeLaurent.p_power(-1)),
        ),
        (XPoly.constant(1, 1), XPoly.constant(1, p - 1)),
        (XPoly.variable(3, 1), XPoly.variable(3, 1) + XPoly.variable(3, 2)),
        (XPoly.variable(2, 0) * p, XPoly.variable(2, 0) - p),
        (XPoly.monomial(2, (3, 0), PrimeLaurent.p_power(-5)), XPoly.monomial(2, (0, 1))),
    ],
)
def test_not_divisible_raises_promptly(a, b):
    with time_limit(10), pytest.raises(NotDivisible):
        a.div_exact(b)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            xpolys(n, max_exp=2, max_terms=4),
            st.lists(xpolys(n, max_exp=1, max_terms=2), min_size=n, max_size=n),
        )
    )
)
def test_substitute_matches_reference(case):
    a, images = case
    assignment = dict(enumerate(images))
    got = a.substitute(assignment)
    assert got == ref_substitute(a, assignment)
    assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(xpolys(n, max_exp=2, max_terms=3), min_size=4, max_size=4),
            st.lists(xpolys(n, max_exp=2, max_terms=3), min_size=3, max_size=3),
        )
    )
)
def test_vseries_mul_and_recip(case):
    first, second = case
    nv = first[0].nvars
    s = VSeries(3, [XPoly.constant(nv, 1)] + first[1:])
    t = VSeries(2, second)
    assert s * t == ref_vseries_mul(s, t)
    assert ref_vseries_mul(s, s.recip()) == VSeries.one(3, nv)


@pytest.mark.parametrize(
    "lam", [(0,), (3,), (2, 0), (3, 3), (4, 1), (0, 0, 0), (2, 1, 0), (3, 3, 1), (4, 2, 2)]
)
def test_omega_hl_matches_reference(lam):
    assert omega_hl(lam, len(lam)) == ref_omega_hl(lam, len(lam))


@pytest.mark.parametrize("n, lam", [(n, lam) for n in (1, 2, 3) for lam in signatures(5, n)])
def test_omega_hl_matches_reference_on_every_small_signature(n, lam):
    # parts up to 5 meet every multiplicity class of every length
    got = omega_hl(lam, n)
    assert got == ref_omega_hl(lam, n)
    assert_canonical(got)


@pytest.mark.parametrize("pshift", [-5, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_hl_sums_of_a_group_is_the_sum_over_its_signatures(n, pshift):
    # the Hall-Littlewood sums: the alternant sums, then one step by V each
    def hl_sums(groups):
        return [_div_vandermonde(anti, n) for anti in _alternant_sums(groups, n, pshift)]

    sigs = list(signatures(4, n))
    groups = [sigs[::2], sigs[1::2], [lam for lam in sigs if lam[0] == 3], []]
    sums = hl_sums(groups)
    assert len(sums) == len(groups)
    for group, got in zip(groups, sums):
        expected = XPoly(n + 1)
        for lam in group:
            (one,) = hl_sums([[lam]])
            weight = sum((i + 1) * part for i, part in enumerate(lam))
            assert _orbit_sums(one) == omega_hl(lam, n) * PrimeLaurent.p_power(pshift + weight)
            expected = expected + one
        assert got == expected
        assert all(list(e[1:]) == sorted(e[1:], reverse=True) for e in got.terms)


def written_out_over_v(reps, n):
    """The antisymmetric polynomial with the terms reps, {strictly decreasing
    exponent: Laurent coefficient}, written out in full and divided by the
    Vandermonde with the packed heap division."""
    nv = n + 1
    full, vdm = {}, XPoly.constant(nv, 1)
    for beta, c in reps.items():
        for w in permutations(range(n)):
            full[(0,) + tuple(beta[i] for i in w)] = c if _sgn(w) == 1 else -c
    for i, j in combinations(range(1, nv), 2):
        vdm = vdm * (XPoly.variable(nv, i) - XPoly.variable(nv, j))
    return XPoly(nv, full).div_exact(vdm)


def antisymmetric_reps():
    """(n, {strictly decreasing exponent: nonzero Laurent coefficient})."""
    def reps(n):
        exps = st.lists(st.integers(0, 5), min_size=n, max_size=n, unique=True).map(
            lambda v: tuple(sorted(v, reverse=True))
        )
        return st.tuples(st.just(n), st.dictionaries(exps, nonzero_laurents, max_size=5))

    return st.integers(1, 3).flatmap(reps)


@settings(max_examples=150, deadline=None)
@given(antisymmetric_reps())
@example((3, {(2, 1, 0): PrimeLaurent({0: 1})}))
@example((3, {(5, 3, 0): PrimeLaurent({-2: Fraction(1, 2)}), (4, 2, 1): PrimeLaurent({1: -3, 0: 1})}))
def test_div_vandermonde_matches_packed_division(case):
    n, reps = case
    quot = _div_vandermonde(XPoly(n, reps), n)
    assert all(e[0] == 0 and list(e[1:]) == sorted(e[1:], reverse=True) for e in quot.terms)
    assert _orbit_sums(quot) == written_out_over_v(reps, n)


@pytest.mark.parametrize("lam", [(120, 60, 0), (120, 0, 0), (120, 120, 0)])
def test_omega_hl_at_the_part_bound_is_the_alternant_sum_over_v(lam):
    # ref_omega_hl takes seconds at these parts; the alternant sum written
    # out and divided by V with the heap division takes a tenth of one
    weight = sum((i + 1) * part for i, part in enumerate(lam))
    (anti,) = _alternant_sums([[lam]], 3, -weight)
    assert omega_hl(lam, 3) == written_out_over_v(anti.terms, 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_alternant_sums_and_their_quotients_at_their_exponents(n):
    # what passes between the sums and the step by V: each sum an XPoly in
    # x1..xn at strictly decreasing exponents, each quotient one in x0..xn
    # with x0 to the power 0, at weakly decreasing exponents
    by_top = [[(m,) + rest for rest in signatures(m, n - 1)] for m in range(6)]
    sums = _alternant_sums(by_top, n)
    assert len(sums) == len(by_top)
    for anti in sums:
        assert type(anti) is XPoly and anti.nvars == n and anti.terms
        assert all(all(x > y for x, y in zip(e, e[1:])) for e in anti.terms)
        assert_canonical(anti)
        quot = _div_vandermonde(anti, n)
        assert type(quot) is XPoly and quot.nvars == n + 1 and quot.terms
        assert all(e[0] == 0 and all(x >= y for x, y in zip(e[1:], e[2:])) for e in quot.terms)
        assert_canonical(quot)


@pytest.mark.parametrize(
    "n, N", [(n, N) for n in (1, 2, 3) for N in (0, 1, 2, 5, 8)] + [(3, 12)]
)
def test_r_series_matches_per_chain_sum(n, N):
    series = r_series(n, N)
    assert series == ref_r_series(n, N)
    for c in series.coeffs:
        assert_canonical(c)



@pytest.mark.parametrize("n, N", [(n, N) for n in (1, 2, 3) for N in range(2**n + 4, 13)])
def test_numerator_product_matches_padded_product(n, N):
    prod = ref_numerator_product(n, N)
    assert all(c.is_zero() for c in prod.coeffs[2**n - 1 :])
    num = p_numerator(n, N)
    assert num == prod.truncate(2**n - 2)
    for c in num.coeffs:
        assert_canonical(c)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_p_numerator_matches_the_class_sum(n):
    num = p_numerator(n, 2**n + 4)
    assert num == ref_class_sum(n)
    for c in num.coeffs:
        assert_canonical(c)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_p_numerator_does_not_depend_on_the_order(n):
    # the identity is finite: the order is only checked, never read
    assert p_numerator.__wrapped__(n, 2**n + 4) == p_numerator.__wrapped__(n, SERIES_ORDER_BOUND)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_q_poly_matches_binomial_products(n):
    q = q_poly(n)
    assert q == ref_times_factors(VSeries.one(2**n, n + 1), range(n + 1))
    for c in q.coeffs:
        assert_canonical(c)


def test_p3_closed_form_matches_binomial_products():
    kernel = VSeries(
        8,
        [
            XPoly.monomial(4, (b, 0, 0, 0))
            * sum(
                (omega_hl((b, a, 0), 3) * PrimeLaurent.p_power(2 * a + b) for a in range(b + 1)),
                XPoly(4),
            )
            for b in range(9)
        ],
    )
    cf = p3_closed_form(8)
    assert cf == ref_times_factors(kernel, (1, 2))
    for c in cf.coeffs:
        assert_canonical(c)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.lists(xpolys(n + 1, max_exp=2, max_terms=3), min_size=1, max_size=5),
            st.sets(st.integers(0, n), min_size=1),
        )
    )
)
def test_factor_loop_matches_binomial_products(case):
    coeffs, sizes = case
    nv = coeffs[0].nvars
    subsets = [sub for size in sorted(sizes) for sub in combinations(range(1, nv), size)]
    # a factor raises each x-degree by at most one; its coefficient 1 keeps the p-range
    xdeg, pabs = _bounds(coeffs)
    width = _width(xdeg + len(subsets), pabs)
    packed = [_pack(c, width) for c in coeffs]
    _factor_loop(packed, subsets, nv, width)
    # the in-place loop drops each zero as it arises
    assert all(all(c.values()) for c in packed)
    s = VSeries(len(coeffs) - 1, coeffs)
    assert VSeries(s.order, [_unpack(c, nv, width) for c in packed]) == ref_times_factors(s, sorted(sizes))


@settings(max_examples=150, deadline=None)
@given(msym_decomps())
def test_to_msym_matches_subtracting_reference(case):
    n, w, decomp = case
    a = from_msym(decomp, n, w)
    got, expected = to_msym(a), ref_to_msym(a)
    assert got == expected == decomp
    assert list(got) == list(expected)


@settings(max_examples=150, deadline=None)
@given(msym_decomps(min_nvars=2), st.sampled_from(["drop", "change", "stray", "mixed"]), st.data())
def test_to_msym_refuses_what_the_reference_refuses(case, kind, data):
    n, w, decomp = case
    terms = dict(from_msym(decomp, n, w).terms)
    # terms whose orbit has more than one element
    moved = sorted(e for e in terms if len(set(e[1:])) > 1)
    if kind == "drop":
        assume(moved)
        del terms[data.draw(st.sampled_from(moved))]
    elif kind == "change":
        non_leads = [e for e in moved if list(e[1:]) != sorted(e[1:], reverse=True)]
        assume(non_leads)
        e = data.draw(st.sampled_from(non_leads))
        terms[e] = terms[e] + data.draw(nonzero_laurents)
    else:
        assume(kind == "stray" or terms)
        x = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(lambda v: len(set(v)) > 1))
        e = (w + (kind == "mixed"),) + tuple(x)
        assume(e not in terms)
        terms[e] = data.draw(nonzero_laurents)
    a = XPoly(n + 1, terms)
    for decompose in (to_msym, ref_to_msym):
        with pytest.raises(NotSymmetric):
            decompose(a)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(msym_decomps(n, n), msym_decomps(n, n))))
@example(
    # |Stab mu| = 6, 2 and 1 on the left, rational coefficients on both sides
    (
        (3, 1, {(1, 1, 1): Fraction(1, 2), (2, 1, 1): PrimeLaurent({-1: Fraction(-2, 3), 2: 1}), (2, 1, 0): p}),
        (3, 2, {(1, 0, 0): Fraction(1, 3), (1, 1, 0): PrimeLaurent({1: Fraction(3, 4)}), (0, 0, 0): -1}),
    )
)
def test_dominant_product_matches_full_product(case):
    (n, wf, f), (_, wg, g) = case
    dominant = XPoly(n + 1, {(wf,) + sig: c for sig, c in f.items()})
    got = _dominant_product(dominant, from_msym(g, n, wg))
    product = from_msym(f, n, wf) * from_msym(g, n, wg)
    assert type(got) is XPoly and got.nvars == n + 1
    assert got.terms == {(wf + wg,) + sig: c for sig, c in to_msym(product).items()}
    assert_canonical(got)


# -- HeckeExpr: an XPoly over the generator names ---------------------------


@settings(max_examples=150, deadline=None)
@given(hecke_exprs(), hecke_exprs(), wide_laurents)
def test_hecke_arithmetic_matches_reference(a, b, c):
    for got, expected in (
        (a + b, ref_add(a, b)),
        (a - b, ref_add(a, ref_neg(b))),
        (-a, ref_neg(a)),
        (a * b, ref_mul(a, b)),
        (c * a, ref_mul(a, XPoly.constant(4, c))),
        (a * 3, ref_mul(a, XPoly.constant(4, 3))),
    ):
        assert type(got) is HeckeExpr
        assert got == as_hecke(expected)
        assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(hecke_exprs(max_degree=2, max_terms=3), st.integers(0, 4))
def test_hecke_pow_matches_reference(a, k):
    got = a**k
    assert type(got) is HeckeExpr
    assert got == ref_hecke_pow(a, k)


@settings(max_examples=40, deadline=None)
@given(hecke_exprs())
def test_hecke_image_matches_reference(e):
    got = hecke_image(e)
    assert type(got) is XPoly and got.nvars == 4
    assert got == ref_hecke_image(e)
    assert_canonical(got)


@settings(max_examples=20, deadline=None)
@given(weighted_hecke_exprs())
@example((7, T_P**7 * Fraction(-1, 3) + T_P * P_BRACKET**3 * PrimeLaurent.p_power(-9)))
@example((8, HeckeExpr({(0, 4, 0, 0): p + 1, (0, 0, 1, 3): PrimeLaurent.p_power(-2, Fraction(2, 3))})))
def test_express_in_generators_round_trip(we):
    # weights 7 and 8 lie beyond every system the theorems solve
    w, e = we
    assert express_in_generators(hecke_image(e), w) == e


@settings(max_examples=100, deadline=None)
@given(hecke_exprs())
def test_hecke_json_round_trip(e):
    data = e.to_json()
    assert data == ref_hecke_to_json(e)
    assert HeckeExpr.from_json(data) == e


def test_hecke_negative_power_raises():
    with time_limit(10), pytest.raises(ValueError):
        T_P**-1


def test_hecke_and_xpoly_do_not_mix():
    x0 = XPoly.variable(4, 0)
    assert T_P.terms == x0.terms
    for op in (
        lambda: T_P + x0,
        lambda: x0 + T_P,
        lambda: T_P - x0,
        lambda: x0 - T_P,
        lambda: T_P * x0,
        lambda: x0 * T_P,
    ):
        with pytest.raises(TypeError):
            op()
    assert (T_P == x0) is False and (x0 == T_P) is False
    assert T_P != x0


def test_inherited_constructors_build_hecke_expr():
    assert type(HeckeExpr.constant(4, 1)) is HeckeExpr
    assert HeckeExpr.constant(4, 1) + T_P == T_P + 1
    assert HeckeExpr.variable(4, 0) == T_P
    assert HeckeExpr.monomial(4, (2, 0, 0, 1), p) == T_P**2 * P_BRACKET * p
    assert type(XPoly.constant(4, 1)) is XPoly
    for make in (
        lambda: HeckeExpr.constant(3, 1),
        lambda: HeckeExpr.variable(5, 0),
        lambda: HeckeExpr.monomial(2, (1, 0)),
    ):
        with pytest.raises(VarMismatch):
            make()


def test_hecke_inexact_coefficient_raises_type_error():
    with pytest.raises(TypeError):
        HeckeExpr({(1, 0, 0, 0): 0.5})
    with pytest.raises(TypeError):
        HeckeExpr.const(0.5)


@pytest.mark.parametrize("g", [(1, 0, 0), (1, 0, 0, 0, 0), (0, -1, 0, 0)])
def test_malformed_generator_tuple_rejected(g):
    with pytest.raises(VarMismatch):
        HeckeExpr({g: 1})
