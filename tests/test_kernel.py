"""Differential tests: XPoly and PrimeLaurent arithmetic on the packed kernel
against a reference.

The reference functions below are the dict-of-tuple loops XPoly used before
it had a packed kernel: sum, product, exact division and substitution on
``terms`` with ``PrimeLaurent`` coefficient arithmetic, and the dense
univariate division ``PrimeLaurent.div_exact`` used before it ran on the
kernel.  They live only here, as the oracle the kernel must agree with.
"""

import signal
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations

import pytest

from heckeseries.algebra import PL_ZERO, PrimeLaurent, VSeries, XPoly, p
from heckeseries.errors import NotDivisible
from heckeseries.spherical import _multiplicity_norm, _sgn, omega_hl
from heckeseries.symmetric import check_signature

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


# -- reference implementation ------------------------------------------


def _grlex_key(exps):
    return (sum(exps), exps)


def _dense(a, shift):
    """Coefficient list of a * p^(-shift), constant term first."""
    out = [Fraction(0)] * (a.max_exp() - shift + 1)
    for e, c in a.terms.items():
        out[e - shift] = c
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


def ref_add(a, b):
    res = dict(a.terms)
    for e, c in b.terms.items():
        s = res.get(e)
        s = c if s is None else s + c
        if s.is_zero():
            res.pop(e, None)
        else:
            res[e] = s
    return XPoly(a.nvars, res)


def ref_mul(a, b):
    res = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = c1 * c2
            s = res.get(e)
            s = c if s is None else s + c
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
        c = rem[lead_r].div_exact(lc_b)
        quot[diff] = c
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(diff, e2))
            s = rem.get(e, PL_ZERO) - c * c2
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
            core = ref_mul(core, ref_add(x[i], ref_mul(x[j], -inv_p)))
            vdm = ref_mul(vdm, ref_add(x[i], -x[j]))
    total = XPoly(nv)
    for w in permutations(range(1, nv)):
        img = core.permute((0,) + w)
        total = ref_add(total, img if _sgn(w) == 1 else -img)
    quot = ref_div_exact(total, vdm)
    weight = sum((i + 1) * part for i, part in enumerate(lam))
    norm, prefactor = _multiplicity_norm(lam, n), PrimeLaurent.p_power(-weight)
    return XPoly(nv, {e: (c * prefactor).div_exact(norm) for e, c in quot.terms.items()})


# -- strategies ----------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
laurents = st.dictionaries(st.integers(-4, 4), rationals, max_size=3).map(PrimeLaurent)
wide_laurents = st.dictionaries(st.integers(-6, 6), rationals, max_size=4).map(PrimeLaurent)


def xpolys(nvars, max_exp=3, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_exp)] * nvars)
    return st.dictionaries(exps, laurents, max_size=max_terms).map(lambda t: XPoly(nvars, t))


def nonzero(polys):
    return polys.filter(lambda a: not a.is_zero())


pairs = st.integers(1, 4).flatmap(lambda n: st.tuples(xpolys(n), xpolys(n)))
divisions = st.integers(1, 4).flatmap(lambda n: st.tuples(xpolys(n), nonzero(xpolys(n))))


def assert_canonical(a):
    for c in a.terms.values():
        assert c.terms, "zero coefficient stored"
        assert all(type(f) is Fraction and f for f in c.terms.values())


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
    assert a - b == ref_add(a, -b)
    assert_canonical(a - b)
    assert (a - a).is_zero()


@settings(max_examples=150, deadline=None)
@given(divisions)
def test_div_exact_of_products(ab):
    a, b = ab
    prod = a * b
    got = prod.div_exact(b)
    assert got == a == ref_div_exact(prod, b)
    assert_canonical(got)


@settings(max_examples=150, deadline=None)
@given(divisions)
def test_div_exact_agrees_on_arbitrary_pairs(ab):
    a, b = ab
    try:
        expected = ref_div_exact(a, b)
    except NotDivisible:
        with time_limit(10), pytest.raises(NotDivisible):
            a.div_exact(b)
    else:
        assert a.div_exact(b) == expected


@settings(max_examples=300, deadline=None)
@given(wide_laurents, wide_laurents.filter(bool))
def test_laurent_div_exact_matches_dense_reference(a, b):
    with time_limit(10):
        got = (a * b).div_exact(b)
    assert got == a == ref_laurent_div_exact(a * b, b)
    assert all(type(f) is Fraction for f in got.terms.values())
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
    assert a.substitute(assignment) == ref_substitute(a, assignment)


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

