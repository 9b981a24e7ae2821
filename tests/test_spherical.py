"""Unit tests for the spherical maps and the coset-enumeration oracle."""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from heckeseries import spherical, verify
from heckeseries.algebra import PrimeLaurent, XPoly, p
from heckeseries.errors import (
    EnumerationTooLarge,
    IndexOutOfRange,
    UnsupportedRank,
)
from heckeseries.golden import golden_decomposition, golden_order
from heckeseries.spherical import (
    COSET_CANDIDATE_BOUND,
    PRIME_BOUND,
    _compositions,
    _coset_buckets,
    _valuation_table,
    coset_count,
    omega_cosets,
    omega_hl,
    omega_pi,
    phi,
    sm,
    sp_image_pbracket,
    sp_image_Ti,
    sp_image_Tp,
)
from heckeseries.symmetric import msym, signatures_of_degree, to_msym


class TestPhi:
    def test_base_case(self):
        assert phi(0) == 1

    def test_phi1(self):
        assert phi(1) == p - 1

    def test_phi2(self):
        assert phi(2) == PrimeLaurent({3: 1, 2: -1, 1: -1, 0: 1})

    def test_negative_raises(self):
        with pytest.raises(IndexOutOfRange):
            phi(-1)


def _rank_mod(matrix, q):
    """Row-echelon rank of a small integer matrix over the field with q elements."""
    rows = [list(r) for r in matrix]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next(
            (i for i in range(rank, len(rows)) if rows[i][col] % q), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, q)
        rows[rank] = [(v * inv) % q for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] % q:
                f = rows[i][col]
                rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _count_symmetric_ranks(a, q):
    """Brute-force rank distribution of symmetric a x a matrices over F_q."""
    positions = [(i, j) for i in range(a) for j in range(i, a)]
    counts = [0] * (a + 1)
    for values in product(range(q), repeat=len(positions)):
        m = [[0] * a for _ in range(a)]
        for (i, j), v in zip(positions, values):
            m[i][j] = m[j][i] = v
        counts[_rank_mod(m, q)] += 1
    return counts


class TestSm:
    def test_sm_1_3(self):
        assert sm(1, 3) == (p - 1) * PrimeLaurent({2: 1, 1: 1, 0: 1})

    def test_rank_zero(self):
        for a in range(4):
            assert sm(0, a) == 1

    def test_sm_1_2(self):
        assert sm(1, 2) == p**2 - 1

    def test_against_brute_force_count(self):
        for q in (2, 3, 5):
            for a in (1, 2, 3):
                counts = _count_symmetric_ranks(a, q)
                for r in range(min(a, 2) + 1):
                    assert sm(r, a).evaluate(q) == counts[r], (r, a, q)

    def test_unsupported_rank(self):
        with pytest.raises(UnsupportedRank):
            sm(3, 3)

    def test_bad_arguments(self):
        with pytest.raises(IndexOutOfRange):
            sm(2, 1)


class TestOmegaClosedForm:
    def test_trivial_signature(self):
        assert omega_hl((0, 0, 0), 3) == XPoly.constant(4, 1)

    def test_signature_210(self):
        expected = {
            (1, 1, 1): PrimeLaurent({-4: 2, -5: -1, -6: -1}),
            (2, 1, 0): PrimeLaurent.p_power(-4),
        }
        assert to_msym(omega_hl((2, 1, 0), 3)) == expected

    def test_signature_110(self):
        assert omega_hl((1, 1, 0), 3) == msym((1, 1, 0), 3) * PrimeLaurent.p_power(-3)

    def test_full_golden_table(self):
        for lam in golden_order():
            assert to_msym(omega_hl(lam, 3)) == golden_decomposition(lam), lam

    def test_low_rank(self):
        assert omega_hl((1,), 1) == XPoly.monomial(2, (0, 1), PrimeLaurent.p_power(-1))
        assert omega_hl((1, 1), 2) == XPoly.monomial(
            3, (0, 1, 1), PrimeLaurent.p_power(-3)
        )

    def test_rank_zero_refused(self):
        with pytest.raises(IndexOutOfRange, match="n >= 1"):
            omega_hl((), 0)

    def test_step_by_v_reads_only_the_degree_it_holds(self, monkeypatch):
        # (120, 60, 0) holds the one degree 180: 1 861 signatures with parts
        # <= 120 have it, of the 302 621 with any degree
        read = []

        def counted(degree, max_part, n):
            for sig in signatures_of_degree(degree, max_part, n):
                read.append(sig)
                yield sig

        monkeypatch.setattr(spherical, "signatures_of_degree", counted)
        omega_hl.__wrapped__((120, 60, 0), 3)
        assert len(read) == len(set(read)) == 1861
        assert {sum(sig) for sig in read} == {180}


class TestOmegaPi:
    def test_values(self):
        for i in (1, 2, 3):
            sig = (1,) * i + (0,) * (3 - i)
            expected = msym(sig, 3) * PrimeLaurent.p_power(-i * (i + 1) // 2)
            assert omega_pi(i, 3) == expected

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            omega_pi(0, 3)
        with pytest.raises(IndexOutOfRange):
            omega_pi(4, 3)


class TestCosetOracle:
    def test_determinant_two(self):
        expected = msym((1, 0, 0), 3) * Fraction(1, 2)
        assert omega_cosets((1, 0, 0), 3, 2) == expected

    def test_identity_coset(self):
        for q in (2, 3, 5):
            assert omega_cosets((0, 0, 0), 3, q) == XPoly.constant(4, 1)

    def test_determinant_nine_filtered(self):
        expected = msym((1, 1, 0), 3) * Fraction(1, 27)
        assert omega_cosets((1, 1, 0), 3, 3) == expected

    def test_coset_counts(self):
        for q in (2, 3, 5):
            assert coset_count((1, 0, 0), 3, q) == q * q + q + 1

    def test_scalar_part_is_stripped(self):
        # (k+1, k+1, k+1) differs from (1, 1, 1) only by the scalar prefactor
        a = omega_cosets((2, 2, 2), 3, 2)
        b = omega_cosets((1, 1, 1), 3, 2)
        assert len(a.terms) == len(b.terms) == 1

    @pytest.mark.parametrize("q", [2, 3])
    @pytest.mark.parametrize("c", [1, 2])
    @pytest.mark.parametrize(
        "lam", [(0,), (3,), (0, 0), (2, 0), (3, 1), (0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 3, 1)]
    )
    def test_scalar_part_splits_off(self, lam, c, q):
        # t(p^(lambda + c)) is t(p^lambda) times the scalar p^c: the same count,
        # each diagonal shifted by c
        n = len(lam)
        shifted = tuple(part + c for part in lam)
        assert coset_count(shifted, n, q) == coset_count(lam, n, q)
        scalar = XPoly.monomial(n + 1, (0,) + (c,) * n, Fraction(1, q ** (c * n * (n + 1) // 2)))
        assert omega_cosets(shifted, n, q) == omega_cosets(lam, n, q) * scalar

    def test_matches_closed_form(self):
        # every signature under the bound: parts <= 6 at 2 and 3, <= 4 at 5 and 7
        cases = []
        for q, hi in ((2, 6), (3, 6), (5, 4), (7, 4)):
            for parts in combinations_with_replacement(range(hi + 1), 3):
                lam = parts[::-1]
                delta = sum(lam) - 3 * lam[-1]
                if sum(q ** (d[1] + 2 * d[2]) for d in _compositions(delta, 3)) <= COSET_CANDIDATE_BOUND:
                    cases.append((lam, q))
        assert len(cases) == 206
        for lam, q in cases:
            assert omega_hl(lam, 3).specialize_prime(q) == omega_cosets(lam, 3, q), (lam, q)

    def test_enumeration_guard(self, monkeypatch):
        # the guard refuses before the valuation table is built
        def refuse(prime, delta):
            raise AssertionError(f"valuation table built for prime^{delta}")

        monkeypatch.setattr(spherical, "_valuation_table", refuse)
        with pytest.raises(EnumerationTooLarge):
            omega_cosets((9, 0, 0), 3, 5)

    @pytest.mark.parametrize("prime", [-2, 0, 1, 4, 9])
    def test_non_prime_refused_before_any_table(self, prime, monkeypatch):
        def refuse(prime, delta):
            raise AssertionError(f"valuation table built for prime^{delta}")

        monkeypatch.setattr(spherical, "_valuation_table", refuse)
        for oracle in (omega_cosets, coset_count):
            with pytest.raises(ValueError, match=f"^{prime} is not prime$"):
                oracle((1, 0, 0), 3, prime)

    @pytest.mark.parametrize("prime", [999983, 1000003])
    @pytest.mark.parametrize("lam", [(3,), (2, 2, 2)])
    def test_prime_past_the_bound_refused_before_the_trial_division(self, lam, prime, monkeypatch):
        # n = 1 and a scalar signature enumerate nothing, so no other bound
        # stops a large prime; the largest prime under the bound is accepted
        n = len(lam)
        expected = XPoly.monomial(n + 1, (0,) + lam, Fraction(1, prime ** sum((i + 1) * e for i, e in enumerate(lam))))
        if prime <= PRIME_BOUND:
            assert omega_cosets(lam, n, prime) == expected
            assert coset_count(lam, n, prime) == 1
            return

        def refuse(q):
            raise AssertionError(f"trial division of {q}")

        monkeypatch.setattr(spherical, "_is_prime", refuse)
        for oracle in (omega_cosets, coset_count):
            with pytest.raises(EnumerationTooLarge, match=f"^prime {prime} exceeds the bound {PRIME_BOUND}$"):
                oracle(lam, n, prime)

    def test_rank_four_is_not_wired(self):
        with pytest.raises(IndexOutOfRange):
            omega_cosets((1, 0, 0, 0), 4, 2)


# -- the coset enumeration against the per-candidate loops it replaced --


def _ref_valuation(value, prime, cap):
    if value == 0:
        return cap
    v = 0
    while value % prime == 0 and v < cap:
        value //= prime
        v += 1
    return v


def _ref_types(n, prime, d, delta):
    """The SNF valuation type of every HNF matrix with diagonal prime^d, one at a time."""
    if n == 1:
        yield (delta,)
        return
    if n == 2:
        d1, d2 = d
        for a in range(prime**d2):
            v1 = min(d1, d2, _ref_valuation(a, prime, delta))
            yield (v1, delta - v1)
        return
    d1, d2, d3 = d
    q2, q3 = prime**d2, prime**d3
    pairs_12 = d1 + d2
    pairs_13 = d1 + d3
    pairs_23 = d2 + d3
    minor_base = min(pairs_12, pairs_13, pairs_23)
    for a in range(q2):
        va = _ref_valuation(a, prime, delta)
        v1a = min(d1, d2, d3, va)
        m_a = min(minor_base, d3 + va)
        for b in range(q3):
            vb = _ref_valuation(b, prime, delta)
            v1ab = min(v1a, vb)
            qb = q2 * b
            for c in range(q3):
                vc = _ref_valuation(c, prime, delta)
                v1 = min(v1ab, vc)
                v2 = min(m_a, d1 + vc, _ref_valuation(a * c - qb, prime, delta))
                yield (v1, v2 - v1, delta - v2)


def ref_coset_buckets(n, prime, delta):
    buckets = {}
    for d in _compositions(delta, n):
        for typ in _ref_types(n, prime, d, delta):
            per_d = buckets.setdefault(typ, {})
            per_d[d] = per_d.get(d, 0) + 1
    return buckets


def _oracle_strata():
    """Every (n, prime, delta) whose buckets verify's oracle check reads."""
    strata = set()
    real = spherical._coset_buckets

    def record(n, prime, delta):
        strata.add((n, prime, delta))
        return real(n, prime, delta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spherical, "_coset_buckets", record)
        assert verify.check_oracle_equivalence()[0]
    return sorted(strata)


class TestCosetBuckets:
    def test_matches_per_candidate_loops(self):
        strata = _oracle_strata()
        assert {(3, 2, 6), (3, 3, 6), (2, 5, 4), (1, 5, 0)} <= set(strata)
        strata += [(3, q, delta) for q in (5, 7) for delta in range(3)]
        # several b-classes with more than one member each; in (3, 3, 5) a has
        # up to six valuation classes, five with more than one member, and in
        # (2, 3, 8) up to nine
        strata += [(3, 2, 8), (3, 5, 3), (3, 7, 3), (3, 3, 5), (2, 3, 8)]
        for n, q, delta in strata:
            assert _coset_buckets.__wrapped__(n, q, delta) == ref_coset_buckets(n, q, delta), (n, q, delta)

    def test_each_candidate_counted_once(self):
        strata = [(1, 7, 3), (2, 2, 12), (2, 7, 5), (3, 2, 8), (3, 3, 6), (3, 5, 3), (3, 7, 2)]
        for n, q, delta in strata:
            totals = {}
            for per_d in _coset_buckets(n, q, delta).values():
                for d, count in per_d.items():
                    totals[d] = totals.get(d, 0) + count
            expected = {d: q ** sum(i * di for i, di in enumerate(d)) for d in _compositions(delta, n)}
            assert totals == expected, (n, q, delta)

    def test_valuation_table(self):
        for q, delta in ((2, 0), (2, 7), (3, 6), (5, 3)):
            table = _valuation_table(q, delta)
            assert len(table) == q**delta
            assert list(table) == [_ref_valuation(x, q, delta) for x in range(q**delta)]


class TestSymplecticImages:
    def test_tp_images(self):
        x = lambda nv, i: XPoly.variable(nv, i)
        assert sp_image_Tp(1) == x(2, 0) * (1 + x(2, 1))
        assert sp_image_Tp(2) == x(3, 0) * (1 + x(3, 1)) * (1 + x(3, 2))
        assert sp_image_Tp(3) == x(4, 0) * (1 + x(4, 1)) * (1 + x(4, 2)) * (1 + x(4, 3))

    def test_t3_image(self):
        assert sp_image_Ti(3, 3) == XPoly.monomial(
            4, (2, 1, 1, 1), PrimeLaurent.p_power(-6)
        )

    def test_t2_image(self):
        x0sq = XPoly.monomial(4, (2, 0, 0, 0))
        expected = x0sq * (
            msym((1, 1, 0), 3) * PrimeLaurent.p_power(-3)
            + msym((2, 1, 1), 3) * PrimeLaurent.p_power(-3)
            + msym((1, 1, 1), 3) * (PrimeLaurent.p_power(-6) * sm(1, 3))
        )
        assert sp_image_Ti(2, 3) == expected

    def test_pbracket_images(self):
        for n in (1, 2, 3):
            exps = (2,) + (1,) * n
            expected = XPoly.monomial(
                n + 1, exps, PrimeLaurent.p_power(-n * (n + 1) // 2)
            )
            assert sp_image_pbracket(n) == expected

    def test_pbracket_equals_last_ti(self):
        assert sp_image_pbracket(3) == sp_image_Ti(3, 3)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            sp_image_Ti(0, 3)
        with pytest.raises(IndexOutOfRange):
            sp_image_Ti(4, 3)
