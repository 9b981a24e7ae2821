"""Unit tests for the generating series, the numerator/denominator
polynomials over the Hecke ring, and the indeterminate-coefficient solve."""

from itertools import permutations
from math import prod

import pytest

from heckeseries import series
from heckeseries.algebra import PrimeLaurent, VSeries, XPoly, p
from heckeseries.errors import (
    EnumerationTooLarge,
    NonUniqueSolution,
    NoSolution,
    NotLaurent,
    NotSymmetric,
)
from heckeseries.series import (
    DEFAULT_ORDER,
    SERIES_ORDER_BOUND,
    HeckeExpr,
    P_BRACKET,
    QCoefficients,
    T1_P2,
    T2_P2,
    T_P,
    _generator_basis,
    _generator_image_power,
    _solve_fraction_free,
    express_in_generators,
    functional_eq_check,
    generator_monomials,
    hecke_image,
    p3_closed_form,
    p3_in_generators,
    p_numerator,
    q3_in_generators,
    q_poly,
    r_series,
    specialize_nu,
)
from heckeseries.spherical import sp_image_pbracket, sp_image_Tp
from heckeseries.symmetric import msym, to_msym, x0_weight


class TestRSeries:
    def test_constant_term(self):
        assert r_series(3, 6).coeffs[0] == XPoly.constant(4, 1)

    def test_linear_term_is_tp_image(self):
        assert r_series(3, 6).coeffs[1] == sp_image_Tp(3)

    def test_genus1_is_reciprocal_of_two_factors(self):
        nv = 2
        order = 6
        one = VSeries.one(order, nv)
        f1 = one - VSeries.from_dict(order, nv, {1: XPoly.monomial(nv, (1, 0))})
        f2 = one - VSeries.from_dict(order, nv, {1: XPoly.monomial(nv, (1, 1))})
        assert r_series(1, order) == (f1 * f2).recip()

    def test_genus1_product_is_one(self):
        nv = 2
        order = 8
        one = VSeries.one(order, nv)
        f1 = one - VSeries.from_dict(order, nv, {1: XPoly.monomial(nv, (1, 0))})
        f2 = one - VSeries.from_dict(order, nv, {1: XPoly.monomial(nv, (1, 1))})
        assert r_series(1, order) * f1 * f2 == one

    def test_bad_genus(self):
        with pytest.raises(ValueError):
            r_series(4, 6)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            r_series(3, -1)
        with pytest.raises(ValueError):
            VSeries(-1, [])

    def test_order_bound(self):
        assert r_series(1, SERIES_ORDER_BOUND).order == SERIES_ORDER_BOUND
        with pytest.raises(EnumerationTooLarge):
            r_series(3, SERIES_ORDER_BOUND + 1)


class TestQPoly:
    def test_genus1(self):
        nv = 2
        expected = VSeries.from_dict(
            2,
            nv,
            {
                0: XPoly.constant(nv, 1),
                1: -(XPoly.monomial(nv, (1, 0)) + XPoly.monomial(nv, (1, 1))),
                2: XPoly.monomial(nv, (2, 1)),
            },
        )
        assert q_poly(1) == expected

    def test_genus3_top_coefficient(self):
        assert q_poly(3).coeffs[8] == XPoly.monomial(4, (8, 4, 4, 4))

    def test_genus3_v1_coefficient(self):
        # minus the sum of the eight subset monomials, i.e. -Omega(T(p)) shape
        assert q_poly(3).coeffs[1] == -sp_image_Tp(3)


class TestPNumerator:
    def test_genus1_is_one(self):
        assert p_numerator(1, 8) == VSeries.one(0, 2)

    def test_genus2(self):
        expected = VSeries.from_dict(
            2,
            3,
            {
                0: XPoly.constant(3, 1),
                2: XPoly.monomial(3, (2, 1, 1), -PrimeLaurent.p_power(-1)),
            },
        )
        assert p_numerator(2, 10) == expected

    def test_genus3_sparsity(self):
        num = p_numerator(3, DEFAULT_ORDER)
        assert num.order == 6
        assert num.coeffs[1].is_zero() and num.coeffs[5].is_zero()
        assert not num.coeffs[6].is_zero()

    def test_genus3_v2_coefficient(self):
        num = p_numerator(3, DEFAULT_ORDER)
        decomp = to_msym(num.coeffs[2])
        assert decomp == {
            (2, 1, 1): -PrimeLaurent.p_power(-1),
            (1, 1, 1): -PrimeLaurent({0: 1, -1: 1, -2: 1}),
            (1, 1, 0): -PrimeLaurent.p_power(-1),
        }

    def test_insufficient_margin_rejected(self):
        with pytest.raises(ValueError):
            p_numerator(3, 8)


class TestClosedForm:
    def test_constant_term(self):
        assert p3_closed_form(6).coeffs[0] == XPoly.constant(4, 1)

    def test_v6_coefficient(self):
        cf = p3_closed_form(DEFAULT_ORDER)
        expected = XPoly.monomial(4, (6, 0, 0, 0)) * (
            msym((3, 3, 3), 3) * PrimeLaurent.p_power(-3)
        )
        assert cf.coeffs[6] == expected

    def test_agrees_with_product_route(self):
        cf = p3_closed_form(DEFAULT_ORDER)
        assert cf.truncate(6) == p_numerator(3, DEFAULT_ORDER)
        assert cf.degree() <= 6


class TestHeckeImage:
    def test_constant(self):
        assert hecke_image(HeckeExpr.const(1)) == XPoly.constant(4, 1)

    def test_product(self):
        assert hecke_image(T_P * P_BRACKET) == sp_image_Tp(3) * sp_image_pbracket(3)

    def test_laurent_scalar(self):
        e = T_P * PrimeLaurent.p_power(-2)
        assert hecke_image(e) == sp_image_Tp(3) * PrimeLaurent.p_power(-2)


def theorem_systems():
    """(target, x0-weight) of the ten systems p3_in_generators and q3_in_generators solve."""
    num, q = p_numerator(3, DEFAULT_ORDER), q_poly(3)
    return [(num.coeffs[k], k) for k in range(7)] + [(q.coeffs[k], k) for k in (2, 3, 4)]


class TestExpressInGenerators:
    def test_numerator_v2(self):
        num = p_numerator(3, DEFAULT_ORDER)
        sol = express_in_generators(num.coeffs[2], 2)
        expected = -(p**2) * (T2_P2 + (p**4 + p**2 + 1) * P_BRACKET)
        assert sol == expected

    def test_numerator_v3(self):
        num = p_numerator(3, DEFAULT_ORDER)
        sol = express_in_generators(num.coeffs[3], 3)
        assert sol == (p + 1) * p**4 * T_P * P_BRACKET

    def test_denominator_v2(self):
        sol = express_in_generators(q_poly(3).coeffs[2], 2)
        expected = (
            p * T1_P2
            + (p**3 + p) * T2_P2
            + p * (1 + p**2) ** 2 * P_BRACKET
        )
        assert sol == expected

    def test_solve_laurent_system(self):
        # x = p, y = p^-2 from a triangular system with negative p-exponents:
        # y pivots on row 2 (a non-unit entry), x on row 1, row 0 is a check
        inv = PrimeLaurent.p_power(-1)
        rows = [
            [inv, p, 1 + inv],
            [p**2, -inv, p**3 - inv**3],
            [PrimeLaurent(), inv + inv**3, inv**3 + inv**5],
        ]
        assert _solve_fraction_free(rows, 2) == [p, inv**2]

    def test_non_triangular_system_raises(self):
        # both columns are nonzero in the last row, so both pivot on it
        inv = PrimeLaurent.p_power(-1)
        rows = [[PrimeLaurent.const(1), inv, p + inv**3], [p, PrimeLaurent.const(-1), p**2 - inv**2]]
        with pytest.raises(NoSolution, match="not triangular"):
            _solve_fraction_free(rows, 2)

    def test_inconsistent_row_raises(self):
        # x = p^-1 from row 1; row 0, which pivots no unknown, leaves 2 - 1
        rows = [[p, 2], [1, PrimeLaurent.p_power(-1)]]
        with pytest.raises(NoSolution, match="inconsistent"):
            _solve_fraction_free(rows, 1)

    def test_zero_column_raises(self):
        with pytest.raises(NonUniqueSolution):
            _solve_fraction_free([[1, 0, 1], [p, 0, p]], 2)

    def test_non_laurent_solution_raises(self):
        # (p - 1) x = 1 is solved by 1/(p - 1), which is not Laurent in p
        with pytest.raises(NotLaurent):
            _solve_fraction_free([[p - 1, 1]], 1)

    def test_wrong_weight_rejected(self):
        with pytest.raises(NotSymmetric):
            express_in_generators(q_poly(3).coeffs[2], 3)

    def test_non_symmetric_target_raises(self):
        target = q_poly(3).coeffs[2] + XPoly.monomial(4, (2, 3, 0, 0))
        with pytest.raises(NotSymmetric):
            express_in_generators(target, 2)

    def test_cached_basis_matches_fresh_recomputation(self):
        for target, w in theorem_systems():
            express_in_generators(target, w)
        for w in range(7):
            cached = _generator_basis(w)
            assert cached == _generator_basis.__wrapped__(w)
            assert type(cached[0]) is tuple and type(cached[1]) is tuple
            assert all(type(decomp) is tuple for decomp in cached[1])

    def test_images_computed_once_per_weight(self, monkeypatch):
        calls = []

        def counted(e):
            calls.append(e)
            return hecke_image(e)

        monkeypatch.setattr(series, "hecke_image", counted)
        _generator_basis.cache_clear()
        for target, w in theorem_systems():
            express_in_generators(target, w)
        # weights 0..6 have 1, 1, 4, 4, 10, 10 and 20 generator monomials: 50
        # images, against 68 for one basis per system; each system adds one
        # substitution check
        assert len(calls) == 50 + 10
        assert _generator_basis.cache_info().misses == 7

    def test_perturbed_target_changes_solution(self):
        # full column rank: a basis perturbation of the right-hand side is
        # either unsolvable or solved differently
        target = q_poly(3).coeffs[2]
        base = express_in_generators(target, 2)
        x0sq = XPoly.monomial(4, (2, 0, 0, 0))
        for sig in ((1, 1, 0), (2, 1, 1), (1, 0, 0)):
            perturbed = target + x0sq * msym(sig, 3)
            try:
                other = express_in_generators(perturbed, 2)
            except NoSolution:
                continue
            assert other != base


def _lead(img):
    """The lex-largest signature of a symmetric image, with its coefficient."""
    decomp = to_msym(img)
    sig = max(decomp)
    return sig, decomp[sig]


def _det(m):
    n = len(m)
    return sum(
        (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        * prod(m[i][perm[i]] for i in range(n))
        for perm in permutations(range(n))
    )


class TestGeneratorLeads:
    """The property the triangular solve of express_in_generators rests on."""

    def test_generator_leads_are_unimodular(self):
        vectors = []
        for index in range(4):
            img = _generator_image_power(index)
            sig, coeff = _lead(img)
            assert len(coeff.terms) == 1 and list(coeff.terms.values()) in ([1], [-1])
            vectors.append((x0_weight(img),) + sig)
        assert _det(vectors) in (1, -1)

    def test_monomial_leads_distinct(self):
        for w in range(11):
            leads = [_lead(hecke_image(HeckeExpr({g: 1})))[0] for g in generator_monomials(w)]
            assert len(set(leads)) == len(leads), w

    def test_generator_monomial_counts(self):
        counts = [len(generator_monomials(w)) for w in range(11)]
        assert counts == [1, 1, 4, 4, 10, 10, 20, 20, 35, 35, 56]
        for w in range(11):
            assert all(a + 2 * (b + c + d) == w for a, b, c, d in generator_monomials(w))


class TestTheorems:
    def test_numerator_coefficients_image(self):
        coeffs = p3_in_generators()
        num = p_numerator(3, DEFAULT_ORDER)
        for k, e in enumerate(coeffs):
            assert hecke_image(e) == num.coeffs[k], k

    def test_numerator_leading_term(self):
        assert p3_in_generators()[6] == HeckeExpr(
            {(0, 0, 0, 3): PrimeLaurent.p_power(15)}
        )

    def test_numerator_missing_terms(self):
        coeffs = p3_in_generators()
        assert coeffs[1].is_zero() and coeffs[5].is_zero()

    def test_denominator_endpoints(self):
        qc = q3_in_generators()
        assert qc.t[0] == HeckeExpr.const(1)
        assert qc.t[1] == -T_P
        assert qc.t[8] == HeckeExpr({(0, 0, 0, 4): PrimeLaurent.p_power(24)})

    def test_denominator_v3(self):
        qc = q3_in_generators()
        assert qc.t[3] == -(p**3) * T_P * (T2_P2 + P_BRACKET)

    def test_denominator_v7(self):
        qc = q3_in_generators()
        assert qc.t[7] == -PrimeLaurent.p_power(18) * P_BRACKET**3 * T_P

    def test_functional_equation(self):
        assert functional_eq_check(q3_in_generators())

    def test_all_images_match_expanded_denominator(self):
        qc = q3_in_generators()
        q = q_poly(3)
        for k in range(9):
            assert hecke_image(qc.t[k]) == q.coeffs[k], k

    def test_qcoefficients_requires_unit_head(self):
        with pytest.raises(ValueError):
            QCoefficients((HeckeExpr.const(2),) + (HeckeExpr.const(0),) * 8)


class TestSpecialization:
    def test_of_one(self):
        assert specialize_nu(VSeries.one(3, 4)) == VSeries.one(3, 4)

    def test_numerator_specialization(self):
        spec = specialize_nu(p_numerator(3, DEFAULT_ORDER))
        expected = VSeries.from_dict(
            6,
            4,
            {
                0: XPoly.constant(4, 1),
                2: XPoly.constant(
                    4, PrimeLaurent({8: -1, 7: -1, 6: -2, 5: -1, 4: -2, 3: -1, 2: -1})
                ),
                3: XPoly.constant(
                    4,
                    PrimeLaurent(
                        {11: 1, 10: 2, 9: 2, 8: 3, 7: 3, 6: 2, 5: 2, 4: 1}
                    ),
                ),
                4: XPoly.constant(
                    4, PrimeLaurent({13: -1, 12: -1, 11: -2, 10: -1, 9: -2, 8: -1, 7: -1})
                ),
                6: XPoly.constant(4, PrimeLaurent.p_power(15)),
            },
        )
        assert spec == expected


class TestSerialization:
    def test_hecke_expr_round_trip(self):
        e = -(p**3) * T_P * (T2_P2 + P_BRACKET) + HeckeExpr.const(
            PrimeLaurent.p_power(-1)
        )
        assert HeckeExpr.from_json(e.to_json()) == e

    def test_qcoefficients_round_trip(self):
        qc = q3_in_generators()
        assert QCoefficients.from_json(qc.to_json()) == qc

    def test_series_round_trip(self):
        num = p_numerator(3, DEFAULT_ORDER)
        assert VSeries.from_json(num.to_json()) == num
