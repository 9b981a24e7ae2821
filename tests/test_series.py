"""Unit tests for the generating series, the numerator/denominator
polynomials over the Hecke ring, and the indeterminate-coefficient solve."""

from functools import partial
from itertools import combinations, permutations
from math import prod

import pytest

from heckeseries import series, spherical
from heckeseries.algebra import PrimeLaurent, VSeries, XPoly, _key, p
from heckeseries.errors import (
    EnumerationTooLarge,
    NonUniqueSolution,
    NonVanishingTail,
    NoSolution,
    NotDivisible,
    NotLaurent,
    NotSymmetric,
    VarMismatch,
)
from heckeseries.series import (
    DEFAULT_ORDER,
    GENERATOR_WEIGHT_BOUND,
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
from heckeseries.symmetric import _dominant_product, msym, signatures, to_msym, x0_weight


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

    def test_checks_in_order(self):
        # the genus first, then the margin, then the order bound
        with pytest.raises(ValueError, match="genus"):
            p_numerator(4, 12)
        with pytest.raises(ValueError, match="genus"):
            p_numerator(4, 20)
        with pytest.raises(ValueError, match="margin"):
            p_numerator(3, 11)
        with pytest.raises(EnumerationTooLarge):
            p_numerator(3, SERIES_ORDER_BOUND + 1)
        # the order is never read, but it must still be an integer
        with pytest.raises(TypeError, match="integer"):
            p_numerator(3, 12.5)

    @pytest.mark.parametrize("n, N", [(-1, 4), (0, 12), (40, 20)])
    def test_genus_checked_before_the_margin(self, n, N):
        # the margin 2^n + 4 of a genus out of range is not a bound to report
        with pytest.raises(ValueError, match=r"^genus 1\.\.3 only$"):
            p_numerator(n, N)

    @pytest.mark.parametrize("n, N", [(2, 20), (3, SERIES_ORDER_BOUND)])
    def test_matches_r_series_route(self, n, N):
        # R_n times Q_n zero-padded to order N: its tail is empty and its head
        # is the numerator the alternant sums give
        prod = r_series(n, N) * VSeries(N, q_poly(n).coeffs + [XPoly(n + 1)] * (N - 2**n))
        assert all(c.is_zero() for c in prod.coeffs[2**n - 1 :])
        assert p_numerator(n, N) == prod.truncate(2**n - 2)

    @pytest.mark.parametrize("n, N", [(1, 8), (2, 10), (3, 12)])
    @pytest.mark.parametrize("at_end", [False, True])
    def test_tail_term_raises(self, monkeypatch, n, N, at_end):
        # one factor more, the (1 - x0 v) the identity cancels, in the first
        # class (all parts equal, divided by the largest norm) or the last
        # (distinct parts, not divided).  It is symmetric, so the norm still
        # divides, and the first nonzero coefficient of V P_n is v^(2^n - 1)
        real = series._numerator_classes
        at = -1 if at_end else 0

        def with_extra_factor(genus):
            classes = real(genus)
            norm, y, factors = classes[at]
            classes[at] = (norm, y, factors + [()])
            return classes

        monkeypatch.setattr(series, "_numerator_classes", with_extra_factor)
        with pytest.raises(NonVanishingTail, match=rf"^coefficient of v\^{2**n - 1} is nonzero"):
            p_numerator.__wrapped__(n, N)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("at_bound", [False, True])
    def test_last_part_zero_route(self, n, at_bound):
        # P_n = Antisym(kernel Q_n) / V: the signatures of last part 0, grouped
        # by top part, times the factors (1 - x0 x_S v) with 1 <= |S| <= n - 1
        N = SERIES_ORDER_BOUND if at_bound else 2**n + 4
        groups = [[lam for lam in signatures(m, n) if lam[0] == m and lam[-1] == 0] for m in range(N + 1)]
        width, coeffs = series._v_times_numerator(groups, n, range(1, n))
        quots = [series._div_v(c, k, n, width) for k, c in enumerate(coeffs)]
        top = 2**n - 2
        assert VSeries(top, quots[: top + 1]) == p_numerator(n, N)
        assert all(q.is_zero() for q in quots[top + 1 :])

    @pytest.mark.parametrize("n, sizes", [(1, ()), (1, (1,)), (2, ()), (2, (1, 2)), (3, ()), (3, (1, 2, 3))])
    def test_write_out_matches_one_key_per_permutation(self, n, sizes):
        # the sums written out through one _key per (representative, term of
        # V), times the same factors: with no factor, the write-out alone
        groups = [[(m,) + rest for rest in signatures(m, n - 1)] for m in range(2**n + 5)]
        width, coeffs = series._v_times_numerator(groups, n, sizes)
        expected = []
        for m, anti in enumerate(spherical._alternant_sums(groups, n)):
            out = {}
            for e, c in anti.terms.items():
                for w, sign in spherical._vandermonde_terms(n):
                    x = _key((m, *(e[i] for i in w)), width)
                    for pe, f in c.terms.items():
                        out[x + pe] = sign * f
            expected.append(out)
        subsets = [s for size in sizes for s in combinations(range(1, n + 1), size)]
        series._factor_loop(expected, subsets, n + 1, width)
        assert coeffs == expected

    # the head certificate: for n = 1, V = 1, so each head coefficient is its
    # own quotient, symmetric in x1 alone, and there is nothing to certify.
    # The closed form divides its zero tail by V as well, up to k = N.
    @pytest.mark.parametrize(
        "route, seam, n, N, k",
        [
            pytest.param(
                partial(p_numerator.__wrapped__, n), "_v_times_p", n, N, 2**n - 2 if last else 0, id=f"{last}-{n}-{N}"
            )
            for last in (False, True)
            for n, N in [(2, 10), (3, 12)]
        ]
        + [pytest.param(p3_closed_form, "_v_times_numerator", 3, 12, k, id=f"closed-form-{k}") for k in (0, 6, 12)],
    )
    def test_head_not_divisible_raises(self, monkeypatch, route, seam, n, N, k):
        # x0^k added to coefficient k of V times the numerator: no multiple of V
        real = getattr(series, seam)

        def with_constant(*args):
            width, coeffs = real(*args)
            key = _key((k,) + (0,) * n, width)
            coeffs[k][key] = coeffs[k].get(key, 0) + 1
            return width, coeffs

        monkeypatch.setattr(series, seam, with_constant)
        with pytest.raises(NotDivisible, match=rf"^coefficient of v\^{k} "):
            route(N)

    @pytest.mark.parametrize("n, N", [(2, 10), (3, 12)])
    @pytest.mark.parametrize("last", [False, True])
    def test_head_not_symmetric_raises(self, monkeypatch, n, N, last):
        # x0^k V P_k times x1 is V times x0^k P_k x1, which is not symmetric
        k = 2**n - 2 if last else 0
        real = series._v_times_p

        def times_x1(genus):
            width, coeffs = real(genus)
            shift = _key((0, 1) + (0,) * (n - 1), width)
            coeffs[k] = {key + shift: c for key, c in coeffs[k].items()}
            return width, coeffs

        monkeypatch.setattr(series, "_v_times_p", times_x1)
        with pytest.raises(NotSymmetric):
            p_numerator.__wrapped__(n, N)


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

    def test_agrees_with_product_route_at_the_bound(self):
        cf = p3_closed_form(SERIES_ORDER_BOUND)
        assert cf.truncate(6) == p_numerator(3, SERIES_ORDER_BOUND)
        assert all(c.is_zero() for c in cf.coeffs[7:])

    def test_order_bound(self, monkeypatch):
        # refused as r_series refuses it, before any spherical value is computed
        def unreachable(*args):
            raise AssertionError("spherical sums computed for a refused order")

        monkeypatch.setattr(series, "_alternant_sums", unreachable)
        with pytest.raises(EnumerationTooLarge):
            p3_closed_form(SERIES_ORDER_BOUND + 1)
        with pytest.raises(ValueError):
            p3_closed_form(-1)


class TestHeckeImage:
    def test_constant(self):
        assert hecke_image(HeckeExpr.const(1)) == XPoly.constant(4, 1)

    def test_product(self):
        assert hecke_image(T_P * P_BRACKET) == sp_image_Tp(3) * sp_image_pbracket(3)

    def test_laurent_scalar(self):
        e = T_P * PrimeLaurent.p_power(-2)
        assert hecke_image(e) == sp_image_Tp(3) * PrimeLaurent.p_power(-2)


def substituted_basis(w):
    """_generator_basis(w) as the full images substituted and read back by to_msym."""
    monomials = tuple(generator_monomials(w))
    return monomials, tuple(tuple(to_msym(hecke_image(HeckeExpr({g: 1}))).items()) for g in monomials)


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

    def test_entry_outside_the_ring_raises_type_error(self):
        with pytest.raises(TypeError):
            _solve_fraction_free([[1.5, 1]], 1)

    def test_wrong_weight_rejected(self):
        with pytest.raises(NotSymmetric):
            express_in_generators(q_poly(3).coeffs[2], 3)

    def test_non_symmetric_target_raises(self):
        target = q_poly(3).coeffs[2] + XPoly.monomial(4, (2, 3, 0, 0))
        with pytest.raises(NotSymmetric):
            express_in_generators(target, 2)

    def test_weight_at_the_bound_solves(self):
        expr = HeckeExpr({(2, 1, 0, 3): p**2 - 1, (0, 0, 1, 4): 3})
        assert GENERATOR_WEIGHT_BOUND == 10
        assert express_in_generators(hecke_image(expr), GENERATOR_WEIGHT_BOUND) == expr

    @pytest.mark.parametrize(
        "weight, error", [(-1, ValueError), (GENERATOR_WEIGHT_BOUND + 1, EnumerationTooLarge), (40, EnumerationTooLarge)]
    )
    def test_weight_out_of_range_refused_before_the_basis(self, weight, error, monkeypatch):
        def refuse(x0_wt):
            raise AssertionError(f"generator basis built for weight {x0_wt}")

        monkeypatch.setattr(series, "_generator_basis", refuse)
        with pytest.raises(error, match="x0-weight"):
            express_in_generators(XPoly(4), weight)

    def test_target_of_another_genus_refused_before_the_basis(self, monkeypatch):
        # the genus-2 denominator's v^2 coefficient is in x0..x2, not x0..x3
        def refuse(x0_wt):
            raise AssertionError(f"generator basis built for weight {x0_wt}")

        monkeypatch.setattr(series, "_generator_basis", refuse)
        with pytest.raises(VarMismatch, match="nvars = 3"):
            express_in_generators(q_poly(2).coeffs[2], 2)

    def test_cached_basis_matches_fresh_recomputation(self):
        # the cached decompositions against images substituted afresh
        for target, w in theorem_systems():
            express_in_generators(target, w)
        for w in range(7):
            cached = _generator_basis(w)
            assert cached == substituted_basis(w)
            assert type(cached[0]) is tuple and type(cached[1]) is tuple
            assert all(type(decomp) is tuple for decomp in cached[1])

    @pytest.mark.parametrize("w", range(9))
    def test_basis_matches_substitution(self, w):
        series._monomial_image.cache_clear()
        _generator_basis.cache_clear()
        # tuples: equal in order, pair for pair, signatures descending as to_msym gives them
        assert _generator_basis(w) == substituted_basis(w)

    def test_images_computed_once_per_weight(self, monkeypatch):
        calls, products = [], []

        def counted(e):
            calls.append(e)
            return hecke_image(e)

        def counted_product(f, g):
            products.append(g)
            return _dominant_product(f, g)

        monkeypatch.setattr(series, "hecke_image", counted)
        monkeypatch.setattr(series, "_dominant_product", counted_product)
        series._monomial_image.cache_clear()
        _generator_basis.cache_clear()
        for target, w in theorem_systems():
            express_in_generators(target, w)
        # weights 0..6 have 1, 1, 4, 4, 10, 10 and 20 generator monomials: 50
        # decompositions, against 68 for one basis per system, each but the
        # constant's one product with a generator image; the basis substitutes
        # nothing, and each system adds one substitution check
        assert series._monomial_image.cache_info().misses == 50
        assert len(products) == 49
        assert len(calls) == 10
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
        with pytest.raises(ValueError):
            QCoefficients((HeckeExpr.const(1),) * 8)

    def test_qcoefficients_value_semantics(self):
        qc = q3_in_generators()
        other = QCoefficients(tuple(qc.t))
        assert other == qc and hash(other) == hash(qc)
        assert qc != QCoefficients(qc.t[:8] + (HeckeExpr.const(0),))
        assert qc != qc.t
        assert repr(qc) == f"QCoefficients(t={qc.t!r})"
        with pytest.raises(AttributeError):
            qc.t = other.t


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
