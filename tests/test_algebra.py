"""Unit tests for the exact arithmetic layer."""

import operator
import random
from fractions import Fraction

import pytest

from heckeseries.algebra import PrimeLaurent, VSeries, XPoly, p
from heckeseries.series import HeckeExpr
from heckeseries.spherical import omega_hl
from heckeseries.errors import (
    DivisionByZero,
    NonUnitConstantTerm,
    NotDivisible,
    UnassignedVariable,
    VarMismatch,
)


def pl(terms):
    return PrimeLaurent(terms)


class TestPrimeLaurent:
    def test_telescoping_product(self):
        assert (p - 1) * pl({2: 1, 1: 1, 0: 1}) == pl({3: 1, 0: -1})

    def test_additive_inverse_is_empty(self):
        a = p + 1
        assert (a + (-1) * a).terms == {}

    def test_phi3_expansion(self):
        prod = (p - 1) * (p**2 - 1) * (p**3 - 1)
        expected = pl({6: 1, 5: -1, 4: -1, 2: 1, 1: 1, 0: -1})
        assert prod == expected

    def test_div_exact_geometric(self):
        assert (p**3 - 1).div_exact(p - 1) == pl({2: 1, 1: 1, 0: 1})

    def test_div_exact_phi_quotient(self):
        phi1 = p - 1
        phi2 = (p - 1) * (p**2 - 1)
        phi3 = phi2 * (p**3 - 1)
        assert phi3.div_exact(phi1 * phi2) == pl({2: 1, 1: 1, 0: 1})

    def test_div_exact_remainder_raises(self):
        with pytest.raises(NotDivisible):
            (p**2 + 1).div_exact(p - 1)

    def test_div_by_zero_raises(self):
        with pytest.raises(DivisionByZero):
            (p - 1).div_exact(PrimeLaurent())
        with pytest.raises(DivisionByZero):
            PrimeLaurent().div_exact(PrimeLaurent())

    def test_unsupported_operand_raises_type_error(self):
        with pytest.raises(TypeError):
            "1" - p

    def test_div_exact_by_non_scalar_raises_type_error(self):
        with pytest.raises(TypeError):
            (p - 1).div_exact("x")

    @pytest.mark.parametrize("value", [0.1, 0.0, "1/2", 1j, None])
    def test_inexact_coefficient_raises_type_error(self, value):
        with pytest.raises(TypeError):
            PrimeLaurent({0: value})
        with pytest.raises(TypeError):
            PrimeLaurent.const(value)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: PrimeLaurent({1.5: 1}),
            lambda: PrimeLaurent({"1": 1}),
            lambda: XPoly(2, {(0.9, 1): 1}),
            lambda: XPoly(2, {(0, "1"): 1}),
            lambda: omega_hl((2.7, 1, 0), 3),
            lambda: omega_hl(("2", 1, 0), 3),
        ],
        ids=["laurent-float", "laurent-str", "xpoly-float", "xpoly-str", "signature-float", "signature-str"],
    )
    def test_inexact_exponent_raises_type_error(self, make):
        with pytest.raises(TypeError):
            make()

    def test_coefficients_are_canonical(self):
        a = pl({0: Fraction(4, 2), 1: Fraction(1, 2), 2: Fraction(0), 3: True})
        assert a.terms == {0: 2, 1: Fraction(1, 2), 3: 1}
        assert [type(c) for c in a.terms.values()] == [int, Fraction, int]
        assert pl({0: 2}) == pl({0: Fraction(2)}) and hash(pl({0: 2})) == hash(pl({0: Fraction(2)}))

    def test_div_exact_difference_of_squares(self):
        assert (p**2 - 1).div_exact(p - 1) == p + 1

    def test_multiplicity_normalization_value(self):
        # (1-t)(1-t^2)/(1-t)^2 at t = 1/p collapses to 1 + 1/p
        t = PrimeLaurent.p_power(-1)
        one = PrimeLaurent.const(1)
        assert ((one - t) * (one - t * t)).div_exact((one - t) * (one - t)) == pl({0: 1, -1: 1})

    def test_non_laurent_quotient_raises(self):
        with pytest.raises(NotDivisible):
            PrimeLaurent.const(1).div_exact(p - 1)

    def test_negative_exponents(self):
        a = PrimeLaurent.p_power(-3)
        assert a * PrimeLaurent.p_power(3) == 1
        assert a.evaluate(2) == Fraction(1, 8)

    def test_evaluate(self):
        assert (p**2 - p - 1).evaluate(3) == 5

    def test_pow(self):
        assert (p - 1) ** 3 == pl({3: 1, 2: -3, 1: 3, 0: -1})
        assert (p - 1) ** 0 == 1

    def test_json_round_trip(self):
        a = pl({3: Fraction(2, 3), -2: -5, 0: 1})
        assert PrimeLaurent.from_json(a.to_json()) == a

    def test_div_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(30):
            a = pl({rng.randint(-4, 4): rng.randint(-6, 6) for _ in range(3)})
            b = pl({rng.randint(-4, 4): rng.randint(-6, 6) for _ in range(3)})
            if b.is_zero():
                continue
            assert (a * b).div_exact(b) == a


def variables(nv):
    return [XPoly.variable(nv, i) for i in range(nv)]


class TestXPoly:
    def test_difference_of_squares(self):
        _, x1 = variables(2)
        one = XPoly.constant(2, 1)
        assert (one + x1) * (one - x1) == one - x1 * x1

    def test_product_of_linear_factors(self):
        x0, x1, x2, x3 = variables(4)
        one = XPoly.constant(4, 1)
        prod = x0 * (one + x1) * (one + x2) * (one + x3)
        expected = XPoly(
            4,
            {
                (1, 0, 0, 0): 1,
                (1, 1, 0, 0): 1,
                (1, 0, 1, 0): 1,
                (1, 0, 0, 1): 1,
                (1, 1, 1, 0): 1,
                (1, 1, 0, 1): 1,
                (1, 0, 1, 1): 1,
                (1, 1, 1, 1): 1,
            },
        )
        assert prod == expected

    def test_additive_identity_random(self):
        rng = random.Random(11)
        for _ in range(10):
            a = XPoly(
                3,
                {
                    (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-5, 5)
                    for _ in range(4)
                },
            )
            assert a + XPoly(3) == a

    def test_div_exact(self):
        _, x1, x2 = variables(3)
        assert (x1 * x1 - x2 * x2).div_exact(x1 - x2) == x1 + x2

    def test_div_exact_self(self):
        x0, x1, x2, x3 = variables(4)
        vdm = (x1 - x2) * (x1 - x3) * (x2 - x3)
        assert vdm.div_exact(vdm) == XPoly.constant(4, 1)

    def test_div_exact_raises(self):
        _, x1, x2 = variables(3)
        with pytest.raises(NotDivisible):
            (x1 * x1 + x2).div_exact(x1 - x2)

    def test_unsupported_operand_raises_type_error(self):
        with pytest.raises(TypeError):
            "1" - XPoly.variable(2, 0)

    def test_div_exact_by_non_scalar_raises_type_error(self):
        with pytest.raises(TypeError):
            XPoly.variable(2, 0).div_exact(1.5)

    @pytest.mark.parametrize("value", [0.5, 0.0, "1/2"])
    def test_inexact_coefficient_raises_type_error(self, value):
        with pytest.raises(TypeError):
            XPoly(1, {(1,): value})
        with pytest.raises(TypeError):
            XPoly.constant(2, value)
        with pytest.raises(TypeError):
            XPoly.variable(1, 0).substitute({0: value})

    def test_var_mismatch_raises(self):
        with pytest.raises(VarMismatch):
            XPoly.variable(2, 0) + XPoly.variable(3, 0)

    def test_negative_exponent_raises(self):
        with pytest.raises(VarMismatch):
            XPoly(4, {(-1, 0, 0, 0): 1})

    def test_large_exponents(self):
        big = XPoly.monomial(1, (70000,))
        assert big * big == XPoly.monomial(1, (140000,))
        assert (big * big).div_exact(big) == big
        mixed = XPoly(2, {(70000, 0): PrimeLaurent.p_power(-90000), (0, 3): 1})
        assert mixed * mixed == XPoly(
            2,
            {
                (140000, 0): PrimeLaurent.p_power(-180000),
                (70000, 3): PrimeLaurent.p_power(-90000) * 2,
                (0, 6): 1,
            },
        )

    def test_substitute_degree_map(self):
        # sym_{1,1,0} at x_i -> p^i gives p^3 + p^4 + p^5
        a = XPoly(4, {(0, 1, 1, 0): 1, (0, 1, 0, 1): 1, (0, 0, 1, 1): 1})
        nu = {0: 1, 1: p, 2: p**2, 3: p**3}
        assert a.substitute(nu) == XPoly.constant(4, pl({3: 1, 4: 1, 5: 1}))

    def test_substitute_identity(self):
        a = XPoly(3, {(1, 2, 0): pl({-1: 1}), (0, 1, 1): 3})
        ident = {i: XPoly.variable(3, i) for i in range(3)}
        assert a.substitute(ident) == a

    def test_substitute_monomial(self):
        a = XPoly.monomial(4, (2, 1, 1, 1))
        nu = {0: 1, 1: p, 2: p**2, 3: p**3}
        assert a.substitute(nu) == XPoly.constant(4, PrimeLaurent.p_power(6))

    def test_substitute_unassigned_raises(self):
        a = XPoly.monomial(3, (0, 1, 1))
        with pytest.raises(UnassignedVariable):
            a.substitute({1: 1})

    def test_json_round_trip(self):
        a = XPoly(3, {(1, 0, 2): pl({-2: Fraction(1, 3)}), (0, 0, 0): -1})
        assert XPoly.from_json(a.to_json()) == a

    def test_ring_axioms_random(self):
        rng = random.Random(13)

        def rand():
            return XPoly(
                3,
                {
                    tuple(rng.randint(0, 2) for _ in range(3)): pl(
                        {rng.randint(-2, 2): rng.randint(-4, 4)}
                    )
                    for _ in range(3)
                },
            )

        for _ in range(10):
            a, b, c = rand(), rand(), rand()
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_canonical_form_idempotent(self):
        a = XPoly(2, {(1, 1): 2, (0, 0): 0})
        assert XPoly(2, a.terms) == a
        assert (0, 0) not in a.terms


class TestVSeries:
    def test_difference_of_squares(self):
        nv = 2
        x0v = VSeries.from_dict(4, nv, {1: XPoly.variable(nv, 0)})
        one = VSeries.one(4, nv)
        prod = (one + x0v) * (one - x0v)
        assert prod == VSeries.from_dict(
            4, nv, {0: XPoly.constant(nv, 1), 2: -XPoly.monomial(nv, (2, 0))}
        )

    def test_truncation_order_is_min(self):
        a = VSeries.one(3, 2)
        b = VSeries.one(5, 2)
        assert (a * b).order == 3

    def test_recip_geometric(self):
        nv = 2
        s = VSeries.one(3, nv) - VSeries.from_dict(3, nv, {1: XPoly.variable(nv, 0)})
        assert s.recip() == VSeries.from_dict(
            3, nv, {k: XPoly.monomial(nv, (k, 0)) for k in range(4)}
        )

    def test_recip_of_one(self):
        assert VSeries.one(5, 3).recip() == VSeries.one(5, 3)

    def test_recip_requires_unit(self):
        s = VSeries.from_dict(3, 2, {0: XPoly.constant(2, 2)})
        with pytest.raises(NonUnitConstantTerm):
            s.recip()

    def test_recip_times_self(self):
        nv = 3
        s = VSeries.from_dict(
            5,
            nv,
            {
                0: XPoly.constant(nv, 1),
                1: XPoly.monomial(nv, (1, 1, 0), p - 1),
                2: XPoly.monomial(nv, (0, 0, 2), pl({-1: 1})),
            },
        )
        assert s * s.recip() == VSeries.one(5, nv)

    def test_degree(self):
        s = VSeries.from_dict(6, 2, {0: XPoly.constant(2, 1), 4: XPoly.variable(2, 1)})
        assert s.degree() == 4
        assert VSeries.from_dict(3, 2, {}).degree() == -1

    def test_from_dict_rejects_negative_powers(self):
        with pytest.raises(ValueError):
            VSeries.from_dict(3, 2, {-1: XPoly.variable(2, 1)})
        # entries above the order are dropped
        assert VSeries.from_dict(1, 2, {2: XPoly.variable(2, 1)}) == VSeries.from_dict(1, 2, {})

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_non_series_operand_raises_type_error(self, op):
        s = VSeries.one(2, 2)
        with pytest.raises(TypeError):
            op(s, 1)
        with pytest.raises(TypeError):
            op(1, s)

    def test_coefficient_outside_the_ring_raises_type_error(self):
        with pytest.raises(TypeError):
            VSeries(0, [1])
        with pytest.raises(TypeError):
            VSeries.from_dict(1, 2, {1: 5})

    def test_json_round_trip(self):
        s = VSeries.from_dict(
            2, 2, {0: XPoly.constant(2, 1), 2: XPoly.monomial(2, (1, 1), -1)}
        )
        assert VSeries.from_json(s.to_json()) == s


class TestHashing:
    """Equal values hash equal: a constant hashes like the scalar it equals."""

    @pytest.mark.parametrize(
        "value, scalar",
        [
            (PrimeLaurent.const(1), 1),
            (PrimeLaurent(), 0),
            (PrimeLaurent.const(Fraction(-2, 3)), Fraction(-2, 3)),
            (XPoly.constant(4, Fraction(1, 2)), Fraction(1, 2)),
            (XPoly(4), 0),
            (XPoly.constant(2, -7), -7),
            (HeckeExpr.const(3), 3),
            (HeckeExpr(), 0),
        ],
    )
    def test_constant_hashes_like_its_scalar(self, value, scalar):
        assert value == scalar
        assert hash(value) == hash(scalar)
        assert len({value, scalar}) == 1
        assert value in {scalar} and scalar in {value}
        assert {scalar: "found"}[value] == "found"

    def test_constant_in_p_hashes_like_its_laurent(self):
        x = XPoly.constant(3, p - 1)
        assert x == p - 1 and hash(x) == hash(p - 1)
        assert len({x, p - 1}) == 1

    def test_equal_non_constants_hash_equal(self):
        assert hash(pl({2: 1, -1: 3})) == hash(pl({-1: 3, 2: 1}))
        a = XPoly(2, {(1, 0): p, (0, 1): 2})
        assert hash(a) == hash(XPoly(2, {(0, 1): 2, (1, 0): p}))
