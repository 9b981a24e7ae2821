"""Unit tests for the monomial symmetric basis machinery."""

from itertools import combinations_with_replacement, permutations
from math import factorial

import pytest

from heckeseries.algebra import PrimeLaurent, VSeries, XPoly
from heckeseries.errors import IndexOutOfRange, LengthMismatch, NotSymmetric
from heckeseries.symmetric import (
    elem,
    from_msym,
    msym,
    signatures,
    signatures_of_degree,
    to_msym,
    x0_weight,
)


def all_signatures(max_part, n):
    return {
        tuple(sorted(parts, reverse=True))
        for parts in combinations_with_replacement(range(max_part + 1), n)
    }


class TestMsym:
    def test_sym_110(self):
        expected = XPoly(4, {(0, 1, 1, 0): 1, (0, 1, 0, 1): 1, (0, 0, 1, 1): 1})
        assert msym((1, 1, 0), 3) == expected

    def test_sym_000(self):
        assert msym((0, 0, 0), 3) == XPoly.constant(4, 1)

    def test_sym_432_has_six_monomials(self):
        a = msym((4, 3, 2), 3)
        assert len(a.terms) == 6
        assert set(a.terms) == {(0,) + perm for perm in permutations((4, 3, 2))}
        assert all(c == PrimeLaurent.const(1) for c in a.terms.values())

    def test_rejects_bad_signature(self):
        with pytest.raises(LengthMismatch):
            msym((1, 2), 3)
        with pytest.raises(LengthMismatch):
            msym((0, 1, 2), 3)
        with pytest.raises(LengthMismatch):
            msym((1, 0, -1), 3)

    def test_stabilizer_counting(self):
        for sig in all_signatures(4, 3):
            stab = 1
            mult = {}
            for part in sig:
                mult[part] = mult.get(part, 0) + 1
            for m in mult.values():
                stab *= factorial(m)
            assert len(msym(sig, 3).terms) == factorial(3) // stab


class TestSignatures:
    def test_every_signature_once_by_degree(self):
        for n in range(4):
            for hi in range(6):
                got = list(signatures(hi, n))
                assert len(got) == len(set(got))
                assert got == sorted(all_signatures(hi, n), key=lambda sig: (sum(sig), [-part for part in sig]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_of_degree_are_those_of_signatures(self, n):
        for hi in range(6):
            for d in range(n * hi + 2):
                assert list(signatures_of_degree(d, hi, n)) == [a for a in signatures(hi, n) if sum(a) == d]


class TestElem:
    def test_elem0(self):
        assert elem(0, 3) == XPoly.constant(4, 1)

    def test_elem2_equals_sym110(self):
        assert elem(2, 3) == msym((1, 1, 0), 3)

    def test_elem3(self):
        assert elem(3, 3) == XPoly.monomial(4, (0, 1, 1, 1))

    @pytest.mark.parametrize("i", [-1, 4])
    def test_index_outside_0_to_n_refused(self, i):
        with pytest.raises(IndexOutOfRange):
            elem(i, 3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generating_function(self, n):
        # elem(k, n) is the v^k coefficient of prod_i (1 + x_i v)
        nv = n + 1
        gen = VSeries.one(n, nv)
        for i in range(1, nv):
            gen = gen * VSeries.from_dict(n, nv, {0: XPoly.constant(nv, 1), 1: XPoly.variable(nv, i)})
        assert gen.coeffs == tuple(elem(k, n) for k in range(n + 1))


class TestToMsym:
    def test_generator_image_decomposition(self):
        x0, x1, x2, x3 = (XPoly.variable(4, i) for i in range(4))
        one = XPoly.constant(4, 1)
        a = x0 * (one + x1) * (one + x2) * (one + x3)
        assert x0_weight(a) == 1
        assert to_msym(a) == {
            (0, 0, 0): PrimeLaurent.const(1),
            (1, 0, 0): PrimeLaurent.const(1),
            (1, 1, 0): PrimeLaurent.const(1),
            (1, 1, 1): PrimeLaurent.const(1),
        }

    def test_elem_decomposition(self):
        assert to_msym(elem(2, 3)) == {(1, 1, 0): PrimeLaurent.const(1)}

    def test_round_trip_parts_up_to_6(self):
        one = PrimeLaurent.const(1)
        for sig in all_signatures(6, 3):
            assert to_msym(msym(sig, 3)) == {sig: one}

    def test_from_msym_inverse(self):
        decomp = {(2, 1, 0): PrimeLaurent.p_power(-2), (1, 1, 1): PrimeLaurent.const(3)}
        rebuilt = from_msym(decomp, 3, weight=2)
        assert x0_weight(rebuilt) == 2
        assert to_msym(rebuilt) == decomp

    def test_not_symmetric_raises(self):
        with pytest.raises(NotSymmetric):
            to_msym(XPoly.monomial(4, (0, 2, 1, 0)))

    def test_mixed_weights_raise(self):
        a = XPoly(4, {(1, 1, 0, 0): 1, (2, 0, 1, 0): 1})
        with pytest.raises(NotSymmetric):
            x0_weight(a)

