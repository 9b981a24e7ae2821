"""End-to-end verification checks.

Each check recomputes one published identity from scratch and compares
exactly.  The CLI `verify-all` subcommand and the acceptance test suite
both run this list.
"""

from __future__ import annotations

import random
from fractions import Fraction
from .algebra import PrimeLaurent, VSeries, XPoly
from .golden import golden_decomposition, golden_order
from .series import (
    DEFAULT_ORDER,
    HeckeExpr,
    functional_eq_check,
    hecke_image,
    p3_closed_form,
    p3_in_generators,
    p_numerator,
    q3_in_generators,
    q_poly,
    specialize_nu,
    express_in_generators,
)
from .spherical import (
    coset_count,
    omega_cosets,
    omega_hl,
    sm,
    sp_image_pbracket,
    sp_image_Ti,
    sp_image_Tp,
)
from .symmetric import elem, from_msym, msym, signatures, to_msym


def check_golden_table():
    """All 28 tabulated omega values, exactly."""
    for lam in golden_order():
        if to_msym(omega_hl(lam, 3)) != golden_decomposition(lam):
            return False, f"mismatch at lambda={lam}"
    return True, "28/28 values match"


def check_oracle_equivalence():
    """Closed form vs coset enumeration at concrete primes."""
    cases = 0
    for n, max_part, primes in ((1, 4, (2, 3, 5)), (2, 4, (2, 3, 5)), (3, 3, (2, 3))):
        for lam in signatures(max_part, n):
            for q in primes:
                if omega_hl(lam, n).specialize_prime(q) != omega_cosets(lam, n, q):
                    return False, f"mismatch at lambda={lam}, n={n}, prime={q}"
                cases += 1
    return True, f"{cases} (signature, prime) cases agree"


def check_sp_images():
    """Generator images match the published displays, including sm_p(1,3)."""
    nv = 4
    x1, x2, x3 = (XPoly.variable(nv, i) for i in (1, 2, 3))
    expected_tp = XPoly.variable(nv, 0) * (1 + x1) * (1 + x2) * (1 + x3)
    if sp_image_Tp(3) != expected_tp:
        return False, "T(p) image mismatch"
    if sm(1, 3) != (PrimeLaurent.p_power(1) - 1) * PrimeLaurent({2: 1, 1: 1, 0: 1}):
        return False, "sm_p(1,3) mismatch"
    p_ = PrimeLaurent.p_power
    if sp_image_Ti(3, 3) != from_msym({(1, 1, 1): p_(-6)}, 3, 2):
        return False, "T_3(p^2) image mismatch"
    if sp_image_pbracket(3) != from_msym({(1, 1, 1): p_(-6)}, 3, 2):
        return False, "[p]_3 image mismatch"
    if sp_image_Ti(2, 3) != from_msym(
        {(1, 1, 0): p_(-3), (2, 1, 1): p_(-3), (1, 1, 1): p_(-3) - p_(-6)}, 3, 2
    ):
        return False, "T_2(p^2) image mismatch"
    pm1 = p_(1) - 1
    if sp_image_Ti(1, 3) != from_msym(
        {
            (2, 1, 1): p_(-3) * (p_(2) - 1),
            (2, 2, 1): p_(-1),
            (2, 1, 0): p_(-1),
            (1, 1, 1): p_(-4) * pm1 * PrimeLaurent({2: 3, 1: 2, 0: 1}),
            (1, 1, 0): p_(-3) * (p_(2) - 1),
            (1, 0, 0): p_(-1),
        },
        3,
        2,
    ):
        return False, "T_1(p^2) image mismatch"
    return True, "T(p), T_i(p^2), [p]_3 images match"


def _expected_p3() -> VSeries:
    nv = 4
    p_ = PrimeLaurent.p_power
    v3c = p_(-2) * (p_(1) + 1)
    return VSeries(
        6,
        [
            XPoly.constant(nv, 1),
            XPoly(nv),
            -from_msym({(2, 1, 1): p_(-1), (1, 1, 1): p_(-2) * PrimeLaurent({2: 1, 1: 1, 0: 1}), (1, 1, 0): p_(-1)}, 3, 2),
            from_msym({(2, 2, 2): v3c, (2, 2, 1): v3c, (2, 1, 1): v3c, (1, 1, 1): v3c}, 3, 3),
            -from_msym({(3, 2, 2): p_(-2), (2, 2, 2): p_(-3) * PrimeLaurent({2: 1, 1: 1, 0: 1}), (2, 2, 1): p_(-2)}, 3, 4),
            XPoly(nv),
            from_msym({(3, 3, 3): p_(-3)}, 3, 6),
        ],
    )


def check_numerator_identity():
    """R_3 Q_3, formed on the alternant sums (``p_numerator``), has a vanishing
    tail and matches the frozen expansion; the closed form agrees."""
    num = p_numerator(3, DEFAULT_ORDER)  # raises NonVanishingTail on failure
    if num != _expected_p3():
        return False, "numerator differs from the published polynomial"
    closed = p3_closed_form(DEFAULT_ORDER)
    if closed.truncate(6) != num or closed.degree() > 6:
        return False, "closed-form route disagrees"
    return True, "v^7..v^12 vanish; v^0..v^6 match; closed form agrees"


def check_low_genus():
    nv2, nv3 = 2, 3
    p1 = p_numerator(1, 8)
    if p1 != VSeries.one(0, nv2):
        return False, "genus-1 numerator is not 1"
    p2 = p_numerator(2, 10)
    expected = VSeries.from_dict(
        2,
        nv3,
        {
            0: XPoly.constant(nv3, 1),
            2: XPoly.monomial(nv3, (2, 1, 1), -PrimeLaurent.p_power(-1)),
        },
    )
    if p2 != expected:
        return False, "genus-2 numerator mismatch"
    return True, "P_1 = 1 and P_2 = 1 - x0^2 x1 x2 v^2 / p"


def image_mismatch(exprs, expanded: VSeries):
    """The first k where the image of exprs[k] differs from the v^k coefficient, else None."""
    return next(
        (k for k, e in enumerate(exprs) if hecke_image(e) != expanded.coeffs[k]), None
    )


def check_theorem1():
    coeffs = p3_in_generators()
    k = image_mismatch(coeffs, p_numerator(3, DEFAULT_ORDER))
    if k is not None:
        return False, f"v^{k} coefficient image mismatch"
    lead = HeckeExpr({(0, 0, 0, 3): PrimeLaurent.p_power(15)})
    if coeffs[6] != lead:
        return False, "leading term is not p^15 [p]_3^3"
    # the general leading-term formula (-1)^(n-1) p^(n(n+1)2^(n-2) - n^2) [p]^(2^(n-1)-1) at n=3
    n = 3
    exponent = n * (n + 1) * 2 ** (n - 2) - n * n
    sign = (-1) ** (n - 1)
    if lead != HeckeExpr({(0, 0, 0, 2 ** (n - 1) - 1): PrimeLaurent.p_power(exponent) * sign}):
        return False, "leading term disagrees with the general formula"
    return True, "generator form reproduces the numerator; leading term p^15 [p]_3^3"


#: published indeterminate coefficients, keyed by (v-power, generator tuple)
EXPECTED_K = {
    2: {
        (0, 1, 0, 0): PrimeLaurent.p_power(1),
        (0, 0, 1, 0): PrimeLaurent({3: 1, 1: 1}),
        (0, 0, 0, 1): PrimeLaurent({5: 1, 3: 2, 1: 1}),
        (2, 0, 0, 0): PrimeLaurent(),
    },
    3: {
        (1, 1, 0, 0): PrimeLaurent(),
        (1, 0, 1, 0): PrimeLaurent({3: -1}),
        (1, 0, 0, 1): PrimeLaurent({3: -1}),
        (3, 0, 0, 0): PrimeLaurent(),
    },
    4: {
        (0, 2, 0, 0): PrimeLaurent(),
        (0, 1, 1, 0): PrimeLaurent(),
        (0, 1, 0, 1): PrimeLaurent({7: -2}),
        (0, 0, 2, 0): PrimeLaurent.p_power(6),
        (0, 0, 1, 1): PrimeLaurent({7: -2, 6: 2}),
        (0, 0, 0, 2): PrimeLaurent({12: -1, 11: -2, 9: -2, 7: -2, 6: 1}),
        (2, 1, 0, 0): PrimeLaurent(),
        (2, 0, 1, 0): PrimeLaurent(),
        (2, 0, 0, 1): PrimeLaurent.p_power(6),
        (4, 0, 0, 0): PrimeLaurent(),
    },
}


def check_k_table():
    """The indeterminate-coefficient solve reproduces every published K value."""
    q = q_poly(3)
    checked = 0
    for k, expected in EXPECTED_K.items():
        sol = express_in_generators(q.coeffs[k], k)
        for g, val in expected.items():
            got = sol.terms.get(g, PrimeLaurent())
            if got != val:
                return False, f"K mismatch at v^{k}, generators {g}: {got} != {val}"
            checked += 1
    return True, f"{checked} K coefficients match (zeros included)"


def check_functional_equation():
    qc = q3_in_generators()  # raises FunctionalEquationViolated on image mismatch
    if not functional_eq_check(qc):
        return False, "functional equation fails"
    k = image_mismatch(qc.t, q_poly(3))
    if k is not None:
        return False, f"t_{k} image mismatch"
    return True, "t_{8-i} = (p^6 [p]_3)^(4-i) t_i and all nine images match"


def check_specialization():
    spec = specialize_nu(p_numerator(3, DEFAULT_ORDER))
    nv = 4
    p_ = PrimeLaurent.p_power

    def const_series(entries):
        return VSeries.from_dict(
            6, nv, {k: XPoly.constant(nv, c) for k, c in entries.items()}
        )

    expanded = const_series(
        {
            0: PrimeLaurent.const(1),
            2: PrimeLaurent({8: -1, 7: -1, 6: -2, 5: -1, 4: -2, 3: -1, 2: -1}),
            3: PrimeLaurent({11: 1, 10: 2, 9: 2, 8: 3, 7: 3, 6: 2, 5: 2, 4: 1}),
            4: PrimeLaurent({13: -1, 12: -1, 11: -2, 10: -1, 9: -2, 8: -1, 7: -1}),
            6: p_(15),
        }
    )
    if spec != expanded:
        return False, "expanded specialization mismatch"
    factors = VSeries.one(6, nv)
    for k in (1, 2, 3, 4):
        factors = factors * const_series({0: PrimeLaurent.const(1), 1: -p_(k)})
    factors = factors * const_series(
        {0: PrimeLaurent.const(1), 1: PrimeLaurent({1: 1, 2: 1, 3: 1, 4: 1}), 2: p_(5)}
    )
    if spec != factors:
        return False, "factored specialization mismatch"
    return True, "expanded polynomial and 5-factor product both match"


def _random_laurent(rng, nterms=3):
    return PrimeLaurent(
        {rng.randint(-3, 3): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(nterms)}
    )


def _random_xpoly(rng, nvars=3, nterms=4, max_exp=3):
    return XPoly(
        nvars,
        {
            tuple(rng.randint(0, max_exp) for _ in range(nvars)): _random_laurent(rng)
            for _ in range(nterms)
        },
    )


def check_properties():
    """Randomized algebra properties and the sym construction cross-check."""
    rng = random.Random(20240824)
    for lam in signatures(6, 3):
        if to_msym(msym(lam, 3)) != {lam: PrimeLaurent.const(1)}:
            return False, f"msym round trip fails at {lam}"
    nv = 4
    gen = VSeries.one(3, nv)
    for i in (1, 2, 3):
        gen = gen * VSeries.from_dict(3, nv, {0: XPoly.constant(nv, 1), 1: XPoly.variable(nv, i)})
    for k in range(4):
        if gen.coeffs[k] != elem(k, 3):
            return False, f"elem({k}, 3) is not the v^{k} coefficient of prod (1 + x_i v)"
    for _ in range(25):
        a = _random_xpoly(rng, max_exp=2)
        b = _random_xpoly(rng, max_exp=2)
        sub = {i: _random_xpoly(rng, nterms=2, max_exp=1) for i in range(3)}
        if (a * b).substitute(sub) != a.substitute(sub) * b.substitute(sub):
            return False, "substitution is not a homomorphism"
    for _ in range(5):
        coeffs = [XPoly.constant(nv, 1)] + [
            _random_xpoly(rng, nvars=nv, nterms=2, max_exp=2) for _ in range(6)
        ]
        s = VSeries(6, coeffs)
        if s * s.recip() != VSeries.one(6, nv):
            return False, "series reciprocal fails"
    return True, "round trips, sym construction, reciprocal, homomorphism all hold"


def check_coset_counts():
    for q in (2, 3, 5):
        if coset_count((1, 0, 0), 3, q) != q * q + q + 1:
            return False, f"coset count wrong at prime {q}"
    return True, "det-p coset counts equal p^2 + p + 1"


ALL_CHECKS = [
    ("golden omega table (28 values)", check_golden_table),
    ("coset-enumeration oracle equivalence", check_oracle_equivalence),
    ("symplectic generator images", check_sp_images),
    ("genus-3 numerator identity", check_numerator_identity),
    ("low-genus numerators", check_low_genus),
    ("numerator over the Hecke ring", check_theorem1),
    ("indeterminate-coefficient K table", check_k_table),
    ("functional equation / denominator", check_functional_equation),
    ("degree specialization", check_specialization),
    ("property suites", check_properties),
    ("coset count sanity", check_coset_counts),
]


def run_all(report=print) -> bool:
    ok_all = True
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a raised check is a failed check
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        ok_all &= ok
        report(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok_all
