"""Each certificate fails when one of its inputs is corrupted.

A check that cannot fail certifies nothing.  Every test here corrupts one
input through ``monkeypatch`` and asserts the exact failure: the exception
and its text, the ``verify-all`` record in text and JSON with exit 1, and,
for the genus-3 theorems, the CLI's exit 1 with one line on stderr.
"""

import json
from types import SimpleNamespace

import pytest

from heckeseries import series, verify
from heckeseries.algebra import PrimeLaurent, VSeries, XPoly
from heckeseries.cli import run
from heckeseries.errors import FunctionalEquationViolated, NonVanishingTail, NoSolution
from heckeseries.series import HeckeExpr, P_BRACKET, T_P, hecke_image

#: the checks of verify.ALL_CHECKS, by name
CHECKS = dict(verify.ALL_CHECKS)
#: the certifying function and the verify-all check of each genus-3 theorem
THEOREMS = {
    "theorem1": (series.p3_in_generators, "numerator over the Hecke ring"),
    "theorem2": (series.q3_in_generators, "functional equation / denominator"),
}


def verify_all(capsys, monkeypatch, name):
    """(exit status, text output, JSON records) of verify-all run on the one check."""
    monkeypatch.setattr(verify, "ALL_CHECKS", [(name, CHECKS[name])])
    code = run(["verify-all"])
    text = capsys.readouterr().out
    json_code = run(["--format", "json", "verify-all"])
    assert json_code == code
    return code, text, json.loads(capsys.readouterr().out)


def p3_plus(k, extra):
    """series.p_numerator, with extra added to P_3's v^k coefficient."""
    real = series.p_numerator

    def corrupted(n, N):
        num = real(n, N)
        coeffs = list(num.coeffs)
        coeffs[k] = coeffs[k] + extra
        return VSeries(num.order, coeffs)

    return corrupted


def basis_with_t2_off():
    """series._generator_basis, with T_2(p^2)'s coefficient of m_(1,1,1) at
    x0-weight 2 one too large.  That is [p]_3's pivot row and not a check row
    of the solve, which stays consistent and gives [p]_3 a wrong coefficient
    in every target where T_2(p^2)'s is nonzero: P_3's v^2 and Q_3's t_2."""
    real = series._generator_basis

    def corrupted(w):
        monomials, decomps = real(w)
        if w != 2:
            return monomials, decomps
        i = monomials.index((0, 0, 1, 0))
        decomp = tuple((sig, c + 1 if sig == (1, 1, 1) else c) for sig, c in decomps[i])
        return monomials, decomps[:i] + (decomp,) + decomps[i + 1 :]

    return corrupted


def basis_with_tp_doubled():
    """series._generator_basis, with T(p)'s image at x0-weight 1 decomposed as
    twice what it is.  The solve stays consistent and gives Q_3's t_1 as
    -T(p)/2, which only the substitution check refuses.  P_3's v^1 is zero,
    and so is its solution, so theorem1 still holds."""
    real = series._generator_basis

    def corrupted(w):
        monomials, decomps = real(w)
        if w != 1:
            return monomials, decomps
        return monomials, tuple(tuple((sig, c * 2) for sig, c in decomp) for decomp in decomps)

    return corrupted


#: id -> (name in series, its corrupted value, exception, text, the theorems it fails)
RAISING = {
    "substitution": (
        "_generator_basis",
        basis_with_t2_off,
        NoSolution,
        "solution failed the substitution check",
        ("theorem1", "theorem2"),
    ),
    "v1": (
        "p_numerator",
        lambda: p3_plus(1, hecke_image(T_P)),
        NonVanishingTail,
        "numerator has unexpected v^1 or v^5 terms",
        ("theorem1",),
    ),
    "v5": (
        "p_numerator",
        lambda: p3_plus(5, hecke_image(T_P * P_BRACKET**2)),
        NonVanishingTail,
        "numerator has unexpected v^1 or v^5 terms",
        ("theorem1",),
    ),
    "lead": (
        "p_numerator",
        lambda: p3_plus(6, hecke_image(HeckeExpr({(0, 0, 0, 3): PrimeLaurent.p_power(15)}))),
        FunctionalEquationViolated,
        "leading term 2*p^15*[p]3^3 != p^15 [p]_3^3",
        ("theorem1",),
    ),
    "substitution-t1": (
        "_generator_basis",
        basis_with_tp_doubled,
        NoSolution,
        "solution failed the substitution check",
        ("theorem2",),
    ),
    "image-t5": (
        "P_BRACKET",
        lambda: P_BRACKET * 2,
        FunctionalEquationViolated,
        "t_5 does not reproduce the v^5 coefficient of the denominator",
        ("theorem2",),
    ),
}


@pytest.mark.usefixtures("fresh_theorem_caches")
@pytest.mark.parametrize("case", RAISING)
def test_raising_certificate_fails(case, capsys, monkeypatch):
    name, corrupted, error, text, theorems = RAISING[case]
    monkeypatch.setattr(series, name, corrupted())
    for theorem in theorems:
        certify, check = THEOREMS[theorem]
        with pytest.raises(error) as exc:
            certify()
        assert str(exc.value) == text
        detail = f"{error.__name__}: {text}"
        assert verify_all(capsys, monkeypatch, check) == (
            1,
            f"[FAIL] {check}: {detail}\n",
            [{"name": check, "ok": False, "detail": detail}],
        )
        for fmt in ("text", "json", "latex"):
            assert run(["--format", fmt, theorem]) == 1
            assert capsys.readouterr() == ("", f"heckeseries: error: {text}\n")


def corrupt_where(fn, when=lambda *args: True, corrupt=lambda value: value * 2):
    """fn, with its value corrupted on the arguments where when holds."""
    return lambda *args: corrupt(fn(*args)) if when(*args) else fn(*args)


def doubled(s):
    return s + s


def plus_v12(s):
    """s, a series to v^12, with 1 added to its v^12 coefficient."""
    return VSeries(12, s.coeffs[:12] + (s.coeffs[12] + XPoly.constant(4, 1),))


#: XPoly.substitute as it is, for the corrupted substitution below
SUBSTITUTE = XPoly.substitute


#: id -> (check name, detail, the corruption as (target, attribute name, value))
COMPARISONS = {
    "golden": (
        "golden omega table (28 values)",
        "mismatch at lambda=(6, 6, 0)",
        (verify, "golden_decomposition", corrupt_where(verify.golden_decomposition, lambda lam: lam == (6, 6, 0), lambda decomp: {})),
    ),
    "oracle": (
        "coset-enumeration oracle equivalence",
        "mismatch at lambda=(3, 3, 3), n=3, prime=3",
        (verify, "omega_cosets", corrupt_where(verify.omega_cosets, when=lambda lam, n, q: (lam, q) == ((3, 3, 3), 3))),
    ),
    "image-Tp": (
        "symplectic generator images",
        "T(p) image mismatch",
        (verify, "sp_image_Tp", corrupt_where(verify.sp_image_Tp)),
    ),
    "sm": (
        "symplectic generator images",
        "sm_p(1,3) mismatch",
        (verify, "sm", corrupt_where(verify.sm)),
    ),
    "image-T3": (
        "symplectic generator images",
        "T_3(p^2) image mismatch",
        (verify, "sp_image_Ti", corrupt_where(verify.sp_image_Ti, when=lambda i, n: i == 3)),
    ),
    "image-pbracket": (
        "symplectic generator images",
        "[p]_3 image mismatch",
        (verify, "sp_image_pbracket", corrupt_where(verify.sp_image_pbracket)),
    ),
    "image-T2": (
        "symplectic generator images",
        "T_2(p^2) image mismatch",
        (verify, "sp_image_Ti", corrupt_where(verify.sp_image_Ti, when=lambda i, n: i == 2)),
    ),
    "image-T1": (
        "symplectic generator images",
        "T_1(p^2) image mismatch",
        (verify, "sp_image_Ti", corrupt_where(verify.sp_image_Ti, when=lambda i, n: i == 1)),
    ),
    "p3": (
        "genus-3 numerator identity",
        "numerator differs from the published polynomial",
        (verify, "_expected_p3", lambda: VSeries.one(6, 4)),
    ),
    "closed-head": (
        "genus-3 numerator identity",
        "closed-form route disagrees",
        (verify, "p3_closed_form", corrupt_where(verify.p3_closed_form, corrupt=doubled)),
    ),
    "closed-tail": (
        "genus-3 numerator identity",
        "closed-form route disagrees",
        (verify, "p3_closed_form", corrupt_where(verify.p3_closed_form, corrupt=plus_v12)),
    ),
    "genus1": (
        "low-genus numerators",
        "genus-1 numerator is not 1",
        (verify, "p_numerator", corrupt_where(verify.p_numerator, lambda n, N: n == 1, doubled)),
    ),
    "genus2": (
        "low-genus numerators",
        "genus-2 numerator mismatch",
        (verify, "p_numerator", corrupt_where(verify.p_numerator, lambda n, N: n == 2, doubled)),
    ),
    "k-table": (
        "indeterminate-coefficient K table",
        "K mismatch at v^4, generators (4, 0, 0, 0): 0 != p",
        (verify.EXPECTED_K[4], (4, 0, 0, 0), PrimeLaurent.p_power(1)),
    ),
    "special-expanded": (
        "degree specialization",
        "expanded specialization mismatch",
        (verify, "specialize_nu", corrupt_where(verify.specialize_nu, corrupt=doubled)),
    ),
    "special-factored": (
        "degree specialization",
        "factored specialization mismatch",
        (verify, "VSeries", SimpleNamespace(one=corrupt_where(VSeries.one, corrupt=doubled), from_dict=VSeries.from_dict)),
    ),
    "msym": (
        "property suites",
        "msym round trip fails at (6, 6, 6)",
        (verify, "msym", corrupt_where(verify.msym, when=lambda lam, n: lam == (6, 6, 6))),
    ),
    "elem": (
        "property suites",
        "elem(3, 3) is not the v^3 coefficient of prod (1 + x_i v)",
        (verify, "elem", corrupt_where(verify.elem, when=lambda k, n: k == 3)),
    ),
    "homomorphism": (
        "property suites",
        "substitution is not a homomorphism",
        (XPoly, "substitute", lambda self, sub: SUBSTITUTE(self, sub) + XPoly.constant(3, 1)),
    ),
    "reciprocal": (
        "property suites",
        "series reciprocal fails",
        (VSeries, "recip", lambda self: self),
    ),
    "coset-count": (
        "coset count sanity",
        "coset count wrong at prime 5",
        (verify, "coset_count", corrupt_where(verify.coset_count, when=lambda lam, n, q: q == 5)),
    ),
}


@pytest.mark.parametrize("case", COMPARISONS)
def test_verify_comparison_fails(case, capsys, monkeypatch):
    name, detail, (target, attr, value) = COMPARISONS[case]
    if isinstance(target, dict):
        monkeypatch.setitem(target, attr, value)
    else:
        monkeypatch.setattr(target, attr, value)
    assert CHECKS[name]() == (False, detail)
    assert verify_all(capsys, monkeypatch, name) == (
        1,
        f"[FAIL] {name}: {detail}\n",
        [{"name": name, "ok": False, "detail": detail}],
    )
