"""Text, LaTeX and JSON rendering of results in the sym[i1,i2,i3] notation."""

from __future__ import annotations

from fractions import Fraction

from .algebra import PrimeLaurent, VSeries, XPoly, monomial_text
from .series import HeckeExpr, GENERATOR_NAMES
from .symmetric import to_msym, x0_weight


def _num_term(coeff: int | Fraction, exp: int, tex: bool) -> str:
    """One numerator term c*p^e with no leading sign for positive c."""
    if coeff.denominator != 1:
        cs = f"{coeff.numerator}/{coeff.denominator}" if not tex else f"\\tfrac{{{coeff.numerator}}}{{{coeff.denominator}}}"
    else:
        cs = str(coeff.numerator)
    if exp == 0:
        return cs
    pw = "p" if exp == 1 else (f"p^{exp}" if not tex else f"p^{{{exp}}}")
    if cs == "1":
        return pw
    if cs == "-1":
        return f"-{pw}"
    return f"{cs}*{pw}" if not tex else f"{cs}{pw}"


def laurent_text(c: PrimeLaurent, tex: bool = False) -> str:
    """Render a Laurent coefficient as (integer polynomial)/p^k."""
    if c.is_zero():
        return "0"
    shift = -c.min_exp() if c.min_exp() < 0 else 0
    exps = sorted(c.terms, reverse=True)
    parts = []
    for e in exps:
        term = _num_term(c.terms[e], e + shift, tex)
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    num = "".join(parts)
    if shift == 0:
        return f"({num})" if len(parts) > 1 else num
    den = "p" if shift == 1 else (f"p^{shift}" if not tex else f"p^{{{shift}}}")
    if tex:
        return f"\\frac{{{num}}}{{{den}}}"
    if len(parts) > 1:
        num = f"({num})"
    return f"{num}/{den}"


def _sym_name(sig, tex: bool) -> str:
    body = ",".join(str(v) for v in sig)
    return f"\\mathit{{sym}}_{{{body}}}" if tex else f"sym[{body}]"


def symmetric_text(a: XPoly, tex: bool = False) -> str:
    """Render a symmetric polynomial as a sum of coefficient * sym terms.

    Signatures appear in ascending lexicographic order; an x0-power
    prefixes the whole sum when present.
    """
    if a.is_zero():
        return "0"
    w = x0_weight(a)
    decomp = to_msym(a)
    parts = []
    for sig in sorted(decomp):
        coeff = laurent_text(decomp[sig], tex)
        if sig == (0,) * (a.nvars - 1):
            parts.append(coeff)
        elif coeff == "1":
            parts.append(_sym_name(sig, tex))
        else:
            sep = "" if tex else " * "
            parts.append(f"{coeff}{sep}{_sym_name(sig, tex)}")
    body = " + ".join(parts)
    if w == 0:
        return body
    x0 = f"x0^{w}" if not tex else (f"x_0^{{{w}}}" if w > 1 else "x_0")
    if w == 1 and not tex:
        x0 = "x0"
    sep = "" if tex else " * "
    return f"{x0}{sep}({body})" if len(parts) > 1 else f"{x0}{sep}{parts[0]}"


def hecke_text(e: HeckeExpr, tex: bool = False) -> str:
    if e.is_zero():
        return "0"
    names = (
        ("\\mathbf{T}(p)", "\\mathbf{T}_1(p^2)", "\\mathbf{T}_2(p^2)", "[\\mathbf{p}]_3")
        if tex
        else GENERATOR_NAMES
    )
    parts = []
    for g, c in e.sorted_terms():
        mono = monomial_text(g, names, tex)
        coeff = laurent_text(c, tex)
        if not mono:
            parts.append(coeff)
        elif coeff == "1":
            parts.append(mono)
        else:
            sep = "" if tex else " * "
            parts.append(f"{coeff}{sep}{mono}")
    return " + ".join(parts)


def series_text(s: VSeries, tex: bool = False) -> str:
    lines = []
    for k, c in enumerate(s.coeffs):
        lines.append(f"v^{k}: {symmetric_text(c, tex) if c.terms else '0'}")
    return "\n".join(lines)


def hecke_series_text(coeffs, tex: bool = False) -> str:
    lines = []
    for k, e in enumerate(coeffs):
        lines.append(f"v^{k}: {hecke_text(e, tex)}")
    return "\n".join(lines)
