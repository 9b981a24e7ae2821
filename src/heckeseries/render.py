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
    if not any(sig):  # msym of the zero signature is 1
        return ""
    body = ",".join(str(v) for v in sig)
    return f"\\mathit{{sym}}_{{{body}}}" if tex else f"sym[{body}]"


def _sum_text(pairs, tex: bool) -> str:
    """The sum of one "c * name" term per (coefficient, name) pair: the name
    alone for the coefficient 1, the coefficient alone for the unit term (no
    name), and "0" for no pairs."""
    sep = "" if tex else " * "
    parts = []
    for c, name in pairs:
        coeff = laurent_text(c, tex)
        if not name:
            parts.append(coeff)
        elif coeff == "1":
            parts.append(name)
        else:
            parts.append(f"{coeff}{sep}{name}")
    return " + ".join(parts) or "0"


def symmetric_text(a: XPoly, tex: bool = False) -> str:
    """Render a symmetric polynomial as a sum of coefficient * sym terms.

    Signatures appear in ascending lexicographic order; an x0-power
    prefixes the whole sum when present.
    """
    w = x0_weight(a)
    decomp = to_msym(a)
    body = _sum_text(((decomp[sig], _sym_name(sig, tex)) for sig in sorted(decomp)), tex)
    if w == 0:
        return body
    if len(decomp) > 1:
        body = f"({body})"
    x0 = monomial_text((w,), ("x_0" if tex else "x0",), tex)
    return f"{x0}{'' if tex else ' * '}{body}"


def hecke_text(e: HeckeExpr, tex: bool = False) -> str:
    names = (
        ("\\mathbf{T}(p)", "\\mathbf{T}_1(p^2)", "\\mathbf{T}_2(p^2)", "[\\mathbf{p}]_3")
        if tex
        else GENERATOR_NAMES
    )
    return _sum_text(((c, monomial_text(g, names, tex)) for g, c in e.sorted_terms()), tex)


def series_text(s: VSeries, tex: bool = False) -> str:
    return "\n".join(f"v^{k}: {symmetric_text(c, tex)}" for k, c in enumerate(s.coeffs))


def hecke_series_text(coeffs, tex: bool = False) -> str:
    return "\n".join(f"v^{k}: {hecke_text(e, tex)}" for k, e in enumerate(coeffs))
