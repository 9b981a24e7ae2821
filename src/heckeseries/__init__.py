"""Exact computation and machine verification of the genus <= 3 symplectic
Hecke series: spherical-map images, the generating series, and the
numerator/denominator polynomials over the Hecke ring."""

from .algebra import PrimeLaurent, VSeries, XPoly, p
from .series import (
    HeckeExpr,
    QCoefficients,
    P_BRACKET,
    T1_P2,
    T2_P2,
    T_P,
    express_in_generators,
    functional_eq_check,
    hecke_image,
    p3_closed_form,
    p3_in_generators,
    p_numerator,
    q3_in_generators,
    q_poly,
    r_series,
    specialize_nu,
)
from .spherical import (
    omega_cosets,
    omega_hl,
    omega_pi,
    phi,
    sm,
    sp_image_pbracket,
    sp_image_Ti,
    sp_image_Tp,
)
from .symmetric import elem, from_msym, msym, to_msym, x0_weight

__version__ = "0.1.0"
