"""Deformed mass-shell condition: exact root and series for p0.p0.

The linearized deformation turns the mass-shell condition into a quadratic
in u = p0.p0:

    2 eps gamma^2 u^2 + u + (mc)^2 = 0.

We keep the root that tends to -(mc)^2 as the deformation vanishes.  With
q = eps gamma^2 (mc)^2 that root is

    u = (-1 + sqrt(1 - 8q)) / (4 eps gamma^2)
      = -2 (mc)^2 / (1 + sqrt(1 - 8q)),

where the second (rationalized) form is the same number with the
subtraction removed, so it keeps full significance all the way down to the
physical q ~ 1e-45 and needs no series switchover.  Everything here only
consumes the products eps*gamma^2 and (mc)^2, so "test units" mc = 1 are
fine.  solve_mass_shell alone decides what the shell answers.  In order, it
refuses mc not finite and > 0 (ValidationError "mc"), eps gamma^2 not finite
and >= 0 ("eps_gamma2"), 8q > 1 ("correction_scale": the params record's
TransPlanckianMassError), then a root that underflows (mc < ~1e-154) and so
would read as exact, or overflows ("mc").  Its q = (eps gamma^2)(mc)^2 can
differ in the last digits from the record's eps (gamma m c)^2, so near 1/8
the two verdicts can differ.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .units import TransPlanckianMassError, ValidationError, has_real_root


class DispersionSolution(NamedTuple):
    exact_root: float    # (g cm/s)^2-valued, negative for physical inputs
    series_root: float
    residual: float      # quadratic constraint at exact_root, relative to (mc)^2
    order: int


def p0sq_exact(mc: float, eps_gamma2: float) -> float:
    """Physical root of the deformed mass-shell quadratic."""
    mc2 = mc * mc
    if eps_gamma2 == 0.0:
        return -mc2
    q = eps_gamma2 * mc2
    if not has_real_root(q):
        raise TransPlanckianMassError(q)
    return -2.0 * mc2 / (1.0 + math.sqrt(1.0 - 8.0 * q))


def p0sq_series(mc: float, eps_gamma2: float, order: int = 1) -> float:
    """Series expansion of the root in q = eps gamma^2 (mc)^2.

    Expanding u = -2(mc)^2 / (1 + sqrt(1 - 8q)):
        sqrt(1 - 8q) = 1 - 4q - 8q^2 - 32q^3 - ...
        u = -(mc)^2 / (1 - 2q - 4q^2 - ...) = -(mc)^2 (1 + 2q + 8q^2 + ...)
    Order 1 keeps -(mc)^2 - 2 eps gamma^2 (mc)^4; order 2 appends -8 q^2 (mc)^2,
    a form in which no intermediate exceeds the root.
    """
    mc2 = mc * mc
    if order == 1:
        return -mc2 - 2.0 * eps_gamma2 * mc2 * mc2
    if order == 2:
        q = eps_gamma2 * mc2
        return -mc2 - 2.0 * eps_gamma2 * mc2 * mc2 - 8.0 * q * q * mc2
    raise ValidationError("order", f"unsupported series order {order!r} (use 1 or 2)")


def solve_mass_shell(mc: float, eps_gamma2: float,
                     order: int = 1) -> DispersionSolution:
    """Exact root, series root and residual; refuses as the module docstring says."""
    if not (mc > 0.0 and math.isfinite(mc)):
        raise ValidationError("mc", f"must be finite and > 0, got {mc!r}")
    if not (eps_gamma2 >= 0.0 and math.isfinite(eps_gamma2)):
        raise ValidationError("eps_gamma2", f"must be finite and >= 0, got {eps_gamma2!r}")
    exact = p0sq_exact(mc, eps_gamma2)
    series = p0sq_series(mc, eps_gamma2, order)
    mc2 = mc * mc
    raw = 2.0 * eps_gamma2 * exact * exact + exact + mc2
    # first: past eps gamma^2 ~ 9e307, 2 eps gamma^2 is inf beside a tiny root
    if abs(exact) < sys.float_info.min:
        raise ValidationError("mc", f"the root underflows double precision at mc = {mc!r}")
    if not all(map(math.isfinite, (exact, series, raw))):
        raise ValidationError("mc", f"the root overflows double precision at mc = {mc!r}")
    return DispersionSolution(exact_root=exact, series_root=series,
                              residual=raw / mc2, order=order)
