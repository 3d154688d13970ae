"""Independent hydrogen radial machinery: wavefunctions and quadrature.

Used to validate closed-form expectation values and to quantify the
angular-only <p^2> approximation used by the shift formulas.  All
integrals run over a generalized Gauss-Laguerre grid in the scaled radius
x = 2Zr/(n r0).  The radial functions are evaluated with the exponential
factor stripped (R = e^{-x/2} G with G polynomial), so the e^{-x} weight
is absorbed exactly by the quadrature rule and node counts in the
hundreds stay overflow-free.  Every integrand here is e^{-x} times a
polynomial, hence exact up to machine rounding.

Derivatives of the associated-Laguerre form are analytic, via
d/dx L^a_k = -L^{a+1}_{k-1}.

The reference rule uses 120 nodes: every weight is then a strictly
positive normal double, and the order-doubled 240-node rule (used by the
convergence checks) is still NaN-free.  Past ~250 nodes the
double-precision Laguerre recurrence degenerates, and the integrands here
are polynomials of degree < 40, so more nodes buy nothing.

numpy and scipy are imported inside the quadrature functions, not at
module level: the package imports this module for the pure-Python closed
forms, and only a quadrature should pay for loading them.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .units import ConstantsTable, DEFAULT_CONSTANTS, ValidationError, check_Z, check_n_l

if TYPE_CHECKING:
    import numpy as np

DEFAULT_NODES = 120


def _check_qn(n: int, l: int, Z: int) -> None:
    check_n_l(n, l)
    check_Z(Z)


def _check_moment(l: int, k: int) -> None:
    if k not in range(-3, 3):
        raise ValidationError("k", f"moment order must be in -3..2, got {k!r}")
    if k == -3 and l == 0:
        raise ValidationError("k", "<r^-3> diverges for l = 0")


@lru_cache(maxsize=16)
def _laguerre_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    from scipy.special import roots_laguerre

    x, w = roots_laguerre(n_nodes)
    return x, w


class RadialGrid(NamedTuple):
    """Gauss-Laguerre nodes/weights plus the radial scale s = 2Z/(n r0)."""

    n_nodes: int
    scale: float
    nodes: np.ndarray     # abscissas x of the e^{-x} rule
    weights: np.ndarray   # positive weights

    @property
    def r(self) -> np.ndarray:
        return self.nodes / self.scale


def make_grid(n: int, Z: int = 1, constants: ConstantsTable | None = None,
              n_nodes: int = DEFAULT_NODES) -> RadialGrid:
    _check_qn(n, 0, Z)
    table = constants if constants is not None else DEFAULT_CONSTANTS
    x, w = _laguerre_rule(n_nodes)
    return RadialGrid(n_nodes=n_nodes, scale=2.0 * Z / (n * table.r0),
                      nodes=x, weights=w)


def _norm_constant(n: int, l: int, scale: float) -> float:
    # A with R = A e^{-x/2} x^l L^{2l+1}_{n-l-1}(x)
    ratio = math.factorial(n - l - 1) / (2 * n * math.factorial(n + l))
    return math.sqrt(scale**3 * ratio)


def _stripped_parts(n: int, l: int, x: np.ndarray, scale: float):
    """G, G', G'' with R(r) = e^{-x/2} G(x); everything polynomial in x.

    G = A x^l L, L = L^{2l+1}_{n-l-1}; the radial derivatives follow from
    R'  = s e^{-x/2} (G' - G/2)
    R'' = s^2 e^{-x/2} (G'' - G' + G/4).
    """
    import numpy as np
    from scipy.special import eval_genlaguerre

    k = n - l - 1
    A = _norm_constant(n, l, scale)
    L = eval_genlaguerre(k, 2 * l + 1, x)
    dL = -eval_genlaguerre(k - 1, 2 * l + 2, x) if k >= 1 else np.zeros_like(x)
    d2L = eval_genlaguerre(k - 2, 2 * l + 3, x) if k >= 2 else np.zeros_like(x)

    xl = x**l
    G = A * xl * L
    dG = A * (xl * dL + (l * x**(l - 1) * L if l >= 1 else 0.0))
    d2G = A * (xl * d2L
               + (2 * l * x**(l - 1) * dL if l >= 1 else 0.0)
               + (l * (l - 1) * x**(l - 2) * L if l >= 2 else 0.0))
    return G, dG, d2G


def radial_wavefunction(n: int, l: int, Z: int, r,
                        constants: ConstantsTable | None = None) -> float | np.ndarray:
    """Normalized Coulomb radial function R_nl(r), r in cm."""
    import numpy as np
    from scipy.special import eval_genlaguerre

    _check_qn(n, l, Z)
    table = constants if constants is not None else DEFAULT_CONSTANTS
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValidationError("r", "radius must be >= 0")
    s = 2.0 * Z / (n * table.r0)
    x = s * r_arr
    A = _norm_constant(n, l, s)
    value = A * np.exp(-x / 2.0) * x**l * eval_genlaguerre(n - l - 1, 2 * l + 1, x)
    return float(value) if np.isscalar(r) else value


def radial_expectation(n: int, l: int, Z: int, k: int,
                       constants: ConstantsTable | None = None,
                       n_nodes: int = DEFAULT_NODES) -> float:
    """<r^k> by quadrature, k in -3..2 (k = -3 requires l >= 1)."""
    import numpy as np

    _check_qn(n, l, Z)
    _check_moment(l, k)
    table = constants if constants is not None else DEFAULT_CONSTANTS
    grid = make_grid(n, Z, table, n_nodes)
    s = grid.scale
    x = grid.nodes
    G, _, _ = _stripped_parts(n, l, x, s)
    # <r^k> = sum_i w_i G^2 x^{2+k} / s^{3+k}
    return float(np.sum(grid.weights * G * G * x**(2 + k)) / s**(3 + k))


def closed_form_r_expectation(n: int, l: int, Z: int, k: int,
                              constants: ConstantsTable | None = None) -> float:
    """Textbook hydrogenic <r^k> in terms of a = r0/Z, for k in -3..2."""
    _check_qn(n, l, Z)
    _check_moment(l, k)
    table = constants if constants is not None else DEFAULT_CONSTANTS
    a = table.r0 / Z
    ll = l * (l + 1)
    if k == 0:
        return 1.0
    if k == 1:
        return 0.5 * a * (3 * n * n - ll)
    if k == 2:
        return 0.5 * a * a * n * n * (5 * n * n + 1 - 3 * ll)
    if k == -1:
        return 1.0 / (a * n * n)
    if k == -2:
        return 1.0 / (a * a * n**3 * (l + 0.5))
    return 1.0 / (a**3 * n**3 * l * (l + 0.5) * (l + 1))  # k == -3


def energy_level(n: int, Z: int = 1,
                 constants: ConstantsTable | None = None) -> float:
    """Coulomb bound-state energy -Z^2 e^2 / (2 r0 n^2) in erg."""
    _check_qn(n, 0, Z)
    table = constants if constants is not None else DEFAULT_CONSTANTS
    return -Z * Z * table.e**2 / (2.0 * table.r0 * n * n)


def p2_closed_form(n: int, Z: int = 1,
                   constants: ConstantsTable | None = None) -> float:
    """Virial-identity <p^2> = (Z hbar / (n r0))^2, independent of l."""
    _check_qn(n, 0, Z)
    table = constants if constants is not None else DEFAULT_CONSTANTS
    return (Z * table.hbar / (n * table.r0)) ** 2


def _laplacian_times_x2(n: int, l: int, grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """G and x^2 * e^{+x/2} * Lap(R) / s^2 on the grid (both polynomial)."""
    x = grid.nodes
    G, dG, d2G = _stripped_parts(n, l, x, grid.scale)
    # Lap(R) = s^2 e^{-x/2} [ (G'' - G' + G/4) + (2/x)(G' - G/2) - l(l+1) G/x^2 ]
    lap_x2 = (d2G - dG + G / 4.0) * x * x + 2.0 * x * (dG - G / 2.0) - l * (l + 1) * G
    return G, lap_x2


def p2_expectation_exact(n: int, l: int, Z: int = 1,
                         constants: ConstantsTable | None = None,
                         n_nodes: int = DEFAULT_NODES) -> float:
    """<p^2> by quadrature of -hbar^2 R Lap(R) r^2, cross-checked internally.

    The radial Laplacian is d^2/dr^2 + (2/r) d/dr - l(l+1)/r^2.  The
    quadrature value must agree with the virial identity to 1e-8; a
    disagreement (NaN included) signals a broken grid and raises.
    """
    import numpy as np

    _check_qn(n, l, Z)
    table = constants if constants is not None else DEFAULT_CONSTANTS
    grid = make_grid(n, Z, table, n_nodes)
    G, lap_x2 = _laplacian_times_x2(n, l, grid)
    # R Lap(R) r^2 dr = e^{-x} G * (s^2 Q) * (x^2/s^2) * dx/s with Q x^2 = lap_x2
    value = -table.hbar**2 * float(np.sum(grid.weights * G * lap_x2)) / grid.scale
    virial = p2_closed_form(n, Z, table)
    if not abs(value - virial) <= 1e-8 * virial:
        raise RuntimeError(
            f"<p^2> quadrature {value!r} disagrees with virial identity {virial!r}")
    return value


def p4_expectation_exact(n: int, l: int, Z: int = 1,
                         constants: ConstantsTable | None = None,
                         n_nodes: int = DEFAULT_NODES) -> float:
    """<p^4> = ||p^2 psi||^2 = hbar^4 int (Lap R)^2 r^2 dr by quadrature."""
    import numpy as np

    _check_qn(n, l, Z)
    table = constants if constants is not None else DEFAULT_CONSTANTS
    grid = make_grid(n, Z, table, n_nodes)
    _, lap_x2 = _laplacian_times_x2(n, l, grid)
    x = grid.nodes
    # (Lap R)^2 r^2 dr = e^{-x} s^4 (lap_x2 / x^2)^2 (x^2/s^2) dx/s
    #                  = e^{-x} s (lap_x2 / x)^2 dx
    integrand = (lap_x2 / x) ** 2
    return table.hbar**4 * grid.scale * float(np.sum(grid.weights * integrand))


def radial_overlap(n1: int, n2: int, l: int, Z: int = 1,
                   constants: ConstantsTable | None = None,
                   n_nodes: int = DEFAULT_NODES) -> float:
    """Overlap int R_{n1 l} R_{n2 l} r^2 dr on a common-scale grid.

    Both exponentials combine to e^{-u} at the averaged scale, so the
    integrand is again weight times polynomial and the rule stays exact.
    """
    import numpy as np

    _check_qn(n1, l, Z)
    _check_qn(n2, l, Z)
    table = constants if constants is not None else DEFAULT_CONSTANTS
    s1 = 2.0 * Z / (n1 * table.r0)
    s2 = 2.0 * Z / (n2 * table.r0)
    sbar = 0.5 * (s1 + s2)
    u, w = _laguerre_rule(n_nodes)
    G1, _, _ = _stripped_parts(n1, l, s1 * u / sbar, s1)
    G2, _, _ = _stripped_parts(n2, l, s2 * u / sbar, s2)
    return float(np.sum(w * G1 * G2 * u * u) / sbar**3)
