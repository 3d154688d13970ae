"""Independent hydrogen radial machinery: closed forms and quadrature.

Used to validate closed-form expectation values and to quantify the
angular-only <p^2> approximation used by the shift formulas.  All
integrals run over a Gauss-Laguerre grid in the scaled radius
x = 2Zr/(n r0).  The radial functions are evaluated with the exponential
factor stripped (R = e^{-x/2} G with G polynomial), so the e^{-x} weight
is absorbed exactly by the quadrature rule and node counts in the
hundreds stay overflow-free.  Every integrand here is e^{-x} times a
polynomial, hence exact up to machine rounding.

Derivatives of the associated-Laguerre form are analytic, via
d/dx L^a_k = -L^{a+1}_{k-1}.

The rule needs only the standard library (Golub and Welsch, Math. Comp.
23, 221 (1969)): its nodes are the eigenvalues of the Laguerre Jacobi
matrix, found by implicit QL and polished by one Newton step on the
three-term recurrence, and each weight is 1/(x L_n'(x)^2).  The
reference rule uses 120 nodes: every weight is then a strictly positive
normal double, and the order-doubled 240-node rule (used by the
convergence checks) is still NaN-free.  From 363 nodes on the
double-precision recurrence overflows at the largest nodes, which come
out NaN.  An integrand at principal number n is a polynomial of degree
about 2n + k, which the 120-node rule (exact to degree 239) integrates
exactly up to n of about 120; more nodes help only in a narrow window
above that.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import lru_cache
from typing import NamedTuple

from .units import DEFAULT_CONSTANTS as C, ValidationError, check_Z, check_n_l

DEFAULT_NODES = 120


def _check_qn(n: int, l: int, Z: int) -> None:
    check_n_l(n, l)
    check_Z(Z)


def _check_moment(l: int, k: int) -> None:
    if k not in range(-3, 3):
        raise ValidationError("k", f"moment order must be in -3..2, got {k!r}")
    if k == -3 and l == 0:
        raise ValidationError("k", "<r^-3> diverges for l = 0")


def _genlaguerre(k: int, a: int, x: float) -> float:
    """L^a_k(x) by the three-term recurrence; 0 for k < 0."""
    if k < 0:
        return 0.0
    prev, cur = 0.0, 1.0
    for j in range(k):
        prev, cur = cur, ((2 * j + 1 + a - x) * cur - (j + a) * prev) / (j + 1)
    return cur


def _tridiagonal_eigenvalues(d: list[float], e: list[float]) -> list[float]:
    """Ascending eigenvalues of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, by implicit QL with Wilkinson shifts
    (the tql1 / tqli scheme); d and e are overwritten."""
    n = len(d)
    e.append(0.0)
    for l in range(n):
        for _ in range(30):
            m = l  # the first negligible off-diagonal at or after l ends the block
            while m < n - 1 and abs(e[m]) + (dd := abs(d[m]) + abs(d[m + 1])) != dd:
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = e[i + 1] = math.hypot(f, g)
                if r == 0.0:  # underflow: deflate and sweep again
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
        else:
            raise RuntimeError(f"QL iteration did not converge for eigenvalue {l}")
    return sorted(d)


@lru_cache(maxsize=16)
def _laguerre_rule(n_nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Nodes and weights of the n-node Gauss rule for the weight e^{-x}."""
    nodes, weights = [], []
    jacobi = _tridiagonal_eigenvalues([2.0 * k + 1.0 for k in range(n_nodes)],
                                      [float(k) for k in range(1, n_nodes)])
    for x in jacobi:
        x += _genlaguerre(n_nodes, 0, x) / _genlaguerre(n_nodes - 1, 1, x)  # Newton
        dL = _genlaguerre(n_nodes - 1, 1, x)  # -L_n'(x)
        nodes.append(x)
        weights.append(1.0 / (x * dL * dL))
    return tuple(nodes), tuple(weights)


def _integrate(nodes: Sequence[float], weights: Sequence[float],
               integrand: Callable[[float], float]) -> float:
    """sum_i w_i f(x_i), NaN where a term or the sum leaves the double range."""
    try:
        return math.fsum(w * integrand(x) for x, w in zip(nodes, weights))
    except (OverflowError, ValueError):  # x**l past the range, or inf - inf
        return math.nan


class RadialGrid(NamedTuple):
    """Gauss-Laguerre nodes/weights plus the radial scale s = 2Z/(n r0)."""

    n_nodes: int
    scale: float
    nodes: tuple[float, ...]     # abscissas x of the e^{-x} rule
    weights: tuple[float, ...]   # positive weights


def make_grid(n: int, Z: int = 1, n_nodes: int = DEFAULT_NODES) -> RadialGrid:
    _check_qn(n, 0, Z)
    x, w = _laguerre_rule(n_nodes)
    return RadialGrid(n_nodes=n_nodes, scale=2.0 * Z / (n * C.r0),
                      nodes=x, weights=w)


def _norm_constant(n: int, l: int, scale: float) -> float:
    # A with R = A e^{-x/2} x^l L^{2l+1}_{n-l-1}(x)
    ratio = math.factorial(n - l - 1) / (2 * n * math.factorial(n + l))
    return math.sqrt(scale**3 * ratio)


def _stripped_parts(n: int, l: int, x: float, scale: float) -> tuple[float, float, float]:
    """G, G', G'' at x with R(r) = e^{-x/2} G(x); everything polynomial in x.

    G = A x^l L, L = L^{2l+1}_{n-l-1}; the radial derivatives follow from
    R'  = s e^{-x/2} (G' - G/2)
    R'' = s^2 e^{-x/2} (G'' - G' + G/4).
    """
    k, a = n - l - 1, 2 * l + 1
    A = _norm_constant(n, l, scale)
    L = _genlaguerre(k, a, x)
    dL = -_genlaguerre(k - 1, a + 1, x)
    d2L = _genlaguerre(k - 2, a + 2, x)

    xl = x**l
    G = A * xl * L
    dG = A * (xl * dL + (l * x**(l - 1) * L if l >= 1 else 0.0))
    d2G = A * (xl * d2L
               + (2 * l * x**(l - 1) * dL if l >= 1 else 0.0)
               + (l * (l - 1) * x**(l - 2) * L if l >= 2 else 0.0))
    return G, dG, d2G


def radial_expectation(n: int, l: int, Z: int, k: int,
                       n_nodes: int = DEFAULT_NODES) -> float:
    """<r^k> by quadrature, k in -3..2 (k = -3 requires l >= 1)."""
    _check_qn(n, l, Z)
    _check_moment(l, k)
    grid = make_grid(n, Z, n_nodes)
    s = grid.scale

    def integrand(x: float) -> float:
        G, _, _ = _stripped_parts(n, l, x, s)
        return G * G * x**(2 + k)

    # <r^k> = sum_i w_i G^2 x^{2+k} / s^{3+k}
    return _integrate(grid.nodes, grid.weights, integrand) / s**(3 + k)


def closed_form_r_expectation(n: int, l: int, Z: int, k: int) -> float:
    """Textbook hydrogenic <r^k> in terms of a = r0/Z, for k in -3..2."""
    _check_qn(n, l, Z)
    _check_moment(l, k)
    a = C.r0 / Z
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


def energy_level(n: int, Z: int = 1) -> float:
    """Coulomb bound-state energy -Z^2 e^2 / (2 r0 n^2) in erg."""
    _check_qn(n, 0, Z)
    return -Z * Z * C.e**2 / (2.0 * C.r0 * n * n)


def p2_closed_form(n: int, Z: int = 1) -> float:
    """Virial-identity <p^2> = (Z hbar / (n r0))^2, independent of l."""
    _check_qn(n, 0, Z)
    return (Z * C.hbar / (n * C.r0)) ** 2


def _laplacian_times_x2(n: int, l: int, x: float, scale: float) -> tuple[float, float]:
    """G and x^2 * e^{+x/2} * Lap(R) / s^2 at x (both polynomial)."""
    G, dG, d2G = _stripped_parts(n, l, x, scale)
    # Lap(R) = s^2 e^{-x/2} [ (G'' - G' + G/4) + (2/x)(G' - G/2) - l(l+1) G/x^2 ]
    lap_x2 = (d2G - dG + G / 4.0) * x * x + 2.0 * x * (dG - G / 2.0) - l * (l + 1) * G
    return G, lap_x2


def p2_expectation_exact(n: int, l: int, Z: int = 1,
                         n_nodes: int = DEFAULT_NODES) -> float:
    """<p^2> by quadrature of -hbar^2 R Lap(R) r^2, cross-checked internally.

    The radial Laplacian is d^2/dr^2 + (2/r) d/dr - l(l+1)/r^2.  The
    quadrature value must agree with the virial identity to 1e-8; a
    disagreement (NaN included) signals a broken grid and raises.
    """
    _check_qn(n, l, Z)
    grid = make_grid(n, Z, n_nodes)
    s = grid.scale

    def integrand(x: float) -> float:
        G, lap_x2 = _laplacian_times_x2(n, l, x, s)
        return G * lap_x2

    # R Lap(R) r^2 dr = e^{-x} G * (s^2 Q) * (x^2/s^2) * dx/s with Q x^2 = lap_x2
    value = -C.hbar**2 * _integrate(grid.nodes, grid.weights, integrand) / s
    virial = p2_closed_form(n, Z)
    if not abs(value - virial) <= 1e-8 * virial:
        raise RuntimeError(
            f"<p^2> quadrature {value!r} disagrees with virial identity {virial!r}")
    return value


def p4_expectation_exact(n: int, l: int, Z: int = 1,
                         n_nodes: int = DEFAULT_NODES) -> float:
    """<p^4> = ||p^2 psi||^2 = hbar^4 int (Lap R)^2 r^2 dr by quadrature."""
    _check_qn(n, l, Z)
    grid = make_grid(n, Z, n_nodes)
    s = grid.scale

    # (Lap R)^2 r^2 dr = e^{-x} s^4 (lap_x2 / x^2)^2 (x^2/s^2) dx/s
    #                  = e^{-x} s (lap_x2 / x)^2 dx
    def integrand(x: float) -> float:
        _, lap_x2 = _laplacian_times_x2(n, l, x, s)
        return (lap_x2 / x) ** 2

    return C.hbar**4 * s * _integrate(grid.nodes, grid.weights, integrand)


def radial_overlap(n1: int, n2: int, l: int, Z: int = 1,
                   n_nodes: int = DEFAULT_NODES) -> float:
    """Overlap int R_{n1 l} R_{n2 l} r^2 dr on a common-scale grid.

    Both exponentials combine to e^{-u} at the averaged scale, so the
    integrand is again weight times polynomial and the rule stays exact.
    """
    _check_qn(n1, l, Z)
    _check_qn(n2, l, Z)
    s1 = 2.0 * Z / (n1 * C.r0)
    s2 = 2.0 * Z / (n2 * C.r0)
    sbar = 0.5 * (s1 + s2)

    def integrand(u: float) -> float:
        G1, _, _ = _stripped_parts(n1, l, s1 * u / sbar, s1)
        G2, _, _ = _stripped_parts(n2, l, s2 * u / sbar, s2)
        return G1 * G2 * u * u

    return _integrate(*_laguerre_rule(n_nodes), integrand) / sbar**3
