"""Deformed mass-shell root: exactness, series agreement, limits."""

import numpy as np
import pytest

from rgupzeeman.dispersion import (
    TransPlanckianMassError,
    p0sq_exact,
    p0sq_series,
    solve_mass_shell,
)
from rgupzeeman.units import DEFAULT_CONSTANTS, ValidationError, has_real_root, make_params

# frozen from a 50-digit Decimal evaluation of -2/(1 + sqrt(1 - 0.08))
EXACT_ROOT_MC1_Q001 = -1.0208423834364022920128096791865304


def test_undeformed_returns_minus_mc2_exactly():
    assert p0sq_exact(1.0, 0.0) == -1.0
    assert p0sq_exact(3.0, 0.0) == -9.0


def test_exact_root_high_precision_value():
    got = p0sq_exact(1.0, 0.01)
    assert got == pytest.approx(EXACT_ROOT_MC1_Q001, rel=1e-15)
    # third-order check from the independent series expansion
    assert abs(got - (-1.0 - 0.02 - 8 * 0.01**2)) <= 1e-4


def test_exact_root_satisfies_quadratic():
    u = p0sq_exact(1.0, 0.01)
    residual = 2 * 0.01 * u * u + u + 1.0
    assert abs(residual) <= 1e-14


def test_series_order_one_matches_closed_coefficients():
    assert p0sq_series(1.0, 0.01, order=1) == -1.02
    assert p0sq_series(2.0, 0.0, order=1) == -4.0


def test_series_order_two():
    assert p0sq_series(1.0, 0.01, order=2) == pytest.approx(-1.0208, rel=1e-15)


def test_series_unsupported_order():
    with pytest.raises(ValueError):
        p0sq_series(1.0, 0.01, order=3)


def test_exact_vs_series_scan():
    # |exact - first order| <= 10 (eps gamma^2)^2 (mc)^6 over a log grid
    for q in np.logspace(-6, -2, 100):
        exact = p0sq_exact(1.0, q)
        series = p0sq_series(1.0, q, order=1)
        assert abs(exact - series) <= 10.0 * q * q


def test_exact_root_monotone_in_deformation():
    grid = np.logspace(-8, np.log10(1.0 / 8.0 - 1e-6), 100)
    roots = [p0sq_exact(1.0, q) for q in grid]
    assert all(b < a for a, b in zip(roots, roots[1:]))


def test_gamma_to_zero_quadratic_convergence():
    # |exact + (mc)^2| ~ gamma^2: halving gamma divides the gap by ~4
    eps = 1.0
    gammas = [1e-3 / 2**k for k in range(6)]
    gaps = [abs(p0sq_exact(1.0, eps * g * g) + 1.0) for g in gammas]
    for wide, narrow in zip(gaps, gaps[1:]):
        assert wide / narrow == pytest.approx(4.0, rel=5e-2)
    assert gaps[-1] < 1e-8


def test_trans_planckian_error_carries_scale():
    with pytest.raises(TransPlanckianMassError) as err:
        p0sq_exact(1.0, 0.2)
    assert err.value.scale == pytest.approx(0.2)


def test_the_bound_holds_at_one_eighth_and_refuses_nan_and_inf():
    assert has_real_root(0.125) and not has_real_root(0.125000001)
    assert p0sq_exact(1.0, 0.125) == -2.0
    for mc, eps_gamma2 in ((1.0, float("nan")), (1.0, float("inf")), (float("nan"), 0.01)):
        assert not has_real_root(eps_gamma2 * mc * mc)
        with pytest.raises(TransPlanckianMassError):
            p0sq_exact(mc, eps_gamma2)


def test_solution_record():
    sol = solve_mass_shell(1.0, 0.01, order=2)
    assert sol.exact_root < 0.0
    assert abs(sol.residual) <= 1e-12
    assert sol.order == 2


def test_solve_mass_shell_physical_scale():
    params = make_params(B=0.0, epsilon=1.0, gamma_mode="planck")
    mc = params.m * DEFAULT_CONSTANTS.c
    sol = solve_mass_shell(mc, params.eps_gamma2)
    # deformation is ~1e-45: the root is -(mc)^2 to every retained digit
    assert sol.exact_root == pytest.approx(-mc * mc, rel=1e-15)
    assert abs(sol.residual) <= 1e-12


@pytest.mark.parametrize("mc, eps_gamma2, field, message", [
    (0.0, 0.0, "mc", "must be finite and > 0, got 0.0"),
    (-1.0, 0.0, "mc", "must be finite and > 0, got -1.0"),
    (float("nan"), 0.0, "mc", "must be finite and > 0, got nan"),
    (float("inf"), 0.0, "mc", "must be finite and > 0, got inf"),
    (1.0, -1.0, "eps_gamma2", "must be finite and >= 0, got -1.0"),
    (1.0, float("nan"), "eps_gamma2", "must be finite and >= 0, got nan"),
    (1.0, float("inf"), "eps_gamma2", "must be finite and >= 0, got inf"),
    (1e300, 0.0, "mc", "the root overflows double precision at mc = 1e+300"),
    # (mc)^2 underflows to 0, or the root to a subnormal: it would read as exact
    (1e-200, 0.0, "mc", "the root underflows double precision at mc = 1e-200"),
    (1e-160, 0.1, "mc", "the root underflows double precision at mc = 1e-160"),
], ids=("zero-mc", "negative-mc", "nan-mc", "inf-mc", "negative-eps-gamma2",
        "nan-eps-gamma2", "inf-eps-gamma2", "overflowing-root", "zero-root",
        "subnormal-root"))
def test_solve_mass_shell_refuses_what_a_double_cannot_hold(mc, eps_gamma2, field, message):
    with pytest.raises(ValidationError) as err:
        solve_mass_shell(mc, eps_gamma2)
    assert err.value.field == field
    assert str(err.value) == f"{field}: {message}"
