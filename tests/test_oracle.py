"""Radial oracle vs closed forms: quadrature agreement at tight tolerances."""

import math

import pytest

from rgupzeeman.oracle import (
    DEFAULT_NODES,
    _laguerre_rule,
    closed_form_r_expectation,
    energy_level,
    p2_closed_form,
    p2_expectation_exact,
    p4_expectation_exact,
    radial_expectation,
    radial_overlap,
)
from rgupzeeman.spectrum import exp_p2_angular
from rgupzeeman.units import DEFAULT_CONSTANTS as C
from rgupzeeman.units import ValidationError

ALL_NL = [(n, l) for n in range(1, 6) for l in range(n)]
# <r^-3> diverges for l = 0
R_MOMENTS = [(k, n, l) for n, l in ALL_NL for k in range(-3, 3) if k > -3 or l > 0]


def test_normalization_via_quadrature():
    for n in range(1, 7):
        for l in range(n):
            assert radial_expectation(n, l, 1, 0) == pytest.approx(1.0, abs=1e-10)


def test_grid_weights_positive():
    _, weights = _laguerre_rule(DEFAULT_NODES)
    assert all(w > 0.0 for w in weights)
    assert len(weights) == 120


def test_rule_integrates_monomials_exactly():
    # sum_i w_i x_i^k = int_0^inf e^{-x} x^k dx = k!, exact for k < 2n
    nodes, weights = _laguerre_rule(120)
    for k in range(40):
        got = math.fsum(w * x**k for x, w in zip(nodes, weights))
        assert got == pytest.approx(math.factorial(k), rel=1e-12), k


def test_rule_nodes_positive_and_increasing():
    nodes, weights = _laguerre_rule(120)
    assert len(nodes) == len(weights) == 120
    assert nodes[0] > 0.0
    assert all(a < b for a, b in zip(nodes, nodes[1:]))


@pytest.mark.parametrize("n_nodes", [1, 2, 3, 8, 60, 120, 240])
def test_rule_matches_scipy(n_nodes):
    special = pytest.importorskip("scipy.special")
    want_x, want_w = special.roots_laguerre(n_nodes)
    nodes, weights = _laguerre_rule(n_nodes)
    assert nodes == pytest.approx(want_x.tolist(), rel=1e-12, abs=0.0)
    for w, want in zip(weights, want_w.tolist()):
        if want > 1e-300:
            assert w == pytest.approx(want, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("k,n,l", R_MOMENTS)
def test_r_moments_match_closed_forms(k, n, l):
    got = radial_expectation(n, l, 1, k)
    want = closed_form_r_expectation(n, l, 1, k)
    assert got == pytest.approx(want, rel=1e-8)


def test_specific_closed_form_values():
    assert radial_expectation(1, 0, 1, -1) == pytest.approx(1.0 / C.r0, rel=1e-8)
    assert radial_expectation(2, 1, 1, -3) == pytest.approx(1.0 / (24.0 * C.r0**3), rel=1e-8)


def test_divergent_moment_rejected():
    with pytest.raises(ValidationError):
        radial_expectation(2, 0, 1, -3)
    with pytest.raises(ValidationError):
        closed_form_r_expectation(2, 0, 1, -3)


@pytest.mark.parametrize("n,l,Z", [(0, 0, 1), (2, 2, 1), (2, -1, 1), (2, 1, 0)])
def test_invalid_quantum_numbers(n, l, Z):
    with pytest.raises(ValidationError):
        radial_expectation(n, l, Z, 0)


@pytest.mark.parametrize("n,l,Z,field", [
    (math.inf, 0, 1, "n"), (math.nan, 0, 1, "n"), (2, math.inf, 1, "l"),
    (2, math.nan, 1, "l"), (2, 1, math.inf, "Z"), (2, 1, math.nan, "Z"), (2, 1, 1.5, "Z"),
])
def test_non_finite_quantum_numbers(n, l, Z, field):
    for moment in (closed_form_r_expectation, radial_expectation):
        with pytest.raises(ValidationError) as err:
            moment(n, l, Z, 1)
        assert err.value.field == field


@pytest.mark.parametrize("k", [3, -4, 0.5, math.inf, math.nan])
def test_moment_order_rule(k):
    for moment in (closed_form_r_expectation, radial_expectation):
        with pytest.raises(ValidationError) as err:
            moment(2, 1, 1, k)
        assert err.value.field == "k"


@pytest.mark.parametrize("n,l", ALL_NL)
def test_p2_quadrature_matches_virial(n, l):
    got = p2_expectation_exact(n, l, 1)
    assert got == pytest.approx(p2_closed_form(n, 1), rel=1e-8)


def test_p2_reference_values():
    unit = (C.hbar / C.r0) ** 2
    assert p2_expectation_exact(1, 0, 1) == pytest.approx(unit, rel=1e-8)
    assert p2_expectation_exact(2, 1, 1) == pytest.approx(unit / 4.0, rel=1e-8)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_p2_virial_guard_rejects_nan():
    # from 363 nodes on the Laguerre rule degenerates and every sum is NaN
    with pytest.raises(RuntimeError):
        p2_expectation_exact(2, 1, 1, n_nodes=400)


def test_angular_p2_overestimates_2p_by_factor_eight():
    ratio = exp_p2_angular(1) / p2_expectation_exact(2, 1, 1)
    assert ratio == pytest.approx(8.0, rel=1e-6)


@pytest.mark.parametrize("n,l", ALL_NL)
def test_p4_matches_coulomb_identity(n, l):
    # <p^4> = 4 m^2 <(E - V)^2> with V = -Z e^2 / r, all moments in closed form
    E = energy_level(n, 1)
    inv_r = closed_form_r_expectation(n, l, 1, -1)
    inv_r2 = closed_form_r_expectation(n, l, 1, -2)
    want = 4.0 * C.m_e**2 * (E * E + 2.0 * E * C.e**2 * inv_r + C.e**4 * inv_r2)
    assert p4_expectation_exact(n, l, 1) == pytest.approx(want, rel=1e-6)


def test_p4_ground_state_value():
    want = 5.0 * C.hbar**4 / C.r0**4
    assert p4_expectation_exact(1, 0, 1) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("n,l", ALL_NL)
def test_p4_positive_and_cauchy_schwarz(n, l):
    p4 = p4_expectation_exact(n, l, 1)
    p2 = p2_expectation_exact(n, l, 1)
    assert p4 > 0.0
    assert p4 >= p2 * p2


@pytest.mark.parametrize("n,l", [(1, 0), (3, 1), (5, 4)])
def test_quadrature_order_doubling_stable(n, l):
    for fn in (lambda nn: radial_expectation(n, l, 1, -1, n_nodes=nn),
               lambda nn: p2_expectation_exact(n, l, 1, n_nodes=nn),
               lambda nn: p4_expectation_exact(n, l, 1, n_nodes=nn)):
        coarse = fn(120)
        fine = fn(240)
        assert abs(fine - coarse) <= 1e-10 * abs(coarse)


def test_orthogonality():
    for l in range(0, 4):
        for n1 in range(l + 1, 6):
            for n2 in range(n1 + 1, 6):
                assert abs(radial_overlap(n1, n2, l, 1)) <= 1e-9


def test_hydrogenic_z_scaling():
    # <1/r> scales like Z, <p^2> like Z^2
    assert radial_expectation(2, 1, 3, -1) == pytest.approx(
        3.0 * radial_expectation(2, 1, 1, -1), rel=1e-10)
    assert p2_expectation_exact(2, 1, 3) == pytest.approx(
        9.0 * p2_expectation_exact(2, 1, 1), rel=1e-10)
