"""Shift breakdowns, spin-orbit shift, lines, and mode comparison."""

import ast
import dis
import hashlib
import itertools
import math
import random
import re
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgupzeeman import spectrum
from rgupzeeman.oracle import closed_form_r_expectation, radial_expectation
from rgupzeeman.spectrum import (
    Branch,
    Mode,
    QuantumState,
    Regime,
    REGIME_TERM_LABELS,
    ZeemanLine,
    discrepancy_report,
    energy_shift_B,
    exp_p2_angular,
    hls_shift,
    lande_g_factor,
    level_states,
    zeeman_lines,
)
from rgupzeeman.units import DEFAULT_CONSTANTS as C
from rgupzeeman.units import PhysicalParams, ValidationError, make_params


def textbook_g(l, branch):
    # independent of the 1 +- 1/(2l+1) shortcut used by the implementation
    s = 0.5
    j = l + 0.5 if branch is Branch.PLUS else l - 0.5
    return 1.0 + (j * (j + 1) + s * (s + 1) - l * (l + 1)) / (2 * j * (j + 1))


def params_zero_gamma(B=1e4, epsilon=1.0, Z=1):
    return make_params(B=B, epsilon=epsilon, gamma_mode="explicit", gamma=0.0, Z=Z)


def params_with_scale(scale, B=1e4, Z=1):
    gamma = 1.0 / (C.m_e * C.c)
    return make_params(B=B, epsilon=scale, gamma_mode="explicit", gamma=gamma, Z=Z)


PLANCK = make_params(B=1e4, epsilon=1.0, gamma_mode="planck")


# -- states and expectation values -------------------------------------------

def test_state_validation():
    with pytest.raises(ValidationError):
        QuantumState(n=1, l=1, branch=Branch.PLUS, mj=0.5)      # l >= n
    with pytest.raises(ValidationError):
        QuantumState(n=1, l=0, branch=Branch.MINUS, mj=0.5)     # j < 0
    with pytest.raises(ValidationError):
        QuantumState(n=2, l=1, branch=Branch.PLUS, mj=1.0)      # integer mj
    with pytest.raises(ValidationError):
        QuantumState(n=2, l=1, branch=Branch.MINUS, mj=1.5)     # |mj| > j
    with pytest.raises(ValidationError):
        QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5, ml=2, ms=0.5)
    with pytest.raises(ValidationError):
        QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5, ml=1)
    # ml + ms != mj: its hls_shift would be that of (ml, ms) = (1, 1/2)
    with pytest.raises(ValidationError) as err:
        QuantumState(n=2, l=1, branch=Branch.PLUS, mj=1.5, ml=-1, ms=-0.5)
    assert err.value.field == "ml"
    with pytest.raises(ValidationError) as err:
        QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5, ml=0, ms=0.25)
    assert err.value.field == "ms"
    # a branch that is not a Branch member, as text, is named as the branch
    for build in (lambda: QuantumState(2, 1, "plus", 0.5),
                  lambda: QuantumState(1, 0, "minus", 0.5),
                  lambda: lande_g_factor(1, "plus")):
        with pytest.raises(ValidationError) as err:
            build()
        assert err.value.field == "branch"


@pytest.mark.parametrize("mj", [math.nan, math.inf, -math.inf])
def test_state_rejects_non_finite_mj(mj):
    with pytest.raises(ValidationError):
        QuantumState(n=2, l=1, branch=Branch.PLUS, mj=mj)


@pytest.mark.parametrize("n, l, field", [
    (math.inf, 0, "n"), (math.nan, 0, "n"), (2, math.inf, "l"), (2, math.nan, "l"),
    (math.inf, math.inf, "n"), (2.5, 0, "n"), (3, 1.5, "l"),
])
def test_state_rejects_non_integer_n_and_l(n, l, field):
    with pytest.raises(ValidationError) as err:
        QuantumState(n=n, l=l, branch=Branch.PLUS, mj=0.5)
    assert err.value.field == field
    with pytest.raises(ValidationError) as err:
        level_states(n, l, Branch.PLUS)
    assert err.value.field == field


def test_level_states_takes_the_branch_rule_from_the_state():
    with pytest.raises(ValidationError) as err:
        level_states(1, 0, Branch.MINUS)
    assert err.value.field == "branch"
    assert [s.mj for s in level_states(3, 2, Branch.MINUS)] == [-1.5, -0.5, 0.5, 1.5]


def test_breakdowns_are_pinned():
    # sha256 over every breakdown and discrepancy report of the 408 states
    # with n <= 8, taken before the term catalogue became one table; the
    # explicit gamma = 1e-160 makes eps gamma^2 nonzero while the rgup scale
    # underflows to 0, so the rgup and gup gates disagree there
    states = [state for n in range(1, 9) for l in range(n)
              for branch in Branch if not (branch is Branch.MINUS and l == 0)
              for state in level_states(n, l, branch)]
    assert len(states) == 408
    digest = hashlib.sha256()
    for params in (PLANCK, params_zero_gamma(), params_with_scale(0.05, B=3.7e4),
                   make_params(B=1e4, gamma_mode="explicit", gamma=1e-160)):
        for state in states:
            for regime in Regime:
                for mode in Mode:
                    got = energy_shift_B(state, params, regime, mode)
                    digest.update(repr((got.correction_scale, [
                        (t.label, t.expression, t.value_erg, t.tags)
                        for t in got.terms])).encode())
            report = discrepancy_report(state, params)
            digest.update(repr(([
                (d.regime.value, d.label, d.derived_erg, d.published_erg, d.ratio, d.tags)
                for d in report.differences], report.agreements)).encode())
    assert digest.hexdigest() == \
        "9356cf041827d5d3906e23cab4d6aca4408e10c403f2e424fa3571f3efccbb8e"


def level_half(state):
    """The level and m_j halves of a state, by name, from the statements a
    plan compiles them from."""
    names = {**C._asdict(), **state._asdict(), "PLUS": Branch.PLUS}
    for _, statement in (*spectrum._LEVEL_HALF, *spectrum._MJ_HALF):
        exec(statement, names)
    return names


def test_exp_sz_values():
    # <Sz> = +- mj hbar / (2l + 1), the sign being the branch's
    def sz(l, branch, mj):
        return level_half(QuantumState(n=l + 1, l=l, branch=branch, mj=mj))["sz"]
    assert sz(0, Branch.PLUS, 0.5) == 0.5 * C.hbar
    assert sz(1, Branch.PLUS, 1.5) == 0.5 * C.hbar
    assert sz(1, Branch.MINUS, 0.5) == pytest.approx(-C.hbar / 6.0, rel=1e-15)


def test_exp_sz_sum_rule():
    # the multiplet sum vanishes exactly for both branches
    for l, branch in ((0, Branch.PLUS), (1, Branch.PLUS), (1, Branch.MINUS),
                      (3, Branch.PLUS), (3, Branch.MINUS)):
        states = level_states(l + 1, l, branch)
        assert math.fsum(level_half(s)["sz"] for s in states) == 0.0


def test_exp_p2_angular():
    assert exp_p2_angular(0) == 0.0
    assert exp_p2_angular(1) == pytest.approx(2.0 * C.hbar**2 / C.r0**2, rel=1e-15)


@pytest.mark.parametrize("l", [10**400, 2**53, -1, 1.5, math.nan],
                         ids=("10**400", "2**53", "-1", "1.5", "nan"))
def test_exp_p2_angular_takes_the_l_of_a_state(l):
    with pytest.raises(ValidationError) as err:
        exp_p2_angular(l)
    assert err.value.field == "l"


@pytest.mark.parametrize("l", [-0.5, 10**400, math.nan, -1, 1.5],
                         ids=("-0.5", "10**400", "nan", "-1", "1.5"))
def test_lande_g_factor_takes_the_l_of_a_state(l):
    with pytest.raises(ValidationError) as err:
        lande_g_factor(l, Branch.PLUS)
    assert err.value.field == "l"


def test_lande_g_factor_takes_the_branch_of_a_state():
    # j = l - 1/2 has no level at l = 0, so there is no g factor to give
    errors = []
    for call in (lambda: QuantumState(n=1, l=0, branch=Branch.MINUS, mj=0.5),
                 lambda: lande_g_factor(0, Branch.MINUS)):
        with pytest.raises(ValidationError) as err:
            call()
        errors.append((err.value.field, str(err.value)))
    assert errors == [("branch", "branch: j = l - 1/2 requires l >= 1")] * 2
    assert lande_g_factor(1, Branch.MINUS) == pytest.approx(2.0 / 3.0, rel=1e-15)


# -- energy shifts -------------------------------------------------------------

def test_lande_matches_textbook_g_factor():
    params = params_zero_gamma()
    for l in range(0, 4):
        for branch in (Branch.PLUS, Branch.MINUS):
            if branch is Branch.MINUS and l == 0:
                continue
            for state in level_states(l + 1, l, branch):
                total = energy_shift_B(state, params, Regime.LANDE).total_erg
                want = -textbook_g(l, branch) * C.mu_bohr * params.B * state.mj
                if want == 0.0:
                    assert total == 0.0
                else:
                    assert total == pytest.approx(want, rel=1e-12)


def test_lande_example_minus_two_mu_b():
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=1.5)
    total = energy_shift_B(state, params_zero_gamma(), Regime.LANDE).total_erg
    assert total == pytest.approx(-2.0 * C.mu_bohr * 1e4, rel=1e-12)
    assert lande_g_factor(1, Branch.PLUS) == pytest.approx(4.0 / 3.0, rel=1e-15)


def test_gamma_zero_collapses_regimes_term_for_term():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(1, 5)
        l = rng.randint(0, n - 1)
        branch = rng.choice([Branch.PLUS, Branch.MINUS]) if l >= 1 else Branch.PLUS
        j = l + 0.5 if branch is Branch.PLUS else l - 0.5
        mj = -j + rng.randint(0, int(2 * j))
        state = QuantumState(n=n, l=l, branch=branch, mj=mj)
        params = params_zero_gamma(B=rng.uniform(0.0, 1e5),
                                   epsilon=rng.uniform(0.0, 2.0),
                                   Z=rng.randint(1, 3))
        rgup = energy_shift_B(state, params, Regime.RGUP)
        rel = energy_shift_B(state, params, Regime.REL)
        assert rgup.labels() == rel.labels()
        for a, b in zip(rgup.terms, rel.terms):
            assert a.value_erg == b.value_erg
        gup = energy_shift_B(state, params, Regime.GUP)
        lande = energy_shift_B(state, params, Regime.LANDE)
        assert gup.labels() == lande.labels()
        for a, b in zip(gup.terms, lande.terms):
            assert a.value_erg == b.value_erg


def test_l0_gup_correction_addends_exactly_zero():
    for mj in (0.5, -0.5):
        state = QuantumState(n=1, l=0, branch=Branch.PLUS, mj=mj)
        breakdown = energy_shift_B(state, PLANCK, Regime.GUP)
        correction = [t for t in breakdown.terms if t.label != "jz_plus_sz"]
        assert correction, "deformation addends should be present"
        for term in correction:
            assert term.value_erg == 0.0


def test_l0_rgup_bracket_not_asserted_zero():
    # the <Jz +- Sz> bracket addends survive at l = 0; surface, don't hide
    state = QuantumState(n=1, l=0, branch=Branch.PLUS, mj=0.5)
    breakdown = energy_shift_B(state, PLANCK, Regime.RGUP)
    assert breakdown.term("rgup_jz_plus_sz").value_erg != 0.0


def test_rgup_exaggerated_against_independent_rederivation():
    scale = 1e-3
    B = 1e4
    params = params_with_scale(scale, B=B)
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5)
    got = energy_shift_B(state, params, Regime.RGUP).total_erg

    e, me, c, hb, alpha, pi = C.e, C.m_e, C.c, C.hbar, C.alpha, math.pi
    mj = 0.5
    p2 = hb * hb * 2.0 / C.r0**2
    jz, sz = mj * hb, mj * hb / 3.0
    want = (-(e * B / (2 * me * c)) * (jz + sz)
            - (alpha * e * B / (2 * pi * me * c)) * sz
            + (e * B / (4 * me**3 * c**3)) * p2 * (jz - sz)
            + scale * ((e * B / (2 * me * c)) * (jz + sz)
                       + (e * B / (2 * me * c)) * (jz - sz)
                       + (e * B * alpha / (2 * me * c * pi)) * sz
                       - p2 / me
                       + p2 * p2 / (2 * me**3 * c**2)))
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("regime", list(Regime))
def test_shift_affine_in_field(regime):
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5)
    gamma = 1.0 / (C.m_e * C.c)

    def total(B):
        params = make_params(B=B, epsilon=1e-3, gamma_mode="explicit", gamma=gamma)
        return energy_shift_B(state, params, regime).total_erg

    t0, t1, t2 = total(0.0), total(5e3), total(1e4)
    # three-point collinearity: midpoint equals the average
    assert t1 == pytest.approx(0.5 * (t0 + t2), rel=1e-12)
    if regime in (Regime.LANDE, Regime.REL):
        assert t0 == 0.0
    else:
        # deformed regimes keep a field-independent level shift (l >= 1)
        assert t0 != 0.0


def test_regime_nesting():
    state = QuantumState(n=3, l=2, branch=Branch.MINUS, mj=-1.5)
    params = params_with_scale(1e-4)
    breakdowns = {r: energy_shift_B(state, params, r) for r in Regime}
    labels = {r: breakdowns[r].labels() for r in Regime}
    assert set(labels[Regime.LANDE]) < set(labels[Regime.REL])
    assert set(labels[Regime.REL]) < set(labels[Regime.RGUP])
    for small, large in ((Regime.LANDE, Regime.REL), (Regime.REL, Regime.RGUP)):
        for label in labels[small]:
            assert breakdowns[small].term(label).value_erg == \
                breakdowns[large].term(label).value_erg
    # removing the extra terms reproduces the smaller regime exactly
    rel_from_rgup = math.fsum(breakdowns[Regime.RGUP].term(lbl).value_erg
                              for lbl in labels[Regime.REL])
    assert rel_from_rgup == breakdowns[Regime.REL].total_erg


def test_total_is_compensated_sum():
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5)
    breakdown = energy_shift_B(state, PLANCK, Regime.RGUP)
    assert breakdown.total_erg == math.fsum(t.value_erg for t in breakdown.terms)


def test_substitution_identity_links_rgup_bracket_to_gup_addends():
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5)
    params = params_with_scale(0.0, B=1e4)
    gamma = 1.0 / (C.m_e * C.c)
    params = make_params(B=1e4, epsilon=0.1, gamma_mode="explicit", gamma=gamma)
    p2 = exp_p2_angular(state.l)
    gup = energy_shift_B(state, params, Regime.GUP)
    # -eps gamma^2 <p^2> * (-<p^2> / m_e) = + eps gamma^2 <p^2>^2 / m_e,
    # which is the quoted first addend hbar^4 (l(l+1))^2 / (m_e r0^4)
    want_p4 = params.eps_gamma2 * C.hbar**4 * (2.0) ** 2 / (C.m_e * C.r0**4)
    assert gup.term("gup_p4").value_erg == pytest.approx(want_p4, rel=1e-12)
    assert gup.term("gup_p4").value_erg == pytest.approx(
        params.eps_gamma2 * p2 * p2 / C.m_e, rel=1e-15)
    # the p^4 bracket addend maps to -eps gamma^2 <p^2>^3 / (2 m_e^3 c^2)
    mapped = -params.eps_gamma2 * p2**3 / (2.0 * C.m_e**3 * C.c**2)
    rgup = energy_shift_B(state, params, Regime.RGUP)
    bracket_p4 = rgup.term("rgup_p4_level").value_erg
    assert bracket_p4 / params.correction_scale * (-params.eps_gamma2 * p2) == \
        pytest.approx(mapped, rel=1e-12)


def test_regime_term_catalogue_matches_emission():
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5)
    for regime in Regime:
        breakdown = energy_shift_B(state, PLANCK, regime)
        assert breakdown.labels() == REGIME_TERM_LABELS[regime]


def test_negative_epsilon_guard():
    # the record itself rejects it, so no regime can see a negative epsilon
    with pytest.raises(ValidationError) as err:
        PhysicalParams(B=1e4, epsilon=-1.0, gamma=0.0, m=C.m_e, Z=1)
    assert err.value.field == "epsilon"


def test_as_published_rgup_matches_printed_coefficients():
    scale = 1e-3
    B = 1e4
    params = params_with_scale(scale, B=B)
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=1.5)
    got = energy_shift_B(state, params, Regime.RGUP, Mode.AS_PUBLISHED)

    e, me, c, hb, alpha, pi, r0 = C.e, C.m_e, C.c, C.hbar, C.alpha, math.pi, C.r0
    mj, l, ll = 1.5, 1, 2.0
    plus = 1.0 + 1.0 / 3.0
    minus = 1.0 - 1.0 / 3.0
    assert got.term("jz_plus_sz").value_erg == pytest.approx(
        -(e * B * hb / (2 * me * c)) * mj * plus, rel=1e-12)
    assert got.term("anomalous_sz").value_erg == pytest.approx(
        -(alpha * e * B / (2 * pi * me * c)) * mj * hb / 3.0, rel=1e-12)
    assert got.term("p2_jz_minus_sz").value_erg == pytest.approx(
        (e * B / (4 * me**3 * c**3)) * (mj * hb**2 / r0**2) * ll * minus, rel=1e-12)
    assert got.term("rgup_jz_plus_sz").value_erg == pytest.approx(
        scale * (e * B / (2 * me * c)) * mj * hb * plus, rel=1e-12)
    assert got.term("rgup_jz_minus_sz").value_erg == pytest.approx(
        scale * (e * B / (2 * me * c)) * mj * hb * minus, rel=1e-12)
    assert got.term("rgup_anomalous_sz").value_erg == pytest.approx(
        -scale * (e * B * alpha / (2 * me * c * pi)) * mj * hb / 3.0, rel=1e-12)
    assert got.term("rgup_p2_level").value_erg == pytest.approx(
        -scale * hb**2 * ll / me, rel=1e-12)
    assert got.term("rgup_p4_level").value_erg == pytest.approx(
        scale * hb**4 * ll * ll / (2 * me**3 * c**2 * r0**4), rel=1e-12)


def test_as_published_gup_matches_printed_coefficients():
    B = 1e4
    gamma = 1.0 / (C.m_e * C.c)
    params = make_params(B=B, epsilon=1e-3, gamma_mode="explicit", gamma=gamma)
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5)
    got = energy_shift_B(state, params, Regime.GUP, Mode.AS_PUBLISHED)
    e, me, c, hb, r0 = C.e, C.m_e, C.c, C.hbar, C.r0
    eg2 = params.eps_gamma2
    assert got.term("gup_p4").value_erg == pytest.approx(
        (eg2 / me) * hb**4 * 4.0 / r0**4, rel=1e-12)
    assert got.term("gup_cross").value_erg == pytest.approx(
        -(eg2 / me) * (e * B * 0.5 / c) * (hb**2 / r0**2) * 2.0 * (4.0 / 3.0),
        rel=1e-12)


# -- spin-orbit ---------------------------------------------------------------

def test_hls_zero_product():
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5, ml=0, ms=0.5)
    assert hls_shift(state, params_zero_gamma()) == 0.0


def test_hls_takes_ls_from_the_decoupled_labels():
    # <L.S> = hbar^2 m_l m_s: the ladder terms average out in the decoupled basis
    inv_r3 = closed_form_r_expectation(3, 2, 1, -3)
    for ml, ms, ls in ((1, 0.5, 0.5 * C.hbar**2), (0, 0.5, 0.0), (-2, -0.5, C.hbar**2)):
        state = QuantumState(n=3, l=2, branch=Branch.PLUS, mj=ml + ms, ml=ml, ms=ms)
        assert hls_shift(state, params_zero_gamma()) == \
            1.0 * ls / (2.0 * C.m_e**2 * C.c**2) * 1 * C.e**2 * inv_r3


def test_hls_textbook_limit_and_quadrature_cross_check():
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=1.5, ml=1, ms=0.5)
    params = params_zero_gamma()
    got = hls_shift(state, params)
    want_closed = C.hbar**2 * 0.5 / (2.0 * C.m_e**2 * C.c**2) * C.e**2 / (24.0 * C.r0**3)
    assert got == pytest.approx(want_closed, rel=1e-12)
    inv_r3_quad = radial_expectation(2, 1, 1, -3)
    want_quad = C.hbar**2 * 0.5 / (2.0 * C.m_e**2 * C.c**2) * C.e**2 * inv_r3_quad
    assert got == pytest.approx(want_quad, rel=1e-8)


def test_hls_deformation_factor():
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=1.5, ml=1, ms=0.5)
    undeformed = hls_shift(state, params_zero_gamma())
    deformed = hls_shift(state, params_with_scale(0.1))
    assert deformed == pytest.approx(0.9 * undeformed, rel=1e-12)


def test_hls_l0_vanishes():
    state = QuantumState(n=1, l=0, branch=Branch.PLUS, mj=0.5, ml=0, ms=0.5)
    assert hls_shift(state, PLANCK) == 0.0


@pytest.mark.parametrize("ml", [1, 0])
def test_hls_outside_double_precision_is_a_domain_error(ml):
    # the record refuses a scale that would take the factor 1 - scale outside
    # double precision, so the shift stays finite at the other extremes
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=ml + 0.5, ml=ml, ms=0.5)
    with pytest.raises(ValidationError) as err:
        hls_shift(state, make_params(gamma_mode="explicit", gamma=1e300))
    assert err.value.field == "correction_scale"
    for Z in (1, 2**53):
        assert math.isfinite(hls_shift(state, params_with_scale(0.1, B=1.7e308, Z=Z)))


def test_hls_requires_alt_basis():
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5)
    with pytest.raises(ValidationError):
        hls_shift(state, PLANCK)


# -- lines ---------------------------------------------------------------------

def test_line_count_invariant_across_regimes():
    upper = level_states(2, 1, Branch.PLUS)
    lower = level_states(1, 0, Branch.PLUS)
    counts = {regime: len(zeeman_lines(upper, lower, PLANCK, regime))
              for regime in Regime}
    assert set(counts.values()) == {6}


def test_line_count_brute_force():
    upper = level_states(2, 1, Branch.PLUS)
    lower = level_states(1, 0, Branch.PLUS)
    expected = sum(1 for u in upper for lo in lower if abs(u.mj - lo.mj) <= 1)
    assert expected == 6
    assert len(zeeman_lines(upper, lower, PLANCK, Regime.LANDE)) == expected


def test_lines_zero_field():
    upper = level_states(2, 1, Branch.PLUS)
    lower = level_states(1, 0, Branch.PLUS)
    params = make_params(B=0.0, epsilon=1.0, gamma_mode="planck")
    for regime in Regime:
        for line in zeeman_lines(upper, lower, params, regime):
            assert line.shift_erg == 0.0


def test_lines_polarization_tags():
    upper = level_states(2, 1, Branch.PLUS)
    lower = level_states(1, 0, Branch.PLUS)
    lines = zeeman_lines(upper, lower, PLANCK, Regime.LANDE)
    tags = {(ln.upper.mj, ln.lower.mj): ln.polarization for ln in lines}
    assert tags[(1.5, 0.5)] == "sigma+"
    assert tags[(0.5, 0.5)] == "pi"
    assert tags[(-1.5, -0.5)] == "sigma-"


def test_lines_delta_l_selection():
    same_l_upper = level_states(2, 1, Branch.PLUS)
    same_l_lower = level_states(3, 1, Branch.MINUS)
    assert zeeman_lines(same_l_upper, same_l_lower, PLANCK, Regime.LANDE) == ()


@pytest.mark.parametrize("magnetic, offset, field", [
    ((1.5e308,), (0.0,), "shift"),              # each state fits, a line's shift does not
    ((1e308,), (1e308, 1e308), "level_offset"),  # the first state's total fits, the
                                                # level's offset sum does not
    ((1e308,), (1e308,), "total"),              # each sum fits, a state's total does not
    ((math.inf,), (0.0,), "jz_plus_sz"),        # the term that left is named
], ids=("shift-difference", "offset-sum", "state-total", "term"))
def test_lines_outside_double_precision_are_domain_errors(monkeypatch, magnetic, offset,
                                                          field):
    """The plan's parts give the values below, unchecked; the magnetic ones take
    the sign of m_j, and shift names a failure as the generated shift does."""
    plan = spectrum._plan_of(Regime.RGUP, Mode.DERIVED)
    labels = tuple(label for label, _, _ in plan.terms)

    def magnetic_of(mj):
        return tuple(math.copysign(v, mj) for v in magnetic)

    def multiplet(state, params, grid, out):
        for mj in grid:
            out(magnetic_of(mj))
        return offset

    def shift(state, params, mode):
        values = magnetic_of(state.mj) + offset
        try:
            total = math.fsum(values)
        except OverflowError:
            total = math.nan
        if not math.isfinite(total):
            spectrum._name_failure(labels, values, total)
    monkeypatch.setattr(plan, "multiplet", multiplet)
    monkeypatch.setattr(plan, "shift", shift)
    with pytest.raises(ValidationError) as caught:
        zeeman_lines(level_states(2, 1, Branch.PLUS), level_states(1, 0, Branch.PLUS),
                     PLANCK, Regime.RGUP)
    assert caught.value.field == field


#: every name a form may read: the records' fields and what the halves bind
_BOUND = {*QuantumState._fields, *PhysicalParams._fields, *spectrum.ConstantsTable._fields,
          *(name for half in (spectrum._LEVEL_HALF, spectrum._MJ_HALF, spectrum._PARAMS_HALF)
            for name, _ in half)}


def _names_read(form):
    """The names a term expression reads besides math; it reads nothing else."""
    nodes = list(ast.walk(ast.parse(form, mode="eval")))
    attributes = [n for n in nodes if isinstance(n, ast.Attribute)]
    assert all(isinstance(n.value, ast.Name) and n.value.id == "math"
               and isinstance(getattr(math, n.attr, None), float) for n in attributes), form
    return {n.id for n in nodes if isinstance(n, ast.Name)} - {"math"}


def _plans():
    return [plan for pair in spectrum._PLANS.values() for plan in pair]


def _row(plan, state, params):
    """(scale, values, total) of one state, from the plan's shift; None for
    an addend gated off."""
    breakdown = plan.shift(state, params, Mode.DERIVED)
    values = {t.label: t.value_erg for t in breakdown.terms}
    return (breakdown.correction_scale, tuple(values.get(label) for label, _, _ in plan.terms),
            breakdown.total_erg)


def test_every_plan_compiles_from_the_substitutions_and_math():
    forms = [form for t in spectrum._TERMS for form in (t.derived, t.published)
             if form is not None]
    for form in forms:
        assert _names_read(form) <= _BOUND, form
    states = level_states(4, 3, Branch.MINUS)
    for plan in _plans():
        assert set(plan.forms) <= set(forms)
        mode = Mode.AS_PUBLISHED if plan.name.endswith("as-published") else Mode.DERIVED
        for params, deformed in ((params_with_scale(1e-3), True),
                                 (params_with_scale(0.0), False)):
            magnetic = []
            offsets = plan.multiplet(states[0], params, [s.mj for s in states], magnetic.append)
            assert len(magnetic) == len(states)
            for state, magnetic_values in zip(states, magnetic):
                scale, values, total = _row(plan, state, params)
                assert [v is None for v in values] == [d and not deformed
                                                       for d in plan.deformation]
                on = [(label, tags, v) for (label, _, tags), v in zip(plan.terms, values)
                      if v is not None]
                assert total == math.fsum(v for _, _, v in on)
                breakdown = plan.shift(state, params, mode)
                assert breakdown.correction_scale == scale
                if plan.regime is not Regime.GUP:
                    assert scale == params.correction_scale
                assert [(t.label, t.tags, t.value_erg) for t in breakdown.terms] == on
                assert [v.hex() for v in offsets] == [
                    v.hex() for _, tags, v in on if "non-magnetic" in tags]
                assert [v.hex() for v in magnetic_values] == [
                    v.hex() for _, tags, v in on if "non-magnetic" not in tags]


def test_a_sweep_reruns_only_what_reads_the_swept_field():
    level = [statement.partition("\n")[0] for _, statement in spectrum._LEVEL_HALF]
    for plan in _plans():
        loops = {part: plan._fields(part)["loop"] for part in spectrum._SWEPT}
        # no form reads n, so an n sweep only writes each row's value cell;
        # no lande or rel form reads epsilon, and neither has a gate
        assert loops["sweep_n"] == "", plan.name
        if plan.regime in (Regime.LANDE, Regime.REL):
            assert loops["sweep_epsilon"] == "", plan.name
        # the level half reads l, the branch and the constants only
        for part in ("sweep_B", "sweep_epsilon", "sweep_mj"):
            assert not [s for s in level if s in loops[part]], (plan.name, part)
        assert "sz = " in loops["sweep_l"], plan.name


def test_each_row_runs_what_its_checked_end_rows_run():
    for plan in _plans():
        for part in spectrum._PARTS:
            fields = plan._fields(part)
            if part not in ("shift", "multiplet"):
                ends = fields["ends"]
                if fields["loop"]:
                    assert ends.startswith(
                        f"    for value in grid[0], grid[-1]:\n{fields['loop']}"), (plan.name, part)
                else:  # no row reads the grid value: one checked row stands for every row
                    assert "for value" not in ends, (plan.name, part)
                    assert ends.count("fsum(") == ends.count("in_unit(") == 1, (plan.name, part)
            # the params' rules keep every scale finite, GUP's -eps gamma^2 <p^2> too
            source = spectrum._PARTS[part].format(part=part, **fields)
            assert "isfinite(scale)" not in source, (plan.name, part)


def test_every_name_a_part_assigns_is_read_later():
    # no dead statement: each name bound after the two record-unpacking
    # lines is read on a later line of the same part
    for plan in _plans():
        for part in spectrum._PARTS:
            source = spectrum._PARTS[part].format(part=part, **plan._fields(part))
            nodes = [node for statement in ast.parse(source).body[0].body[2:]
                     for node in ast.walk(statement)]
            reads = [(node.id, node.lineno) for node in nodes
                     if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]
            for node in nodes:
                if isinstance(node, ast.Assign):
                    [target] = node.targets
                    assert any(name == target.id and line > node.lineno
                               for name, line in reads), (plan.name, part, target.id)


def test_words_reads_exactly_the_names_of_each_statement_and_form():
    # the backward pass finds what a statement reads by _words, so a word
    # that is no name, such as one of a comment, would be read as one
    halves = (*spectrum._LEVEL_HALF, *spectrum._MJ_HALF, *spectrum._PARAMS_HALF,
              *spectrum._GUP_PARAMS_HALF)
    forms = [form for t in spectrum._TERMS for form in (t.derived, t.published)
             if form is not None]
    for source in [statement for _, statement in halves] + forms:
        names = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.Name, ast.Attribute))}
        assert set(spectrum._words(source)) == names, source
    # every statement binds a name: none is a check
    assert all(isinstance(name, str) for name, _ in halves)


def _code_objects(code):
    """A code object and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


#: the instructions that push a literal, and those that operate on the stack's top
_LITERAL_LOADS = {"LOAD_CONST", "LOAD_SMALL_INT"}
_UNARY = {"UNARY_NEGATIVE", "UNARY_POSITIVE", "UNARY_INVERT"}


def test_no_warm_part_computes_a_constant_at_run_time():
    # a part reads no table field and no math: the compiler folded every
    # operation on the literals it writes for them
    constants = {*spectrum.ConstantsTable._fields, "math"}
    for plan in _plans():
        for part in spectrum._PARTS:
            function = getattr(plan, part)
            assert function.__name__ == part
            for code in _code_objects(function.__code__):
                assert not constants & set(code.co_names), (plan.name, part)
                ops = list(dis.get_instructions(code))
                for a, b, op in zip(ops, ops[1:], ops[2:]):
                    assert not (op.opname.startswith("BINARY_")
                                and {a.opname, b.opname} <= _LITERAL_LOADS), \
                        (plan.name, part, a.argval, b.argval, op.argrepr or op.opname)
                for a, op in zip(ops, ops[1:]):
                    assert not (op.opname in _UNARY and a.opname in _LITERAL_LOADS), \
                        (plan.name, part, a.argval, op.opname)


def test_each_folded_constant_power_is_correctly_rounded():
    # the compiler folds a table field's power with the host's pow, which is
    # not correctly rounded in general; each power the forms and halves read
    # must equal the exactly rounded one, or a libm can move a printed bit
    halves = (*spectrum._LEVEL_HALF, *spectrum._MJ_HALF, *spectrum._PARAMS_HALF,
              *spectrum._GUP_PARAMS_HALF)
    sources = [statement for _, statement in halves] + [
        form for t in spectrum._TERMS for form in (t.derived, t.published) if form is not None]
    power = r"\b(" + "|".join(spectrum.ConstantsTable._fields) + r")\*\*(\d+)"
    powers = {(name, int(k)) for source in sources for name, k in re.findall(power, source)}
    assert powers == {("hbar", 2), ("hbar", 4), ("r0", 2), ("r0", 4), ("m_e", 3),
                      ("c", 2), ("c", 3)}
    for name, k in sorted(powers):
        x = getattr(C, name)
        code = compile(f"{x!r}**{k}", "<fold>", "eval")
        folded = [const for const in code.co_consts if isinstance(const, float)]
        assert folded == [float(Fraction(x) ** k)], (name, k)


def test_a_gated_addend_follows_its_gate_through_a_sweep():
    # every gated form of the table reads the scale; one that reads nothing
    # the sweep moves must still switch on with the gate mid-sweep
    plan = spectrum._Plan(Regime.RGUP, False)
    i = plan.deformation.index(True)
    plan.forms = (*plan.forms[:i], "hbar", *plan.forms[i + 1:])
    state = QuantumState(n=3, l=2, branch=Branch.PLUS, mj=0.5)
    params = params_with_scale(0.0)  # the scale is epsilon
    grid = [0.0, 1e-3, 2e-3]
    lines = []
    plan.sweep_epsilon(state, params, grid, 1.0, "erg", "header\n", lines.append)
    expected = ["header\n"]
    for epsilon in grid:
        _, values, total = _row(plan, state, params._replace(epsilon=epsilon))
        cells = ["0.0" if v is None else repr(v) for v in values]
        expected.append(",".join([repr(epsilon), "rgup", *cells, repr(total)]) + "\n")
    assert lines == expected
    assert [line.split(",")[2 + i] for line in lines[1:]] == ["0.0", repr(C.hbar), repr(C.hbar)]


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("regime", list(Regime))
def test_level_offsets_read_no_mj(regime, mode):
    """zeeman_lines sums a level's offset terms once, for all its m_j."""
    plan = spectrum._plan_of(regime, mode)
    for (label, _, tags), form in zip(plan.terms, plan.forms):
        if "non-magnetic" in tags:
            assert not _names_read(form) & {"mj", "jz", "sz"}, label
    params = params_with_scale(1e-3)
    offset = ["non-magnetic" in tags for _, _, tags in plan.terms]
    for level in ((4, 3, Branch.PLUS), (4, 3, Branch.MINUS), (2, 0, Branch.PLUS)):
        states = level_states(*level)
        offsets = plan.multiplet(states[0], params, [s.mj for s in states], [].append)
        for state in states:
            _, values, _ = _row(plan, state, params)
            assert [v.hex() for v, o in zip(values, offset) if o] == \
                [v.hex() for v in offsets], state


def test_only_the_deformed_regimes_have_an_as_published_plan():
    for regime in Regime:
        shared = spectrum._plan_of(regime, Mode.AS_PUBLISHED) is \
            spectrum._plan_of(regime, Mode.DERIVED)
        assert shared == (regime in (Regime.LANDE, Regime.REL)), regime


@pytest.mark.parametrize("mode", ["as-published", None, Regime.RGUP])
@pytest.mark.parametrize("regime", list(Regime))
def test_a_mode_that_is_not_a_mode_is_rejected(regime, mode):
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5)
    upper, lower = level_states(2, 1, Branch.PLUS), level_states(1, 0, Branch.PLUS)
    for call in (lambda: energy_shift_B(state, PLANCK, regime, mode),
                 lambda: zeeman_lines(upper, lower, PLANCK, regime, mode),
                 lambda: spectrum._plan_of(regime, mode).shift):
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.field == "mode"


def test_a_regime_that_is_not_a_regime_is_rejected():
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5)
    with pytest.raises(ValidationError) as err:
        energy_shift_B(state, PLANCK, "rgup")
    assert err.value.field == "regime"


def test_the_entry_points_take_only_records():
    # a plain tuple would skip every rule of its record: here q = 1.75 > 1/8
    loose = (1e4, 1e45, C.gamma_planck, C.m_e, 1)
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5, ml=0, ms=0.5)
    upper, lower = level_states(2, 1, Branch.PLUS), level_states(1, 0, Branch.PLUS)
    calls = {"params": (lambda: energy_shift_B(state, loose, Regime.RGUP),
                        lambda: zeeman_lines(upper, lower, loose, Regime.RGUP),
                        lambda: discrepancy_report(state, loose),
                        lambda: hls_shift(state, loose)),
             "state": (lambda: energy_shift_B(tuple(state), PLANCK, Regime.RGUP),
                       lambda: zeeman_lines((*upper, tuple(upper[0])), lower, PLANCK, Regime.RGUP),
                       lambda: zeeman_lines(upper, list(map(tuple, lower)), PLANCK, Regime.RGUP),
                       lambda: discrepancy_report(tuple(state), PLANCK),
                       lambda: hls_shift(tuple(state), PLANCK))}
    for field, refused in calls.items():
        for call in refused:
            with pytest.raises(ValidationError) as err:
                call()
            assert err.value.field == field
            assert "not tuple" in str(err.value)


def test_lines_empty_sets_rejected():
    with pytest.raises(ValidationError):
        zeeman_lines((), level_states(1, 0, Branch.PLUS), PLANCK, Regime.LANDE)


def test_lines_build_one_substitution_per_level(monkeypatch):
    """The level half is computed once per level, and no shift on success."""
    plan = spectrum._plan_of(Regime.RGUP, Mode.DERIVED)
    multiplet, built = plan.multiplet, []

    def counted(state, params, grid, out):
        built.append(state)
        return multiplet(state, params, grid, out)

    def shift(state, params, mode):
        raise AssertionError("a shift was evaluated")
    monkeypatch.setattr(plan, "multiplet", counted)
    monkeypatch.setattr(plan, "shift", shift)
    upper, lower = level_states(4, 3, Branch.PLUS), level_states(3, 2, Branch.MINUS)
    assert len(zeeman_lines(upper, lower, PLANCK, Regime.RGUP)) == 12
    assert built == [upper[0], lower[0]]


def _reference_lines(upper, lower, params, regime, mode):
    """zeeman_lines rebuilt from one energy_shift_B per state and line end."""
    def sums(state):
        terms = energy_shift_B(state, params, regime, mode).terms
        return (math.fsum(t.value_erg for t in terms if "non-magnetic" not in t.tags),
                math.fsum(t.value_erg for t in terms if "non-magnetic" in t.tags))
    lines = []
    for u in upper:
        for lo in lower:
            delta = u.mj - lo.mj
            if abs(u.l - lo.l) == 1 and abs(delta) <= 1.0:
                (mag_u, off_u), (mag_l, off_l) = sums(u), sums(lo)
                pol = "pi" if delta == 0.0 else "sigma+" if delta > 0 else "sigma-"
                lines.append(ZeemanLine(u, lo, delta, pol, mag_u - mag_l, off_u - off_l))
    return tuple(sorted(lines, key=lambda ln: (ln.upper.mj, ln.lower.mj)))


def _interleaved(*levels):
    return [s for group in itertools.zip_longest(*levels) for s in group if s is not None]


def _interleaved_sets(first, second):
    upper = _interleaved(level_states(*first), level_states(*second))
    upper.append(upper[0])                          # a repeated state
    lower = _interleaved(level_states(5, 1, Branch.PLUS), level_states(5, 2, Branch.MINUS),
                         level_states(5, 3, Branch.PLUS))
    lower.append(upper[1])                          # a state in both sets
    return upper, lower


def _without(states, k):
    """The states but the k-th: one level with a gap in its m_j."""
    return states[:k] + states[k + 1:]


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("upper, lower", [
    _interleaved_sets((3, 2, Branch.PLUS), (4, 2, Branch.MINUS)),  # same l, the other branch
    _interleaved_sets((4, 2, Branch.PLUS), (4, 3, Branch.PLUS)),   # same branch, another l
    # one upper level in descending m_j, so the lines are sorted
    (level_states(4, 2, Branch.PLUS)[::-1],
     level_states(5, 1, Branch.PLUS) + level_states(5, 3, Branch.MINUS)),
    # upper m_j still rising, so unsorted; the upper level and one lower
    # level each miss one m_j
    (_without(level_states(4, 2, Branch.MINUS), 2),
     _without(level_states(5, 1, Branch.PLUS), 1) + level_states(5, 3, Branch.MINUS)),
    # upper m_j rising, so unsorted; one lower run out of m_j order, which
    # holds one m_j at n = 5 and then at n = 6
    (level_states(4, 2, Branch.PLUS),
     [*level_states(5, 1, Branch.PLUS)[2::-2], *level_states(6, 1, Branch.PLUS)[:2],
      level_states(5, 1, Branch.PLUS)[1]]),
    # upper m_j rising but not strictly: each m_j at n = 4 and then n = 5,
    # so the lines are sorted
    (sorted(level_states(4, 2, Branch.PLUS) + level_states(5, 2, Branch.PLUS),
            key=lambda s: s.mj),
     level_states(5, 1, Branch.PLUS)),
], ids=("branch", "l", "descending", "gap", "lower-order", "equal-mj"))
def test_lines_over_interleaved_levels_match_a_per_state_reference(upper, lower, regime, mode):
    params = params_with_scale(1e-3)
    lines = zeeman_lines(upper, lower, params, regime, mode)
    assert lines == _reference_lines(upper, lower, params, regime, mode)
    assert all(type(ln) is ZeemanLine for ln in lines)


def _executed_lines(call) -> int:
    """How many source lines call() executes, in every Python frame."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        count += event == "line"
        return trace
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


def test_lines_over_alternating_lower_levels_cost_in_proportion_to_the_lines():
    """Lower states whose levels alternate state by state (both branches of
    l - 1 in m_j order) cost no more per line at l = 40 than at l = 10, so
    the cost does not grow with the number of lower runs."""
    per_line = []
    for l in (10, 40):
        upper = level_states(l + 2, l, Branch.PLUS)
        lower = sorted(level_states(l + 1, l - 1, Branch.PLUS)
                       + level_states(l + 1, l - 1, Branch.MINUS), key=lambda s: s.mj)
        lines = zeeman_lines(upper, lower, PLANCK, Regime.RGUP)
        executed = _executed_lines(lambda: zeeman_lines(upper, lower, PLANCK, Regime.RGUP))
        per_line.append(executed / len(lines))
    assert per_line[1] < 1.25 * per_line[0]


# -- discrepancy catalogue ------------------------------------------------------

def test_discrepancy_catalogue_for_2p():
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5)
    report = discrepancy_report(state, PLANCK)
    found = {(d.regime.value, d.label): d.tags for d in report.differences}
    assert found == {
        ("rgup", "p2_jz_minus_sz"): ("missing-hbar-power",),
        ("rgup", "rgup_anomalous_sz"): ("sign-of-alpha-term",),
        ("rgup", "rgup_p2_level"): ("missing-r0-power",),
        ("gup", "gup_cross"): ("factor-2", "missing-hbar-power"),
    }
    assert report.uncatalogued == ()


def test_discrepancy_ratios():
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5)
    report = discrepancy_report(state, PLANCK)
    by_key = {(d.regime.value, d.label): d for d in report.differences}
    assert by_key[("rgup", "p2_jz_minus_sz")].ratio == pytest.approx(1.0 / C.hbar, rel=1e-9)
    assert by_key[("rgup", "rgup_p2_level")].ratio == pytest.approx(C.r0**2, rel=1e-9)
    assert by_key[("rgup", "rgup_anomalous_sz")].ratio == pytest.approx(-1.0, rel=1e-9)
    assert by_key[("gup", "gup_cross")].ratio == pytest.approx(2.0 / C.hbar, rel=1e-9)


def test_discrepancy_l0_momentum_entries_absent():
    state = QuantumState(n=1, l=0, branch=Branch.PLUS, mj=0.5)
    report = discrepancy_report(state, PLANCK)
    labels = {d.label for d in report.differences}
    assert "p2_jz_minus_sz" not in labels
    assert "rgup_p2_level" not in labels
    assert "rgup_p4_level" not in labels
    assert "gup_cross" not in labels
    assert report.uncatalogued == ()


# -- failures named against a plain per-term reference ---------------------------

_COMPILED_FORMS = {}


def _reference_terms(state, params, regime, mode):
    """(scale, [(label, tags, value)] of the addends that are on): each form
    evaluated by itself over names computed one by one, with no plan."""
    l, mj = state.l, state.mj
    sgn = 1.0 if state.branch is Branch.PLUS else -1.0
    p2 = exp_p2_angular(l)
    if regime is Regime.GUP:
        scale, on = -params.eps_gamma2 * p2 + 0.0, params.eps_gamma2 != 0.0
    else:
        scale = params.correction_scale
        on = scale != 0.0
    names = {**C._asdict(), "l": l, "ll": l * (l + 1), "sgn": sgn,
             "plus": 1.0 + sgn / (2 * l + 1), "minus": 1.0 - sgn / (2 * l + 1),
             "p2": p2, "p4": p2 * p2, "mj": mj, "jz": mj * C.hbar,
             "sz": sgn * mj * C.hbar / (2 * l + 1), "B": params.B,
             "base": C.e * params.B / (2.0 * C.m_e * C.c),
             "eps_gamma2": params.eps_gamma2, "scale": scale}
    quoted = mode is Mode.AS_PUBLISHED and regime in (Regime.GUP, Regime.RGUP)
    terms = []
    for t in spectrum._TERMS:
        if regime in t.regimes and (on or not t.deformation):
            form = t.published if quoted and t.published is not None else t.derived
            code = _COMPILED_FORMS.setdefault(form, compile(form, "<form>", "eval"))
            terms.append((t.label, t.tags, eval(code, {"math": math}, names) + 0.0))
    return scale, terms


def _outside(field, value):
    return ValidationError(field, f"{value!r} is outside double precision")


def _fsum(values):
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def _reference_shift(state, params, regime, mode):
    """The reference terms, raising for the scale, then for a sum that is not
    finite: the first term outside double precision, else the total."""
    scale, terms = _reference_terms(state, params, regime, mode)
    if not math.isfinite(scale):
        raise _outside("correction_scale", scale)
    total = _fsum([v for _, _, v in terms])
    if not math.isfinite(total):
        for label, _, value in terms:
            if not math.isfinite(value):
                raise _outside(label, value)
        raise _outside("total", total)
    return scale, terms


def _reference_lines_failure(upper, lower, params, regime, mode):
    """Raises as zeeman_lines should, from the reference terms of each state."""
    sums = []
    for state in upper + lower:
        _, terms = _reference_terms(state, params, regime, mode)
        magnetic = _fsum([v for _, tags, v in terms if "non-magnetic" not in tags])
        offset = _fsum([v for _, tags, v in terms if "non-magnetic" in tags])
        failed = [(field, value) for field, value in (
            ("shift", magnetic), ("level_offset", offset), ("total", magnetic + offset))
            if not math.isfinite(value)]
        if failed:
            _reference_shift(state, params, regime, mode)  # the scale, a term or the total
            raise _outside(*failed[0])
        _reference_shift(state, params, regime, mode)      # the scale
        sums.append((magnetic, offset))
    for u, (mag_u, off_u) in zip(upper, sums):
        for mj in (u.mj - 1.0, u.mj, u.mj + 1.0):
            for lo, (mag_l, off_l) in zip(lower, sums[len(upper):]):
                if lo.mj == mj and abs(u.l - lo.l) == 1 and not (
                        math.isfinite(mag_u - mag_l) and math.isfinite(off_u - off_l)):
                    raise ValidationError("shift", f"line mj {u.mj!r} -> {lo.mj!r} "
                                                   "is outside double precision")


def _outcome(call):
    """(field, message) of the ValidationError call raises, else ("ok", its result)."""
    try:
        return "ok", call()
    except ValidationError as error:
        return error.field, str(error)


#: B up to past double precision, each with a scale 8q <= 1 allows: none, the
#: Planck one, 0.1, and at a mass near 0, where GUP's eps gamma^2 is 1e298
_OVERFLOWING = [make_params(B=B, epsilon=epsilon, gamma_mode="explicit", gamma=gamma, m=m)
                for B in (0.0, 1e4, 1e280, 2e301, 1.7e308)
                for epsilon, gamma, m in ((1.0, 0.0, C.m_e), (1.0, C.gamma_planck, C.m_e),
                                          (0.1, 1.0 / (C.m_e * C.c), C.m_e),
                                          (1e-22, 1e160, 1e-160))]
_LARGE_STATES = (QuantumState(2, 1, Branch.PLUS, 0.5), QuantumState(4, 3, Branch.MINUS, -1.5),
                 QuantumState(10**9 + 1, 10**9, Branch.PLUS, 10**9 + 0.5),
                 QuantumState(2**53, 2**53 - 1, Branch.MINUS, 0.5))


def test_failures_outside_double_precision_name_what_a_per_term_reference_names():
    seen = set()
    for regime in Regime:
        for mode in Mode:
            for state in _LARGE_STATES:
                plan = spectrum._plan_of(regime, mode)
                for params in _OVERFLOWING:
                    field, want = _outcome(lambda: _reference_shift(state, params, regime, mode))
                    seen.add(field)
                    got = _outcome(lambda: energy_shift_B(state, params, regime, mode))
                    row = _outcome(lambda: _row(plan, state, params))
                    if field != "ok":
                        assert got == row == (field, want)
                        continue
                    scale, terms = want
                    assert got[1].correction_scale == row[1][0] == scale
                    assert [(t.label, t.tags, t.value_erg) for t in got[1].terms] == terms
                    assert [v for v in row[1][1] if v is not None] == [v for _, _, v in terms]
            upper, lower = level_states(4, 3, Branch.PLUS), level_states(3, 2, Branch.MINUS)
            for params in _OVERFLOWING:
                got = _outcome(lambda: zeeman_lines(upper, lower, params, regime, mode))
                want = _outcome(
                    lambda: _reference_lines_failure(upper, lower, params, regime, mode))
                assert got[0] == want[0] and (got[0] == "ok" or got == want)
    for state in _LARGE_STATES:
        for params in _OVERFLOWING:
            want = _outcome(lambda: [_reference_shift(state, params, regime, mode)
                                     for regime in (Regime.RGUP, Regime.GUP) for mode in Mode])
            got = _outcome(lambda: discrepancy_report(state, params))
            assert got[0] == want[0] and (got[0] == "ok" or got == want)
    assert {"ok", "jz_plus_sz", "p2_jz_minus_sz"} <= seen, seen


def test_level_half_p2_is_exp_p2_angular_bit_for_bit():
    for l in (*range(1001), 2**53 - 1):
        state = QuantumState(n=l + 1, l=l, branch=Branch.PLUS, mj=0.5)
        assert level_half(state)["p2"].hex() == exp_p2_angular(l).hex(), l


# -- lines against the per-state reference; the table level ----------------------

#: (l, branch) of a level: j = l - 1/2 needs l >= 1
_LEVEL_SHAPES = st.tuples(st.integers(0, 3), st.sampled_from(list(Branch))).filter(
    lambda shape: shape[0] or shape[1] is Branch.PLUS)
_FINITE = [PLANCK, params_zero_gamma(), params_with_scale(1e-3), params_with_scale(0.05, B=3.7e4),
           make_params(B=1e4, gamma_mode="explicit", gamma=1e-160)]


def _hexed(lines):
    return [(ln.upper, ln.lower, ln.delta_mj.hex(), ln.polarization, ln.shift_erg.hex(),
             ln.level_offset_erg.hex()) for ln in lines]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_lines_match_a_per_state_reference_bit_for_bit(data):
    """Interleaved and repeated states of up to three levels, in every regime
    and mode: the lines of the per-state reference, floats compared by hex,
    or the failure the per-term reference names."""
    pool = [state for l, branch in data.draw(st.lists(_LEVEL_SHAPES, min_size=1, max_size=3))
            for state in level_states(l + data.draw(st.integers(1, 2)), l, branch)]
    states = st.lists(st.sampled_from(pool), min_size=1, max_size=10)
    upper, lower = data.draw(states), data.draw(states)
    params = data.draw(st.sampled_from(_OVERFLOWING + _FINITE))
    regime, mode = data.draw(st.sampled_from(list(Regime))), data.draw(st.sampled_from(list(Mode)))
    got = _outcome(lambda: zeeman_lines(upper, lower, params, regime, mode))
    want = _outcome(lambda: _reference_lines_failure(upper, lower, params, regime, mode))
    assert got[0] == want[0]
    if got[0] == "ok":
        assert _hexed(got[1]) == _hexed(_reference_lines(upper, lower, params, regime, mode))
    else:
        assert got == want


_PLAN_KEYS = [(regime, published) for regime in Regime for published in (False, True)
              if not published or regime in (Regime.GUP, Regime.RGUP)]


def _every_part(plan, params, sweeps=True):
    """What each part of the plan gives for the params, as text: repr keeps
    every bit of a float."""
    state = QuantumState(n=5, l=3, branch=Branch.MINUS, mj=1.5)
    magnetic = []
    offsets = plan.multiplet(state, params, [-2.5, 0.5, 2.5], magnetic.append)
    out = [repr(plan.shift(state, params, Mode.DERIVED)), repr((offsets, magnetic))]
    for part, (field, _) in spectrum._SWEPT.items():
        if sweeps and part != "multiplet":
            written = []
            grid = {"l": [1.0, 3.0], "n": [5.0, 9.0], "mj": [-2.5, 2.5]}.get(field, [0.0, 2.0])
            getattr(plan, part)(state, params, grid, 1.0, "erg", "", written.append)
            out.append("".join(written))
    return out


def test_every_part_gives_what_it_gives_unfolded(monkeypatch):
    # each part reads the constants as literals; compiled as written, over the
    # table's fields as globals, it gives the same bits
    params = [PLANCK._replace(B=3.7e4), params_with_scale(0.05, B=3.7e4), params_zero_gamma(),
              make_params(B=3.7e4, gamma_mode="explicit", gamma=1e15)]
    want = {key: [_every_part(spectrum._Plan(*key), p) for p in params] for key in _PLAN_KEYS}
    monkeypatch.setattr(spectrum, "_folded", lambda source: source)
    for key in _PLAN_KEYS:
        plan = spectrum._Plan(*key)
        for part in spectrum._PARTS:
            globals_ = getattr(plan, part).__globals__
            assert "hbar" not in globals_, (key, part)
            globals_.update(C._asdict())
        assert "hbar" in plan.shift.__code__.co_names, key
        assert [_every_part(plan, p) for p in params] == want[key], key
