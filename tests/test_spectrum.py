"""Shift breakdowns, spin-orbit shift, lines, and mode comparison."""

import ast
import hashlib
import itertools
import math
import random

import pytest

from rgupzeeman.oracle import radial_expectation
from rgupzeeman.spectrum import (
    Branch,
    Mode,
    QuantumState,
    Regime,
    REGIME_TERM_LABELS,
    ZeemanLine,
    discrepancy_report,
    _sz,
    energy_shift_B,
    exp_ls,
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


def test_exp_sz_values():
    # <Sz> = +- mj hbar / (2l + 1), the sign being the branch's
    assert _sz(0, 1.0, 0.5, C.hbar) == 0.5 * C.hbar
    assert _sz(1, 1.0, 1.5, C.hbar) == 0.5 * C.hbar
    assert _sz(1, -1.0, 0.5, C.hbar) == pytest.approx(-C.hbar / 6.0, rel=1e-15)


def test_exp_sz_sum_rule():
    # the multiplet sum vanishes exactly for both branches
    for l, branch in ((0, Branch.PLUS), (1, Branch.PLUS), (1, Branch.MINUS),
                      (3, Branch.PLUS), (3, Branch.MINUS)):
        sgn = 1.0 if branch is Branch.PLUS else -1.0
        states = level_states(l + 1, l, branch)
        assert math.fsum(_sz(l, sgn, s.mj, C.hbar) for s in states) == 0.0


def test_exp_ls():
    assert exp_ls(1, 0.5) == 0.5 * C.hbar**2
    assert exp_ls(0, 0.5) == 0.0
    assert exp_ls(-2, -0.5) == C.hbar**2


def test_exp_p2_angular():
    assert exp_p2_angular(0) == 0.0
    assert exp_p2_angular(1) == pytest.approx(2.0 * C.hbar**2 / C.r0**2, rel=1e-15)
    assert exp_p2_angular(1, r=2.0 * C.r0) == pytest.approx(
        0.5 * C.hbar**2 / C.r0**2, rel=1e-15)
    with pytest.raises(ValidationError):
        exp_p2_angular(1, r=0.0)


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
    params = make_params(B=1e4, epsilon=2.0, gamma_mode="explicit", gamma=gamma)
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
        PhysicalParams(B=1e4, epsilon=-1.0, gamma=0.0, m=C.m_e, Z=1, constants=C)
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
    deformed = hls_shift(state, params_with_scale(0.25))
    assert deformed == pytest.approx(0.75 * undeformed, rel=1e-12)


def test_hls_l0_vanishes():
    state = QuantumState(n=1, l=0, branch=Branch.PLUS, mj=0.5, ml=0, ms=0.5)
    assert hls_shift(state, PLANCK) == 0.0


@pytest.mark.parametrize("ml", [1, 0])
def test_hls_outside_double_precision_is_a_domain_error(ml):
    state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5, ml=ml, ms=0.5)
    with pytest.raises(ValidationError):
        hls_shift(state, make_params(gamma_mode="explicit", gamma=1e300))


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
    from rgupzeeman import spectrum

    def function(plan, part, deformed):
        """The given values, unchecked; the magnetic ones take the sign of m_j."""
        def magnetic_of(subs):
            return tuple(math.copysign(v, subs.mj) for v in magnetic)
        return {"magnetic": magnetic_of, "offset": lambda subs: offset,
                "all": lambda subs: magnetic_of(subs) + offset}[part]
    monkeypatch.setattr(spectrum._Plan, "function", function)
    with pytest.raises(ValidationError) as caught:
        zeeman_lines(level_states(2, 1, Branch.PLUS), level_states(1, 0, Branch.PLUS),
                     PLANCK, Regime.RGUP)
    assert caught.value.field == field


def _names_read(form):
    """{(name, attribute)} a term expression reads; it reads nothing else."""
    nodes = list(ast.walk(ast.parse(form, mode="eval")))
    assert {n.id for n in nodes if isinstance(n, ast.Name)} <= {"s", "math"}, form
    attributes = [n for n in nodes if isinstance(n, ast.Attribute)]
    assert all(isinstance(n.value, ast.Name) for n in attributes), form
    return {(n.value.id, n.attr) for n in attributes}


def test_every_plan_compiles_from_the_substitutions_and_math():
    from rgupzeeman import spectrum
    forms = [form for t in spectrum._TERMS for form in (t.derived, t.published)
             if form is not None]
    for form in forms:
        for obj, attribute in _names_read(form):
            if obj == "s":
                assert attribute in spectrum._Substitutions.__slots__, form
            else:
                assert isinstance(getattr(math, attribute, None), float), form
    state = QuantumState(n=4, l=3, branch=Branch.MINUS, mj=-1.5)
    for (regime, _), plan in spectrum._PLANS.items():
        subs = spectrum._Substitutions(state, params_with_scale(1e-3), regime)
        assert set(plan.forms) <= set(forms)
        for deformed in (False, True):
            values = plan.function("all", deformed)(subs)
            assert [v is None for v in values] == [d and not deformed
                                                   for d in plan.deformation]
            for part, is_offset in (("magnetic", False), ("offset", True)):
                assert list(plan.function(part, deformed)(subs)) == [
                    v for (_, _, tags), v in zip(plan.terms, values)
                    if v is not None and ("non-magnetic" in tags) == is_offset]


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("regime", list(Regime))
def test_level_offsets_read_no_mj(regime, mode):
    """zeeman_lines sums a level's offset terms once, at its first m_j."""
    from rgupzeeman import spectrum
    plan = spectrum._plan_of(regime, mode)
    for (label, _, tags), form in zip(plan.terms, plan.forms):
        if "non-magnetic" in tags:
            assert not {attr for _, attr in _names_read(form)} & {"mj", "jz", "sz"}, label
    for level in ((4, 3, Branch.PLUS), (4, 3, Branch.MINUS), (2, 0, Branch.PLUS)):
        states = level_states(*level)
        subs = spectrum._Substitutions(states[0], params_with_scale(1e-3), regime)
        offset_of = plan.function("offset", subs.deformed)
        bits = set()
        for state in states:
            subs.set_mj(state.mj)
            bits.add(tuple(v.hex() for v in offset_of(subs)))
        assert len(bits) == 1


def test_lines_empty_sets_rejected():
    with pytest.raises(ValidationError):
        zeeman_lines((), level_states(1, 0, Branch.PLUS), PLANCK, Regime.LANDE)


def test_lines_build_one_substitution_per_level(monkeypatch):
    from rgupzeeman import spectrum
    built = []

    class Counted(spectrum._Substitutions):
        __slots__ = ()

        def __init__(self, state, *rest):
            built.append(state)
            super().__init__(state, *rest)
    monkeypatch.setattr(spectrum, "_Substitutions", Counted)
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


@pytest.mark.parametrize("mode", list(Mode))
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("first, second", [
    ((3, 2, Branch.PLUS), (4, 2, Branch.MINUS)),   # same l, the other branch
    ((4, 2, Branch.PLUS), (4, 3, Branch.PLUS)),    # same branch, another l
], ids=("branch", "l"))
def test_lines_over_interleaved_levels_match_a_per_state_reference(first, second,
                                                                   regime, mode):
    upper = _interleaved(level_states(*first), level_states(*second))
    upper.append(upper[0])                          # a repeated state
    lower = _interleaved(level_states(5, 1, Branch.PLUS), level_states(5, 2, Branch.MINUS),
                         level_states(5, 3, Branch.PLUS))
    lower.append(upper[1])                          # a state in both sets
    params = params_with_scale(1e-3)
    lines = zeeman_lines(upper, lower, params, regime, mode)
    assert lines == _reference_lines(upper, lower, params, regime, mode)
    assert all(type(ln) is ZeemanLine for ln in lines)


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
