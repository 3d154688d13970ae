"""Example-based checks of the exact operator algebra."""

import itertools
from fractions import Fraction

import pytest

from rgupzeeman import opalg
from rgupzeeman.opalg import (
    COVARIANT_MAP,
    MINKOWSKI,
    commutator,
    deformed_ops,
    euclidean,
    normal_product,
    p0,
    p0_squared,
    unit,
    verify_algebra,
    x0,
    zero,
)
from rgupzeeman.units import VERIFICATION_CASES

E3 = euclidean(3)


def ihbar(metric):
    return unit(metric).times("i").times("hbar")


def test_product_single_swap():
    # p0^1 x0^1 = x0^1 p0^1 - i hbar
    got = normal_product(p0(1, E3), x0(1, E3))
    want = normal_product(x0(1, E3), p0(1, E3)) - ihbar(E3)
    assert got == want


def test_product_already_normal_ordered():
    got = normal_product(x0(1, E3), p0(1, E3))
    terms = list(got.terms())
    assert len(terms) == 1
    coeff, params, xs, ps = terms[0]
    assert (coeff, xs, ps) == (Fraction(1), (1,), (1,))
    assert all(p == 0 for p in params)


def test_product_double_swap():
    # p0^1 (x0^1)^2 = (x0^1)^2 p0^1 - 2 i hbar x0^1
    x1sq = normal_product(x0(1, E3), x0(1, E3))
    got = normal_product(p0(1, E3), x1sq)
    want = normal_product(x1sq, p0(1, E3)) - x0(1, E3).scale(2).times("i").times("hbar")
    assert got == want


def test_commutator_canonical_pair():
    assert commutator(x0(1, E3), p0(1, E3)) == ihbar(E3)


def test_commutator_with_p_squared():
    # [x0^1, p0.p0] = 2 i hbar p0^1 in D = 3
    got = commutator(x0(1, E3), p0_squared(E3))
    assert got == p0(1, E3).scale(2).times("i").times("hbar")


def test_momenta_commute():
    assert commutator(p0(1, E3), p0(2, E3)).is_zero()


def test_minkowski_signature():
    assert commutator(x0(0, MINKOWSKI), p0(0, MINKOWSKI)) == ihbar(MINKOWSKI).scale(-1)
    assert commutator(x0(1, MINKOWSKI), p0(1, MINKOWSKI)) == ihbar(MINKOWSKI)
    assert commutator(x0(0, MINKOWSKI), p0(1, MINKOWSKI)).is_zero()


def test_metric_mismatch_raises():
    with pytest.raises(ValueError):
        normal_product(x0(1, E3), p0(1, MINKOWSKI))


def test_truncate_drops_higher_orders():
    one = unit(E3)
    p = p0(1, E3)
    poly = one + p.times("a1") + p.times("a1", 2).scale(5)
    assert poly.truncate({"a1": 1}) == one + p.times("a1")


def test_truncate_without_capped_params_is_identity():
    poly = unit(E3) + p0(2, E3).scale(Fraction(3, 7)).times("hbar")
    assert poly.truncate({"a1": 0, "eps": 0}) == poly


def test_truncate_eps_gamma2_product():
    poly = unit(E3).times("eps", 2).times("gamma2", 2)
    assert poly.truncate({"eps": 1}).is_zero()
    assert poly.truncate({"gamma2": 1}).is_zero()


def test_truncate_commutes_with_addition():
    a = unit(E3) + p0(1, E3).times("a1", 2)
    b = x0(2, E3).times("a1") - p0(3, E3).times("a1", 2).scale(7)
    caps = {"a1": 1}
    assert (a + b).truncate(caps) == a.truncate(caps) + b.truncate(caps)


def test_nonrel_special_case_position_is_undeformed():
    xs, _ = deformed_ops(E3, a2=(2, ("a1",)))
    for i, xi in zip(E3.indices(), xs):
        assert xi == x0(i, E3)


@pytest.mark.parametrize("metric", [E3, MINKOWSKI], ids=["euclidean", "minkowski"])
def test_undeformed_limit(metric):
    xs, ps = deformed_ops(metric, a1=(0, ()), a2=(0, ()))
    for mu, xmu, pmu in zip(metric.indices(), xs, ps):
        assert xmu == x0(mu, metric)
        assert pmu == p0(mu, metric)


def test_nonrel_momentum_term_count():
    # p^i = p0^i + (a2/2) p0^i p0^j p0^j summed over j: 1 + D monomials
    _, ps = deformed_ops(E3)
    for pi in ps:
        assert len(pi) == 1 + 3
        deformed = [t for t in pi.terms() if t[1][opalg.PARAMS.index("a2")] == 1]
        assert len(deformed) == 3
        assert all(coeff == Fraction(1, 2) for coeff, *_ in deformed)


def test_rel_position_has_one_term():
    # the covariant map a2 = 2 a1 cancels the position deformation
    xs, _ = deformed_ops(MINKOWSKI, **COVARIANT_MAP)
    for mu, xmu in zip(MINKOWSKI.indices(), xs):
        assert xmu == x0(mu, MINKOWSKI)
        assert len(xmu) == 1


def test_rel_momentum_metric_contraction_signs():
    # p^0 deformation: eps gamma2 * p0^0 * (-p0^0 p0^0 + sum_i p0^i p0^i)
    _, ps = deformed_ops(MINKOWSKI, **COVARIANT_MAP)
    want = p0(0, MINKOWSKI) + normal_product(
        p0(0, MINKOWSKI), p0_squared(MINKOWSKI)).times("eps").times("gamma2")
    assert ps[0] == want
    time_cubed = [t for t in ps[0].terms() if t[3] == (0, 0, 0)]
    assert len(time_cubed) == 1
    assert time_cubed[0][0] == Fraction(-1)


def _first_order_residual(got, want):
    """got - want, asserting each of its terms has total (a1, a2) order >= 2."""
    a1_idx = opalg.PARAMS.index("a1")
    a2_idx = opalg.PARAMS.index("a2")
    residual = got - want
    for _, params, _, _ in residual.terms():
        assert params[a1_idx] + params[a2_idx] >= 2
    return residual


@pytest.mark.parametrize("metric", [E3, MINKOWSKI], ids=["euclidean", "minkowski"])
def test_general_position_commutator_first_order(metric):
    # without the a2 = 2 a1 restriction the positions stop commuting:
    # [x^i, x^j] = i hbar (2 a1 - a2)(x0^j p0^i - x0^i p0^j) + higher order
    xs, _ = deformed_ops(metric)
    for (i, xi), (j, xj) in itertools.combinations(zip(metric.indices(), xs), 2):
        base = normal_product(x0(j, metric), p0(i, metric)) \
            - normal_product(x0(i, metric), p0(j, metric))
        want = (base.scale(2).times("a1") - base.times("a2")).times("i").times("hbar")
        # a genuine second-order remainder exists
        assert not _first_order_residual(commutator(xi, xj), want).is_zero()
    # and the special case a2 = 2 a1 leaves the positions commuting exactly
    special, _ = deformed_ops(metric, a2=(2, ("a1",)))
    for xi, xj in itertools.combinations(special, 2):
        assert commutator(xi, xj).is_zero()


@pytest.mark.parametrize("metric", [E3, MINKOWSKI], ids=["euclidean", "minkowski"])
def test_general_position_momentum_commutator_first_order(metric):
    # [x^mu, p^nu] = i hbar (eta^{mu nu} (1 + a1 p0.p0) + a2 p0^mu p0^nu)
    # + higher order, and [p^mu, p^nu] = 0
    xs, ps = deformed_ops(metric)
    ps2 = p0_squared(metric)
    for (mu, xmu), (nu, pnu) in itertools.product(zip(metric.indices(), xs),
                                                  zip(metric.indices(), ps)):
        eta = metric.eta(mu) if mu == nu else 0
        want = ((unit(metric) + ps2.times("a1")).scale(eta)
                + normal_product(p0(mu, metric), p0(nu, metric)).times("a2"))
        _first_order_residual(commutator(xmu, pnu), want.times("i").times("hbar"))
    for pmu, pnu in itertools.combinations(ps, 2):
        assert commutator(pmu, pnu).is_zero()


def test_a_wrong_position_coefficient_fails_every_case(monkeypatch):
    # the builder called with a1 halved turns the position coefficient
    # 2 a1 - a2 into a1 - a2: each case checks the builder's operators, so
    # each fails, the rel-position-position case included
    builder = opalg.deformed_ops

    def halved(metric, a1, a2):
        coeff, names = a1
        return builder(metric, (Fraction(coeff, 2), names), a2)

    monkeypatch.setattr(opalg, "deformed_ops", halved)
    for case in VERIFICATION_CASES:
        assert not verify_algebra(case).passed, case


def test_verify_rel_position_position_passes():
    report = verify_algebra("rel-position-position")
    assert report.passed
    for check in report.checks:
        assert check.residual.is_zero()
        assert check.computed.is_zero()


def test_verify_rel_linear_passes_with_exact_zero_residual():
    report = verify_algebra("rel-linear")
    assert report.passed
    for check in report.checks:
        assert check.residual == zero(MINKOWSKI)


def test_verify_rel_linear_target_structure():
    # [x^mu, p^nu] = i hbar eta (1 + eps gamma2 p0.p0) + 2 i hbar eps gamma2 p0^mu p0^nu
    report = verify_algebra("rel-linear")
    by_bracket = {c.bracket: c for c in report.checks}
    ps2 = p0_squared(MINKOWSKI)
    cross = normal_product(p0(1, MINKOWSKI), p0(2, MINKOWSKI))
    want_12 = cross.scale(2).times("eps").times("gamma2").times("i").times("hbar")
    assert by_bracket["[x1, p2]"].computed == want_12
    want_11 = (unit(MINKOWSKI) + ps2.times("eps").times("gamma2")
               + normal_product(p0(1, MINKOWSKI), p0(1, MINKOWSKI))
               .scale(2).times("eps").times("gamma2")).times("i").times("hbar")
    assert by_bracket["[x1, p1]"].computed == want_11


def test_verify_nonrel_special_reports_doubled_coefficient():
    report = verify_algebra("nonrel-special")
    assert report.passed
    assert any("coefficient-discrepancy" in note for note in report.notes)
    by_bracket = {c.bracket: c for c in report.checks}
    cross = normal_product(p0(1, E3), p0(2, E3))
    want = cross.scale(2).times("a1").times("i").times("hbar")
    assert by_bracket["[x1, p2]"].computed == want


def test_verify_nonrel_special_quoted_target_fails():
    report = verify_algebra("nonrel-special", target="quoted")
    assert not report.passed
    failing = [c for c in report.checks if not c.ok]
    # every [x, p] pair is off by exactly i hbar a1 p0^i p0^j
    assert len(failing) == 9
    for check in failing:
        assert not check.residual.is_zero()


@pytest.mark.parametrize("case, target, calls", [
    ("nonrel-special", "derived", 42), ("nonrel-special", "quoted", 42),
    ("rel-linear", "derived", 52), ("rel-position-position", "derived", 16),
])
def test_normal_product_calls_per_case(case, target, calls, monkeypatch):
    # counted through the module attribute, which is what a tracer patches
    original, counted = opalg.normal_product, []

    def counting(a, b):
        counted.append(case)
        return original(a, b)

    monkeypatch.setattr(opalg, "normal_product", counting)
    verify_algebra(case, target)
    assert len(counted) == calls


def test_verify_unknown_case():
    with pytest.raises(ValueError):
        verify_algebra("kmm-second-order")


def test_poly_str_round_trippable_zero():
    assert str(zero(E3)) == "0"
    assert str(ihbar(E3)) == "hbar*i"
