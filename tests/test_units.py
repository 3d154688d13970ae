"""Constants table, parameter records, and energy conversion."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rgupzeeman.units import (
    DEFAULT_CONSTANTS,
    ConstantsTable,
    GAUSS_PER_TESLA,
    PhysicalParams,
    ValidationError,
    constants_dump,
    convert_energy,
    load_constants,
    make_params,
)


@pytest.fixture(scope="module")
def table():
    return load_constants()


def test_load_constants_invariants(table):
    assert abs(table.alpha - table.e**2 / (table.hbar * table.c)) <= 1e-6 * table.alpha
    assert abs(table.r0 - table.hbar**2 / (table.m_e * table.e**2)) <= 1e-6 * table.r0
    # mu_bohr is computed, so internal consistency is exact by construction
    assert table.mu_bohr == table.e * table.hbar / (2.0 * table.m_e * table.c)
    for name in ("e", "m_e", "c", "hbar", "alpha", "r0", "m_planck"):
        assert getattr(table, name) > 0.0


def test_mu_bohr_times_one_tesla_in_ev(table):
    # CODATA arithmetic: mu_B * 1e4 G = 5.788e-5 eV
    value_ev = convert_energy(table.mu_bohr * GAUSS_PER_TESLA, "erg", "eV")
    assert value_ev == pytest.approx(5.788e-5, rel=1e-3)


def test_fine_structure_value(table):
    assert table.alpha == pytest.approx(7.297e-3, rel=1e-4)


def test_electron_planck_mass_ratio_squared(table):
    assert (table.m_e / table.m_planck) ** 2 == pytest.approx(1.75e-45, rel=1e-2)


def test_validate_rejects_inconsistent_table(table):
    broken = ConstantsTable(e=table.e, m_e=table.m_e, c=table.c,
                            hbar=table.hbar, alpha=table.alpha * 1.01,
                            r0=table.r0, m_planck=table.m_planck)
    with pytest.raises(ValidationError):
        broken.validate()


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("field", ConstantsTable._fields)
def test_validate_rejects_a_field_that_is_not_finite_and_positive(field, value):
    with pytest.raises(ValidationError) as caught:
        DEFAULT_CONSTANTS._replace(**{field: value}).validate()
    assert caught.value.field == field


#: gamma = 1/(m_e c), so the scale eps gamma^2 (m c)^2 is epsilon (m/m_e)^2
_GAMMA_E = 1.0 / (DEFAULT_CONSTANTS.m_e * DEFAULT_CONSTANTS.c)


def _builds(epsilon, gamma, m):
    """The three ways to build a params record: make_params, the
    constructor and _replace."""
    return (lambda: make_params(epsilon=epsilon, gamma_mode="explicit", gamma=gamma, m=m),
            lambda: PhysicalParams(B=0.0, epsilon=epsilon, gamma=gamma, m=m, Z=1),
            lambda: make_params(gamma_mode="explicit", gamma=0.0)._replace(
                epsilon=epsilon, gamma=gamma, m=m))


@pytest.mark.parametrize("epsilon, gamma, m, ok", [
    (0.1, _GAMMA_E, DEFAULT_CONSTANTS.m_e, True),
    (1.0, _GAMMA_E, 0.35 * DEFAULT_CONSTANTS.m_e, True),
    (1.0, 1e20 * _GAMMA_E, 1e-21 * DEFAULT_CONSTANTS.m_e, True),
    (1e-300, 1e149 * _GAMMA_E, DEFAULT_CONSTANTS.m_e, True),
    (0.0, 1e100, DEFAULT_CONSTANTS.m_e, True),
    (0.2, _GAMMA_E, DEFAULT_CONSTANTS.m_e, False),
    (1.0, 1e20, DEFAULT_CONSTANTS.m_e, False),
    (1e-300, 1e300, DEFAULT_CONSTANTS.m_e, False),
    (0.0, 1e300, DEFAULT_CONSTANTS.m_e, False),
], ids=("scale-0.1", "light-mass", "tiny-mass", "tiny-epsilon", "no-epsilon", "scale-0.2",
        "gamma-1e20", "square-overflows", "zero-times-overflow"))
def test_a_params_record_holds_the_trans_planckian_bound(epsilon, gamma, m, ok):
    # 8q <= 1 for q = eps gamma^2 (m c)^2, with (gamma m c)^2 inf where it
    # overflows, so a q of inf or of 0 * inf = NaN fails too
    for build in _builds(epsilon, gamma, m):
        if ok:
            assert 0.0 <= build().correction_scale <= 0.125
        else:
            with pytest.raises(ValidationError) as caught:
                build()
            assert caught.value.field == "correction_scale"
            assert "exceeds 1/8" in str(caught.value)


@st.composite
def _near_the_bound(draw):
    """(epsilon, gamma, m): m from 1e-170 g up, and epsilon within 8 ulps of
    the bound eps (gamma m c)^2 = 1/8, formed with float *."""
    m = 10.0 ** draw(st.floats(-170.0, -20.0))
    gamma = 10.0 ** draw(st.floats(-150.0, 140.0)) / (m * DEFAULT_CONSTANTS.c)
    gmc = gamma * (m * DEFAULT_CONSTANTS.c)
    epsilon = 0.125 / (gmc * gmc)
    ulps = draw(st.integers(-8, 8))
    for _ in range(abs(ulps)):
        epsilon = math.nextafter(epsilon, math.copysign(math.inf, ulps))
    return epsilon, gamma, m


def _scale(epsilon, gamma, m):
    """eps (gamma m c)^2 as every shift forms it, inf where the square overflows."""
    gmc = gamma * (m * DEFAULT_CONSTANTS.c)
    return epsilon * (gmc * gmc)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(_near_the_bound())
# x ** 2 (libm pow) and x * x differ here on glibc: squared with *, the
# scale is exactly 1/8, and the record admits it
@example((0.05380857687514862, 5.581096798031417e16, DEFAULT_CONSTANTS.m_e))
# a scale of 0.09 whose eps gamma^2 overflows
@example((1e-22, 1e170, 1e-170))
def test_an_admitted_record_keeps_both_rules(values):
    # the record reports a scale <= 1/8 and a finite eps gamma^2, and
    # refuses only by a rule the values break, the scale's first
    scale = _scale(*values)
    for build in _builds(*values):
        try:
            params = build()
        except ValidationError as error:
            if error.field == "correction_scale":
                assert not scale <= 0.125, (values, scale)
            else:
                assert error.field == "eps_gamma2" and scale <= 0.125, (values, error)
                assert values[0] * values[1] * values[1] == math.inf, values
            continue
        assert params.correction_scale == scale, values
        assert 0.0 <= scale <= 0.125 and math.isfinite(params.eps_gamma2), values


def test_an_eps_gamma2_past_double_precision_is_refused_by_name():
    # the scale 0.09 keeps the real root, but eps gamma^2 = 1e318 is no double:
    # refused with solve_mass_shell's own text
    for build in _builds(1e-22, 1e170, 1e-170):
        with pytest.raises(ValidationError) as caught:
            build()
        assert caught.value.field == "eps_gamma2"
        assert str(caught.value) == "eps_gamma2: must be finite and >= 0, got inf"


def test_make_params_planck_gamma(table):
    params = make_params(B=0.0, epsilon=1.0, gamma_mode="planck", Z=1)
    assert params.gamma == 1.0 / (table.m_planck * table.c)
    assert params.m == table.m_e


def test_make_params_zero_deformation():
    params = make_params(B=1e4, epsilon=0.0, gamma_mode="explicit", gamma=0.0)
    assert params.correction_scale == 0.0
    assert params.eps_gamma2 == 0.0


def test_make_params_physical_scale():
    params = make_params(B=1e4, epsilon=1.0, gamma_mode="planck")
    assert params.correction_scale == pytest.approx(1.75e-45, rel=1e-2)


@pytest.mark.parametrize("kwargs, field", [
    (dict(B=-1.0), "B"),
    (dict(epsilon=-0.5), "epsilon"),
    (dict(m=0.0), "m"),
    (dict(m=-1e-28), "m"),
    (dict(Z=0), "Z"),
    (dict(gamma_mode="explicit", gamma=-1e-6), "gamma"),
    (dict(gamma_mode="explicit"), "gamma"),
    (dict(gamma_mode="planck", gamma=1e-6), "gamma"),
    (dict(gamma_mode="frobnicate"), "gamma_mode"),
    (dict(B=math.inf), "B"),
    (dict(B=math.nan), "B"),
    (dict(epsilon=math.inf), "epsilon"),
    (dict(epsilon=math.nan), "epsilon"),
    (dict(m=math.inf), "m"),
    (dict(m=math.nan), "m"),
    (dict(Z=2.5), "Z"),
    (dict(Z=math.inf), "Z"),
    (dict(Z=math.nan), "Z"),
    (dict(gamma_mode="explicit", gamma=math.inf), "gamma"),
    (dict(gamma_mode="explicit", gamma=math.nan), "gamma"),
    (dict(B=-math.inf), "B"),
    (dict(epsilon=-math.inf), "epsilon"),
    (dict(m=-math.inf), "m"),
    (dict(gamma_mode="explicit", gamma=-math.inf), "gamma"),
])
def test_make_params_validation(kwargs, field):
    with pytest.raises(ValidationError) as err:
        make_params(**kwargs)
    assert err.value.field == field
    if field != "Z" and not all(map(math.isfinite, (v for v in kwargs.values()
                                                    if isinstance(v, float)))):
        # an infinite B reads "finite and >= 0", not only ">= 0"
        assert "finite" in str(err.value), err.value
    if "gamma_mode" in kwargs and not (kwargs["gamma_mode"] == "explicit" and "gamma" in kwargs):
        return  # one of make_params' own rules, which resolve gamma_mode
    # every other rule lives in the record, which rejects the same value
    record = dict(B=0.0, epsilon=1.0, gamma=0.0, m=DEFAULT_CONSTANTS.m_e, Z=1)
    record.update((k, v) for k, v in kwargs.items() if k != "gamma_mode")
    with pytest.raises(ValidationError) as err:
        PhysicalParams(**record)
    assert err.value.field == field


@pytest.mark.parametrize("Z", [2, 2.0])
def test_integral_Z_is_stored_as_int(Z):
    for params in (make_params(Z=Z), PhysicalParams(B=0.0, epsilon=1.0, gamma=0.0, m=1.0, Z=Z)):
        assert params.Z == 2 and type(params.Z) is int


def test_make_params_deterministic():
    a = make_params(B=123.0, epsilon=0.5, gamma_mode="planck", Z=2)
    b = make_params(B=123.0, epsilon=0.5, gamma_mode="planck", Z=2)
    assert a == b


def test_convert_energy_ev_to_erg():
    assert convert_energy(1.0, "eV", "erg") == pytest.approx(1.602e-12, rel=1e-4)


def test_convert_energy_zero():
    assert convert_energy(0.0, "erg", "eV") == 0.0


def test_convert_energy_ev_to_wavenumber():
    assert convert_energy(1.0, "eV", "cm-1") == pytest.approx(8065.5, rel=1e-4)


@pytest.mark.parametrize("a", ["erg", "eV", "cm-1", "Hz"])
@pytest.mark.parametrize("b", ["erg", "eV", "cm-1", "Hz"])
def test_convert_energy_round_trip(a, b):
    for value in (1.0, 3.7e-12, 2.4e5):
        back = convert_energy(convert_energy(value, a, b), b, a)
        assert abs(back - value) <= 1e-14 * abs(value)


def test_convert_energy_unknown_unit():
    with pytest.raises(ValidationError):
        convert_energy(1.0, "eV", "joule")
    with pytest.raises(ValidationError):
        convert_energy(1.0, "parsec", "erg")


def test_constants_dump_shape(table):
    lines = constants_dump().splitlines()
    assert len(lines) == 8
    for line in lines:
        name, value, unit = line.split(" ")
        assert float(value) == getattr(table, name)
        assert unit
