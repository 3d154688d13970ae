"""Constants table, parameter records, and energy conversion."""

import math

import pytest

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


def test_unknown_source_rejected():
    with pytest.raises(ValidationError):
        load_constants("codata-online")


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
])
def test_make_params_validation(kwargs, field):
    with pytest.raises(ValidationError) as err:
        make_params(**kwargs)
    assert err.value.field == field
    if "gamma_mode" in kwargs and not (kwargs["gamma_mode"] == "explicit" and "gamma" in kwargs):
        return  # one of make_params' own rules, which resolve gamma_mode
    # every other rule lives in the record, which rejects the same value
    record = dict(B=0.0, epsilon=1.0, gamma=0.0, m=DEFAULT_CONSTANTS.m_e, Z=1,
                  constants=DEFAULT_CONSTANTS)
    record.update((k, v) for k, v in kwargs.items() if k != "gamma_mode")
    with pytest.raises(ValidationError) as err:
        PhysicalParams(**record)
    assert err.value.field == field


@pytest.mark.parametrize("Z", [2, 2.0])
def test_integral_Z_is_stored_as_int(Z):
    for params in (make_params(Z=Z), PhysicalParams(B=0.0, epsilon=1.0, gamma=0.0,
                                                    m=1.0, Z=Z, constants=DEFAULT_CONSTANTS)):
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
    lines = constants_dump(table).splitlines()
    assert len(lines) == 8
    for line in lines:
        name, value, unit = line.split(" ")
        assert float(value) == getattr(table, name)
        assert unit
