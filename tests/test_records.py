"""Records: immutable, validated named tuples with pinned reprs."""

import copy
import pickle

import pytest

from rgupzeeman import (
    Branch,
    PhysicalParams,
    QuantumState,
    Regime,
    ValidationError,
    discrepancy_report,
    energy_shift_B,
    level_states,
    make_params,
    zeeman_lines,
)
from rgupzeeman.units import DEFAULT_CONSTANTS

STATE = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=0.5)
PARAMS = make_params(B=1.0e4, epsilon=0.05, gamma_mode="explicit", gamma=0.0, Z=2.0)
LINE = zeeman_lines(level_states(2, 1, Branch.PLUS), level_states(1, 0, Branch.PLUS),
                    PARAMS, Regime.REL)[0]
RECORDS = (STATE, PARAMS, energy_shift_B(STATE, PARAMS, Regime.LANDE), LINE,
           discrepancy_report(STATE, PARAMS))

_STATE = "QuantumState(n=2, l=1, branch=<Branch.PLUS: 'plus'>, mj=0.5, ml=None, ms=None)"


# the lib-grid benchmark digest hashes repr(ZeemanLine), so these bytes are output
@pytest.mark.parametrize("record, text", zip(RECORDS, (
    _STATE,
    "PhysicalParams(B=10000.0, epsilon=0.05, gamma=0.0, m=9.1093837015e-28, Z=2, "
    "constants=ConstantsTable(e=4.803204712570263e-10, m_e=9.1093837015e-28, "
    "c=29979245800.0, hbar=1.054571817e-27, alpha=0.0072973525693, "
    "r0=5.29177210903e-09, m_planck=2.176434e-05))",
    f"ShiftBreakdown(state={_STATE}, regime=<Regime.LANDE: 'lande'>, "
    "mode=<Mode.DERIVED: 'derived'>, correction_scale=0.0, "
    "terms=(ShiftTerm(label='jz_plus_sz', expression='-(e B / 2 m_e c) <Jz + Sz>', "
    "value_erg=-6.182673381786533e-17, tags=()),))",
    "ZeemanLine(upper=QuantumState(n=2, l=1, branch=<Branch.PLUS: 'plus'>, mj=-1.5, "
    "ml=None, ms=None), lower=QuantumState(n=1, l=0, branch=<Branch.PLUS: 'plus'>, "
    "mj=-0.5, ml=None, ms=None), delta_mj=-1.0, polarization='sigma-', "
    "shift_erg=9.273516219082192e-17, level_offset_erg=0.0)",
    f"DiscrepancyReport(state={_STATE}, differences=(TermDifference("
    "regime=<Regime.RGUP: 'rgup'>, label='p2_jz_minus_sz', "
    "derived_erg=1.6461786586870949e-21, published_erg=1560992.463623836, "
    "ratio=9.482521568277412e+26, tags=('missing-hbar-power',)),), "
    "agreements=('rgup:jz_plus_sz', 'rgup:anomalous_sz', 'gup:jz_plus_sz'))",
)), ids=("state", "params", "breakdown", "line", "report"))
def test_repr_is_pinned(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=("state", "params", "breakdown", "line",
                                                 "report"))
def test_records_are_immutable_and_round_trip(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    for clone in (copy.copy(record), copy.deepcopy(record),
                  *(pickle.loads(pickle.dumps(record, protocol))
                    for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert type(clone) is type(record)
        assert repr(clone) == repr(record)


def test_equal_states_hash_equal():
    twin = QuantumState(2, 1, Branch.PLUS, 0.5)
    assert twin == STATE and twin is not STATE
    assert hash(twin) == hash(STATE)
    assert {STATE: 1}[twin] == 1
    assert twin != STATE._replace(mj=-0.5)


def test_records_are_tuples():
    assert tuple(STATE) == (2, 1, Branch.PLUS, 0.5, None, None)
    assert STATE[3] == STATE.mj == 0.5
    assert STATE == (2, 1, Branch.PLUS, 0.5, None, None)


_GOOD_PARAMS = dict(B=0.0, epsilon=1.0, gamma=0.0, m=1.0, Z=1, constants=DEFAULT_CONSTANTS)


@pytest.mark.parametrize("build", [
    lambda: QuantumState(2, 1, Branch.PLUS, 9.5),
    lambda: QuantumState(n=2, l=1, branch=Branch.PLUS, mj=9.5),
    lambda: QuantumState._make((2, 1, Branch.PLUS, 9.5, None, None)),
    lambda: STATE._replace(mj=9.5),
    lambda: STATE._replace(ml=1),  # ml without ms
], ids=("positional", "keyword", "make", "replace", "replace-ml"))
def test_every_state_constructor_validates(build):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.field in ("mj", "ml")


@pytest.mark.parametrize("build", [
    lambda: PhysicalParams(*{**_GOOD_PARAMS, "B": -1.0}.values()),
    lambda: PhysicalParams(**{**_GOOD_PARAMS, "B": -1.0}),
    lambda: PhysicalParams._make({**_GOOD_PARAMS, "B": -1.0}.values()),
    lambda: make_params(B=1.0)._replace(B=-1.0),
], ids=("positional", "keyword", "make", "replace"))
def test_every_params_constructor_validates(build):
    with pytest.raises(ValidationError) as err:
        build()
    assert err.value.field == "B"


def test_replace_and_make_keep_the_integral_Z_rule():
    assert type(PARAMS._replace(Z=3.0).Z) is int
    assert type(PhysicalParams._make({**_GOOD_PARAMS, "Z": 3.0}.values()).Z) is int
    with pytest.raises(ValidationError):
        PARAMS._replace(Z=2.5)
