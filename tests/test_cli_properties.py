"""Property test of the CLI exit-code contract over random argv.

Every subcommand, run in-process with random flags and RGUPZ_* values, must
exit 0, 2, 3 or 4 without an escaping exception, print nothing on exit 2 or
3, and print strict JSON under --json.  Quantum numbers of shift, sweep and
discrepancy, and every --Z, are also drawn past 2**53, where a double no
longer holds every integer.  The rest stay bounded so each run is short:
oracle's n and l and lines' n and l <= 12 (their cost grows with them),
--steps <= 50, --nodes <= 200.
"""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgupzeeman import cli, opalg

numbers = st.one_of(
    st.floats(),
    st.sampled_from([0.0, 0.5, 1.0, 2.5, -1.0, 1e-20, 1e20, 1e150, 1e300]),
    st.integers(0, 12).map(float),
).map(repr)
texts = st.one_of(numbers, st.sampled_from(["planck", "abc", ""]))
quantum = st.integers(-2, 12).map(str)
huge = st.one_of(quantum, st.integers(2**53 - 2, 2**53 + 2).map(str),
                 st.integers(2**53, 10**400).map(str))
half_odd = st.integers(-13, 12).map(lambda k: repr(k + 0.5))
grid = st.lists(st.one_of(st.integers(0, 6).map(lambda k: repr(k / 2)), numbers),
                min_size=1, max_size=4).map(",".join)


def _flags(required=(), **strategies):
    """--flag=value for each required flag (so "-inf" is no flag), and for
    each optional one when it is drawn."""
    return st.fixed_dictionaries(
        {flag: strategies.pop(flag) for flag in required}, optional=strategies).map(
        lambda chosen: [f"--{flag.replace('_', '-')}={value}"
                        for flag, value in chosen.items()])


_BRANCH = st.sampled_from(["plus", "minus"])
_STATE = dict(n=huge, l=huge, branch=_BRANCH, mj=st.one_of(half_odd, numbers))
_PARAMS = dict(B_tesla=numbers, epsilon=numbers, gamma=texts, Z=huge)
_REGIME = dict(regime=st.sampled_from(["lande", "rel", "gup", "rgup"]),
               mode=st.sampled_from(["derived", "as-published"]))
_UNIT = dict(unit=st.sampled_from(["eV", "erg", "cm-1", "Hz"]))
_JSON = st.sampled_from([[], ["--json"]])
_SWEEP = dict(param=st.sampled_from(["B", "epsilon", "l", "mj", "n"]), values=grid,
              steps=st.integers(-1, 50).map(str), **{"from": numbers, "to": numbers})

COMMANDS = {
    "constants": st.tuples(_JSON),
    "shift": st.tuples(_flags(("l", "mj"), **_STATE, **_PARAMS, **_REGIME, **_UNIT),
                       st.sampled_from([[], ["--json"], ["--csv"]])),
    # the grid from --values, or from --from/--to/--steps
    "sweep": st.one_of(*(
        st.tuples(_flags(("param", "l", "mj", *grid_flags),
                         **_SWEEP, **_STATE, **_PARAMS, **_REGIME, **_UNIT))
        for grid_flags in (("values",), ("from", "to")))),
    "lines": st.tuples(_flags(("upper_l", "lower_l"), upper_n=quantum, upper_l=quantum,
                              upper_branch=_BRANCH, lower_n=quantum, lower_l=quantum,
                              lower_branch=_BRANCH, **_PARAMS, **_REGIME, **_UNIT), _JSON),
    "verify-algebra": st.tuples(
        _flags(case=st.sampled_from(["all", *opalg.VERIFICATION_CASES]),
               target=st.sampled_from(["derived", "quoted"])), _JSON),
    # the --mc set, the --m-grams set, or both mixed (exit 2)
    "dispersion": st.tuples(st.one_of(
        _flags(mc=numbers, eps_gamma2=numbers),
        _flags(m_grams=numbers, epsilon=numbers, gamma=texts),
        _flags(mc=numbers, eps_gamma2=numbers, m_grams=numbers, epsilon=numbers,
               gamma=texts),
    ), _flags(order=st.sampled_from(["1", "2", "3"])), _JSON),
    "discrepancy": st.tuples(_flags(("l", "mj"), **_STATE, **_PARAMS), _JSON),
    "oracle": st.tuples(_flags(("n", "l"), n=quantum, l=quantum, Z=huge,
                               nodes=st.integers(-1, 200).map(str))),
}

_ENV = st.fixed_dictionaries({}, optional={
    "RGUPZ_PARAMS_B_TESLA": numbers, "RGUPZ_PARAMS_EPSILON": numbers,
    "RGUPZ_PARAMS_GAMMA": texts, "RGUPZ_PARAMS_Z": texts,
    "RGUPZ_OUTPUT_UNIT": st.sampled_from(["eV", "erg", "cm-1", "Hz", "bogus"]),
    "RGUPZ_OUTPUT_FORMAT": st.sampled_from(["table", "json", "csv", "bogus"]),
})


def _reject(constant):
    raise AssertionError(f"non-strict JSON constant {constant}")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_every_argv_follows_the_exit_code_contract(command, data):
    parts = data.draw(COMMANDS[command])
    banner = data.draw(st.sampled_from([[], ["--banner"]]))
    argv = [*banner, command, *(flag for part in parts for flag in part)]
    env = {k: v for k, v in os.environ.items() if not k.startswith(cli.ENV_PREFIX)}
    env.update(data.draw(_ENV))
    out = io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a flag this way
            code = exc.code
    assert code in (0, 2, 3, 4), argv
    if code in (2, 3):
        assert out.getvalue() == "", argv
    text = out.getvalue().removeprefix(f"rgupz {cli.__version__}\n")
    if code == 0 and ("--json" in argv or text.startswith("{")):
        json.loads(text, parse_constant=_reject)
