"""Property test of the CLI exit-code contract over random argv.

Every subcommand, run in-process with random flags, RGUPZ_* values and
--config files, must exit 0, 2, 3 or 4 without an escaping exception,
print nothing on exit 2 or 3, and print strict JSON under --json.
Quantum numbers of shift, sweep and discrepancy, and every --Z, are also
drawn past 2**53, where a double no longer holds every integer.  The rest
stay bounded so each run is short: oracle's n and l and lines' n and
l <= 12 (their cost grows with them), --steps <= 50, --nodes <= 200.

The parser's table path must give argparse's namespace for every argv it
takes, and take none that argparse rejects.
"""

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import random
import runpy
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rgupzeeman import cli, opalg
from rgupzeeman.units import DEFAULT_CONSTANTS

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

#: the text each config key is given in the environment or a config file
_SETTING_TEXTS = {
    "params.b_tesla": numbers, "params.epsilon": numbers,
    "params.gamma": texts, "params.z": texts,
    "output.unit": st.sampled_from(["eV", "erg", "cm-1", "Hz", "bogus"]),
    "output.format": st.sampled_from(["table", "json", "csv", "bogus"]),
}
_ENV = st.fixed_dictionaries({}, optional={
    cli.ENV_PREFIX + key.upper().replace(".", "_"): text
    for key, text in _SETTING_TEXTS.items()})
#: a config file of known keys and one unknown key, each with any text
_CONFIG_TEXT = st.fixed_dictionaries(
    {}, optional={**_SETTING_TEXTS, "params.bogus": numbers}).map(
    lambda chosen: "".join(f"{key} = {value}\n" for key, value in chosen.items()))


@pytest.fixture(scope="module")
def config_files(tmp_path_factory):
    """The --config paths a run draws from, written once per module, since
    hypothesis rejects a function-scoped fixture; each run that draws
    "valid" writes its own keys and values there."""
    root = tmp_path_factory.mktemp("config")
    (root / "no-equals.cfg").write_text("params.b_tesla 2.0\n", encoding="utf-8")
    (root / "not-utf8.cfg").write_bytes(b"\xff\xfe bad")
    return {"valid": root / "valid.cfg", "missing": root / "missing.cfg",
            "directory": root, "no-equals": root / "no-equals.cfg",
            "not-utf8": root / "not-utf8.cfg"}


def _reject(constant):
    raise AssertionError(f"non-strict JSON constant {constant}")


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_every_argv_follows_the_exit_code_contract(command, data, config_files):
    parts = data.draw(COMMANDS[command])
    banner = data.draw(st.sampled_from([[], ["--banner"]]))
    # no --config in half the runs; else one file, before or after the subcommand
    config = data.draw(st.sampled_from([None] * len(config_files) + list(config_files)))
    before = after = []
    if config is not None:
        if config == "valid":
            config_files[config].write_text(data.draw(_CONFIG_TEXT), encoding="utf-8")
        flag = ["--config", str(config_files[config])]
        before, after = data.draw(st.sampled_from([(flag, []), ([], flag)]))
    argv = [*banner, *before, command, *(flag for part in parts for flag in part), *after]
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


#: a valid argv of each subcommand
_VALID = {"constants": [], "shift": ["--l", "1", "--mj", "0.5"],
          "sweep": ["--param", "B", "--values", "0,1", "--l", "1", "--mj", "0.5"],
          "lines": ["--upper-l", "1", "--lower-l", "0"], "verify-algebra": [],
          "dispersion": [], "discrepancy": ["--l", "1", "--mj", "0.5"],
          "oracle": ["--n", "2", "--l", "1"]}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_a_flag_given_no_number_follows_the_exit_code_contract(command):
    """Every valued flag of the subcommand, --config included, as --flag=--
    (which argparse before 3.13 stores as []), --flag -- or --flag -1e5
    (which only some Pythons read as a number), after a valid argv; --config
    also before the subcommand."""
    parser = cli.build_parser()
    sub = next(action.choices for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))[command]
    flags = [flag for action in sub._actions if action.option_strings and action.nargs is None
             for flag in action.option_strings]
    assert "--config" in flags
    env = {k: v for k, v in os.environ.items() if not k.startswith(cli.ENV_PREFIX)}
    for flag in flags:
        for odd in ([f"{flag}=--"], [flag, "--"], [flag, "-1e5"]):
            for argv in ([command, *_VALID[command], *odd],
                         *([[*odd, command, *_VALID[command]]] if flag == "--config" else [])):
                out = io.StringIO()
                with mock.patch.dict(os.environ, env, clear=True), \
                        contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:  # argparse rejects a flag this way
                        code = exc.code
                assert code in (0, 2, 3, 4), argv
                if code in (2, 3):
                    assert out.getvalue() == "", argv


#: a valid argv of each subcommand that takes --gamma, for gamma and epsilon
#: to append; a sweep's fixed epsilon or its epsilon grid's top end
_DEFORMED = {
    "shift": lambda eps: [*_VALID["shift"], "--epsilon", eps],
    "sweep": lambda eps: [*_VALID["sweep"], "--epsilon", eps],
    "sweep-epsilon": lambda eps: ["--param", "epsilon", "--values", f"0,{eps}",
                                  "--l", "1", "--mj", "0.5"],
    "lines": lambda eps: [*_VALID["lines"], "--epsilon", eps],
    "discrepancy": lambda eps: [*_VALID["discrepancy"], "--epsilon", eps],
    "dispersion": lambda eps: ["--m-grams", repr(DEFAULT_CONSTANTS.m_e), "--epsilon", eps],
}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_every_command_holds_the_trans_planckian_bound(data):
    """q = eps gamma^2 (m_e c)^2 drawn on both sides of 1/8: exit 3 and empty
    stdout above it, exit 0 below it, in every subcommand and regime."""
    form = data.draw(st.sampled_from(sorted(_DEFORMED)))
    above = data.draw(st.booleans())
    q = data.draw(st.floats(0.13, 1e200) if above else st.floats(0.0, 0.12))
    epsilon = data.draw(st.sampled_from([1.0, 1e-30, 1e30]))
    gamma = math.sqrt(q / epsilon) / (DEFAULT_CONSTANTS.m_e * DEFAULT_CONSTANTS.c)
    argv = [form.partition("-")[0], *_DEFORMED[form](repr(epsilon)), "--gamma", repr(gamma)]
    if form not in ("discrepancy", "dispersion"):
        argv += ["--regime", data.draw(st.sampled_from(["lande", "rel", "gup", "rgup"]))]
    env = {k: v for k, v in os.environ.items() if not k.startswith(cli.ENV_PREFIX)}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env, clear=True), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if above:
        assert (code, out.getvalue()) == (3, ""), argv
        assert "exceeds 1/8" in err.getvalue(), argv
    else:
        assert code == 0 and out.getvalue(), (argv, err.getvalue())


_PARSER = cli.build_parser()
_SUBPARSERS = next(action.choices for action in _PARSER._actions
                   if isinstance(action, argparse._SubParsersAction))
#: values each flag reads, and values that are negative numbers (-1e5 reads
#: as one only on some Pythons), lone dashes, NaN, bad types or bad choices
_TYPED = {int: ("1", "-3"), float: ("0.5", "-0.5", "1e300"), None: ("planck", "0.5,1")}
_ODD = ("--", "-0.5", "-1e5", "-", "nan", "abc", "")
_ROOT_FLAGS = st.sampled_from([[]] * 9 + [["--banner"], ["--config", "rgupz.cfg"], ["-h"]])


def _flag(flags, values, forms=("=", " ")):
    """One of the flags, with one of the values as --flag=value or --flag value,
    or bare."""
    def tokens(flag, value, form):
        return {"=": [f"{flag}={value}"], " ": [flag, value], "": [flag]}[form]
    return st.builds(tokens, st.sampled_from(flags), st.sampled_from(values),
                     st.sampled_from(forms))


def _any_argv(command):
    """The subcommand between optional root flags and its own flags, in any
    order: all of its required flags or none, any others (repeats included),
    and at most one odd one: abbreviated, bare, oddly valued, or a flag that
    takes no value."""
    actions = [action for action in _SUBPARSERS[command]._actions if action.option_strings]
    plain = {action: [str(value) for value in action.choices or _TYPED[action.type]]
             for action in actions if action.nargs is None}
    required = st.tuples(*(_flag(action.option_strings, plain[action])
                           for action in actions if action.required))
    good = [_flag(action.option_strings, values) for action, values in plain.items()]
    odd = [strategy for action, values in plain.items() for strategy in (
        _flag([flag[:-1] for flag in action.option_strings], values),
        _flag(action.option_strings, values, ("",)),
        _flag(action.option_strings, _ODD))]
    odd += [_flag(action.option_strings, _ODD, ("", "=")) for action in actions
            if action not in plain]
    flags = st.builds(lambda *parts: [flag for part in parts for flag in part],
                      st.one_of(required, st.just(())),
                      st.lists(st.one_of(good), max_size=4) if good else st.just([]),
                      st.lists(st.one_of(odd), max_size=1))

    def argv(before, flags, after):
        return [*before, command, *(token for flag in flags for token in flag), *after]
    return st.builds(argv, _ROOT_FLAGS, flags.flatmap(st.permutations), _ROOT_FLAGS)


_ARGV = {command: _any_argv(command) for command in _SUBPARSERS}


def _outcome(parse, argv):
    """parse(argv) as each attribute's repr (so NaN equals NaN), or as its
    exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return {name: repr(value) for name, value in vars(parse(argv)).items()}
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


def _check_the_table_path(argv):
    """The table that main asks first gives what argparse gives for every
    argv it takes, so it takes none that argparse rejects.  Returns whether
    it took argv."""
    taken = cli._parse_plain(argv) is not None
    if taken:
        assert _outcome(cli._parse_plain, argv) == _outcome(_PARSER.parse_args, argv), argv
    return taken


@pytest.mark.parametrize("command", sorted(_SUBPARSERS))
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_the_table_path_parses_as_argparse_does(command, data):
    _check_the_table_path(data.draw(_ARGV[command]))


@pytest.mark.parametrize("argv", [
    ["shift", "--l", "1", "--mj", "-0.5"],
    ["shift", "--mj", "-1e5"],  # a negative number only on some Pythons
    ["shift", "--gamma=--"],  # before 3.13 argparse reads it as []
    ["shift", "--gamma", "--"],
    ["shift", "--regime", "abc"],
    ["shift", "--branc", "plus"],
    ["shift", "--json", "--csv"],
    ["--config", "rgupz.cfg", "shift"],
    ["sweep", "--l", "1"],
    ["shift", "-h"],
    ["shift", "--json", "--json"],  # argparse takes one format twice
    ["shift", "--banner=1"],
    ["shift", "--json=x"],
])
def test_the_table_path_parses_edge_argv_as_argparse_does(argv):
    _check_the_table_path(argv)


def test_every_benchmark_sweep_job_takes_the_table_path():
    """So does every argv of a cli-cold cycle that argparse accepts."""
    inputs = runpy.run_path(str(pathlib.Path(__file__).parent.parent / "perfbench" / "inputs.py"))
    for seed in range(3):
        for argv in map(list, inputs["sweep_round"](random.Random(seed))):
            assert _check_the_table_path(argv), argv
        for argv in map(list, inputs["cold_cycle"](random.Random(seed))):
            if isinstance(_outcome(_PARSER.parse_args, argv), dict):
                assert _check_the_table_path(argv), argv
