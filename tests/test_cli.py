"""CLI contract: golden bytes, exit codes, config precedence, determinism."""

import argparse
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

from rgupzeeman import cli, spectrum

GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parent.parent / "README.md"


def run_cli(*argv, env_extra=None):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RGUPZ_")}
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "rgupzeeman.cli", *argv],
                          capture_output=True, env=env)


@pytest.mark.parametrize("name, argv", [
    ("constants.txt", ("constants",)),
    ("shift_lande.txt", ("shift", "--l", "1", "--branch", "plus", "--mj", "1.5",
                         "--B-tesla", "1", "--regime", "lande")),
    ("shift_rel.csv", ("shift", "--l", "1", "--branch", "plus", "--mj", "0.5",
                       "--B-tesla", "1", "--regime", "rel", "--csv")),
    ("shift_rgup.json", ("shift", "--l", "1", "--branch", "plus", "--mj", "0.5",
                         "--B-tesla", "1", "--regime", "rgup", "--json")),
    ("sweep_b_lande.csv", ("sweep", "--param", "B", "--from", "0", "--to", "2",
                           "--steps", "3", "--l", "1", "--branch", "plus",
                           "--mj", "0.5", "--regime", "lande")),
    ("lines_rgup.json", ("lines", "--upper-n", "3", "--upper-l", "2", "--upper-branch", "minus",
                         "--lower-l", "1", "--regime", "rgup", "--json")),
    ("oracle_n2_l1.json", ("oracle", "--n", "2", "--l", "1")),
])
def test_golden_byte_equality(name, argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_bytes()


def _parser_record(parser: argparse.ArgumentParser) -> dict:
    """Each parser of build_parser, root and subcommands, as its actions in
    order.  No golden holds the -h bytes themselves: argparse wraps the root
    and sweep usage lines differently from Python 3.13 on."""
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))

    def record(parser):
        group = {action: k for k, g in enumerate(parser._mutually_exclusive_groups)
                 for action in g._group_actions}
        return {"prog": parser.prog, "description": parser.description, "actions": [
            {"options": action.option_strings, "dest": action.dest,
             "action": type(action).__name__, "const": repr(action.const),
             "type": getattr(action.type, "__name__", None),
             "choices": {choice.dest: choice.help for choice in action._choices_actions}
             if action is commands else None if action.choices is None else list(action.choices),
             "default": repr(action.default), "required": action.required,
             "help": action.help, "group": group.get(action)}
            for action in parser._actions]}
    return {"": record(parser), **{name: record(sub) for name, sub in commands.choices.items()}}


def test_the_parser_is_pinned():
    assert _parser_record(cli.build_parser()) == \
        json.loads((GOLDEN / "parser.json").read_text(encoding="utf-8"))


def test_output_is_deterministic():
    for argv in (("constants",),
                 ("shift", "--l", "2", "--branch", "minus", "--mj", "-0.5",
                  "--regime", "rgup", "--json")):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode == 0


def test_exit_code_2_on_unknown_flag():
    proc = run_cli("shift", "--l", "1", "--mj", "0.5", "--frobnicate")
    assert proc.returncode == 2


def test_exit_code_2_on_json_with_csv():
    proc = run_cli("shift", "--l", "1", "--mj", "0.5", "--json", "--csv")
    assert proc.returncode == 2
    assert proc.stdout == b""


def test_exit_code_2_on_missing_required():
    proc = run_cli("shift", "--branch", "plus", "--mj", "0.5")
    assert proc.returncode == 2
    assert b"--l" in proc.stderr


def test_exit_code_3_on_domain_error():
    proc = run_cli("shift", "--l", "0", "--branch", "minus", "--mj", "0.5")
    assert proc.returncode == 3
    assert b"domain error" in proc.stderr


def test_exit_code_3_on_invalid_mj():
    proc = run_cli("shift", "--l", "1", "--branch", "plus", "--mj", "1.0")
    assert proc.returncode == 3


def test_exit_code_4_on_verification_failure():
    proc = run_cli("verify-algebra", "--case", "nonrel-special", "--target", "quoted")
    assert proc.returncode == 4


def test_verify_algebra_all_passes():
    proc = run_cli("verify-algebra", "--case", "all")
    assert proc.returncode == 0
    out = proc.stdout.decode()
    assert "case nonrel-special: PASS" in out
    assert "case rel-linear: PASS" in out
    assert "case rel-position-position: PASS" in out
    assert "coefficient-discrepancy" in out


@pytest.mark.parametrize("name, argv, code", [
    ("verify_algebra_all.json", ("verify-algebra", "--case", "all", "--json"), 0),
    ("verify_algebra_quoted.txt",
     ("verify-algebra", "--case", "nonrel-special", "--target", "quoted"), 4),
])
def test_verify_algebra_golden_bytes(name, argv, code):
    proc = run_cli(*argv)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_bytes()


_QUOTED_REL_NOTE = ("target=quoted: the quoted target applies to nonrel-special only; "
                    "this case checked its derived target")


@pytest.mark.parametrize("case", ["rel-linear", "rel-position-position"])
def test_a_rel_case_notes_that_it_checked_its_derived_target(case):
    # the quoted target exists for nonrel-special only: a rel case checks its
    # derived target either way, exits 0 and says so in one note
    derived = run_cli("verify-algebra", "--case", case)
    proc = run_cli("verify-algebra", "--case", case, "--target", "quoted")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == derived.stdout + f"  note: {_QUOTED_REL_NOTE}\n".encode()
    derived = json.loads(run_cli("verify-algebra", "--case", case, "--json").stdout)
    proc = run_cli("verify-algebra", "--case", case, "--target", "quoted", "--json")
    assert (proc.returncode, proc.stderr) == (0, b"")
    (report,) = json.loads(proc.stdout)["reports"]
    assert report == {**derived["reports"][0], "notes": [_QUOTED_REL_NOTE]}


def test_verify_algebra_json_structure():
    proc = run_cli("verify-algebra", "--case", "rel-linear", "--json")
    payload = json.loads(proc.stdout)
    report = payload["reports"][0]
    assert report["passed"] is True
    assert len(report["checks"]) == 16
    assert all(c["residual"] == "0" for c in report["checks"])


def test_rgup_gamma_zero_csv_matches_rel_apart_from_regime_column():
    common = ("--l", "1", "--branch", "plus", "--mj", "0.5", "--B-tesla", "1",
              "--csv")
    rgup = run_cli("shift", "--regime", "rgup", "--gamma", "0", *common)
    rel = run_cli("shift", "--regime", "rel", "--gamma", "0", *common)
    assert rgup.returncode == rel.returncode == 0
    patched = rgup.stdout.decode().replace("\nrgup,", "\nrel,")
    assert patched == rel.stdout.decode()


def test_sweep_l_gup_correction_zero_at_l0():
    proc = run_cli("sweep", "--param", "l", "--values", "0,1,2", "--branch",
                   "plus", "--mj", "0.5", "--regime", "gup", "--B-tesla", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode().splitlines()
    header = lines[0].split(",")
    assert header == ["l", "regime", "jz_plus_sz", "gup_p4", "gup_cross", "total"]
    row0 = lines[1].split(",")
    assert float(row0[0]) == 0.0
    assert float(row0[3]) == 0.0 and float(row0[4]) == 0.0
    row2 = lines[3].split(",")
    assert float(row2[3]) != 0.0


def test_sweep_rows_sorted_by_swept_value():
    proc = run_cli("sweep", "--param", "B", "--values", "2,0,1", "--l", "1",
                   "--branch", "plus", "--mj", "0.5", "--regime", "lande")
    rows = proc.stdout.decode().splitlines()[1:]
    values = [float(r.split(",")[0]) for r in rows]
    assert values == sorted(values)


def test_sweep_single_point():
    proc = run_cli("sweep", "--param", "B", "--from", "0", "--to", "0",
                   "--steps", "1", "--l", "1", "--branch", "plus", "--mj", "0.5")
    rows = proc.stdout.decode().splitlines()
    assert len(rows) == 2
    assert all(float(v) == 0.0 for v in rows[1].split(",")[2:])


def test_lines_json_count():
    proc = run_cli("lines", "--upper-l", "1", "--upper-branch", "plus",
                   "--lower-l", "0", "--lower-branch", "plus", "--json")
    payload = json.loads(proc.stdout)
    assert payload["count"] == 6
    assert len(payload["lines"]) == 6
    pols = {ln["polarization"] for ln in payload["lines"]}
    assert pols == {"pi", "sigma+", "sigma-"}


def test_dispersion_cli_zero_deformation():
    proc = run_cli("dispersion", "--mc", "1", "--eps-gamma2", "0", "--json")
    payload = json.loads(proc.stdout)
    assert payload["exact_root"] == -1.0
    assert payload["residual"] == 0.0


def test_dispersion_cli_trans_planckian_is_domain_error():
    proc = run_cli("dispersion", "--mc", "1", "--eps-gamma2", "0.2")
    assert proc.returncode == 3


@pytest.mark.parametrize("argv", [
    ("dispersion", "--mc", "1", "--eps-gamma2", "0.2"),
    ("dispersion", "--epsilon", "1e50"),
    ("shift", "--l", "1", "--mj", "0.5", "--regime", "rgup", "--epsilon", "1e50"),
], ids=("dispersion-mc", "dispersion-epsilon", "shift"))
def test_every_trans_planckian_refusal_reads_as_the_records(main, argv):
    # the mass shell and the params record refuse with one error and one text
    status, out, err = main(*argv)
    assert (status, out) == (3, "")
    assert err.startswith("rgupz: domain error: correction_scale: "), err
    assert err.endswith(" exceeds 1/8 (trans-Planckian)\n") and err.count("\n") == 1, err


def test_discrepancy_cli_reports_catalogued_classes():
    proc = run_cli("discrepancy", "--l", "1", "--branch", "plus", "--mj", "0.5",
                   "--json")
    payload = json.loads(proc.stdout)
    tags = {tag for d in payload["differences"] for tag in d["tags"]}
    assert tags == {"missing-hbar-power", "sign-of-alpha-term",
                    "missing-r0-power", "factor-2"}
    assert len(payload["differences"]) == 4


def test_oracle_cli_json():
    proc = run_cli("oracle", "--n", "2", "--l", "1")
    payload = json.loads(proc.stdout)
    assert payload["p2"] == pytest.approx(payload["p2_closed_form"], rel=1e-8)
    assert "-3" in payload["r_moments_cm^k"]
    assert payload["r_moments_cm^k"]["0"] == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("argv, code", [
    (("--nodes", "0"), 2),
    (("--n", "8", "--l", "0", "--nodes", "8"), 4),   # too few nodes: virial mismatch
    (("--nodes", "400"), 2),                         # past the last NaN-free rule
    (("--n", "200", "--l", "199"), 4),               # x^l past the double range
    (("--n", "172", "--l", "0", "--nodes", "360"), 4),  # +inf and -inf terms in one sum
], ids=("zero-nodes", "too-few-nodes", "too-many-nodes", "l-past-the-double-range",
        "inf-minus-inf"))
def test_oracle_cli_bad_quadrature_exit_code(argv, code):
    proc = run_cli("oracle", "--n", "2", "--l", "1", *argv)
    assert proc.returncode == code
    assert proc.stdout == b""
    assert len(proc.stderr.splitlines()) == 1


def test_oracle_cli_non_finite_value_is_exit_4(monkeypatch, capsys):
    from rgupzeeman import cli, spectrum
    monkeypatch.setattr(cli, "p4_expectation_exact", lambda *a, **k: float("inf"))
    assert cli.main(["oracle", "--n", "2", "--l", "1"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "rgupz: verification failure: quadrature on 120 nodes gave a non-finite value\n"


def test_oracle_node_cap_exits_before_any_rule_is_built(main, monkeypatch):
    from rgupzeeman import cli, spectrum

    def quadrature(*args, **kwargs):
        raise AssertionError("a quadrature rule was built")
    for name in ("radial_expectation", "p2_expectation_exact", "p4_expectation_exact"):
        monkeypatch.setattr(cli, name, quadrature)
    for nodes in (cli.MAX_ORACLE_NODES + 1, 100_000_000):
        status, out, err = main("oracle", "--n", "2", "--l", "1", "--nodes", str(nodes))
        assert status == 2
        assert out == ""
        assert err.startswith("rgupz: error: ") and len(err.splitlines()) == 1


def test_oracle_n_cap_exits_before_any_rule_is_built(main, monkeypatch):
    def quadrature(*args, **kwargs):
        raise AssertionError("a quantum number was checked or a quadrature rule was built")
    for name in ("_check_qn", "radial_expectation", "p2_expectation_exact",
                 "p4_expectation_exact"):
        monkeypatch.setattr(cli, name, quadrature)
    for n in (cli.MAX_ORACLE_N + 1, 2**53):
        status, out, err = main("oracle", "--n", str(n), "--l", "0")
        assert status == 2
        assert out == ""
        assert err == f"rgupz: error: --n must be <= {cli.MAX_ORACLE_N}, got {n}\n"


def test_no_command_loads_numpy_or_scipy():
    script = (
        "import contextlib, io, sys\n"
        "import rgupzeeman, rgupzeeman.cli\n"
        "for argv in (['constants'],\n"
        "             ['shift', '--l', '1', '--mj', '0.5', '--regime', 'rgup'],\n"
        "             ['sweep', '--param', 'B', '--values', '0,1', '--l', '1', '--mj', '0.5'],\n"
        "             ['lines', '--upper-l', '2', '--lower-l', '1'],\n"
        "             ['verify-algebra'],\n"
        "             ['dispersion'],\n"
        "             ['discrepancy', '--l', '1', '--mj', '0.5'],\n"
        "             ['oracle', '--n', '2', '--l', '1', '--nodes', '240']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert rgupzeeman.cli.main(argv) == 0, argv\n"
        "    assert not {'numpy', 'scipy'} & set(sys.modules), argv\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("RGUPZ_")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_a_cold_start_does_not_load_ast():
    # the package parses no Python source into a tree: the compiler folds
    # the constants of each plan part itself
    script = (
        "import contextlib, io, sys, typing\n"
        "before = {'ast', '_ast'} & set(sys.modules)  # typing imports them on some Pythons\n"
        "import rgupzeeman, rgupzeeman.cli\n"
        "def loaded():\n"
        "    return ({'ast', '_ast'} - before) & set(sys.modules)\n"
        "assert not loaded(), loaded()\n"
        "def build_parser():\n"
        "    raise AssertionError('argparse built')\n"
        "rgupzeeman.cli.build_parser = build_parser\n"
        "for argv in (['shift', '--l', '1', '--mj', '0.5', '--regime', 'rgup'],\n"
        "             ['lines', '--upper-l', '2', '--lower-l', '1', '--regime', 'rgup'],\n"
        "             ['sweep', '--param', 'B', '--values', '0,1', '--l', '1', '--mj', '0.5'],\n"
        "             ['discrepancy', '--l', '1', '--mj', '0.5']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert rgupzeeman.cli.main(argv) == 0\n"
        "    assert not loaded(), (argv, loaded())\n"
        # opalg is registered for the benchmark's tracer, but only
        # verify-algebra runs it (and fractions); no plain argv builds argparse
        "assert 'rgupzeeman.opalg' in sys.modules\n"
        "for argv in (['constants', '--json'],\n"
        "             ['shift', '--l', '1', '--mj', '0.5', '--csv'],\n"
        "             ['shift', '--l', '1', '--mj', '0.5', '--json', '--banner'],\n"
        "             ['sweep', '--param', 'B', '--values', '0,1', '--l', '1', '--mj', '0.5'],\n"
        "             ['lines', '--upper-l', '2', '--lower-l', '1', '--json'],\n"
        "             ['discrepancy', '--l', '1', '--mj', '0.5', '--json'],\n"
        "             ['dispersion', '--json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert rgupzeeman.cli.main(argv) == 0\n"
        "    assert not {'fractions', 'decimal'} & set(sys.modules), argv\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert rgupzeeman.cli.main(['verify-algebra', '--json']) == 0\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("RGUPZ_")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, ran", [
    (["constants"], []),
    (["dispersion", "--json"], []),
    (["verify-algebra", "--case", "rel-linear"], ["opalg"]),
    (["shift", "--l", "1", "--mj", "0.5", "--regime", "rgup", "--mode", "as-published"],
     ["spectrum"]),
    (["sweep", "--param", "B", "--values", "0,1", "--l", "1", "--mj", "0.5"], ["spectrum"]),
    (["lines", "--upper-l", "2", "--lower-l", "1", "--json"], ["spectrum"]),
    (["discrepancy", "--l", "1", "--mj", "0.5"], ["spectrum"]),
    (["oracle", "--n", "2", "--l", "1"], ["oracle"]),
], ids=("constants", "dispersion", "verify-algebra", "shift", "sweep", "lines", "discrepancy",
        "oracle"))
def test_a_command_runs_only_the_modules_it_reads(argv, ran):
    # each of the three is registered from the start, and a pending lazy
    # module is not a plain module until one of its attributes is read
    script = (
        "import contextlib, io, sys, types\n"
        "import rgupzeeman.cli\n"
        "def build_parser():\n"
        "    raise AssertionError('argparse built')\n"
        "rgupzeeman.cli.build_parser = build_parser\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert rgupzeeman.cli.main({argv!r}) == 0\n"
        "print([m for m in ('opalg', 'oracle', 'spectrum')\n"
        "       if type(sys.modules['rgupzeeman.' + m]) is types.ModuleType])\n"
        "print('argparse' in sys.modules)\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("RGUPZ_")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{ran!r}\nFalse\n"


@pytest.mark.parametrize("argv, code", [
    (["shift", "--json", "--csv"], 2),
    (["verify-algebra", "--case", "nope"], 2),
    (["shift", "-h"], 0),
], ids=("two-formats", "unknown-case", "help"))
def test_help_and_errors_run_neither_spectrum_nor_opalg(argv, code):
    # the parser reads every --regime, --mode and --case choice from units,
    # so building it for help or an error loads no deferred module
    script = (
        "import contextlib, io, sys, types\n"
        "import rgupzeeman.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), \\\n"
        "        contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        f"        code = rgupzeeman.cli.main({argv!r})\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(code, 'argparse' in sys.modules)\n"
        "print([m for m in ('opalg', 'spectrum')\n"
        "       if type(sys.modules['rgupzeeman.' + m]) is types.ModuleType])\n"
        "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("RGUPZ_")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{code} True\n[]\n[]\n"


def test_help_and_errors_still_come_from_argparse():
    # argparse is imported only when main builds the parser; it lists the
    # --regime, --mode and --case choices from units
    proc = run_cli("shift", "-h")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.startswith(b"usage: rgupz shift ")
    assert b"{lande,rel,gup,rgup}" in proc.stdout and b"{derived,as-published}" in proc.stdout
    proc = run_cli("verify-algebra", "-h")
    assert b"{nonrel-special,rel-linear,rel-position-position,all}" in proc.stdout
    proc = run_cli("shift", "--json", "--csv")
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.endswith(
        b"rgupz shift: error: argument --csv: not allowed with argument --json\n")


_COMPILED = (
    "from rgupzeeman.spectrum import _PARTS, _PLANS\n"
    "def compiled():\n"
    "    plans = {plan for pair in _PLANS.values() for plan in pair}\n"
    "    return sorted((plan.name, part) for plan in plans for part in vars(plan)\n"
    "                  if part in _PARTS)\n"
)


def test_plans_compile_lazily():
    script = (
        "import contextlib, io\n"
        "import rgupzeeman.cli\n"
        + _COMPILED +
        "assert compiled() == [], compiled()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert rgupzeeman.cli.main(['shift', '--l', '1', '--mj', '0.5',\n"
        "                                '--regime', 'rgup']) == 0\n"
        "assert compiled() == [('rgup derived', 'shift')], compiled()\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("RGUPZ_")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, parts", [
    (["shift", "--l", "1", "--mj", "0.5", "--regime", "lande"], [("lande derived", "shift")]),
    (["lines", "--upper-l", "1", "--lower-l", "0", "--regime", "lande"],
     [("lande derived", "multiplet")]),
    (["sweep", "--param", "B", "--values", "1,2", "--l", "1", "--mj", "0.5",
      "--regime", "lande"], [("lande derived", "sweep_B")]),
    (["discrepancy", "--l", "1", "--mj", "0.5"],
     [("gup as-published", "shift"), ("gup derived", "shift"),
      ("rgup as-published", "shift"), ("rgup derived", "shift")]),
], ids=("shift", "lines", "sweep", "discrepancy"))
def test_a_command_compiles_only_the_parts_it_runs(argv, parts):
    script = (
        "import contextlib, io\n"
        "import rgupzeeman.cli\n"
        + _COMPILED +
        "assert compiled() == [], compiled()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert rgupzeeman.cli.main({argv!r}) == 0\n"
        f"assert compiled() == {parts!r}, compiled()\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("RGUPZ_")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_no_command_loads_dataclasses_or_inspect():
    # the records are named tuples; dataclasses would pull in inspect, ast and dis
    script = (
        "import contextlib, io, sys\n"
        "import rgupzeeman, rgupzeeman.cli\n"
        "def loaded():\n"
        "    return {'dataclasses', 'inspect'} & set(sys.modules)\n"
        "assert not loaded(), loaded()\n"
        "for argv in (['shift', '--l', '1', '--mj', '0.5'],\n"
        "             ['verify-algebra', '--case', 'rel-linear']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert rgupzeeman.cli.main(argv) == 0\n"
        "    assert not loaded(), (argv, loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr


def test_only_json_output_loads_json_and_no_command_loads_csv():
    script = (
        "import contextlib, io, sys\n"
        "import rgupzeeman.cli\n"
        "def loaded():\n"
        "    return {'csv', 'json'} & set(sys.modules)\n"
        "assert not loaded(), loaded()\n"
        "shift = ['shift', '--l', '1', '--mj', '0.5']\n"
        "for argv in (shift, shift + ['--csv'], ['lines', '--upper-l', '1', '--lower-l', '0'],\n"
        "             ['sweep', '--param', 'B', '--values', '1,2', '--l', '1', '--mj', '0.5']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert rgupzeeman.cli.main(argv) == 0\n"
        "    assert not loaded(), (argv, loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert rgupzeeman.cli.main(shift + ['--json']) == 0\n"
        "assert loaded() == {'json'}, loaded()\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("RGUPZ_")}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr


def test_no_csv_cell_text_needs_quoting():
    # shift --csv and sweep join their cells with ",", which writes what
    # csv.writer would only while no text holds a delimiter, quote or newline
    texts = [text for t in spectrum._TERMS
             for text in (t.label, t.expression, t.published_expression) if text is not None]
    assert len(texts) == 28
    for text in (*texts, *(r.value for r in spectrum.Regime), *(m.value for m in spectrum.Mode)):
        assert not set(text) & set(',"\r\n'), text


def test_config_precedence_flags_env_file_builtin(tmp_path):
    config = tmp_path / "defaults.cfg"
    config.write_text("params.b_tesla = 2.0\n# comment line\n")
    base = ("shift", "--config", str(config), "--l", "1", "--branch", "plus",
            "--mj", "0.5", "--json")

    # builtin default: 1 T (no config, no env, no flag)
    payload = json.loads(run_cli("shift", "--l", "1", "--branch", "plus",
                                 "--mj", "0.5", "--json").stdout)
    assert payload["params"]["B_gauss"] == 1e4
    # file beats builtin
    payload = json.loads(run_cli(*base).stdout)
    assert payload["params"]["B_gauss"] == 2e4
    # environment beats file
    payload = json.loads(run_cli(
        *base, env_extra={"RGUPZ_PARAMS_B_TESLA": "3.0"}).stdout)
    assert payload["params"]["B_gauss"] == 3e4
    # flags beat everything
    payload = json.loads(run_cli(
        *base, "--B-tesla", "4.0",
        env_extra={"RGUPZ_PARAMS_B_TESLA": "3.0"}).stdout)
    assert payload["params"]["B_gauss"] == 4e4


def test_config_parse_error_is_exit_2(tmp_path):
    config = tmp_path / "broken.cfg"
    config.write_text("params.b_tesla 2.0\n")
    proc = run_cli("shift", "--config", str(config), "--l", "1", "--branch",
                   "plus", "--mj", "0.5")
    assert proc.returncode == 2


def test_a_config_file_that_is_not_utf8_is_exit_2(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_bytes(b"\xff\xfe bad")
    proc = run_cli("shift", "--l", "1", "--mj", "0.5", "--config", str(config))
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"rgupz: error: cannot read config file: ")
    assert proc.stderr.count(b"\n") == 1, proc.stderr


def test_config_file_is_closed(tmp_path):
    config = tmp_path / "defaults.cfg"
    config.write_text("params.b_tesla = 2.0\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith("RGUPZ_")}
    proc = subprocess.run([sys.executable, "-X", "dev", "-m", "rgupzeeman.cli", "shift",
                           "--config", str(config), "--l", "1", "--mj", "0.5"],
                          capture_output=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr == b""  # -X dev reports an unclosed file as a ResourceWarning


@pytest.mark.parametrize("unbuffered", (False, True), ids=("buffered", "unbuffered"))
@pytest.mark.parametrize("argv", [
    ("lines", "--upper-l", "999", "--lower-l", "1000"),
    ("sweep", "--param", "B", "--from", "0", "--to", "1", "--steps", "100000",
     "--l", "1", "--mj", "0.5"),
], ids=("lines", "sweep"))
def test_a_closed_pipe_exits_141_without_a_traceback(argv, unbuffered):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("RGUPZ_") and k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "rgupzeeman.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()  # the reader leaves, as `| head -1` does
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""


def test_banner_only_on_request():
    quiet = run_cli("constants")
    assert b"rgupz" not in quiet.stdout
    loud = run_cli("--banner", "constants")
    assert loud.stdout.decode().splitlines()[0].startswith("rgupz ")


def test_unit_flag_changes_table_not_csv_schema():
    base = ("shift", "--l", "1", "--branch", "plus", "--mj", "1.5",
            "--B-tesla", "1", "--regime", "lande")
    ev = run_cli(*base, "--unit", "eV").stdout.decode()
    wavenumber = run_cli(*base, "--unit", "cm-1").stdout.decode()
    assert ev != wavenumber
    assert "unit             cm-1" in wavenumber
    csv_ev = run_cli(*base, "--csv", "--unit", "eV").stdout
    csv_cm = run_cli(*base, "--csv", "--unit", "cm-1").stdout
    assert csv_ev == csv_cm  # stable CSV schema carries erg + eV always


# -- in-process: cli.main called repeatedly in one interpreter ---------------------

@pytest.fixture
def main(monkeypatch, capsys):
    """cli.main with RGUPZ_* cleared; returns (exit code, stdout, stderr)."""
    from rgupzeeman import cli, spectrum
    for name in list(os.environ):
        if name.startswith("RGUPZ_"):
            monkeypatch.delenv(name)

    def call(*argv):
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err
    return call


@pytest.mark.parametrize("argv, code", [
    (("--param", "mj", "--values", "0.5,0.7", "--l", "1"), 3),
    (("--param", "B", "--values", "0,1", "--l", "1", "--mj", "0.5", "--gamma", "abc"), 2),
    (("--param", "l", "--values", "1,inf", "--mj", "0.5"), 3),
    (("--param", "mj", "--values", "0.5,nan", "--l", "1"), 3),
    (("--param", "B", "--values", "1,2,1e300", "--l", "1", "--mj", "0.5"), 3),
    # gup_cross grows with epsilon B: finite at epsilon 1e30, not at 1e43 (q < 1/8)
    (("--param", "epsilon", "--values", "0,1,1e43", "--l", "1000000", "--mj", "0.5",
      "--regime", "gup", "--B-tesla", "1e295"), 3),
    (("--param", "B", "--values", "0,1,1e297", "--l", "100", "--mj", "100.5",
      "--unit", "Hz"), 3),
    # NaN does not sort, so it can sit between valid ends of the sorted grid
    (("--param", "B", "--values", "2,nan,1", "--l", "1", "--mj", "0.5"), 3),
    (("--param", "epsilon", "--values", "2,nan,-1", "--l", "1", "--mj", "0.5"), 3),
    (("--param", "B", "--values", "a,b", "--l", "1", "--mj", "0.5"), 2),
    (("--param", "B", "--values", ",", "--l", "1", "--mj", "0.5"), 2),
    (("--param", "B", "--from", "0", "--l", "1", "--mj", "0.5"), 2),
    (("--param", "B", "--from", "0", "--to", "1", "--steps", "0", "--l", "1",
      "--mj", "0.5"), 2),
    (("--param", "B", "--values", "0,1", "--l", "1"), 2),
], ids=("bad-last-row", "bad-gamma", "infinite-l", "nan-mj", "overflowing-field",
        "overflowing-epsilon", "overflowing-display-unit", "unsorted-nan-field",
        "unsorted-nan-epsilon", "non-numeric-values", "empty-values", "from-without-to",
        "zero-steps", "missing-mj"))
def test_sweep_prints_all_or_nothing(main, argv, code):
    status, out, err = main("sweep", *argv)
    assert status == code
    assert out == ""
    assert len(err.splitlines()) == 1


def test_a_sweep_part_checks_its_grid_ends_before_it_writes(main):
    """sweep_B raises for an end row outside double precision in the display
    unit before it writes anything, and otherwise writes what rgupz sweep
    writes."""
    from rgupzeeman.spectrum import Branch, Mode, QuantumState, Regime
    from rgupzeeman.units import ValidationError, convert_energy, make_params
    plan = spectrum._plan_of(Regime.LANDE, Mode.DERIVED)
    state = QuantumState(101, 100, Branch.PLUS, 100.5)
    # finite in erg at every B below, and outside double precision in Hz at 1e297 T
    params = make_params(B=0.0)
    header = ",".join(["B_tesla", "regime", *spectrum.REGIME_TERM_LABELS[Regime.LANDE],
                       "total"]) + "\n"
    per = convert_energy(1.0, "erg", "Hz")
    written = []
    with pytest.raises(ValidationError) as err:
        plan.sweep_B(state, params, [0.0, 1.0, 1e297], per, "Hz", header, written.append)
    assert err.value.field == "unit"
    assert written == []
    plan.sweep_B(state, params, [0.0, 1.0, 1e296], per, "Hz", header, written.append)
    status, out, _ = main("sweep", "--param", "B", "--values", "1e296,0,1", "--l", "100",
                          "--mj", "100.5", "--regime", "lande", "--unit", "Hz")
    assert status == 0
    assert len(written) == 4 and "".join(written) == out


@pytest.mark.parametrize("param", ["B", "epsilon"])
def test_field_and_epsilon_sweeps_build_one_record_per_row(main, monkeypatch, param):
    from rgupzeeman import cli, spectrum
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return make_params(*args, **kwargs)
    make_params = cli.make_params
    monkeypatch.setattr(cli, "make_params", counted)
    rows = 1000
    status, out, _ = main("sweep", "--param", param, "--from", "0", "--to", "5",
                          "--steps", str(rows), "--l", "1", "--mj", "0.5",
                          "--regime", "rgup")
    assert status == 0 and len(out.splitlines()) == rows + 1
    assert len(calls) <= rows + 3


@pytest.mark.parametrize("param, argv", [
    ("n", ("--from", "3", "--to", "1002", "--steps", "1000", "--l", "2", "--mj", "0.5")),
    ("mj", ("--from", "-499.5", "--to", "499.5", "--steps", "1000", "--l", "500")),
])
def test_n_and_mj_sweeps_build_no_state_per_row(main, monkeypatch, param, argv):
    from rgupzeeman.spectrum import QuantumState
    built = []
    new = QuantumState.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)
    monkeypatch.setattr(QuantumState, "__new__", counted)
    status, out, _ = main("sweep", "--param", param, *argv)
    assert status == 0 and len(out.splitlines()) == 1001
    assert len(built) <= 2


@pytest.mark.parametrize("param, values, fixed", [
    ("n", "9,2,4,3.5", ("--l", "2", "--mj", "0.5")),        # l < n fails at n = 2
    ("n", "5,3.5,4", ("--l", "2", "--mj", "0.5")),          # not an integer
    ("n", "3,0,4", ("--l", "0", "--mj", "-0.5")),           # n >= 1
    ("n", "3,4", ("--l", "2", "--mj", "3.5")),              # the fixed mj, on every row
    ("mj", "0.5,2.5,-0.7,1.5", ("--l", "1",)),              # not half-odd
    ("mj", "0.5,2.5,1.5", ("--l", "1", "--branch", "minus")),  # |mj| > j
    ("mj", "0.5,-1.5", ("--l", "0", "--branch", "minus")),  # the fixed branch
], ids=("n-below-l", "n-fraction", "n-zero", "n-fixed-mj", "mj-fraction", "mj-above-j",
        "mj-fixed-branch"))
def test_n_and_mj_sweeps_fail_on_the_row_a_state_would(main, param, values, fixed):
    """The first bad value of the sorted grid, its field and its message are
    those of the state a shift at that value would build."""
    from rgupzeeman.spectrum import Branch, QuantumState
    from rgupzeeman.units import ValidationError, is_integer
    flags = dict(zip(fixed[::2], fixed[1::2]))
    l, branch = int(flags["--l"]), Branch(flags.get("--branch", "plus"))
    want = None
    for value in sorted(float(v) for v in values.split(",")):
        try:
            if param == "n" and not is_integer(value):
                raise ValidationError("n", f"swept n must be an integer, got {value!r}")
            QuantumState(n=int(value) if param == "n" else l + 1, l=l, branch=branch,
                         mj=value if param == "mj" else float(flags["--mj"]))
        except ValidationError as error:
            want = f"rgupz: domain error: {error}\n"
            break
    status, out, err = main("sweep", "--param", param, "--values", values, *fixed)
    assert (status, out, err) == (3, "", want)


@pytest.mark.parametrize("param, fixed, want", [
    ("n", ("--l", "1", "--mj", "0.5"), "n: must be a positive integer <= 2**53, got 1e+300"),
    ("l", ("--l", "1", "--mj", "0.5"), "n: must be a positive integer <= 2**53, got 1e+300"),
    ("l", ("--n", "4", "--mj", "0.5"), "l: must satisfy 0 <= l < n, got 1e+300"),
], ids=("n", "l", "l-fixed-n"))
def test_a_swept_integer_past_2_53_is_reported_as_given(main, param, fixed, want):
    status, out, err = main("sweep", "--param", param, "--values", "1e300", *fixed)
    assert (status, out, err) == (3, "", f"rgupz: domain error: {want}\n")


@pytest.mark.parametrize("argv", [
    ("shift", "--l", str(10**400), "--mj", "0.5"),
    ("oracle", "--n", "2", "--l", "1", "--Z", str(10**400)),
], ids=("shift-huge-l", "oracle-huge-Z"))
def test_integers_too_large_for_a_double_are_domain_errors(main, argv):
    status, out, err = main(*argv)
    assert status == 3
    assert out == ""
    assert err.startswith("rgupz: domain error: ") and len(err.splitlines()) == 1


_SHIFT = ("shift", "--l", "1", "--mj", "0.5")
_LINES = ("lines", "--upper-l", "1", "--lower-l", "0")


#: a state whose Lande shift is finite in erg and outside double precision in
#: eV at 1.9e297 T: m_j = 2**52 - 1/2
_TOP = ("shift", "--l", str(2**52 - 1), "--mj", str(2**52 - 0.5), "--B-tesla", "1.9e297")


@pytest.mark.parametrize("argv, field", [
    # no scale within the trans-Planckian bound overflows, so each scale
    # overflow is refused at entry, naming the scale
    ((*_SHIFT, "--regime", "rgup", "--gamma", "1e300"), "correction_scale"),
    ((*_SHIFT, "--regime", "gup", "--gamma", "1e300"), "correction_scale"),
    ((*_LINES, "--regime", "rgup", "--gamma", "1e300"), "correction_scale"),
    ((*_LINES, "--regime", "gup", "--gamma", "1e300"), "correction_scale"),
    (("discrepancy", "--l", "1", "--mj", "0.5", "--gamma", "1e300"), "correction_scale"),
    ((*_SHIFT, "--regime", "gup", "--gamma", "1e160"), "correction_scale"),
    (("shift", "--l", "100", "--mj", "100.5", "--regime", "gup", "--mode", "as-published",
      "--epsilon", "1e43", "--B-tesla", "1e290", "--json"), "gup_cross"),
    ((*_SHIFT, "--B-tesla", "1e300"), "jz_plus_sz"),
    ((*_SHIFT, "--B-tesla", "1e300", "--json"), "jz_plus_sz"),
    ((*_LINES, "--B-tesla", "1e300"), "jz_plus_sz"),
    ((*_SHIFT, "--regime", "rgup", "--B-tesla", "1e270", "--unit", "erg"), "p2_jz_minus_sz"),
    # finite in erg, outside double precision in the display unit (eV in json and csv)
    (("shift", "--l", "100", "--mj", "100.5", "--B-tesla", "1e297", "--unit", "Hz"), "unit"),
    ((*_TOP, "--json"), "unit"),
    ((*_TOP, "--csv"), "unit"),
    # no line within the bound leaves double precision in any unit (see
    # test_a_line_outside_double_precision_in_its_unit_is_a_domain_error)
    ((*_LINES, "--regime", "rgup", "--gamma", "1e150", "--epsilon", "1e30", "--unit", "Hz"),
     "correction_scale"),
], ids=("rgup-scale-overflow", "gup-scale-overflow", "lines-rgup-scale-overflow",
        "lines-gup-scale-overflow", "discrepancy-scale-overflow", "gup-infinite-scale",
        "as-published-gup-term-overflow", "field-overflow", "field-overflow-json",
        "lines-field-overflow", "rgup-term-overflow", "unit-overflow", "unit-overflow-json",
        "unit-overflow-csv", "lines-unit-overflow"))
def test_non_finite_results_are_domain_errors(main, argv, field):
    status, out, err = main(*argv)
    assert status == 3
    assert out == ""
    assert err.startswith(f"rgupz: domain error: {field}: ") and len(err.splitlines()) == 1


def test_a_line_outside_double_precision_in_its_unit_is_a_domain_error(main, monkeypatch):
    # a line finite in erg, 1e300, is 1.5e326 Hz
    def lines(*args):
        return [line._replace(shift_erg=1e300) for line in zeeman_lines(*args)]
    zeeman_lines = cli.zeeman_lines
    monkeypatch.setattr(cli, "zeeman_lines", lines)
    assert main(*_LINES, "--unit", "erg")[0] == 0
    status, out, err = main(*_LINES, "--unit", "Hz")
    assert (status, out) == (3, "")
    assert err == "rgupz: domain error: unit: a value is outside double precision in Hz\n"


@pytest.mark.parametrize("argv, env, given", [
    ((*_SHIFT, "--B-tesla", "1e305"), {}, "1e+305 T = inf G"),
    ((*_LINES, "--B-tesla", "1e305"), {}, "1e+305 T = inf G"),
    (("sweep", "--param", "B", "--values", "1,1e305", "--l", "1", "--mj", "0.5"), {},
     "1e+305 T = inf G"),
    (_SHIFT, {"RGUPZ_PARAMS_B_TESLA": "1e305"}, "1e+305 T = inf G"),
    ((*_SHIFT, "--B-tesla=-1"), {}, "-1.0 T = -10000.0 G"),
], ids=("shift", "lines", "sweep", "config", "negative"))
def test_a_refused_field_is_named_in_the_tesla_given(main, monkeypatch, argv, env, given):
    # not only as the gauss value it converts to, which the user never gave
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    status, out, err = main(*argv)
    assert (status, out, err) == (
        3, "", f"rgupz: domain error: B: field magnitude must be finite and >= 0, got {given}\n")


_ORACLE = ("oracle", "--n", "2", "--l", "1")


@pytest.mark.parametrize("Z", ["2.5", "inf", "nan"])
def test_configured_Z_follows_the_record_rule(main, monkeypatch, Z):
    monkeypatch.setenv("RGUPZ_PARAMS_Z", Z)
    for argv in (_SHIFT, _ORACLE):
        status, out, err = main(*argv)
        assert status == 3, argv
        assert out == ""
        assert err.startswith("rgupz: domain error: Z: ")


def test_configured_Z_gives_oracle_the_output_of_the_flag(main, monkeypatch):
    status, flagged, _ = main(*_ORACLE, "--Z", "2")
    assert status == 0 and '"Z": 2,' in flagged
    monkeypatch.setenv("RGUPZ_PARAMS_Z", "2")
    status, configured, _ = main(*_ORACLE)
    assert status == 0 and configured == flagged


#: a valid argv after each subcommand name
_MINIMAL_ARGV = {
    "constants": (),
    "shift": _SHIFT[1:],
    "sweep": ("--param", "B", "--values", "0,1", "--l", "1", "--mj", "0.5"),
    "lines": _LINES[1:],
    "verify-algebra": ("--case", "rel-linear"),
    "dispersion": (),
    "discrepancy": ("--l", "1", "--mj", "0.5"),
    "oracle": _ORACLE[1:],
}
_SUBCOMMANDS = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))


@pytest.mark.parametrize("key", sorted(cli._SETTINGS))
@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_a_key_applies_exactly_where_its_flag_exists(main, monkeypatch, command, key):
    argv = (command, *_MINIMAL_ARGV[command])
    status, clean, _ = main(*argv)
    assert status == 0
    monkeypatch.setenv(cli.ENV_PREFIX + key.upper().replace(".", "_"), "abc")
    status, out, err = main(*argv)
    flags = {action.dest for action in _SUBCOMMANDS[command]._actions}
    if cli._SETTINGS[key][0] in flags:
        assert (status, out) == (2, "")
        assert err.startswith(f"rgupz: error: {key}: ")
    else:
        assert (status, out) == (0, clean)
    if key == "output.format" and "format" in flags:
        # a format the command has no flag for is as unreadable as "abc"
        printed = ["table", *(action.const for action in _SUBCOMMANDS[command]._actions
                              if action.dest == "format")]
        for fmt in ("table", "json", "csv"):
            monkeypatch.setenv("RGUPZ_OUTPUT_FORMAT", fmt)
            status, out, err = main(*argv)
            if fmt in printed:
                assert status == 0 and out
            else:
                assert (status, out) == (2, "")
                assert err == (f"rgupz: error: output.format: expected one of "
                               f"{', '.join(printed)}, got {fmt!r}\n")


def test_readme_lists_exactly_the_supported_keys():
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = text.split("Supported keys: ", 1)[1].split(". ", 1)[0]
    assert sorted(re.findall(r"`(\w+\.\w+)`", listed)) == sorted(cli._SETTINGS)


_LONG_SWEEP = ("sweep", "--param", "B", "--from", "0", "--to", "1", "--l", "1", "--mj", "0.5",
               "--regime", "rgup", "--steps")


def test_banner_is_not_printed_by_a_failing_command(main):
    status, out, _ = main("--banner", "shift", "--l", "0", "--branch", "minus", "--mj", "0.5")
    assert status == 3
    assert out == ""
    for argv in (_SHIFT, (*_LONG_SWEEP, "1000")):
        status, out, _ = main("--banner", *argv)
        assert status == 0
        assert out == "rgupz 0.1.0\n" + main(*argv)[1]


def test_a_bannered_sweep_holds_no_output(monkeypatch):
    # the rows stream to stdout: only the grid itself stays in memory
    import tracemalloc
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            status = cli.main(["--banner", *_LONG_SWEEP, "10000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert status == 0
    assert peak < 2**20, peak


def test_dispersion_reads_epsilon_and_gamma_from_env_and_config(main, monkeypatch, tmp_path):
    monkeypatch.setenv("RGUPZ_PARAMS_EPSILON", "0")
    status, out, _ = main("dispersion", "--json")
    assert status == 0 and json.loads(out)["eps_gamma2"] == 0.0
    monkeypatch.delenv("RGUPZ_PARAMS_EPSILON")
    config = tmp_path / "defaults.cfg"
    config.write_text("params.epsilon = 2.0\nparams.gamma = 1e-20\n")
    status, out, _ = main("dispersion", "--config", str(config), "--json")
    assert status == 0 and json.loads(out)["eps_gamma2"] == 2.0 * 1e-20 * 1e-20


@pytest.mark.parametrize("argv", [
    ("--mc", "nan", "--eps-gamma2", "0.01"),
    ("--mc", "inf"),
    ("--mc", "1", "--eps-gamma2", "nan"),
    ("--mc", "1", "--eps-gamma2", "inf"),
    ("--m-grams", "nan"),
    ("--m-grams", "inf"),
    ("--epsilon", "nan"),
    ("--epsilon", "inf"),
    ("--gamma", "nan"),
    ("--gamma", "inf"),
    ("--mc", "0"),
    ("--mc", "-1"),
    ("--m-grams", "0"),
    ("--m-grams=-1e-27",),
    ("--mc", "1", "--eps-gamma2", "-5"),
    ("--epsilon", "-1"),
    ("--gamma=-1e-20",),
    ("--mc", "1e200"),
], ids=("nan-mc", "inf-mc", "nan-eps-gamma2", "inf-eps-gamma2", "nan-m-grams",
        "inf-m-grams", "nan-epsilon", "inf-epsilon", "nan-gamma", "inf-gamma",
        "zero-mc", "negative-mc", "zero-m-grams", "negative-m-grams",
        "negative-eps-gamma2", "negative-epsilon", "negative-gamma",
        "overflowing-root"))
def test_dispersion_rejects_non_physical_input(main, argv):
    status, out, err = main("dispersion", *argv, "--json")
    assert status == 3
    assert out == ""
    assert err.startswith("rgupz: domain error: ")


def test_an_eps_gamma2_past_double_precision_keeps_its_dispersion_message(main):
    # the scale eps (gamma m c)^2 is 0.09, but eps gamma^2 is no double: the
    # params record refuses it in solve_mass_shell's words
    status, out, err = main("dispersion", "--m-grams", "1e-170", "--gamma", "1e170",
                            "--epsilon", "1e-22")
    assert (status, out) == (3, "")
    assert err == "rgupz: domain error: eps_gamma2: must be finite and >= 0, got inf\n"


#: a gamma and epsilon whose scale eps (gamma m c)^2 is exactly 1/8 when squared
#: by float *, as the record and the shifts square it, and 1/8 + 1 ulp on glibc
#: when squared by libm pow; dispersion's q = (eps gamma^2)(m c)^2 is past 1/8
_PAST_THE_BOUND = ("--gamma", "5.581096798031417e16", "--epsilon", "0.05380857687514862")


@pytest.mark.parametrize("argv", [
    ("shift", "--l", "1", "--mj", "0.5", "--regime", "rgup", *_PAST_THE_BOUND),
    ("sweep", "--param", "B", "--values", "0,1", "--l", "1", "--mj", "0.5", "--regime", "rgup",
     *_PAST_THE_BOUND),
    ("sweep", "--param", "epsilon", "--values", f"0,{_PAST_THE_BOUND[3]}", "--l", "1",
     "--mj", "0.5", "--regime", "rgup", *_PAST_THE_BOUND[:2]),
    ("lines", "--upper-l", "1", "--lower-l", "0", "--regime", "rgup", *_PAST_THE_BOUND),
    ("discrepancy", "--l", "1", "--mj", "0.5", *_PAST_THE_BOUND),
    ("dispersion", *_PAST_THE_BOUND),
], ids=("shift", "sweep-B", "sweep-epsilon", "lines", "discrepancy", "dispersion"))
def test_a_scale_the_shifts_put_past_the_bound_is_refused_by_every_command(main, argv):
    # the record and every shift command square with * and admit the scale
    # at exactly 1/8; only dispersion, whose own q is past 1/8, refuses it,
    # with the record's correction_scale text
    from rgupzeeman.units import make_params
    assert make_params(epsilon=float(_PAST_THE_BOUND[3]), gamma_mode="explicit",
                       gamma=float(_PAST_THE_BOUND[1])).correction_scale == 0.125
    status, out, err = main(*argv)
    if argv[0] == "dispersion":
        assert (status, out) == (3, "")
        assert err.startswith("rgupz: domain error: correction_scale: "), err
    else:
        assert (status, err) == (0, "") and out
    if argv[0] == "shift":
        assert json.loads(main(*argv, "--json")[1])["correction_scale"] == 0.125


@pytest.mark.parametrize("argv, root", [
    (("--mc", "1e-150"), -1e-300),
    (("--mc", "1e-160"), None),  # a subnormal root
    (("--mc", "1e-200"), None),  # -(mc)^2 is 0.0, and the residual would read exact
    (("--m-grams", "1e-300"), None),
], ids=("normal-root", "subnormal-root", "zero-root", "zero-root-m-grams"))
def test_a_root_below_double_precision_is_a_domain_error(main, argv, root):
    status, out, err = main("dispersion", *argv, "--json")
    if root is not None:
        assert status == 0 and json.loads(out)["exact_root"] == root
        return
    assert (status, out) == (3, "")
    assert err.startswith("rgupz: domain error: mc: the root underflows double precision")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ("--mc", "1e60", "--eps-gamma2", "1e-130"),
    ("--mc", "1e-80", "--eps-gamma2", "1e155"),
    ("--mc", "1e102", "--eps-gamma2", "1e-210"),
], ids=("huge-mc-cubed", "huge-eps-gamma2-squared", "huge-mc-tiny-eps-gamma2"))
def test_dispersion_order_two_series_needs_no_intermediate_past_the_root(main, argv):
    status, out, err = main("dispersion", *argv, "--order", "2", "--json")
    assert (status, err) == (0, "")
    payload = json.loads(out)
    assert payload["series_root"] == pytest.approx(payload["exact_root"], rel=1e-14)


@pytest.mark.parametrize("argv", [
    ("--eps-gamma2", "-5"),
    ("--eps-gamma2", "0.01", "--m-grams", "1e-27"),
    ("--mc", "1", "--m-grams", "3"),
    ("--mc", "1", "--epsilon", "2"),
    ("--mc", "1", "--gamma", "1e-20"),
], ids=("eps-gamma2-without-mc", "eps-gamma2-with-m-grams", "mc-with-m-grams",
        "mc-with-epsilon", "mc-with-gamma"))
def test_dispersion_rejects_conflicting_flags(main, argv):
    status, out, err = main("dispersion", *argv)
    assert status == 2
    assert out == ""
    assert err.startswith("rgupz: error: ") and len(err.splitlines()) == 1


def test_dispersion_json_is_strict(main):
    status, out, _ = main("dispersion", "--m-grams", "1e-27", "--gamma", "1e-20", "--json")
    assert status == 0

    def reject(constant):
        raise AssertionError(f"non-strict JSON constant {constant}")
    payload = json.loads(out, parse_constant=reject)
    assert payload["exact_root"] < 0.0


@pytest.mark.parametrize("argv", [
    ("constants", "--json"),
    (*_SHIFT, "--regime", "rgup", "--json"),
    (*_LINES, "--regime", "rgup", "--json"),
    ("verify-algebra", "--case", "rel-linear", "--json"),
    ("dispersion", "--mc", "1", "--eps-gamma2", "0.01", "--json"),
    ("discrepancy", "--l", "1", "--mj", "0.5", "--json"),
    ("oracle", "--n", "2", "--l", "1"),
], ids=("constants", "shift", "lines", "verify-algebra", "dispersion", "discrepancy",
        "oracle"))
def test_json_payloads_hold_no_records(main, monkeypatch, argv):
    # json writes a tuple, and so a named-tuple record, as a bare list
    from rgupzeeman import cli, spectrum
    payloads = []
    monkeypatch.setattr(cli, "_print_json", payloads.append)

    def plain(value):
        assert type(value) in (dict, list, str, int, float, bool, type(None)), value
        for item in value.values() if type(value) is dict else \
                value if type(value) is list else ():
            plain(item)
    status, _, _ = main(*argv)
    assert status == 0
    assert len(payloads) == 1
    plain(payloads[0])


def test_lines_display_unit_check_has_little_headroom(main):
    # a line within a factor ~1.47 of the largest double, in Hz: the display
    # unit's check in cmd_lines guards a reachable edge
    status, out, err = main("lines", "--upper-l", "1000", "--lower-l", "999",
                            "--upper-branch", "plus", "--lower-branch", "minus",
                            "--B-tesla", "3.06e296", "--regime", "gup", "--epsilon", "0.125",
                            "--gamma", "3.661763584985729e+16", "--unit", "Hz")
    assert (status, err) == (0, "")
    numbers = [float(word) for line in out.splitlines()[1:]
               for word in line.split()[6::2]]
    assert len(numbers) == 2 * 5994 and all(map(math.isfinite, numbers))
    assert max(numbers) > sys.float_info.max / 1.5


def test_lines_l_cap_exits_before_any_state_is_built(main, monkeypatch):
    from rgupzeeman import cli, spectrum
    for argv in (("--upper-l", "1000", "--lower-l", "999"),
                 ("--upper-l", "999", "--lower-l", "1000")):
        status, out, _ = main("lines", *argv, "--json")
        assert status == 0
        assert json.loads(out)["count"] == 6000

    def build(*args):
        raise AssertionError("a level was built")
    monkeypatch.setattr(cli, "level_states", build)
    for argv in (("--upper-l", "1001", "--lower-l", "1000"),
                 ("--upper-l", "1000", "--lower-l", "1001")):
        status, out, err = main("lines", *argv)
        assert status == 2
        assert out == ""
        assert err.startswith("rgupz: error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("steps", ["1000001", "1000000000000"])
def test_sweep_steps_cap_exits_before_the_grid_is_built(main, steps):
    status, out, err = main("sweep", "--param", "B", "--from", "0", "--to", "1",
                            "--steps", steps, "--l", "1", "--mj", "0.5")
    assert status == 2
    assert out == ""
    assert err.startswith("rgupz: error: ") and "--steps" in err and len(err.splitlines()) == 1


def test_parser_reuse_keeps_no_state_between_calls(main, monkeypatch, tmp_path):
    from rgupzeeman import cli, spectrum
    shift = ("shift", "--l", "1", "--branch", "plus", "--mj", "0.5")
    status, out, _ = main(*shift, "--json")
    assert status == 0 and json.loads(out)["regime"] == "lande"
    status, out, _ = main(*shift)
    assert status == 0 and out.startswith("regime           lande\n")

    config = tmp_path / "defaults.cfg"
    config.write_text("params.b_tesla = 2.0\n")
    _, out, _ = main(*shift, "--config", str(config), "--json")
    assert json.loads(out)["params"]["B_gauss"] == 2e4
    _, out, _ = main(*shift, "--json")
    assert json.loads(out)["params"]["B_gauss"] == 1e4

    calls = []
    monkeypatch.setattr(cli, "cmd_constants", lambda args, cfg: calls.append(args) or 0)
    status, out, _ = main("constants")
    assert status == 0 and out == "" and len(calls) == 1


def _library_sweep_row(value, param, fixed, regime, mode, unit):
    """One sweep row rebuilt through make_params / QuantumState / energy_shift_B."""
    from rgupzeeman import spectrum, units
    point = dict(fixed, **{param: value})
    gamma = point["gamma"]
    params = units.make_params(
        B=point["B"] * units.GAUSS_PER_TESLA, epsilon=point["epsilon"],
        gamma_mode="planck" if gamma == "planck" else "explicit",
        gamma=None if gamma == "planck" else float(gamma))
    l = int(point["l"])
    state = spectrum.QuantumState(n=int(point["n"]) if point["n"] else l + 1, l=l,
                                  branch=spectrum.Branch(point["branch"]), mj=point["mj"])
    breakdown = spectrum.energy_shift_B(state, params, regime, mode)
    present = {t.label: t.value_erg for t in breakdown.terms}
    cells = [repr(value), regime.value]
    cells += [repr(units.convert_energy(present.get(label, 0.0), "erg", unit))
              for label in spectrum.REGIME_TERM_LABELS[regime]]
    cells.append(repr(units.convert_energy(breakdown.total_erg, "erg", unit)))
    return ",".join(cells)


_SWEEP_GRIDS = {
    "B": "2.5,0,0.3,17",
    "epsilon": "0,1,0.25,1.5",
    "l": "0,1,2,3",
    "n": "2,3,5,8",
    "mj": "-1.5,-0.5,0.5,1.5",
}


@pytest.mark.parametrize("param", sorted(_SWEEP_GRIDS))
def test_sweep_rows_match_the_library_byte_for_byte(main, param):
    from rgupzeeman.spectrum import Mode, Regime
    units = ("eV", "erg", "cm-1", "Hz")
    for k, (regime, mode, gamma) in enumerate(
            (r, m, g) for r in Regime for m in Mode for g in ("planck", "1e16")):
        unit = units[k % len(units)]
        fixed = {"B": 0.8, "epsilon": 1.5, "gamma": gamma, "l": 1, "n": None,
                 "branch": "plus", "mj": 0.5}
        argv = ["sweep", "--param", param, "--values=" + _SWEEP_GRIDS[param],
                "--regime", regime.value, "--mode", mode.value, "--unit", unit,
                "--branch", "plus", "--gamma", gamma]
        for name, flag in (("B", "--B-tesla"), ("epsilon", "--epsilon"), ("l", "--l"),
                           ("mj", "--mj")):
            if name != param:
                argv += [flag, str(fixed[name])]
        status, out, err = main(*argv)
        assert status == 0, err
        rows = out.splitlines()[1:]
        values = sorted(float(v) for v in _SWEEP_GRIDS[param].split(","))
        assert rows == [_library_sweep_row(v, param, fixed, regime, mode, unit)
                        for v in values], (regime, mode, unit)


def test_large_sweep_output_is_pinned(main):
    # sha256 of the same command's stdout before the sweep loop was hoisted
    status, out, _ = main("sweep", "--param", "B", "--from", "0", "--to", "10",
                          "--steps", "2000", "--l", "2", "--branch", "minus",
                          "--mj", "0.5", "--regime", "rgup", "--gamma", "1e16",
                          "--unit", "cm-1")
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "0950fed15814e9140d69f5ad0e34b7c69da16d4c776dca672a85a8a849d45e3d"


#: sweeps of the other fields, with q = eps gamma^2 (mc)^2 <= 0.11 < 1/8:
#: epsilon from 0 turns the deformation on after the first row, l with a
#: fixed n moves GUP's scale per row, n moves nothing the forms read, and mj
#: runs over a level of 82 states
_OTHER_SWEEPS = {
    "epsilon": ("--param", "epsilon", "--from", "0", "--to", "1.5", "--steps", "301",
                "--l", "2", "--branch", "minus", "--mj", "0.5", "--B-tesla", "3",
                "--unit", "Hz"),
    "l": ("--param", "l", "--from", "0", "--to", "39", "--steps", "40", "--n", "40",
          "--branch", "plus", "--mj", "0.5", "--epsilon", "1.5", "--unit", "cm-1"),
    "n": ("--param", "n", "--from", "3", "--to", "200", "--steps", "198", "--l", "2",
          "--branch", "plus", "--mj", "-1.5", "--epsilon", "0.7"),
    "mj": ("--param", "mj", "--from", "-40.5", "--to", "40.5", "--steps", "82",
           "--l", "40", "--branch", "plus", "--epsilon", "1.5", "--B-tesla", "0.25",
           "--unit", "erg"),
}


@pytest.mark.parametrize("regime, param, digest", [
    ("gup", "epsilon", "204cc6aa80d14a925877131a909826f684d450de8b80a7971307ba0788aa4a6f"),
    ("gup", "l", "d80df5063153633ac248b58731d0cca8b82c9e3f6467b32dc2fc4c0791362376"),
    ("gup", "n", "677c748ef0ccbd970c6883620792c905e99d59e6ac0460a1a1a0cd1a6d779add"),
    ("gup", "mj", "e7fc9529df654fbc3b0d34e05679f673eb10566e65e34c25af0d19c7ed65caa4"),
    ("rgup", "epsilon", "5a81a4ab1999f08ac3ed557d9e24ab1b591eaef028039a20b2d787abc2cf6b07"),
    ("rgup", "l", "a178cbdc950927325814fcee46d5d073989b21b12522d64f1234358860303791"),
    ("rgup", "n", "f51350fac571cc13fe374d0603dcef2a3bc7f17cce7d3c3bf9111c0b2c5ba1c7"),
    ("rgup", "mj", "f44b49a1916eeb3114a72b4f60720791c114b267f1bf17fe0a12a059a94dd4af"),
], ids=[f"{regime}-{param}" for regime in ("gup", "rgup") for param in _OTHER_SWEEPS])
def test_other_sweep_fields_are_pinned(main, regime, param, digest):
    # sha256 of the same command's stdout before each sweep was compiled into one loop
    status, out, _ = main("sweep", *_OTHER_SWEEPS[param], "--regime", regime,
                          "--gamma", "1e16")
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("param, grid, first, second", [
    ("B", "0,0.5,4", ("--epsilon", "1.5", "--gamma", "1e16", "--l", "2", "--mj", "0.5",
                      "--unit", "Hz"),
     ("--epsilon", "0", "--gamma", "1e15", "--l", "1", "--branch", "minus", "--mj", "-0.5")),
    ("epsilon", "0,0.5,1.5", ("--B-tesla", "3", "--gamma", "1e16", "--l", "2", "--mj", "1.5"),
     ("--B-tesla", "0", "--l", "3", "--branch", "minus", "--mj", "0.5", "--unit", "cm-1")),
    ("l", "1,2,5", ("--n", "9", "--mj", "0.5", "--gamma", "1e16", "--epsilon", "1.5"),
     ("--branch", "minus", "--mj", "-0.5", "--B-tesla", "7", "--gamma", "0",
      "--unit", "erg")),
    ("n", "4,6,9", ("--l", "2", "--mj", "1.5", "--gamma", "1e16", "--unit", "Hz"),
     ("--l", "3", "--branch", "minus", "--mj", "-2.5", "--epsilon", "0.2",
      "--B-tesla", "0.1")),
    ("mj", "-1.5,0.5,1.5", ("--l", "1", "--gamma", "1e16", "--epsilon", "1.5"),
     ("--l", "2", "--branch", "minus", "--B-tesla", "12", "--unit", "cm-1")),
], ids=("B", "epsilon", "l", "n", "mj"))
@pytest.mark.parametrize("regime", ["gup", "rgup"])
def test_a_compiled_sweep_keeps_no_state_between_jobs(main, regime, param, grid, first,
                                                      second):
    # the same plan and field run twice in one process, with different
    # records, unit and fixed values, print what each prints in a fresh process
    jobs = [("sweep", "--param", param, "--values=" + grid, "--regime", regime, *fixed)
            for fixed in (first, second)]
    outputs = [main(*argv) for argv in jobs]
    for argv, (status, out, err) in zip(jobs, outputs):
        fresh = run_cli(*argv)
        assert (status, err) == (fresh.returncode, fresh.stderr.decode()) == (0, "")
        assert out.encode() == fresh.stdout
    assert outputs[0][1] != outputs[1][1]
