"""CLI contract: golden bytes, exit codes, config precedence, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).parent / "golden"


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
])
def test_golden_byte_equality(name, argv):
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_bytes()


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
    (("--nodes", "400"), 4),                         # degenerate rule: NaN everywhere
], ids=("zero-nodes", "too-few-nodes", "too-many-nodes"))
def test_oracle_cli_bad_quadrature_exit_code(argv, code):
    proc = run_cli("oracle", "--n", "2", "--l", "1", *argv)
    assert proc.returncode == code
    assert proc.stdout == b""
    assert len(proc.stderr.splitlines()) == 1


def test_oracle_cli_non_finite_value_is_exit_4(monkeypatch, capsys):
    from rgupzeeman import cli
    monkeypatch.setattr(cli, "p4_expectation_exact", lambda *a, **k: float("inf"))
    assert cli.main(["oracle", "--n", "2", "--l", "1"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "rgupz: verification failure: quadrature on 120 nodes gave a non-finite value\n"


def test_only_oracle_loads_numpy_and_scipy():
    script = (
        "import contextlib, io, sys\n"
        "import rgupzeeman, rgupzeeman.cli\n"
        "assert 'numpy' not in sys.modules and 'scipy' not in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert rgupzeeman.cli.main(['oracle', '--n', '2', '--l', '1']) == 0\n"
        "assert 'numpy' in sys.modules and 'scipy' in sys.modules\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr


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
