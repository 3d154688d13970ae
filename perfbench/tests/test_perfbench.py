"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from common import tail  # noqa: E402


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- generators -------------------------------------------------------------------

def _rounds(seed):
    return (inputs.cold_cycle(inputs.stream(seed, "cli-cold")),
            inputs.sweep_round(inputs.stream(seed, "sweep-bulk")),
            inputs.shift_round(inputs.stream(seed, "lib-grid")),
            inputs.lines_round(inputs.stream(seed, "lib-grid")))


def test_generators_are_deterministic_per_seed():
    assert _rounds(11) == _rounds(11)
    assert all(a != b for a, b in zip(_rounds(11), _rounds(12)))


def _scale(epsilon, gamma):
    return 0.0 if gamma == "planck" else epsilon * (gamma * inputs.M_E_C) ** 2


def test_deformations_stay_below_the_trans_planckian_bound():
    for seed in range(20):
        for row in inputs.shift_round(inputs.stream(seed, "lib-grid")):
            assert _scale(row[5], row[6]) <= inputs.MAX_SCALE < 1 / 8
        for job in inputs.sweep_round(inputs.stream(seed, "sweep-bulk")):
            flag = lambda name, d=None: job[job.index(name) + 1] if name in job else d  # noqa: E731
            gamma = flag("--gamma", "planck")
            eps_max = float(flag("--to")) if flag("--param") == "epsilon" \
                else float(flag("--epsilon"))
            if gamma != "planck":
                assert _scale(eps_max, float(gamma)) <= inputs.MAX_SCALE


def test_library_inputs_never_repeat():
    rng = inputs.stream(3, "lib-grid")
    rows = inputs.shift_round(rng) + inputs.shift_round(rng)
    assert len(set(rows)) == len(rows)


def test_cold_cycle_covers_every_subcommand_and_the_goldens():
    cycle = inputs.cold_cycle(inputs.stream(5, "cli-cold"))
    assert {argv[0] for argv in cycle} == set(inputs.SUBCOMMANDS)
    assert all(argv in cycle for _, argv in inputs.GOLDEN_ARGV)


# -- checks -----------------------------------------------------------------------

def _goldens():
    return {argv: (ROOT / "tests" / "golden" / name).read_bytes()
            for name, argv in inputs.GOLDEN_ARGV}


def test_a_corrupted_golden_byte_fails_the_check():
    goldens = _goldens()
    argv = inputs.GOLDEN_ARGV[1][1]
    good = goldens[argv]
    bad = bytearray(good)
    bad[len(bad) // 2] ^= 0x01
    assert checks.check_cold(argv, 0, good, b"", goldens) is None
    assert checks.check_cold(argv, 0, bytes(bad), b"", goldens) == "differs from golden"


def test_json_output_must_be_strict():
    argv = ("constants", "--json")
    assert checks.check_cold(argv, 0, b'{"a": 1.5}\n', b"", {}) is None
    assert checks.check_cold(argv, 0, b'{"a": NaN}\n', b"", {}).startswith("bad JSON")
    assert checks.check_cold(argv, 0, b'{"a": Infinity}\n', b"", {}).startswith("bad JSON")


def test_line_count_follows_the_selection_rules():
    # 2p(j=3/2) -> 1s(j=1/2): 4 x 2 pairs, minus the two with |d mj| = 2
    assert inputs.expected_line_count((2, 1, "plus"), (1, 0, "plus")) == 6


@pytest.fixture(scope="module")
def sweep():
    pytest.importorskip("rgupzeeman")
    from workloads import SweepBulk

    return SweepBulk(str(ROOT), 9)


def test_a_corrupted_sweep_row_counts_its_rows_as_failed(sweep):
    jobs = sweep.next_round()[:2]
    _, (codes, texts) = sweep.run(jobs)
    ops, failed, reasons, _ = sweep.check(jobs, (codes, texts))
    assert (ops, failed, reasons) == (2 * inputs.SWEEP_ROWS, 0, [])
    lines = texts[1].splitlines(keepends=True)
    row = inputs.SWEEP_ROWS // 2 + 1
    lines[row] = lines[row].replace("e", "E", 1)
    ops, failed, reasons, _ = sweep.check(jobs, (codes, [texts[0], "".join(lines)]))
    assert failed == inputs.SWEEP_ROWS and reasons


# -- import timings, order statistics ----------------------------------------------

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |       numpy.core
import time:        50 |        150 |     numpy
import time:        30 |         30 |       scipy
import time:        70 |        100 |     scipy.special
import time:        20 |        270 |   rgupzeeman.oracle
import time:        10 |        280 | rgupzeeman
"""


def test_importtime_is_parsed_into_a_tree():
    times = layers.import_times(IMPORTTIME)
    assert times["import.numpy_cum_s"] == pytest.approx(150e-6)
    assert times["import.scipy_cum_s"] == pytest.approx(100e-6)
    assert times["import.pkg_cum_s"] == pytest.approx(280e-6)
    assert times["import.self_s.rgupzeeman.oracle"] == pytest.approx(20e-6)


def test_tail_keeps_ten_samples_beyond():
    assert tail(list(range(40))) == (29, 75.0, 10)
    assert tail([3.0, 1.0]) == (3.0, 100.0, 0)


# -- the command ------------------------------------------------------------------

def test_every_metric_is_named_in_benchmark_json():
    names = spec()
    per_layer = {m["name"]: m["unit"] for m in names["per_layer"]}
    assert per_layer == layers.metric_units()
    proc = run_bench(ROOT, "--workload", "lib-grid", "--seed", "1", "--seconds", "0.5",
                     "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    end_to_end = {m["name"]: m["unit"] for m in names["end_to_end"]}
    result = result_line(proc)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == end_to_end
    printed = {ln.split()[1] for ln in proc.stdout.splitlines() if ln.startswith("metric ")}
    assert printed == set(end_to_end)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_traced_run_reports_every_per_layer_metric():
    proc = run_bench(ROOT, "--workload", "sweep-bulk", "--seed", "1", "--seconds", "0.5",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = result_line(proc)["metrics"]
    assert set(metrics) == {m["name"] for m in spec()["per_layer"]}
    assert metrics["opalg.normal_product.calls.rel-linear"]["value"] > 0


def _partial_checkout(tmp_path, with_source):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_source:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests" / "golden", tmp_path / "tests" / "golden")
    return tmp_path


def test_a_corrupted_golden_file_fails_the_run(tmp_path):
    root = _partial_checkout(tmp_path, with_source=True)
    golden = root / "tests" / "golden" / "constants.txt"
    data = bytearray(golden.read_bytes())
    data[0] ^= 0x01
    golden.write_bytes(bytes(data))
    proc = run_bench(root, "--workload", "cli-cold", "--seed", "1", "--seconds", "0.1",
                     "--trace", "0")
    assert proc.returncode == 1
    result = result_line(proc)
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    root = _partial_checkout(tmp_path, with_source=False)
    proc = run_bench(root, "--workload", "cli-cold", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
