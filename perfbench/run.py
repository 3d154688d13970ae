"""Benchmark of the rgupzeeman package: cold CLI, bulk sweep and library use.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: cli-cold, sweep-bulk and
lib-grid (see perfbench/README.md).  With --trace 0 the
end-to-end metrics are measured untraced; with --trace 1 a traced run reports
the per-layer metrics.  Every output is checked; the last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from importlib import metadata

from common import child_env, cost_in_refs, median, missing_files, tail
from inputs import LINE_SETS_PER_ROUND, SHIFTS_PER_ROUND
from layers import metric_units

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 9          # extra set-up-only processes; setup_s is the median
TIME_LIMIT_S = 170.0

FAST_ROUNDS = 3           # the info line's fast_ops_per_s: the run's fastest rounds

END_TO_END_UNITS = {"ops_per_ref": "1/ref", "setup_s": "s", "peak_rss_mb": "MB"}
#: what an operation is in each workload
OPERATIONS = {"cli-cold": "invocations", "sweep-bulk": "sweep rows",
              "lib-grid": "energy_shift_B and zeeman_lines calls"}


class WorkerError(RuntimeError):
    pass


def run_worker(root: str, args, deadline: float, setup_only: bool = False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned_at = time.monotonic()
    cmd += ["--spawned-at", repr(spawned_at)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(root), cwd=root) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError("worker exceeded the time limit") from None
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu}


def end_to_end(summary: dict, setup: list[float]) -> tuple[dict, dict]:
    """Gated metrics, plus the raw timings reported beside them.

    Other tenants of a shared host slow everything for seconds at a time, so
    the gated throughput counts each round's time in units of a reference
    loop timed right around it; the median over rounds is then steady."""
    rounds = summary["rounds"]
    per_round = summary["ops"] / len(rounds)
    fast = sorted(rounds)[:FAST_ROUNDS]
    tail_value, percentile, beyond = tail(rounds)
    metrics = {"ops_per_ref": per_round / median(cost_in_refs(rounds, summary["refs"])),
               "setup_s": median(setup),
               "peak_rss_mb": summary["peak_rss_mb"]}
    info = {"ops_per_round": per_round, "rounds": len(rounds),
            "mean_ops_per_s": summary["ops"] / sum(rounds),
            "fast_ops_per_s": per_round * len(fast) / sum(fast),
            "round_p50_s": median(rounds), "round_tail_s": tail_value,
            "tail_percentile": percentile, "tail_samples_beyond": beyond,
            "ref_p50_s": median(summary["refs"]), "setup_samples": len(setup)}
    if summary["phases"]:
        shift_s, lines_s = (sum(times) for times in zip(*summary["phases"]))
        info["shifts_per_s"] = len(rounds) * SHIFTS_PER_ROUND / shift_s
        info["line_sets_per_s"] = len(rounds) * LINE_SETS_PER_ROUND / lines_s
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPERATIONS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    missing = missing_files(root)
    if missing:
        print(f"perfbench: run from the root of a checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setup = [] if args.trace else [
            run_worker(root, args, deadline, setup_only=True)["setup_s"]
            for _ in range(SETUP_PROBES)]
        summary = run_worker(root, args, deadline)
    except (WorkerError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, info, units = summary["per_layer"], {}, metric_units()
    else:
        values, info = end_to_end(summary, setup + [summary["setup_s"]])
        units = END_TO_END_UNITS
    attempted, failed = summary["attempted"], summary["failed"]
    for name, value in values.items():
        print(f"metric {name} = {value!r} {units[name]}")
    info.update(workload=args.workload, operation=OPERATIONS[args.workload], seed=args.seed, seconds=args.seconds,
                trace=args.trace, failed_frac=failed / attempted if attempted else 1.0,
                failures=summary["reasons"], digest=summary["digest"],
                digest_rounds=summary["digest_rounds"], env=environment())
    print("info " + json.dumps(info, sort_keys=True))
    correct = attempted >= 1 and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
