"""One workload in one fresh process; prints a JSON summary as its last line.

    python perfbench/worker.py --root DIR --workload NAME --seed N
        [--seconds S] [--trace 0|1] [--setup-only] [--spawned-at T]

--spawned-at is the parent's time.monotonic() just before it started this
process (the clock is system-wide), so the summary's setup_s covers
interpreter start, the package import and input generation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time

from common import cost_in_refs, median
from inputs import COLD_CYCLE_STEPS
from workloads import WORKLOADS

MAX_REASONS = 5
TRACED_ROUNDS = 10     # rounds of the traced half; bounds the spans kept in memory


class Tally:
    """Operations attempted and failed, the first failure reasons, and the
    sha256 of the outputs of the first `digest_rounds` timed rounds."""

    def __init__(self, digest_rounds: int):
        self.attempted = self.failed = 0
        self.reasons = []
        self.digest = hashlib.sha256()
        self.digest_rounds = digest_rounds
        self.digested = 0

    def add(self, checked, digest: bool = False):
        ops, failed, reasons, part = checked
        self.attempted += ops
        self.failed += failed
        self.reasons += reasons[:MAX_REASONS - len(self.reasons)]
        if digest and self.digested < self.digest_rounds:
            self.digest.update(part)
            self.digested += 1


def timed_rounds(workload, seconds: float, tally: Tally, digest: bool = False,
                 first=None, max_rounds=None):
    """Run rounds until `seconds` of wall time have passed (at least one) or
    max_rounds have run.  Return ops, and per round its seconds and the mean
    of the reference loop timed just before and just after it."""
    ops, elapsed, refs = 0, [], []
    deadline = time.monotonic() + seconds
    while True:
        batch, first = (workload.next_round() if first is None else first), None
        before = workload.reference()
        took, output = workload.run(batch)
        refs.append((before + workload.reference()) / 2)
        checked = workload.check(batch, output)
        tally.add(checked, digest)
        ops += checked[0]
        elapsed.append(took)
        if time.monotonic() >= deadline or len(elapsed) == max_rounds:
            return ops, elapsed, refs


def untraced(workload, first, seconds: float, tally: Tally) -> dict:
    tally.add(workload.warm_up())
    ops, elapsed, refs = timed_rounds(workload, seconds, tally, digest=True, first=first)
    phases = getattr(workload, "phase_times", [])[-len(elapsed):]
    return {"ops": ops, "rounds": elapsed, "refs": refs, "phases": phases,
            "peak_rss_mb": workload.peak_rss_mb()}


def traced(name: str, root: str, seed: int, seconds: float, tally: Tally,
           scratch: str) -> dict:
    """Untraced half, traced half (for the overhead), then the layer pass.
    Every span is written to .perfbench/spans-<workload>.json at the end."""
    from layers import SpanSet, layer_metrics
    from spans import Tracer

    workload = WORKLOADS[name](root, seed, scratch=scratch)
    layer_pass = {n: cls(root, seed, f"layers:{n}", scratch=scratch)
                  for n, cls in WORKLOADS.items()}
    tally.add(workload.warm_up())
    _, base, base_refs = timed_rounds(workload, seconds / 2, tally, digest=True)

    tracer = Tracer()
    tracer.install()      # in-process calls now go through the spans
    for w in (workload, layer_pass["cli-cold"]):
        w.traced = True   # cold children now run coldchild.py
    _, rounds, refs = timed_rounds(workload, seconds / 2, tally,
                                   max_rounds=TRACED_ROUNDS)
    span_sets = [SpanSet(list(tracer.spans), "segment")]
    cold = [dict(r, phase="segment") for r in getattr(workload, "records", [])]

    tracer.spans.clear()
    cycle = layer_pass["cli-cold"]
    for _ in range(COLD_CYCLE_STEPS):
        argv = cycle.next_round()
        tally.add(cycle.check(argv, cycle.run(argv)[1]))
    for n in ("sweep-bulk", "lib-grid"):
        w = layer_pass[n]
        batch = w.next_round()
        tally.add(w.check(batch, w.run(batch)[1]))
    span_sets.append(SpanSet(list(tracer.spans), "layers"))
    cold += [dict(r, phase="layers") for r in cycle.records]
    span_sets += [SpanSet(r["spans"], r["phase"]) for r in cold]

    with open(os.path.join(root, ".perfbench", f"spans-{name}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed,
                   "fields": ["name", "start_ns", "end_ns", "parent", "attrs"],
                   "sets": [{"phase": s.phase, "spans": s.spans} for s in span_sets]},
                  handle)
    # cost of a round in references, traced over untraced
    overhead = median(cost_in_refs(rounds, refs)) / median(cost_in_refs(base, base_refs)) - 1
    return {"per_layer": layer_metrics(span_sets, cold, overhead)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)

    os.makedirs(os.path.join(args.root, ".perfbench"), exist_ok=True)
    scratch = tempfile.mkdtemp(dir=os.path.join(args.root, ".perfbench"))
    try:
        if args.trace:
            tally = Tally(WORKLOADS[args.workload].digest_rounds)
            result = traced(args.workload, args.root, args.seed, args.seconds, tally, scratch)
        else:
            workload = WORKLOADS[args.workload](args.root, args.seed, scratch=scratch)
            first = workload.next_round()   # input generation is part of set-up
            ready = time.monotonic()
            result = {"setup_s": ready - args.spawned_at if args.spawned_at else None}
            tally = Tally(workload.digest_rounds)
            if not args.setup_only:
                result.update(untraced(workload, first, args.seconds, tally))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons,
                  digest=tally.digest.hexdigest(), digest_rounds=tally.digested)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
