"""The three workloads.  Each is driven in rounds:

    inputs = w.next_round()              # untimed: generate and build inputs
    elapsed, outputs = w.run(inputs)     # timed: only the calls into the program
    ops, failed, reasons, digest = w.check(inputs, outputs)   # untimed

A round is one cold invocation (cli-cold) or one batch of fixed composition,
the same work every round (the in-process workloads).  Each workload also
has a reference(), timed around each round (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import threading
import time

import checks
import inputs
from common import child_env, reference_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 60


class ColdCli:
    """Closed loop, one client: each step is a fresh `python -m rgupzeeman`."""

    name = "cli-cold"
    digest_rounds = inputs.COLD_CYCLE_STEPS

    def __init__(self, root: str, seed: int, stream: str = "cli-cold",
                 scratch: str | None = None):
        self.root = root
        self.env = child_env(root)
        self.argvs = inputs.cold_argv_stream(seed, stream)
        self.goldens = {}
        for name, argv in inputs.GOLDEN_ARGV:
            with open(os.path.join(root, "tests", "golden", name), "rb") as handle:
                self.goldens[argv] = handle.read()
        self.scratch = scratch
        self.traced = False
        self.records = []      # one dict per traced child
        self.peak_rss_kb = 0
        self.ref_seconds, self.ref_is_fresh = 0.0, False

    def warm_up(self):
        """Compile the package's bytecode once, outside the timed phase."""
        argv = inputs.GOLDEN_ARGV[0][1]
        _, output = self.run(argv)
        return self.check(argv, output)

    def next_round(self):
        return next(self.argvs)

    def run(self, argv):
        if self.traced:
            spans_out = os.path.join(self.scratch, f"child-{len(self.records)}.json")
            cmd = [sys.executable, "-X", "importtime", os.path.join(HERE, "coldchild.py"),
                   spans_out, *argv]
        else:
            cmd = [sys.executable, "-m", "rgupzeeman", *argv]
        # output goes to files and the child is reaped with wait4, which gives
        # its own CPU time and peak RSS (the reference processes are not counted)
        with tempfile.TemporaryFile(dir=self.scratch) as out, \
                tempfile.TemporaryFile(dir=self.scratch) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        self.ref_is_fresh = False
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if self.traced:
            stderr = self._record(argv, elapsed, usage.ru_utime + usage.ru_stime, stderr,
                                  spans_out)
        return elapsed, (proc.returncode, stdout, stderr)

    def reference(self) -> float:
        """Wall time of a cold interpreter that imports numpy and
        scipy.special: most of an invocation's work, without the package.
        Calls with no invocation between them share one measurement."""
        if not self.ref_is_fresh:
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import numpy, scipy.special"],
                           env=self.env, cwd=self.root, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S, check=True)
            self.ref_seconds = time.perf_counter() - start
            self.ref_is_fresh = True
        return self.ref_seconds

    def _record(self, argv, elapsed, cpu, err: bytes, spans_out: str) -> bytes:
        """Keep the traced child's spans and import timings; return the rest
        of its stderr for the output check."""
        lines = err.decode("utf-8", "replace").splitlines(keepends=True)
        importtime = [ln for ln in lines if ln.startswith("import time:")]
        rest = "".join(ln for ln in lines if not ln.startswith("import time:"))
        record = {"argv": list(argv), "elapsed": elapsed, "cpu": cpu,
                  "importtime": "".join(importtime)}
        try:
            with open(spans_out, encoding="utf-8") as handle:
                record.update(json.load(handle))
            os.remove(spans_out)
        except (OSError, ValueError):
            rest += "no spans written\n"
        self.records.append(record)
        return rest.encode("utf-8")

    def check(self, argv, output):
        returncode, out, err = output
        reason = checks.check_cold(argv, returncode, out, err, self.goldens)
        digest = b"\0".join([" ".join(argv).encode(), str(returncode).encode(), out])
        return 1, int(reason is not None), [reason] if reason else [], digest

    def peak_rss_mb(self) -> float:
        return self.peak_rss_kb / 1024.0


class _InProcess:
    digest_rounds = 2

    def __init__(self, root: str, seed: int, stream: str | None = None,
                 scratch: str | None = None):
        import rgupzeeman.cli  # noqa: F401  (the package import is part of set-up)
        from rgupzeeman import spectrum, units

        self.spectrum, self.units = spectrum, units
        # the checks call the library through these references, which stay
        # untraced when a traced run patches the module attributes
        self.energy_shift_B = spectrum.energy_shift_B
        self.make_params = units.make_params
        self.convert_energy = units.convert_energy
        self.level_states = spectrum.level_states
        self.mu_bohr = units.DEFAULT_CONSTANTS.mu_bohr
        self.rng = inputs.stream(seed, stream or self.name)
        self.warm_rng = inputs.stream(seed, f"{stream or self.name}:warm-up")

    def warm_up(self):
        rng, self.rng = self.rng, self.warm_rng
        try:
            batch = self.next_round()
        finally:
            self.rng = rng
        _, output = self.run(batch)
        return self.check(batch, output)

    def params(self, B, epsilon, gamma):
        if gamma == "planck":
            return self.make_params(B=B, epsilon=epsilon, gamma_mode="planck")
        return self.make_params(B=B, epsilon=epsilon, gamma_mode="explicit", gamma=gamma)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def reference(self) -> float:
        return reference_seconds()


class SweepBulk(_InProcess):
    """In-process `rgupzeeman.cli.main(["sweep", ...])`, stdout captured."""

    name = "sweep-bulk"

    def next_round(self):
        return inputs.sweep_round(self.rng)

    def run(self, jobs):
        cli = sys.modules["rgupzeeman.cli"]
        texts, codes = [], []
        start = time.perf_counter()
        for argv in jobs:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                codes.append(cli.main(list(argv)))
            texts.append(buffer.getvalue())
        return time.perf_counter() - start, (codes, texts)

    def check(self, jobs, output):
        codes, texts = output
        failed, reasons = 0, []
        samples = (0, inputs.SWEEP_ROWS // 2, inputs.SWEEP_ROWS - 1)
        for argv, code, text in zip(jobs, codes, texts):
            reason = f"exit code {code}" if code != 0 else \
                checks.check_sweep_job(argv, text, samples, self.expected_row)
            if reason:
                failed += inputs.SWEEP_ROWS
                reasons.append(reason)
        digest = "".join(texts).encode()
        return len(jobs) * inputs.SWEEP_ROWS, failed, reasons, digest

    def expected_row(self, argv, value) -> str:
        """The CSV row for one swept value, recomputed through the library."""
        flag = lambda name, default=None: (  # noqa: E731
            argv[argv.index(name) + 1] if name in argv else default)
        param = flag("--param")
        b_tesla = value if param == "B" else float(flag("--B-tesla", "1.0"))
        epsilon = value if param == "epsilon" else float(flag("--epsilon", "1.0"))
        gamma = flag("--gamma", "planck")
        params = self.params(b_tesla * self.units.GAUSS_PER_TESLA, epsilon,
                             gamma if gamma == "planck" else float(gamma))
        sp = self.spectrum
        state = sp.QuantumState(n=int(flag("--n")), l=int(flag("--l")),
                                branch=sp.Branch(flag("--branch")), mj=float(flag("--mj")))
        regime, unit = sp.Regime(flag("--regime")), flag("--unit")
        breakdown = self.energy_shift_B(state, params, regime, sp.Mode(flag("--mode")))
        present = {t.label: t.value_erg for t in breakdown.terms}
        cells = [repr(value), regime.value]
        cells += [repr(self.convert_energy(present.get(label, 0.0), "erg", unit))
                  for label in sp.REGIME_TERM_LABELS[regime]]
        cells.append(repr(self.convert_energy(breakdown.total_erg, "erg", unit)))
        return ",".join(cells)


class LibGrid(_InProcess):
    """Two timed phases over fresh seeded inputs, no CLI: energy_shift_B over
    (state, params, regime, mode) tuples, then zeeman_lines over level pairs
    with |dl| = 1 and l <= 7."""

    name = "lib-grid"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.phase_times = []      # (shifts seconds, line sets seconds) per run

    def next_round(self):
        sp = self.spectrum
        shifts = []
        for n, l, branch, mj, B, epsilon, gamma, regime, mode in inputs.shift_round(self.rng):
            state = sp.QuantumState(n=n, l=l, branch=sp.Branch(branch), mj=mj)
            shifts.append((state, self.params(B, epsilon, gamma), sp.Regime(regime),
                           sp.Mode(mode)))
        line_sets = []
        for upper, lower, B, epsilon, gamma, regime, mode in inputs.lines_round(self.rng):
            up = self.level_states(upper[0], upper[1], sp.Branch(upper[2]))
            lo = self.level_states(lower[0], lower[1], sp.Branch(lower[2]))
            line_sets.append(((upper, lower), (up, lo, self.params(B, epsilon, gamma),
                                               sp.Regime(regime), sp.Mode(mode))))
        return shifts, line_sets

    def run(self, batch):
        shifts, line_sets = batch
        energy_shift_B = self.spectrum.energy_shift_B
        zeeman_lines = self.spectrum.zeeman_lines
        start = time.perf_counter()
        breakdowns = [energy_shift_B(state, params, regime, mode)
                      for state, params, regime, mode in shifts]
        middle = time.perf_counter()
        lines = [zeeman_lines(*args) for _, args in line_sets]
        end = time.perf_counter()
        self.phase_times.append((middle - start, end - middle))
        return end - start, (breakdowns, lines)

    def check(self, batch, output):
        (shifts, line_sets), (breakdowns, lines) = batch, output
        failed, reasons, digest = 0, [], hashlib.sha256()
        for (state, params, _, _), breakdown in zip(shifts, breakdowns):
            sign = 1.0 if state.branch is self.spectrum.Branch.PLUS else -1.0
            g_j = 1.0 + sign / (2 * state.l + 1)
            reason = checks.check_breakdown(breakdown, self.mu_bohr, g_j, params.B, state.mj)
            if reason:
                failed += 1
                reasons.append(reason)
            digest.update(repr([(t.label, t.value_erg) for t in breakdown.terms]).encode())
        for (levels, _), found in zip(line_sets, lines):
            reason = checks.check_lines(found, *levels)
            if reason:
                failed += 1
                reasons.append(reason)
            digest.update(repr(found).encode())
        return len(shifts) + len(line_sets), failed, reasons, digest.digest()


WORKLOADS = {cls.name: cls for cls in (ColdCli, SweepBulk, LibGrid)}
