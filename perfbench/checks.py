"""Output checks.  Each returns None when the output is right, else a short
reason; a failed check counts its operations in failed_frac."""

from __future__ import annotations

import json
import math

from inputs import SWEEP_ROWS, expected_line_count


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text: str):
    """json.loads that refuses NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def check_cold(argv, returncode: int, stdout: bytes, stderr: bytes, goldens: dict):
    """Check one cold `python -m rgupzeeman` invocation.

    goldens maps an argv tuple to the expected stdout bytes."""
    if returncode != 0:
        return f"exit code {returncode}"
    if stderr:
        return "unexpected stderr"
    argv = tuple(argv)
    if argv in goldens:
        return None if stdout == goldens[argv] else "differs from golden"
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError:
        return "stdout is not UTF-8"
    if not text.strip():
        return "empty stdout"
    command = argv[0]
    if "--json" in argv or command == "oracle":
        try:
            payload = strict_json(text)
        except ValueError as exc:
            return f"bad JSON: {exc}"
    else:
        payload = None
    if command == "lines":
        upper = (0, int(_flag(argv, "--upper-l")), _flag(argv, "--upper-branch", "plus"))
        lower = (0, int(_flag(argv, "--lower-l")), _flag(argv, "--lower-branch", "plus"))
        want = expected_line_count(upper, lower)
        if payload is not None:
            got = payload["count"] if len(payload["lines"]) == payload["count"] else -1
        else:
            got = len(text.splitlines()) - 1
            if not text.startswith(f"lines ({got}),"):
                got = -1
        return None if got == want else f"line count {got}, selection rules give {want}"
    if command == "sweep":
        rows = text.splitlines()
        return None if len(rows) == int(_flag(argv, "--steps")) + 1 else "sweep row count"
    if command == "verify-algebra":
        if payload is not None:
            ok = len(payload["reports"]) == 3 and all(r["passed"] for r in payload["reports"])
        else:
            ok = text.count(": PASS") == 3
        return None if ok else "algebra case not passed"
    return None


def check_sweep_job(argv, text: str, sample_rows, expected_row):
    """Row count and header of one in-process sweep job, plus the sampled rows
    recomputed through the library by expected_row(argv, value)."""
    lines = text.splitlines()
    if len(lines) != SWEEP_ROWS + 1:
        return f"{len(lines) - 1} rows, expected {SWEEP_ROWS}"
    if not lines[0].startswith(("B_tesla,regime,", "epsilon,regime,")):
        return "bad header"
    for index in sample_rows:
        line = lines[1 + index]
        try:
            value = float(line.split(",", 1)[0])
        except ValueError:
            return f"row {index}: unparsable swept value"
        if line != expected_row(argv, value):
            return f"row {index} differs from the library"
    return None


def check_breakdown(breakdown, mu_bohr: float, g_j: float, B: float, mj: float):
    """jz_plus_sz against -g_j mu_B B m_j, and the total against fsum of terms."""
    values = [t.value_erg for t in breakdown.terms]
    if breakdown.total_erg != math.fsum(values):
        return "total is not the fsum of its terms"
    lead = breakdown.terms[0]
    want = -g_j * mu_bohr * B * mj
    if lead.label != "jz_plus_sz" or abs(lead.value_erg - want) > 1e-12 * abs(want):
        return "jz_plus_sz differs from -g_j mu_B B m_j"
    return None


def check_lines(lines, upper, lower):
    want = expected_line_count(upper, lower)
    return None if len(lines) == want else f"{len(lines)} lines, selection rules give {want}"
