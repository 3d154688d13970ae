"""Command-line surface for shift computation, sweeps, lines, and checks.

Exit codes: 0 success, 2 flag/config parse error, 3 domain error (invalid
physics), 4 verification failure.  Output is deterministic: no timestamps,
version banner only behind --banner.  Energies print in eV by default.

RunConfig.get resolves each key of _SETTINGS as command-line flag > RGUPZ_*
environment variable > --config file > builtin, in exactly the subcommands
that have its flag.  The config file is flat "dotted.key = value" text; the
environment variable is the key upper-cased with dots replaced by
underscores and the RGUPZ_ prefix (params.b_tesla -> RGUPZ_PARAMS_B_TESLA).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import sys
import warnings
from typing import NamedTuple

from . import __version__, opalg
from .dispersion import TransPlanckianMassError, solve_mass_shell
from .oracle import (
    _check_qn,
    p2_closed_form,
    p2_expectation_exact,
    p4_expectation_exact,
    radial_expectation,
)
from .spectrum import (
    Branch,
    Mode,
    QuantumState,
    Regime,
    REGIME_TERM_LABELS,
    _row_evaluator,
    discrepancy_report,
    energy_shift_B,
    level_states,
    zeeman_lines,
)
from .units import (
    ENERGY_UNITS,
    GAUSS_PER_TESLA,
    ValidationError,
    _constant_rows,
    constants_dump,
    convert_energy,
    is_integer,
    load_constants,
    make_params,
)

ENV_PREFIX = "RGUPZ_"


class CLIUsageError(Exception):
    """Bad flags or config text; maps to exit code 2."""


#: config key -> (the args attribute of the flag that overrides it, builtin
#: text, how text is read, the allowed texts or None for any)
_SETTINGS = {
    "params.b_tesla": ("B_tesla", "1.0", float, None),
    "params.epsilon": ("epsilon", "1.0", float, None),
    "params.gamma": ("gamma", "planck", lambda t: None if t == "planck" else float(t), None),
    # a float, so a configured 2.5 reaches the integer rule and exits 3
    "params.z": ("Z", "1", float, None),
    "output.unit": ("unit", "eV", str, ENERGY_UNITS),
    "output.format": ("format", "table", str, ("table", "json", "csv")),
}


class RunConfig(NamedTuple):
    file_values: dict[str, str]
    env_values: dict[str, str]

    @classmethod
    def load(cls, config_path: str | None) -> "RunConfig":
        file_values: dict[str, str] = {}
        if config_path is not None:
            try:
                with open(config_path, encoding="utf-8") as config_file:
                    text = config_file.read()
            except OSError as exc:
                raise CLIUsageError(f"cannot read config file: {exc}") from None
            for lineno, line in enumerate(text.splitlines(), 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise CLIUsageError(
                        f"{config_path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, value = line.partition("=")
                file_values[key.strip()] = value.strip()
        env_values = {}
        for key in _SETTINGS:
            name = ENV_PREFIX + key.upper().replace(".", "_")
            if name in os.environ:
                env_values[key] = os.environ[name]
        return cls(file_values=file_values, env_values=env_values)

    def get(self, args, key: str):
        """The key's value: its flag > environment > file > builtin.  A flag that
        argparse typed (--B-tesla, --Z) is used as parsed; text is read and
        checked here.  args must have the key's flag."""
        flag, builtin, read, choices = _SETTINGS[key]
        value = getattr(args, flag)
        if value is None:
            value = self.env_values.get(key, self.file_values.get(key, builtin))
        if not isinstance(value, str):
            return value
        if choices is not None and value not in choices:
            raise CLIUsageError(f"{key}: expected one of {', '.join(choices)}, got {value!r}")
        try:
            return read(value)
        except ValueError:
            raise CLIUsageError(f"{key}: expected a number, got {value!r}") from None


def _fmt(value: float) -> str:
    return f"{value:.12e}"


_PARAM_KEYS = ("params.b_tesla", "params.epsilon", "params.gamma", "params.z")


def _make_params(b_tesla: float, epsilon: float, gamma: float | None, Z: float,
                 m: float | None = None):
    return make_params(B=b_tesla * GAUSS_PER_TESLA, epsilon=epsilon,
                       gamma_mode="planck" if gamma is None else "explicit",
                       gamma=gamma, m=m, Z=Z)


def _params_from(args, cfg: RunConfig):
    return _make_params(*[cfg.get(args, key) for key in _PARAM_KEYS])


def _state_from(args, l: int | None = None, n: int | None = None,
                mj: float | None = None) -> QuantumState:
    l_val = args.l if l is None else l
    if l_val is None:
        raise CLIUsageError("--l is required")
    n_val = n if n is not None else (args.n if args.n is not None else l_val + 1)
    mj_val = mj if mj is not None else args.mj
    if mj_val is None:
        raise CLIUsageError("--mj is required")
    return QuantumState(n=n_val, l=l_val, branch=Branch(args.branch), mj=mj_val)


def _in_unit(values_erg, unit: str) -> list[float]:
    """The erg values in the display unit; ValidationError unless all stay finite."""
    per_erg = convert_energy(1.0, "erg", unit)  # same bits as one call per value
    values = [value * per_erg for value in values_erg]
    if not all(map(math.isfinite, values)):
        raise ValidationError("unit", f"a value is outside double precision in {unit}")
    return values


def _print_json(payload) -> None:
    """Strict, key-sorted JSON; no payload holds a record (json writes one as a list)."""
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def _state_dict(state: QuantumState) -> dict:
    return {"n": state.n, "l": state.l, "branch": state.branch.value,
            "mj": state.mj}


def _params_dict(params) -> dict:
    return {"B_gauss": params.B, "epsilon": params.epsilon,
            "gamma": params.gamma, "m_g": params.m, "Z": params.Z}


# -- subcommands ----------------------------------------------------------------

def cmd_constants(args, cfg: RunConfig) -> int:
    table = load_constants()
    if cfg.get(args, "output.format") == "json":
        _print_json({name: {"value": value, "unit": unit}
                     for name, value, unit in _constant_rows(table)})
    else:
        print(constants_dump(table))
    return 0


def cmd_shift(args, cfg: RunConfig) -> int:
    params = _params_from(args, cfg)
    state = _state_from(args)
    regime = Regime(args.regime)
    mode = Mode(args.mode)
    unit = cfg.get(args, "output.unit")
    breakdown = energy_shift_B(state, params, regime, mode)
    fmt = cfg.get(args, "output.format")
    # the table shows the display unit; json and csv carry eV next to erg
    *shown, total = _in_unit([*(t.value_erg for t in breakdown.terms),
                              breakdown.total_erg], unit if fmt == "table" else "eV")

    if fmt == "json":
        payload = {
            "regime": regime.value,
            "mode": mode.value,
            "state": _state_dict(state),
            "params": _params_dict(params),
            "correction_scale": breakdown.correction_scale,
            "terms": [
                {"label": t.label, "expression": t.expression,
                 "value_erg": t.value_erg, "value_eV": value, "tags": list(t.tags)}
                for t, value in zip(breakdown.terms, shown)
            ],
            "total_erg": breakdown.total_erg,
            "total_eV": total,
        }
        _print_json(payload)
        return 0

    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["regime", "mode", "label", "expression",
                         "value_erg", "value_eV"])
        for t, value in zip(breakdown.terms, shown):
            writer.writerow([regime.value, mode.value, t.label, t.expression,
                             repr(t.value_erg), repr(value)])
        writer.writerow([regime.value, mode.value, "TOTAL", "",
                         repr(breakdown.total_erg), repr(total)])
        return 0

    width = max(len("TOTAL"), *(len(t.label) for t in breakdown.terms))
    print(f"regime           {regime.value}")
    print(f"mode             {mode.value}")
    print(f"state            n={state.n} l={state.l} branch={state.branch.value} mj={state.mj!r}")
    print(f"B_gauss          {params.B!r}")
    print(f"correction_scale {breakdown.correction_scale!r}")
    print(f"unit             {unit}")
    for t, value in zip(breakdown.terms, shown):
        flags = f"  [{', '.join(t.tags)}]" if t.tags else ""
        print(f"{t.label:<{width}}  {_fmt(value)}  {t.expression}{flags}")
    print(f"{'TOTAL':<{width}}  {_fmt(total)}")
    return 0


_SWEEP_COLUMN = {"B": "B_tesla", "epsilon": "epsilon", "l": "l",
                 "mj": "mj", "n": "n"}


def _sweep_grid(args) -> list[float]:
    """The swept values from --values or --from/--to/--steps, sorted."""
    if args.values is not None:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError:
            raise CLIUsageError(f"--values: expected comma-separated numbers, got {args.values!r}") from None
        if not values:
            raise CLIUsageError("--values: empty list")
    else:
        if args.start is None or args.stop is None:
            raise CLIUsageError("sweep needs either --values or --from/--to")
        steps = args.steps
        if steps < 1:
            raise CLIUsageError("--steps must be >= 1")
        if steps == 1:
            values = [args.start]
        else:
            span = (args.stop - args.start) / (steps - 1)
            values = [args.start + k * span for k in range(steps)]
    return sorted(values)


def _sweep_records(values, args, param_values):
    """Yield (value, params, state) for each grid point.

    Only the swept record is built per row; the fixed one is built on the
    first row and reused.  Params come before the state within a row, so the
    first bad row raises what the matching `shift` call would.
    """
    param = args.param
    b_tesla, epsilon, gamma, Z = param_values
    params = state = None
    for value in values:
        if param == "B":
            params = _make_params(value, epsilon, gamma, Z)
        elif param == "epsilon":
            params = _make_params(b_tesla, value, gamma, Z)
        elif params is None:
            params = _make_params(b_tesla, epsilon, gamma, Z)
        if param == "mj":
            state = _state_from(args, mj=value)
        elif param in ("l", "n"):
            if not is_integer(value):
                raise ValidationError(param, f"swept {param} must be an integer, "
                                             f"got {value!r}")
            state = _state_from(args, **{param: int(value)})
        elif state is None:
            state = _state_from(args)
        yield value, params, state


def cmd_sweep(args, cfg: RunConfig) -> int:
    values = _sweep_grid(args)
    regime, mode = Regime(args.regime), Mode(args.mode)
    unit = cfg.get(args, "output.unit")
    param_values = [cfg.get(args, key) for key in _PARAM_KEYS]
    # validate the grid before the first write, keeping nothing, so a bad
    # grid point prints no partial CSV and a long sweep stays streamed.  The
    # B and epsilon rules are intervals, so a NaN (which does not sort) and
    # the sorted grid's two ends stand for every row; l, n and mj are checked
    # row by row
    if args.param in ("B", "epsilon"):
        checked = [v for v in values if math.isnan(v)] + [values[0], values[-1]]
    else:
        checked = values
    first = last = None
    for last in _sweep_records(checked, args, param_values):
        if first is None:
            first = last
    # each term is monotone in the swept B, epsilon, l or |mj| (and |mj| peaks
    # at an end of the sorted grid), and so is its value in the display unit,
    # a positive multiple; if both end rows stay inside double precision,
    # every row does
    evaluate = _row_evaluator(regime, mode)
    for _, params, state in (first, last):
        _, shifts, total = evaluate(state, params)
        _in_unit([*(v for v in shifts if v is not None), total], unit)

    per_erg = convert_energy(1.0, "erg", unit)  # same bits as per-value calls
    regime_text = regime.value  # Enum.value is a Python-level property
    # no cell needs CSV quoting (finite float reprs, a regime value, fixed
    # labels), so a join writes what csv.writer would, at a fifth of the cost
    write = sys.stdout.write
    write(",".join([_SWEEP_COLUMN[args.param], "regime", *REGIME_TERM_LABELS[regime],
                    "total"]) + "\n")
    for value, params, state in _sweep_records(values, args, param_values):
        _, shifts, total = evaluate(state, params)
        write(",".join([repr(value), regime_text,
                        *[repr(0.0 if v is None else v * per_erg) for v in shifts],
                        repr(total * per_erg)]) + "\n")
    return 0


#: each level holds its 2j + 1 states in memory; l = 1000 takes about 0.25 s
MAX_LINES_L = 1000


def cmd_lines(args, cfg: RunConfig) -> int:
    for flag, l in (("--upper-l", args.upper_l), ("--lower-l", args.lower_l)):
        if l > MAX_LINES_L:
            raise CLIUsageError(f"{flag} must be <= {MAX_LINES_L}, got {l}")
    params = _params_from(args, cfg)
    regime = Regime(args.regime)
    mode = Mode(args.mode)
    unit = cfg.get(args, "output.unit")
    upper_n = args.upper_n if args.upper_n is not None else args.upper_l + 1
    lower_n = args.lower_n if args.lower_n is not None else args.lower_l + 1
    upper = level_states(upper_n, args.upper_l, Branch(args.upper_branch))
    lower = level_states(lower_n, args.lower_l, Branch(args.lower_branch))
    lines = zeeman_lines(upper, lower, params, regime, mode)

    if cfg.get(args, "output.format") == "json":
        payload = {
            "regime": regime.value,
            "mode": mode.value,
            "count": len(lines),
            "lines": [
                {"upper_mj": ln.upper.mj, "lower_mj": ln.lower.mj,
                 "delta_mj": ln.delta_mj, "polarization": ln.polarization,
                 "shift_erg": ln.shift_erg,
                 "level_offset_erg": ln.level_offset_erg}
                for ln in lines
            ],
        }
        _print_json(payload)
        return 0

    shown = _in_unit([v for ln in lines for v in (ln.shift_erg, ln.level_offset_erg)], unit)
    print(f"lines ({len(lines)}), regime {regime.value}, unit {unit}")
    for ln, shift, offset in zip(lines, shown[::2], shown[1::2]):
        print(f"mj {ln.upper.mj:+.1f} -> {ln.lower.mj:+.1f}  {ln.polarization:<6} "
              f"shift {_fmt(shift)}  offset {_fmt(offset)}")
    return 0


def cmd_verify_algebra(args, cfg: RunConfig) -> int:
    cases = opalg.VERIFICATION_CASES if args.case == "all" else (args.case,)
    reports = [opalg.verify_algebra(case, target=args.target) for case in cases]

    if cfg.get(args, "output.format") == "json":
        payload = {"target": args.target, "reports": [
            {"case": r.case, "passed": r.passed, "notes": list(r.notes),
             "checks": [
                 {"bracket": c.bracket, "computed": str(c.computed),
                  "target": str(c.target), "residual": str(c.residual),
                  "ok": c.ok}
                 for c in r.checks
             ]}
            for r in reports
        ]}
        _print_json(payload)
    else:
        for report in reports:
            print(f"case {report.case}: {'PASS' if report.passed else 'FAIL'}")
            width = max(len(c.bracket) for c in report.checks)
            for c in report.checks:
                status = "ok" if c.ok else "RESIDUAL " + str(c.residual)
                print(f"  {c.bracket:<{width}}  computed = {c.computed}")
                print(f"  {'':<{width}}  {status}")
            for note in report.notes:
                print(f"  note: {note}")
    return 0 if all(r.passed for r in reports) else 4


def cmd_dispersion(args, cfg: RunConfig) -> int:
    if args.mc is None and args.eps_gamma2 is not None:
        raise CLIUsageError("--eps-gamma2 pairs with --mc")
    if args.mc is not None:
        for flag, value in (("--m-grams", args.m_grams), ("--epsilon", args.epsilon),
                            ("--gamma", args.gamma)):
            if value is not None:
                raise CLIUsageError(f"{flag} does not combine with --mc")
        mc = args.mc
        eps_gamma2 = args.eps_gamma2 if args.eps_gamma2 is not None else 0.0
    else:
        # PhysicalParams holds the rules for m, epsilon and gamma
        params = _make_params(0.0, cfg.get(args, "params.epsilon"),
                              cfg.get(args, "params.gamma"), 1, m=args.m_grams)
        mc = params.m * params.constants.c
        eps_gamma2 = params.eps_gamma2
    if not (mc > 0.0 and math.isfinite(mc)):
        raise ValidationError("mc", f"must be finite and > 0, got {mc!r}")
    if not (eps_gamma2 >= 0.0 and math.isfinite(eps_gamma2)):
        raise ValidationError("eps_gamma2", f"must be finite and >= 0, got {eps_gamma2!r}")
    solution = solve_mass_shell(mc, eps_gamma2, order=args.order)
    if not all(map(math.isfinite, (solution.exact_root, solution.series_root,
                                   solution.residual))):
        raise ValidationError("mc", f"the root overflows double precision at mc = {mc!r}")

    if cfg.get(args, "output.format") == "json":
        _print_json({
            "mc": mc, "eps_gamma2": eps_gamma2, "order": solution.order,
            "exact_root": solution.exact_root,
            "series_root": solution.series_root,
            "residual": solution.residual,
        })
    else:
        print(f"mc          {mc!r}")
        print(f"eps_gamma2  {eps_gamma2!r}")
        print(f"exact_root  {solution.exact_root!r}")
        print(f"series_root {solution.series_root!r} (order {solution.order})")
        print(f"residual    {solution.residual!r}")
    return 0


def cmd_discrepancy(args, cfg: RunConfig) -> int:
    params = _params_from(args, cfg)
    state = _state_from(args)
    report = discrepancy_report(state, params)

    if cfg.get(args, "output.format") == "json":
        payload = {
            "state": _state_dict(state),
            "differences": [
                {"regime": d.regime.value, "label": d.label,
                 "derived_erg": d.derived_erg, "published_erg": d.published_erg,
                 "ratio": d.ratio, "tags": list(d.tags)}
                for d in report.differences
            ],
            "agreements": list(report.agreements),
        }
        _print_json(payload)
        return 0

    print(f"differences ({len(report.differences)}):")
    for d in report.differences:
        ratio = "n/a" if d.ratio is None else _fmt(d.ratio)
        print(f"  {d.regime.value}:{d.label}  tags={','.join(d.tags)}  "
              f"published/derived={ratio}")
        print(f"    derived   {d.derived_erg!r} erg")
        print(f"    published {d.published_erg!r} erg")
    print(f"agreements ({len(report.agreements)}): {', '.join(report.agreements)}")
    return 0


#: the Gauss-Laguerre rule degenerates (exit 4) from ~400 nodes on, and a
#: rule of 10^8 nodes is still being built after 20 s, before any check runs
MAX_ORACLE_NODES = 1000


def cmd_oracle(args, cfg: RunConfig) -> int:
    n, l, Z = args.n, args.l, cfg.get(args, "params.z")
    if not 1 <= args.nodes <= MAX_ORACLE_NODES:
        raise CLIUsageError(f"--nodes must be in [1, {MAX_ORACLE_NODES}], got {args.nodes}")
    _check_qn(n, l, Z)
    Z = int(Z)  # a configured Z reads as 2.0; the JSON shows 2, as for --Z 2
    try:
        # a degenerate rule (too many nodes) also trips numpy overflow
        # warnings; the one failure line below reports it instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            moments = {str(k): radial_expectation(n, l, Z, k, n_nodes=args.nodes)
                       for k in range(-3 if l else -2, 3)}  # <r^-3> diverges at l = 0
            payload = {
                "n": n, "l": l, "Z": Z, "nodes": args.nodes,
                "r_moments_cm^k": moments,
                "p2": p2_expectation_exact(n, l, Z, n_nodes=args.nodes),
                "p2_closed_form": p2_closed_form(n, Z),
                "p4": p4_expectation_exact(n, l, Z, n_nodes=args.nodes),
            }
    except RuntimeError as exc:  # the virial cross-check in p2_expectation_exact
        failure = str(exc)
    else:
        values = (*moments.values(), payload["p2"], payload["p4"])
        failure = None if all(map(math.isfinite, values)) else \
            f"quadrature on {args.nodes} nodes gave a non-finite value"
    if failure is not None:
        print(f"rgupz: verification failure: {failure}", file=sys.stderr)
        return 4
    _print_json(payload)
    return 0


# -- parser ----------------------------------------------------------------------

def _add_params_flags(sub):
    sub.add_argument("--B-tesla", dest="B_tesla", type=float, default=None,
                     help="field magnitude in tesla (converted to gauss internally)")
    sub.add_argument("--epsilon", type=float, default=None,
                     help="dimensionless deformation strength")
    sub.add_argument("--gamma", default=None,
                     help="'planck' for 1/(M_Pl c), or an explicit value in s/(g cm)")
    sub.add_argument("--Z", type=int, default=None, help="nuclear charge")


def _add_state_flags(sub):
    sub.add_argument("--n", type=int, default=None,
                     help="principal quantum number (default l+1)")
    sub.add_argument("--l", type=int, default=None, help="orbital quantum number")
    sub.add_argument("--branch", choices=("plus", "minus"), default="plus",
                     help="fine-structure branch j = l +- 1/2")
    sub.add_argument("--mj", type=float, default=None,
                     help="magnetic quantum number (half-odd-integer)")


def _add_format_flags(sub, csv_flag=False):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", dest="format", action="store_const", const="json",
                       help="emit a single JSON object")
    if csv_flag:
        group.add_argument("--csv", dest="format", action="store_const", const="csv",
                           help="emit CSV rows")


def build_parser() -> argparse.ArgumentParser:
    # --config/--banner are accepted both before and after the subcommand;
    # SUPPRESS keeps a subcommand's absent flag from clobbering the root value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="key = value defaults file")
    common.add_argument("--banner", action="store_true", default=argparse.SUPPRESS,
                        help="print the version banner before any output")

    parser = argparse.ArgumentParser(
        prog="rgupz",
        description="Zeeman shifts for hydrogen-like atoms under "
                    "minimal-length deformed algebras.",
        parents=[common])
    commands = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kwargs):
        return commands.add_parser(name, parents=[common], **kwargs)

    sub = add_parser("constants", help="dump the constants table")
    _add_format_flags(sub)

    sub = add_parser("shift", help="energy-shift breakdown for one state")
    _add_state_flags(sub)
    _add_params_flags(sub)
    sub.add_argument("--regime", choices=[r.value for r in Regime], default="lande")
    sub.add_argument("--mode", choices=[m.value for m in Mode], default="derived")
    sub.add_argument("--unit", choices=ENERGY_UNITS, help="energy display unit (default eV)")
    _add_format_flags(sub, csv_flag=True)

    sub = add_parser("sweep", help="sweep one parameter, emit CSV")
    sub.add_argument("--param", required=True, choices=_SWEEP_COLUMN)
    sub.add_argument("--from", dest="start", type=float, default=None)
    sub.add_argument("--to", dest="stop", type=float, default=None)
    sub.add_argument("--steps", type=int, default=1)
    sub.add_argument("--values", default=None,
                     help="comma-separated explicit grid (overrides --from/--to)")
    _add_state_flags(sub)
    _add_params_flags(sub)
    sub.add_argument("--regime", choices=[r.value for r in Regime], default="lande")
    sub.add_argument("--mode", choices=[m.value for m in Mode], default="derived")
    sub.add_argument("--unit", choices=ENERGY_UNITS, help="energy display unit (default eV)")

    sub = add_parser("lines", help="allowed Zeeman lines between two levels")
    sub.add_argument("--upper-n", dest="upper_n", type=int, default=None)
    sub.add_argument("--upper-l", dest="upper_l", type=int, required=True,
                     help=f"at most {MAX_LINES_L}")
    sub.add_argument("--upper-branch", dest="upper_branch",
                     choices=("plus", "minus"), default="plus")
    sub.add_argument("--lower-n", dest="lower_n", type=int, default=None)
    sub.add_argument("--lower-l", dest="lower_l", type=int, required=True,
                     help=f"at most {MAX_LINES_L}")
    sub.add_argument("--lower-branch", dest="lower_branch",
                     choices=("plus", "minus"), default="plus")
    _add_params_flags(sub)
    sub.add_argument("--regime", choices=[r.value for r in Regime], default="lande")
    sub.add_argument("--mode", choices=[m.value for m in Mode], default="derived")
    sub.add_argument("--unit", choices=ENERGY_UNITS, help="energy display unit (default eV)")
    _add_format_flags(sub)

    sub = add_parser("verify-algebra", help="machine-verify the deformed commutator algebras")
    sub.add_argument("--case", choices=(*opalg.VERIFICATION_CASES, "all"),
                     default="all")
    sub.add_argument("--target", choices=("derived", "quoted"), default="derived",
                     help="'quoted' checks the printed special-case cross "
                          "coefficient a1 and fails by the known factor 2")
    _add_format_flags(sub)

    sub = add_parser("dispersion", help="deformed mass-shell root")
    sub.add_argument("--mc", type=float, default=None,
                     help="mc in test units (pairs with --eps-gamma2)")
    sub.add_argument("--eps-gamma2", dest="eps_gamma2", type=float, default=None,
                     help="the product eps * gamma^2")
    sub.add_argument("--m-grams", dest="m_grams", type=float, default=None)
    sub.add_argument("--epsilon", type=float, default=None)
    sub.add_argument("--gamma", default=None)
    sub.add_argument("--order", type=int, choices=(1, 2), default=1)
    _add_format_flags(sub)

    sub = add_parser("discrepancy", help="derived vs as-published per-term comparison")
    _add_state_flags(sub)
    _add_params_flags(sub)
    _add_format_flags(sub)

    sub = add_parser("oracle", help="hydrogen radial expectation values (JSON)")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--l", type=int, required=True)
    sub.add_argument("--Z", type=int, default=None)
    sub.add_argument("--nodes", type=int, default=120,
                     help=f"quadrature nodes, 1 to {MAX_ORACLE_NODES}")

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # the parser holds no per-call state, so one per process serves every call
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        cfg = RunConfig.load(getattr(args, "config", None))
        # looked up at call time, so a replaced cmd_* attribute is the one run
        command = globals()["cmd_" + args.command.replace("-", "_")]
        if not getattr(args, "banner", False):
            code = command(args, cfg)
        else:
            # held back until the command returns, so a failing one prints nothing
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = command(args, cfg)
            if out.getvalue():
                sys.stdout.write(f"rgupz {__version__}\n{out.getvalue()}")
        sys.stdout.flush()  # inside the try, so a closed pipe raises here
        return code
    except BrokenPipeError:
        # the reader left early (say `| head`); point fd 1 at devnull so the
        # interpreter's last flush cannot raise again, and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CLIUsageError as exc:
        print(f"rgupz: error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, TransPlanckianMassError) as exc:
        print(f"rgupz: domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
