"""Command-line surface for shift computation, sweeps, lines, and checks.

Exit codes: 0 success, 2 flag/config parse error, 3 domain error (invalid
physics), 4 verification failure.  Output is deterministic: no timestamps,
version banner only behind --banner.  Energies print in eV by default.

Configuration precedence: command-line flags > RGUPZ_* environment
variables > --config file > builtin defaults.  The config file is flat
"dotted.key = value" text; the matching environment variable is the key
upper-cased with dots replaced by underscores and the RGUPZ_ prefix
(params.b_tesla -> RGUPZ_PARAMS_B_TESLA).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass

from . import __version__, opalg
from .dispersion import TransPlanckianMassError, solve_mass_shell
from .oracle import (
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
    discrepancy_report,
    energy_shift_B,
    level_states,
    zeeman_lines,
)
from .units import (
    GAUSS_PER_TESLA,
    ValidationError,
    constants_dump,
    convert_energy,
    load_constants,
    make_params,
)

ENV_PREFIX = "RGUPZ_"

_BUILTIN_DEFAULTS = {
    "params.b_tesla": "1.0",
    "params.epsilon": "1.0",
    "params.gamma": "planck",
    "params.z": "1",
    "output.unit": "eV",
    "output.format": "table",
}


class CLIUsageError(Exception):
    """Bad flags or config text; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    file_values: dict[str, str]
    env_values: dict[str, str]

    @classmethod
    def load(cls, config_path: str | None, environ=None) -> "RunConfig":
        env = os.environ if environ is None else environ
        file_values: dict[str, str] = {}
        if config_path is not None:
            try:
                text = open(config_path, encoding="utf-8").read()
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
        for key in _BUILTIN_DEFAULTS:
            name = ENV_PREFIX + key.upper().replace(".", "_")
            if name in env:
                env_values[key] = env[name]
        return cls(file_values=file_values, env_values=env_values)

    def resolve(self, key: str) -> str:
        """Environment > file > builtin (flags are applied by the caller)."""
        if key in self.env_values:
            return self.env_values[key]
        if key in self.file_values:
            return self.file_values[key]
        return _BUILTIN_DEFAULTS[key]


def _fmt(value: float) -> str:
    return f"{value:.12e}"


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise CLIUsageError(f"{what}: expected a number, got {text!r}") from None


def _params_from(args, cfg: RunConfig):
    b_tesla = args.B_tesla if getattr(args, "B_tesla", None) is not None \
        else _parse_float(cfg.resolve("params.b_tesla"), "params.b_tesla")
    epsilon = args.epsilon if getattr(args, "epsilon", None) is not None \
        else _parse_float(cfg.resolve("params.epsilon"), "params.epsilon")
    gamma_text = args.gamma if getattr(args, "gamma", None) is not None \
        else cfg.resolve("params.gamma")
    Z = args.Z if getattr(args, "Z", None) is not None \
        else int(_parse_float(cfg.resolve("params.z"), "params.z"))
    if gamma_text == "planck":
        return make_params(B=b_tesla * GAUSS_PER_TESLA, epsilon=epsilon,
                           gamma_mode="planck", Z=Z)
    gamma = _parse_float(gamma_text, "--gamma")
    return make_params(B=b_tesla * GAUSS_PER_TESLA, epsilon=epsilon,
                       gamma_mode="explicit", gamma=gamma, Z=Z)


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


def _output_format(args, cfg: RunConfig) -> str:
    if getattr(args, "json", False):
        return "json"
    if getattr(args, "csv", False):
        return "csv"
    fmt = cfg.resolve("output.format")
    if fmt not in ("table", "json", "csv"):
        raise CLIUsageError(f"output.format: unknown format {fmt!r}")
    return fmt


def _unit_from(args, cfg: RunConfig) -> str:
    unit = args.unit if getattr(args, "unit", None) is not None \
        else cfg.resolve("output.unit")
    if unit not in ("eV", "erg", "cm-1", "Hz"):
        raise CLIUsageError(f"--unit: unknown energy unit {unit!r}")
    return unit


def _state_dict(state: QuantumState) -> dict:
    return {"n": state.n, "l": state.l, "branch": state.branch.value,
            "mj": state.mj}


def _params_dict(params) -> dict:
    return {"B_gauss": params.B, "epsilon": params.epsilon,
            "gamma": params.gamma, "m_g": params.m, "Z": params.Z}


# -- subcommands ----------------------------------------------------------------

def cmd_constants(args, cfg: RunConfig) -> int:
    table = load_constants()
    if _output_format(args, cfg) == "json":
        rows = {}
        for line in constants_dump(table).splitlines():
            name, value, unit = line.split(" ")
            rows[name] = {"value": float(value), "unit": unit}
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(constants_dump(table))
    return 0


def cmd_shift(args, cfg: RunConfig) -> int:
    params = _params_from(args, cfg)
    state = _state_from(args)
    regime = Regime(args.regime)
    mode = Mode(args.mode)
    unit = _unit_from(args, cfg)
    breakdown = energy_shift_B(state, params, regime, mode)
    fmt = _output_format(args, cfg)

    if fmt == "json":
        payload = {
            "regime": regime.value,
            "mode": mode.value,
            "state": _state_dict(state),
            "params": _params_dict(params),
            "correction_scale": breakdown.correction_scale,
            "terms": [
                {"label": t.label, "expression": t.expression,
                 "value_erg": t.value_erg,
                 "value_eV": convert_energy(t.value_erg, "erg", "eV"),
                 "tags": list(t.tags)}
                for t in breakdown.terms
            ],
            "total_erg": breakdown.total_erg,
            "total_eV": convert_energy(breakdown.total_erg, "erg", "eV"),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["regime", "mode", "label", "expression",
                         "value_erg", "value_eV"])
        for t in breakdown.terms:
            writer.writerow([regime.value, mode.value, t.label, t.expression,
                             repr(t.value_erg),
                             repr(convert_energy(t.value_erg, "erg", "eV"))])
        writer.writerow([regime.value, mode.value, "TOTAL", "",
                         repr(breakdown.total_erg),
                         repr(convert_energy(breakdown.total_erg, "erg", "eV"))])
        return 0

    width = max(len("TOTAL"), *(len(t.label) for t in breakdown.terms))
    print(f"regime           {regime.value}")
    print(f"mode             {mode.value}")
    print(f"state            n={state.n} l={state.l} branch={state.branch.value} mj={state.mj!r}")
    print(f"B_gauss          {params.B!r}")
    print(f"correction_scale {breakdown.correction_scale!r}")
    print(f"unit             {unit}")
    for t in breakdown.terms:
        value = convert_energy(t.value_erg, "erg", unit)
        flags = f"  [{', '.join(t.tags)}]" if t.tags else ""
        print(f"{t.label:<{width}}  {_fmt(value)}  {t.expression}{flags}")
    total = convert_energy(breakdown.total_erg, "erg", unit)
    print(f"{'TOTAL':<{width}}  {_fmt(total)}")
    return 0


_SWEEP_PARAMS = ("B", "epsilon", "l", "mj", "n")
_SWEEP_COLUMN = {"B": "B_tesla", "epsilon": "epsilon", "l": "l",
                 "mj": "mj", "n": "n"}


@dataclass(frozen=True)
class SweepSpec:
    """One validated sweep: the grid (sorted), regime, mode, display unit."""

    param: str
    values: tuple[float, ...]
    regime: Regime
    mode: Mode
    unit: str

    def __post_init__(self):
        if self.param not in _SWEEP_PARAMS:
            raise CLIUsageError(f"--param must be one of {', '.join(_SWEEP_PARAMS)}")
        if not self.values:
            raise CLIUsageError("sweep grid is empty")


def _sweep_spec(args, cfg: RunConfig) -> SweepSpec:
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
    return SweepSpec(param=args.param, values=tuple(sorted(values)),
                     regime=Regime(args.regime), mode=Mode(args.mode),
                     unit=_unit_from(args, cfg))


def cmd_sweep(args, cfg: RunConfig) -> int:
    spec = _sweep_spec(args, cfg)
    regime, mode, unit = spec.regime, spec.mode, spec.unit

    labels = REGIME_TERM_LABELS[regime]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow([_SWEEP_COLUMN[spec.param], "regime", *labels, "total"])

    for value in spec.values:
        shift_args = argparse.Namespace(**vars(args))
        state_kwargs = {}
        if spec.param == "B":
            shift_args.B_tesla = value
        elif spec.param == "epsilon":
            shift_args.epsilon = value
        elif spec.param == "l":
            if value != int(value):
                raise ValidationError("l", f"swept l must be an integer, got {value!r}")
            state_kwargs["l"] = int(value)
            if args.n is None:
                state_kwargs["n"] = int(value) + 1
        elif spec.param == "n":
            if value != int(value):
                raise ValidationError("n", f"swept n must be an integer, got {value!r}")
            state_kwargs["n"] = int(value)
        elif spec.param == "mj":
            state_kwargs["mj"] = value
        params = _params_from(shift_args, cfg)
        state = _state_from(shift_args, **state_kwargs)
        breakdown = energy_shift_B(state, params, regime, mode)
        present = {t.label: t.value_erg for t in breakdown.terms}
        row = [repr(value), regime.value]
        for label in labels:
            row.append(repr(convert_energy(present.get(label, 0.0), "erg", unit)))
        row.append(repr(convert_energy(breakdown.total_erg, "erg", unit)))
        writer.writerow(row)
    return 0


def cmd_lines(args, cfg: RunConfig) -> int:
    params = _params_from(args, cfg)
    regime = Regime(args.regime)
    mode = Mode(args.mode)
    unit = _unit_from(args, cfg)
    upper_n = args.upper_n if args.upper_n is not None else args.upper_l + 1
    lower_n = args.lower_n if args.lower_n is not None else args.lower_l + 1
    upper = level_states(upper_n, args.upper_l, Branch(args.upper_branch))
    lower = level_states(lower_n, args.lower_l, Branch(args.lower_branch))
    lines = zeeman_lines(upper, lower, params, regime, mode)

    if _output_format(args, cfg) == "json":
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
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"lines ({len(lines)}), regime {regime.value}, unit {unit}")
    for ln in lines:
        shift = convert_energy(ln.shift_erg, "erg", unit)
        offset = convert_energy(ln.level_offset_erg, "erg", unit)
        print(f"mj {ln.upper.mj:+.1f} -> {ln.lower.mj:+.1f}  {ln.polarization:<6} "
              f"shift {_fmt(shift)}  offset {_fmt(offset)}")
    return 0


def cmd_verify_algebra(args, cfg: RunConfig) -> int:
    cases = opalg.VERIFICATION_CASES if args.case == "all" else (args.case,)
    reports = [opalg.verify_algebra(case, target=args.target) for case in cases]

    if _output_format(args, cfg) == "json":
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
        print(json.dumps(payload, indent=2, sort_keys=True))
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
    if args.mc is not None:
        mc = args.mc
        eps_gamma2 = args.eps_gamma2 if args.eps_gamma2 is not None else 0.0
    else:
        table = load_constants()
        m = args.m_grams if args.m_grams is not None else table.m_e
        epsilon = args.epsilon if args.epsilon is not None else 1.0
        gamma = _parse_float(args.gamma, "--gamma") if args.gamma not in (None, "planck") \
            else table.gamma_planck
        mc = m * table.c
        eps_gamma2 = epsilon * gamma * gamma
    solution = solve_mass_shell(mc, eps_gamma2, order=args.order)

    if _output_format(args, cfg) == "json":
        print(json.dumps({
            "mc": mc, "eps_gamma2": eps_gamma2, "order": solution.order,
            "exact_root": solution.exact_root,
            "series_root": solution.series_root,
            "residual": solution.residual,
        }, indent=2, sort_keys=True))
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

    if _output_format(args, cfg) == "json":
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
        print(json.dumps(payload, indent=2, sort_keys=True))
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


def cmd_oracle(args, cfg: RunConfig) -> int:
    n, l, Z = args.n, args.l, args.Z if args.Z is not None else 1
    if args.nodes < 1:
        raise CLIUsageError(f"--nodes must be >= 1, got {args.nodes}")
    try:
        # a degenerate rule (too many nodes) also trips numpy overflow
        # warnings; the one failure line below reports it instead
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            moments = {}
            for k in range(-3, 3):
                if k == -3 and l == 0:
                    continue
                moments[str(k)] = radial_expectation(n, l, Z, k, n_nodes=args.nodes)
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
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
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


def _add_output_flags(sub, csv_flag=True):
    sub.add_argument("--json", action="store_true", help="emit a single JSON object")
    if csv_flag:
        sub.add_argument("--csv", action="store_true", help="emit CSV rows")
    sub.add_argument("--unit", choices=("eV", "erg", "cm-1", "Hz"), default=None,
                     help="energy display unit (default eV)")


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
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_constants)

    sub = add_parser("shift", help="energy-shift breakdown for one state")
    _add_state_flags(sub)
    _add_params_flags(sub)
    sub.add_argument("--regime", choices=[r.value for r in Regime], default="lande")
    sub.add_argument("--mode", choices=[m.value for m in Mode], default="derived")
    _add_output_flags(sub)
    sub.set_defaults(func=cmd_shift)

    sub = add_parser("sweep", help="sweep one parameter, emit CSV")
    sub.add_argument("--param", required=True, choices=_SWEEP_PARAMS)
    sub.add_argument("--from", dest="start", type=float, default=None)
    sub.add_argument("--to", dest="stop", type=float, default=None)
    sub.add_argument("--steps", type=int, default=1)
    sub.add_argument("--values", default=None,
                     help="comma-separated explicit grid (overrides --from/--to)")
    _add_state_flags(sub)
    _add_params_flags(sub)
    sub.add_argument("--regime", choices=[r.value for r in Regime], default="lande")
    sub.add_argument("--mode", choices=[m.value for m in Mode], default="derived")
    sub.add_argument("--unit", choices=("eV", "erg", "cm-1", "Hz"), default=None)
    sub.set_defaults(func=cmd_sweep)

    sub = add_parser("lines", help="allowed Zeeman lines between two levels")
    sub.add_argument("--upper-n", dest="upper_n", type=int, default=None)
    sub.add_argument("--upper-l", dest="upper_l", type=int, required=True)
    sub.add_argument("--upper-branch", dest="upper_branch",
                     choices=("plus", "minus"), default="plus")
    sub.add_argument("--lower-n", dest="lower_n", type=int, default=None)
    sub.add_argument("--lower-l", dest="lower_l", type=int, required=True)
    sub.add_argument("--lower-branch", dest="lower_branch",
                     choices=("plus", "minus"), default="plus")
    _add_params_flags(sub)
    sub.add_argument("--regime", choices=[r.value for r in Regime], default="lande")
    sub.add_argument("--mode", choices=[m.value for m in Mode], default="derived")
    _add_output_flags(sub, csv_flag=False)
    sub.set_defaults(func=cmd_lines)

    sub = add_parser("verify-algebra",
                              help="machine-verify the deformed commutator algebras")
    sub.add_argument("--case", choices=(*opalg.VERIFICATION_CASES, "all"),
                     default="all")
    sub.add_argument("--target", choices=("derived", "quoted"), default="derived",
                     help="'quoted' checks the printed special-case cross "
                          "coefficient a1 and fails by the known factor 2")
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_verify_algebra)

    sub = add_parser("dispersion", help="deformed mass-shell root")
    sub.add_argument("--mc", type=float, default=None,
                     help="mc in test units (pairs with --eps-gamma2)")
    sub.add_argument("--eps-gamma2", dest="eps_gamma2", type=float, default=None,
                     help="the product eps * gamma^2")
    sub.add_argument("--m-grams", dest="m_grams", type=float, default=None)
    sub.add_argument("--epsilon", type=float, default=None)
    sub.add_argument("--gamma", default=None)
    sub.add_argument("--order", type=int, choices=(1, 2), default=1)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_dispersion)

    sub = add_parser("discrepancy",
                              help="derived vs as-published per-term comparison")
    _add_state_flags(sub)
    _add_params_flags(sub)
    sub.add_argument("--json", action="store_true")
    sub.set_defaults(func=cmd_discrepancy)

    sub = add_parser("oracle", help="hydrogen radial expectation values (JSON)")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--l", type=int, required=True)
    sub.add_argument("--Z", type=int, default=None)
    sub.add_argument("--nodes", type=int, default=120)
    sub.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(getattr(args, "config", None))
        if getattr(args, "banner", False):
            print(f"rgupz {__version__}")
        return args.func(args, cfg)
    except CLIUsageError as exc:
        print(f"rgupz: error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, TransPlanckianMassError) as exc:
        print(f"rgupz: domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
