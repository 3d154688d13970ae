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

import contextlib
import functools
import importlib.util
import io
import math
import os
import re
import sys
import types
from typing import NamedTuple

from . import __version__
from .dispersion import TransPlanckianMassError, solve_mass_shell
from .units import (
    _MAX_EXACT_INT,
    DEFAULT_CONSTANTS,
    ENERGY_UNITS,
    GAUSS_PER_TESLA,
    ValidationError,
    _constant_rows,
    check_n_l,
    constants_dump,
    convert_energy,
    in_unit,
    is_integer,
    make_params,
)

ENV_PREFIX = "RGUPZ_"

#: module -> the names cli takes from it.  Each command runs only the
#: modules it reads: verify-algebra runs opalg, oracle runs oracle, and
#: shift, sweep, lines and discrepancy run spectrum (_READS).  So each module
#: is registered as an import would register it, and its code runs when one
#: of its attributes is first read; its names are bound into the globals by
#: the first command that reads them, and until then __getattr__ serves them
_DEFERRED = {
    "opalg": (),
    "oracle": ("_check_qn", "p2_closed_form", "p2_expectation_exact",
               "p4_expectation_exact", "radial_expectation"),
    "spectrum": ("Branch", "Mode", "QuantumState", "Regime", "REGIME_TERM_LABELS",
                 "_check_mj", "_plan_of", "discrepancy_report", "energy_shift_B",
                 "level_states", "zeeman_lines"),
}
#: command -> the deferred module whose names it reads
_READS = {"shift": "spectrum", "sweep": "spectrum", "lines": "spectrum",
          "discrepancy": "spectrum", "oracle": "oracle"}


def _register(name: str) -> types.ModuleType:
    """The package's submodule `name` if it is already imported, else a lazy
    one, registered in sys.modules and on the package."""
    module = sys.modules.get(f"{__package__}.{name}")
    if module is None:
        spec = importlib.util.find_spec(f"{__package__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


opalg, oracle, spectrum = map(_register, _DEFERRED)


def _bind(module: str | None) -> None:
    """Bind the names cli takes from a deferred module into the globals, once;
    a name already bound is a patched one (a test's or a tracer's), and stays."""
    for name in _DEFERRED.pop(module, ()):
        globals().setdefault(name, getattr(globals()[module], name))


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            return getattr(globals()[module], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CLIUsageError(Exception):
    """Bad flags or config text; maps to exit code 2."""


#: config key -> (the args attribute of the flag that overrides it, builtin
#: text, how text is read, the allowed texts or None for any); output.format
#: names table or a format of the command's own flags (see _COMMANDS)
_SETTINGS = {
    "params.b_tesla": ("B_tesla", "1.0", float, None),
    "params.epsilon": ("epsilon", "1.0", float, None),
    "params.gamma": ("gamma", "planck", lambda t: None if t == "planck" else float(t), None),
    # a float, so a configured 2.5 reaches the integer rule and exits 3
    "params.z": ("Z", "1", float, None),
    "output.unit": ("unit", "eV", str, ENERGY_UNITS),
    "output.format": ("format", "table", str, None),
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
            except (OSError, UnicodeDecodeError) as exc:
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
        if key == "output.format":
            choices = ("table", *_COMMANDS[args.command][2])
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


def _print_json(payload) -> None:
    """Strict, key-sorted JSON; no payload holds a record (json writes one as a list)."""
    import json  # here, not at the top: most commands print no JSON
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def _state_dict(state: QuantumState) -> dict:
    return {"n": state.n, "l": state.l, "branch": state.branch.value,
            "mj": state.mj}


def _params_dict(params) -> dict:
    return {"B_gauss": params.B, "epsilon": params.epsilon,
            "gamma": params.gamma, "m_g": params.m, "Z": params.Z}


# -- subcommands ----------------------------------------------------------------

def cmd_constants(args, cfg: RunConfig) -> int:
    if cfg.get(args, "output.format") == "json":
        _print_json({name: {"value": value, "unit": unit}
                     for name, value, unit in _constant_rows()})
    else:
        print(constants_dump())
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
    shown_unit = unit if fmt == "table" else "eV"
    *shown, total = in_unit([*(t.value_erg for t in breakdown.terms), breakdown.total_erg],
                            convert_energy(1.0, "erg", shown_unit), shown_unit)

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
        # no cell holds , " \r or \n, so a join writes what csv.writer would
        print("regime,mode,label,expression,value_erg,value_eV")
        for t, value in zip(breakdown.terms, shown):
            print(",".join([regime.value, mode.value, t.label, t.expression,
                            repr(t.value_erg), repr(value)]))
        print(",".join([regime.value, mode.value, "TOTAL", "",
                        repr(breakdown.total_erg), repr(total)]))
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
        if steps > MAX_SWEEP_STEPS:
            raise CLIUsageError(f"--steps must be <= {MAX_SWEEP_STEPS}, got {steps}")
        if steps == 1:
            values = [args.start]
        else:
            span = (args.stop - args.start) / (steps - 1)
            values = [args.start + k * span for k in range(steps)]
    values.sort()  # in place: a sorted copy would hold a second 10**6-slot list
    return values


def _sweep_records(values, args, param_values):
    """The params and the state of the first grid value, after checking
    every value as its shift call would.

    Params come before the state within a value, so the first bad value
    raises what the matching `shift` call would.  Only the swept record is
    built per value, and the fixed one for the first; an n or mj value after
    the first is checked by the state's rule on that field alone, since no
    other rule of the state reads it.
    """
    param = args.param
    b_tesla, epsilon, gamma, Z = param_values
    first = params = state = None
    for value in values:
        if param == "B":
            params = _make_params(value, epsilon, gamma, Z)
        elif param == "epsilon":
            params = _make_params(b_tesla, value, gamma, Z)
        elif params is None:
            params = _make_params(b_tesla, epsilon, gamma, Z)
        if param in ("l", "n"):
            if not is_integer(value):
                raise ValidationError(param, f"swept {param} must be an integer, got {value!r}")
            # an int where it is exact; past 2**53 the rules refuse the value
            # as given (1e+300), not the 301 digits of its int
            value = int(value) if abs(value) <= _MAX_EXACT_INT else value
        if state is None or param == "l":
            swept = {param: value} if param in ("l", "n", "mj") else {}
            state = _state_from(args, **swept)
        elif param == "n":
            check_n_l(value, state.l)
        elif param == "mj":
            _check_mj(value, state.j)
        first = first or (params, state)
    return first


def cmd_sweep(args, cfg: RunConfig) -> int:
    values = _sweep_grid(args)
    regime, mode = Regime(args.regime), Mode(args.mode)
    unit = cfg.get(args, "output.unit")
    param_values = [cfg.get(args, key) for key in _PARAM_KEYS]
    # validate the grid before the first write, keeping nothing, so a bad
    # grid point prints no partial CSV and a long sweep stays streamed.  The
    # B and epsilon rules are intervals, so a NaN (which does not sort) and
    # the sorted grid's two ends stand for every row: each row between two
    # valid ends of a sorted, NaN-free grid is valid, and no record is built
    # for it.  The trans-Planckian bound 8q <= 1, q = eps gamma^2 (mc)^2, is
    # an interval in epsilon too.  l, n and mj are checked row by row
    checked = [v for v in values if math.isnan(v)] + [values[0], values[-1]] \
        if args.param in ("B", "epsilon") else values
    # every field the sweep part does not rebind
    params, state = _sweep_records(checked, args, param_values)
    # each term is monotone in the swept B, epsilon, l or |mj| (and |mj| peaks
    # at an end of the sorted grid), and so is its value in the display unit,
    # a positive multiple, so the part checks the two end rows before it
    # writes the header and streams each row as csv.writer would (no cell
    # needs quoting: finite float reprs, a regime value, fixed labels)
    header = ",".join([_SWEEP_COLUMN[args.param], "regime", *REGIME_TERM_LABELS[regime],
                       "total"]) + "\n"
    getattr(_plan_of(regime, mode), "sweep_" + args.param)(
        state, params, values, convert_energy(1.0, "erg", unit), unit, header, sys.stdout.write)
    return 0


#: the sorted sweep grid is held in memory
MAX_SWEEP_STEPS = 10**6
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

    shown = in_unit([v for ln in lines for v in (ln.shift_erg, ln.level_offset_erg)],
                    convert_energy(1.0, "erg", unit), unit)
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
        mc = params.m * DEFAULT_CONSTANTS.c
        eps_gamma2 = params.eps_gamma2
    solution = solve_mass_shell(mc, eps_gamma2, order=args.order)

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


#: the last node count whose Gauss-Laguerre rule is NaN-free: from 363 on the
#: rule degenerates (exit 4), and its cost grows as the square of the count
MAX_ORACLE_NODES = 362
#: each integrand's Laguerre recurrence runs n - l - 1 steps per node (~3 s
#: at n = 1000 on 362 nodes); no n above ~120 verifies on any allowed rule
MAX_ORACLE_N = 1000


def cmd_oracle(args, cfg: RunConfig) -> int:
    n, l, Z = args.n, args.l, cfg.get(args, "params.z")
    if not 1 <= args.nodes <= MAX_ORACLE_NODES:
        raise CLIUsageError(f"--nodes must be in [1, {MAX_ORACLE_NODES}], got {args.nodes}")
    if n > MAX_ORACLE_N:
        raise CLIUsageError(f"--n must be <= {MAX_ORACLE_N}, got {n}")
    _check_qn(n, l, Z)
    Z = int(Z)  # a configured Z reads as 2.0; the JSON shows 2, as for --Z 2
    try:
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

class _Flag(NamedTuple):
    """One single-value flag: the add_argument keywords that build_parser
    passes, and what the plain-argv table reads."""
    option: str
    dest: str
    type: type | None = None
    choices: tuple | dict | _Choices | None = None
    default: object = None
    help: str | None = None
    required: bool = False


_BRANCHES = ("plus", "minus")
_CONFIG = _Flag("--config", "config", help="key = value defaults file")
_PARAMS_FLAGS = (
    _Flag("--B-tesla", "B_tesla", float,
          help="field magnitude in tesla (converted to gauss internally)"),
    _Flag("--epsilon", "epsilon", float, help="dimensionless deformation strength"),
    _Flag("--gamma", "gamma",
          help="'planck' for 1/(M_Pl c), or an explicit value in s/(g cm)"),
    _Flag("--Z", "Z", int, help="nuclear charge"),
)
_STATE_FLAGS = (
    _Flag("--n", "n", int, help="principal quantum number (default l+1)"),
    _Flag("--l", "l", int, help="orbital quantum number"),
    _Flag("--branch", "branch", choices=_BRANCHES, default="plus",
          help="fine-structure branch j = l +- 1/2"),
    _Flag("--mj", "mj", float, help="magnetic quantum number (half-odd-integer)"),
)


class _Choices:
    """A flag's choices that a deferred module defines, read from it when
    first asked for, so only a command that reads them runs the module; a
    parser built for help or an error text reads them all."""

    def __init__(self, read):
        self._read = read

    @functools.cached_property
    def _values(self) -> tuple:
        return self._read()

    def __iter__(self):
        return iter(self._values)

    def __contains__(self, value) -> bool:
        return value in self._values


_REGIME_FLAGS = (
    _Flag("--regime", "regime", default="lande",
          choices=_Choices(lambda: tuple(r.value for r in spectrum.Regime))),
    _Flag("--mode", "mode", default="derived",
          choices=_Choices(lambda: tuple(m.value for m in spectrum.Mode))),
    _Flag("--unit", "unit", choices=ENERGY_UNITS, help="energy display unit (default eV)"),
)
_LEVEL_FLAGS = tuple(flag for side in ("upper", "lower") for flag in (
    _Flag(f"--{side}-n", f"{side}_n", int),
    _Flag(f"--{side}-l", f"{side}_l", int, help=f"at most {MAX_LINES_L}", required=True),
    _Flag(f"--{side}-branch", f"{side}_branch", choices=_BRANCHES, default="plus")))
_FORMAT_HELP = {"json": "emit a single JSON object", "csv": "emit CSV rows"}


#: subcommand -> (its help, its flags in help order, the formats of its
#: mutually exclusive --json/--csv flags); output.format may also name table
_COMMANDS = {
    "constants": ("dump the constants table", (), ("json",)),
    "shift": ("energy-shift breakdown for one state",
              (*_STATE_FLAGS, *_PARAMS_FLAGS, *_REGIME_FLAGS), ("json", "csv")),
    "sweep": ("sweep one parameter, emit CSV", (
        _Flag("--param", "param", choices=_SWEEP_COLUMN, required=True),
        _Flag("--from", "start", float),
        _Flag("--to", "stop", float),
        _Flag("--steps", "steps", int, default=1, help=f"at most {MAX_SWEEP_STEPS}"),
        _Flag("--values", "values",
              help="comma-separated explicit grid (overrides --from/--to)"),
        *_STATE_FLAGS, *_PARAMS_FLAGS, *_REGIME_FLAGS), ()),
    "lines": ("allowed Zeeman lines between two levels",
              (*_LEVEL_FLAGS, *_PARAMS_FLAGS, *_REGIME_FLAGS), ("json",)),
    "verify-algebra": ("machine-verify the deformed commutator algebras", (
        _Flag("--case", "case", default="all",
              choices=_Choices(lambda: (*opalg.VERIFICATION_CASES, "all"))),
        _Flag("--target", "target", choices=("derived", "quoted"), default="derived",
              help="'quoted' checks the printed special-case cross "
                   "coefficient a1 and fails by the known factor 2")), ("json",)),
    "dispersion": ("deformed mass-shell root", (
        _Flag("--mc", "mc", float, help="mc in test units (pairs with --eps-gamma2)"),
        _Flag("--eps-gamma2", "eps_gamma2", float, help="the product eps * gamma^2"),
        _Flag("--m-grams", "m_grams", float),
        _Flag("--epsilon", "epsilon", float),
        _Flag("--gamma", "gamma"),
        _Flag("--order", "order", int, choices=(1, 2), default=1)), ("json",)),
    "discrepancy": ("derived vs as-published per-term comparison",
                    (*_STATE_FLAGS, *_PARAMS_FLAGS), ("json",)),
    "oracle": ("hydrogen radial expectation values (JSON)", (
        _Flag("--n", "n", int, required=True),
        _Flag("--l", "l", int, required=True),
        _Flag("--Z", "Z", int),
        _Flag("--nodes", "nodes", int, default=120,
              help=f"quadrature nodes, 1 to {MAX_ORACLE_NODES}")), ()),
}

#: subcommand -> (option -> (dest, type, choices) of each single-value flag,
#: option -> (dest, value) of each flag that takes no value, the namespace
#: argparse gives when no flag is set, in its order, the required dests);
#: no row but --config's and --banner's defaults to SUPPRESS
_TABLES = {
    command: ({flag.option: (flag.dest, flag.type, flag.choices) for flag in (_CONFIG, *flags)},
              {"--banner": ("banner", True), **{f"--{fmt}": ("format", fmt) for fmt in formats}},
              {"command": command, **{flag.dest: flag.default for flag in flags},
               **({"format": None} if formats else {})},
              {flag.dest for flag in flags if flag.required})
    for command, (_, flags, formats) in _COMMANDS.items()}
#: what every supported argparse reads as a negative number; other Pythons
#: also read forms such as -1e5, which the table leaves to argparse
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _parse_plain(args: list[str]):
    """The namespace argparse would give a plain argv, or None.

    A plain argv is the subcommand, then only exact --flag value or
    --flag=value pairs of its single-value flags and its bare --json, --csv
    (one format) and --banner.  main hands every other argv to argparse,
    which stays the one source of help, usage, error text and exit 2."""
    table = _TABLES.get(args[0]) if args else None
    if table is None:
        return None
    flags, switches, defaults, required = table
    values = {}
    tokens = iter(args[1:])
    for token in tokens:
        flag, equals, value = token.partition("=")
        if flag not in flags:
            # the whole token, so a --json=x goes to argparse, which refuses it
            dest, value = switches.get(token, (None, None))
            # --json --csv: argparse reports the two formats
            if dest is None or values.setdefault(dest, value) != value:
                return None
            continue
        if not equals:
            value = next(tokens, None)
            # argparse reads any other token that starts with - as a flag
            if value is None or value[:1] == "-" and not _NEGATIVE_NUMBER.match(value):
                return None
        elif value == "--":  # before 3.13 argparse reads --flag=-- as []
            return None
        dest, convert, choices = flags[flag]
        if convert is not None:
            try:
                value = convert(value)
            except (TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not required <= values.keys():
        return None
    return types.SimpleNamespace(**{**defaults, **values})


def _add_flag(parser: argparse.ArgumentParser, flag: _Flag) -> None:
    keywords = flag._asdict()
    parser.add_argument(keywords.pop("option"), **keywords)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every subcommand: main builds it only for an
    argv that the plain-argv table declines, so only help and errors import
    argparse."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse, reading an explicit --flag=-- alike on every Python."""

        def parse_known_args(self, args=None, namespace=None):
            parsed, extras = super().parse_known_args(args, namespace)
            # before 3.13 argparse stores an explicit --flag=-- as [], which no
            # flag here takes: exit 2, as 3.13 does
            command = getattr(parsed, "command", None)
            for flag, (dest, _, _) in (_TABLES[command][0] if command else {}).items():
                if isinstance(getattr(parsed, dest, None), list):
                    self.exit(2, f"{self.prog}: error: argument {flag}: expected one argument\n")
            return parsed, extras

    # --config/--banner are accepted both before and after the subcommand;
    # SUPPRESS keeps a subcommand's absent flag from clobbering the root
    # value, and argparse tests for its own object, not for an equal text
    common = argparse.ArgumentParser(add_help=False)
    _add_flag(common, _CONFIG._replace(default=argparse.SUPPRESS))
    common.add_argument("--banner", action="store_true", default=argparse.SUPPRESS,
                        help="print the version banner before any output")

    parser = _Parser(
        prog="rgupz",
        description="Zeeman shifts for hydrogen-like atoms under "
                    "minimal-length deformed algebras.",
        parents=[common])
    commands = parser.add_subparsers(dest="command", required=True,
                                     parser_class=argparse.ArgumentParser)
    for command, (summary, flags, formats) in _COMMANDS.items():
        sub = commands.add_parser(command, parents=[common], help=summary)
        for flag in flags:
            _add_flag(sub, flag)
        if formats:
            group = sub.add_mutually_exclusive_group()
            for fmt in formats:
                group.add_argument(f"--{fmt}", dest="format", action="store_const",
                                   const=fmt, help=_FORMAT_HELP[fmt])
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv)
    if args is None:
        # the parser holds no per-call state, so one per process serves every call
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
    _bind(_READS.get(args.command))
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
