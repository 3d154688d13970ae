"""In-memory spans around the package's public functions.

Tracing patches module attributes from the outside; the package itself is
not edited.  Each span is [name, start_ns, end_ns, parent, attrs]; parent is
the index of the enclosing span or -1.  Only `sys` and `time` are imported
at module level, so a traced child's module count is the package's own.
"""

import sys
import time

#: (module, attribute, span name, attrs from the call's arguments)
PATCHES = (
    ("rgupzeeman.cli", "main", "cli.main", None),
    ("rgupzeeman.cli", "make_params", "units.make_params", None),
    ("rgupzeeman.cli", "convert_energy", "units.convert_energy", None),
    ("rgupzeeman.cli", "QuantumState", "spectrum.QuantumState", None),
    ("rgupzeeman.cli", "energy_shift_B", "spectrum.energy_shift_B", "regime"),
    ("rgupzeeman.spectrum", "energy_shift_B", "spectrum.energy_shift_B", "regime"),
    ("rgupzeeman.cli", "zeeman_lines", "spectrum.zeeman_lines", None),
    ("rgupzeeman.spectrum", "zeeman_lines", "spectrum.zeeman_lines", None),
    ("rgupzeeman.cli", "discrepancy_report", "spectrum.discrepancy_report", None),
    ("rgupzeeman.spectrum", "discrepancy_report", "spectrum.discrepancy_report", None),
    ("rgupzeeman.cli", "solve_mass_shell", "dispersion.solve_mass_shell", None),
    ("rgupzeeman.dispersion", "solve_mass_shell", "dispersion.solve_mass_shell", None),
    ("rgupzeeman.cli", "radial_expectation", "oracle.quadrature", None),
    ("rgupzeeman.cli", "p2_expectation_exact", "oracle.quadrature", None),
    ("rgupzeeman.cli", "p4_expectation_exact", "oracle.quadrature", None),
    ("rgupzeeman.opalg", "verify_algebra", "opalg.verify_algebra", "case"),
    ("rgupzeeman.opalg", "normal_product", "opalg.normal_product", None),
)

SUBCOMMAND_FUNCS = {
    "constants": "cmd_constants", "shift": "cmd_shift", "sweep": "cmd_sweep",
    "lines": "cmd_lines", "verify-algebra": "cmd_verify_algebra",
    "dispersion": "cmd_dispersion", "discrepancy": "cmd_discrepancy",
    "oracle": "cmd_oracle",
}


def _regime(args, kwargs):
    regime = kwargs.get("regime", args[2] if len(args) > 2 else None)
    return getattr(regime, "value", regime)


def _case(args, kwargs):
    return kwargs.get("case", args[0] if args else None)


_ATTRS = {None: None, "regime": _regime, "case": _case}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1,
                    attrs(args, kwargs) if attrs else None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every PATCHES target; one wrapper per original function."""
        wrappers = {}
        for module_name, attr, span_name, attrs in PATCHES:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = self.wrap(span_name, original, _ATTRS[attrs])
            setattr(module, attr, wrappers[id(original)])
        cli = sys.modules["rgupzeeman.cli"]
        for sub, func in SUBCOMMAND_FUNCS.items():
            setattr(cli, func, self.wrap(f"cli.cmd.{sub}", getattr(cli, func)))
        load = cli.RunConfig.load.__func__
        cli.RunConfig.load = classmethod(self.wrap("cli.config", load))
        build = cli.build_parser
        tracer = self

        def build_parser():
            parser = build()
            parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
            return parser

        cli.build_parser = self.wrap("cli.build_parser", build_parser)
