"""Per-layer metrics from the spans and import timings of a traced run.

A traced run has two phases.  The *segment* is the workload itself, traced.
The *layer pass* is a fixed, seeded amount of work that reaches every layer
(one cli-cold cycle, one sweep-bulk, lib-shifts and lib-lines round each);
exact counts come from it alone, so they repeat exactly for a given seed.
Means, medians and self times use both phases.
"""

from __future__ import annotations

from collections import defaultdict

from common import median
from inputs import REGIMES, SUBCOMMANDS

#: package modules with an import metric; fields is imported by nothing
PACKAGE_MODULES = ("rgupzeeman", "rgupzeeman.units", "rgupzeeman.dispersion",
                   "rgupzeeman.oracle", "rgupzeeman.spectrum", "rgupzeeman.opalg",
                   "rgupzeeman.cli")
ALGEBRA_CASES = ("nonrel-special", "rel-linear", "rel-position-position")
NS = 1e-9


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {"import.cli_cum_s": "s", "import.pkg_cum_s": "s",
             "import.numpy_cum_s": "s", "import.scipy_cum_s": "s"}
    units.update({f"import.self_s.{m}": "s" for m in PACKAGE_MODULES})
    units.update({"import.modules_loaded": "count", "import.scipy_loaded_frac": "frac",
                  "cli.parse_s": "s", "cli.config_s": "s"})
    units.update({f"cli.cold.{sub}.p50_s": "s" for sub in SUBCOMMANDS})
    units["cli.cold.cpu_p50_s"] = "s"
    units.update({f"cli.cmd_self_s.{sub}": "s" for sub in SUBCOMMANDS})
    units.update({
        "cli.sweep.row_overhead_us": "us",
        "units.make_params.calls_per_row": "count", "units.make_params.time_s": "s",
        "units.convert_energy.calls_per_row": "count", "units.convert_energy.time_s": "s",
    })
    units.update({f"spectrum.energy_shift_B.mean_us.{r}": "us" for r in REGIMES})
    units.update({
        "spectrum.energy_shift_B.time_share": "frac",
        "spectrum.QuantumState.calls_per_row": "count",
        "spectrum.zeeman_lines.mean_us": "us",
        "spectrum.zeeman_lines.shift_calls_per_set": "count",
        "spectrum.discrepancy_report.mean_us": "us",
        "dispersion.solve_mass_shell.mean_us": "us",
        "oracle.quadrature.calls": "count", "oracle.quadrature.time_s": "s",
    })
    units.update({f"opalg.verify_algebra.time_s.{c}": "s" for c in ALGEBRA_CASES})
    units.update({f"opalg.normal_product.calls.{c}": "count" for c in ALGEBRA_CASES})
    units["trace.overhead_frac"] = "frac"
    return units


# -- -X importtime ----------------------------------------------------------------

def parse_importtime(text: str) -> list[dict]:
    """Import tree from -X importtime output: nodes with name, self_us,
    cum_us and children.  The output is post-order and indents children by
    two spaces per level."""
    pending = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name_field = line[len("import time:"):].split("|", 2)
        name = name_field[1:].rstrip("\n")
        depth = (len(name) - len(name.lstrip(" "))) // 2
        node = {"name": name.strip(), "self_us": int(self_us), "cum_us": int(cum_us),
                "depth": depth, "children": []}
        while pending and pending[-1]["depth"] > depth:
            node["children"].insert(0, pending.pop())
        pending.append(node)
    return pending


def import_times(text: str) -> dict[str, float]:
    """Cumulative seconds for the package, cli, numpy and scipy, and self
    seconds per package module, from one process's -X importtime output."""
    roots = parse_importtime(text)
    out = {}

    def walk(nodes):
        for node in nodes:
            yield node
            yield from walk(node["children"])

    nodes = list(walk(roots))
    for node in nodes:
        if node["name"] in PACKAGE_MODULES:
            out[f"import.self_s.{node['name']}"] = node["self_us"] * 1e-6
        if node["name"] == "rgupzeeman":
            out["import.pkg_cum_s"] = node["cum_us"] * 1e-6
        if node["name"] == "rgupzeeman.cli":
            out["import.cli_cum_s"] = node["cum_us"] * 1e-6
    for lib in ("numpy", "scipy"):
        out[f"import.{lib}_cum_s"] = _subtree_total(roots, lib) * 1e-6
    return out


def _subtree_total(nodes, lib) -> int:
    """Cumulative microseconds of the outermost imports of lib or lib.*."""
    total = 0
    for node in nodes:
        if node["name"] == lib or node["name"].startswith(lib + "."):
            total += node["cum_us"]
        else:
            total += _subtree_total(node["children"], lib)
    return total


# -- spans ------------------------------------------------------------------------

class SpanSet:
    """The spans of one process (or one phase of the benchmark process)."""

    def __init__(self, spans, phase: str):
        self.spans = spans
        self.phase = phase
        self.children = defaultdict(list)
        for index, span in enumerate(spans):
            self.children[span[3]].append(index)

    def dur(self, index) -> int:
        span = self.spans[index]
        return span[2] - span[1]

    def named(self, name):
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def kids(self, index, name):
        return [i for i in self.children[index] if self.spans[i][0] == name]

    def self_ns(self, index) -> int:
        return self.dur(index) - sum(self.dur(i) for i in self.children[index])


def layer_metrics(span_sets: list[SpanSet], cold_records: list[dict],
                  overhead_frac: float) -> dict[str, float]:
    m: dict[str, float] = {}
    layer_sets = [s for s in span_sets if s.phase == "layers"]

    # import: every traced cold child; exact counts from the layer pass
    per_child = [import_times(r["importtime"]) for r in cold_records]
    for key in ("import.cli_cum_s", "import.pkg_cum_s", "import.numpy_cum_s",
                "import.scipy_cum_s", *(f"import.self_s.{x}" for x in PACKAGE_MODULES)):
        m[key] = median([c.get(key, 0.0) for c in per_child])
    layer_children = [r for r in cold_records if r["phase"] == "layers"]
    m["import.modules_loaded"] = median([r["modules_loaded"] for r in layer_children])
    m["import.scipy_loaded_frac"] = (
        sum(r["scipy_loaded"] for r in layer_children) / len(layer_children)
        if layer_children else 0.0)

    # cli
    parse, config = [], []
    for s in span_sets:
        for main in s.named("cli.main"):
            parse.append(sum(s.dur(i) for name in ("cli.build_parser", "cli.parse_args")
                             for i in s.kids(main, name)) * NS)
        config += [s.dur(i) * NS for i in s.named("cli.config")]
    m["cli.parse_s"], m["cli.config_s"] = median(parse), median(config)
    for sub in SUBCOMMANDS:
        m[f"cli.cold.{sub}.p50_s"] = median(
            [r["elapsed"] for r in cold_records if r["argv"][0] == sub])
        m[f"cli.cmd_self_s.{sub}"] = median(
            [s.self_ns(i) * NS for s in span_sets for i in s.named(f"cli.cmd.{sub}")])
    m["cli.cold.cpu_p50_s"] = median([r["cpu"] for r in cold_records])

    # sweep rows: glue around energy_shift_B, and per-row call counts
    sweep_ns = shift_ns = rows = 0
    for s in span_sets:
        for job in s.named("cli.cmd.sweep"):
            shifts = s.kids(job, "spectrum.energy_shift_B")
            sweep_ns += s.dur(job)
            shift_ns += sum(s.dur(i) for i in shifts)
            rows += len(shifts)
    m["cli.sweep.row_overhead_us"] = (sweep_ns - shift_ns) * 1e-3 / rows if rows else 0.0
    m["spectrum.energy_shift_B.time_share"] = shift_ns / sweep_ns if sweep_ns else 0.0
    for name in ("units.make_params", "units.convert_energy", "spectrum.QuantumState"):
        calls = layer_rows = 0
        for s in layer_sets:
            for job in s.named("cli.cmd.sweep"):
                calls += len(s.kids(job, name))
                layer_rows += len(s.kids(job, "spectrum.energy_shift_B"))
        m[f"{name}.calls_per_row"] = calls / layer_rows if layer_rows else 0.0
    for name in ("units.make_params", "units.convert_energy"):
        m[f"{name}.time_s"] = sum(s.dur(i) for s in layer_sets for i in s.named(name)) * NS

    # spectrum, dispersion
    by_regime = defaultdict(list)
    for s in span_sets:
        for i in s.named("spectrum.energy_shift_B"):
            by_regime[s.spans[i][4]].append(s.dur(i))
    for regime in REGIMES:
        m[f"spectrum.energy_shift_B.mean_us.{regime}"] = _mean_us(by_regime[regime])
    for name in ("spectrum.zeeman_lines", "spectrum.discrepancy_report",
                 "dispersion.solve_mass_shell"):
        m[f"{name}.mean_us"] = _mean_us([s.dur(i) for s in span_sets for i in s.named(name)])
    sets = [(s, i) for s in layer_sets for i in s.named("spectrum.zeeman_lines")]
    m["spectrum.zeeman_lines.shift_calls_per_set"] = (
        sum(len(s.kids(i, "spectrum.energy_shift_B")) for s, i in sets) / len(sets)
        if sets else 0.0)

    # oracle, opalg
    quad = [s.dur(i) for s in layer_sets for i in s.named("oracle.quadrature")]
    m["oracle.quadrature.calls"] = len(quad)
    m["oracle.quadrature.time_s"] = sum(quad) * NS
    for case in ALGEBRA_CASES:
        runs = [(s, i) for s in span_sets for i in s.named("opalg.verify_algebra")
                if s.spans[i][4] == case]
        m[f"opalg.verify_algebra.time_s.{case}"] = median([s.dur(i) * NS for s, i in runs])
        m[f"opalg.normal_product.calls.{case}"] = median(
            [len(s.kids(i, "opalg.normal_product")) for s, i in runs if s.phase == "layers"])

    m["trace.overhead_frac"] = overhead_frac
    units = metric_units()
    return {k: int(v) if units[k] == "count" and float(v).is_integer() else v
            for k, v in m.items()}


def _mean_us(durations_ns) -> float:
    return sum(durations_ns) / len(durations_ns) * 1e-3 if durations_ns else 0.0
