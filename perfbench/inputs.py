"""Seeded input generators for every workload.

Only the standard library is used here, so the generators can run (and be
tested) without importing the package.  Every generated input is valid under
the README, and every deformation keeps eps * gamma^2 * (mc)^2 at or below
MAX_SCALE, under the trans-Planckian bound 1/8.
"""

from __future__ import annotations

import math
import random

REGIMES = ("lande", "rel", "gup", "rgup")
MODES = ("derived", "as-published")
#: one round of an in-process workload covers each pair equally
COMBOS = tuple((regime, mode) for regime in REGIMES for mode in MODES)
UNITS = ("eV", "erg", "cm-1", "Hz")
SUBCOMMANDS = ("constants", "shift", "sweep", "lines", "verify-algebra",
               "dispersion", "discrepancy", "oracle")
DEFORMATIONS = ("physical", "exaggerated", "zero")

MAX_N = 8
MAX_LINE_L = 7
#: m_e c in g cm/s (CODATA 2018, as in rgupzeeman.units)
M_E_C = 9.1093837015e-28 * 2.99792458e10
MAX_SCALE = 0.1
GAUSS_PER_TESLA = 1.0e4

SWEEP_ROWS = 100          # rows per sweep job
SHIFTS_PER_TYPE = 100     # energy_shift_B calls per (regime, mode, kind) in a lib-grid round
LINE_PASSES = 2           # zeeman_lines calls per level shape in a lib-grid round

#: the argv lists pinned by tests/golden, with their file names
GOLDEN_ARGV = (
    ("constants.txt", ("constants",)),
    ("shift_lande.txt", ("shift", "--l", "1", "--branch", "plus", "--mj", "1.5",
                         "--B-tesla", "1", "--regime", "lande")),
    ("shift_rel.csv", ("shift", "--l", "1", "--branch", "plus", "--mj", "0.5",
                       "--B-tesla", "1", "--regime", "rel", "--csv")),
    ("shift_rgup.json", ("shift", "--l", "1", "--branch", "plus", "--mj", "0.5",
                         "--B-tesla", "1", "--regime", "rgup", "--json")),
    ("sweep_b_lande.csv", ("sweep", "--param", "B", "--from", "0", "--to", "2",
                           "--steps", "3", "--l", "1", "--branch", "plus",
                           "--mj", "0.5", "--regime", "lande")),
)


def stream(seed: int, name: str) -> random.Random:
    """Independent deterministic generator per (seed, stream name)."""
    return random.Random(f"{seed}:{name}")


def state(rng: random.Random):
    """(n, l, branch, mj) of a valid hydrogenic level with n <= MAX_N."""
    n = rng.randint(1, MAX_N)
    l = rng.randrange(n)
    branch = "plus" if l == 0 else rng.choice(("plus", "minus"))
    j = l + 0.5 if branch == "plus" else l - 0.5
    mj = rng.randrange(int(2 * j) + 1) - j
    return n, l, branch, mj


def deformation(rng: random.Random, eps_max: float = 2.0, kind: str | None = None):
    """(kind, epsilon, gamma) with gamma "planck" or an explicit float; the
    scale stays <= MAX_SCALE for every epsilon up to eps_max."""
    kind = kind or rng.choice(DEFORMATIONS)
    epsilon = rng.uniform(0.5, eps_max)
    if kind == "physical":
        return kind, epsilon, "planck"
    if kind == "zero":
        return kind, epsilon, 0.0
    scale = 10.0 ** rng.uniform(-6.0, math.log10(MAX_SCALE))
    return kind, epsilon, math.sqrt(scale / eps_max) / M_E_C


def _deformation_flags(epsilon, gamma) -> list[str]:
    flags = ["--epsilon", repr(epsilon)]
    if gamma != "planck":
        flags += ["--gamma", repr(gamma)]
    return flags


def _state_flags(n, l, branch, mj) -> list[str]:
    return ["--n", str(n), "--l", str(l), "--branch", branch, "--mj", repr(mj)]


# -- cli-cold -------------------------------------------------------------------

def _shift_argv(rng, fmt):
    _, epsilon, gamma = deformation(rng)
    regime, mode = rng.choice(COMBOS)
    argv = ["shift", *_state_flags(*state(rng)), "--B-tesla", repr(rng.uniform(0.0, 10.0)),
            *_deformation_flags(epsilon, gamma), "--regime", regime, "--mode", mode,
            "--unit", rng.choice(UNITS)]
    return argv + {"table": [], "json": ["--json"], "csv": ["--csv"]}[fmt]


def _sweep_argv(rng, param, steps, regime, mode, kind=None, eps_max=4.0):
    _, epsilon, gamma = deformation(rng, eps_max, kind)
    if param == "B":
        start = rng.uniform(0.0, 5.0)
        stop = start + rng.uniform(0.1, 5.0)
        fixed = ["--epsilon", repr(epsilon)]
    else:
        start = rng.uniform(0.0, 1.0)
        stop = rng.uniform(start + 0.5, eps_max)
        fixed = ["--B-tesla", repr(rng.uniform(0.1, 10.0))]
    if gamma != "planck":
        fixed += ["--gamma", repr(gamma)]
    return ["sweep", "--param", param, "--from", repr(start), "--to", repr(stop),
            "--steps", str(steps), *_state_flags(*state(rng)), *fixed,
            "--regime", regime, "--mode", mode, "--unit", rng.choice(UNITS)]


def level_pair(rng):
    """((n, l, branch) upper, (n, l, branch) lower) with |dl| = 1, l <= MAX_LINE_L."""
    lower_l = rng.randrange(MAX_LINE_L)
    upper_l = lower_l + 1
    if rng.random() < 0.5:
        upper_l, lower_l = lower_l, upper_l
    levels = []
    for l in (upper_l, lower_l):
        n = rng.randint(l + 1, MAX_N)
        branch = "plus" if l == 0 else rng.choice(("plus", "minus"))
        levels.append((n, l, branch))
    return tuple(levels)


def _lines_argv(rng, fmt):
    (un, ul, ub), (ln, ll, lb) = level_pair(rng)
    _, epsilon, gamma = deformation(rng)
    regime, mode = rng.choice(COMBOS)
    argv = ["lines", "--upper-n", str(un), "--upper-l", str(ul), "--upper-branch", ub,
            "--lower-n", str(ln), "--lower-l", str(ll), "--lower-branch", lb,
            "--B-tesla", repr(rng.uniform(0.0, 10.0)), *_deformation_flags(epsilon, gamma),
            "--regime", regime, "--mode", mode]
    return argv + (["--json"] if fmt == "json" else [])


def _dispersion_argv(rng):
    if rng.random() < 0.5:
        mc = rng.uniform(0.5, 2.0)
        q = rng.uniform(0.0, MAX_SCALE)
        argv = ["dispersion", "--mc", repr(mc), "--eps-gamma2", repr(q / (mc * mc))]
    else:
        _, epsilon, gamma = deformation(rng)
        argv = ["dispersion", *_deformation_flags(epsilon, gamma)]
    argv += ["--order", str(rng.choice((1, 2)))]
    return argv + (["--json"] if rng.random() < 0.5 else [])


def _oracle_flags(rng):
    n, l, _, _ = state(rng)
    return ["--n", str(n), "--l", str(l)]


def cold_cycle(rng: random.Random) -> list[tuple[str, ...]]:
    """One closed-loop cycle: the golden argv lists plus one or two seeded
    invocations of every subcommand, in seeded order.  The goldens cover
    table, --json and --csv output; the seeded shifts add a table and a
    --json or --csv one."""
    table_or_json = lambda: rng.choice(("table", "json"))  # noqa: E731
    seeded = [
        ["constants", "--json"],
        _shift_argv(rng, "table"),
        _shift_argv(rng, rng.choice(("json", "csv"))),
        _sweep_argv(rng, rng.choice(("B", "epsilon")), rng.randint(2, 6), *rng.choice(COMBOS)),
        _lines_argv(rng, table_or_json()),
        ["verify-algebra", "--case", "all"] + (["--json"] if rng.random() < 0.5 else []),
        _dispersion_argv(rng),
        ["discrepancy", *_state_flags(*state(rng)), "--B-tesla", repr(rng.uniform(0.0, 10.0)),
         *_deformation_flags(*deformation(rng)[1:])]
        + (["--json"] if table_or_json() == "json" else []),
        ["oracle", *_oracle_flags(rng)],
    ]
    cycle = [tuple(argv) for _, argv in GOLDEN_ARGV] + [tuple(argv) for argv in seeded]
    rng.shuffle(cycle)
    return cycle


COLD_CYCLE_STEPS = len(cold_cycle(random.Random(0)))


def cold_argv_stream(seed: int, name: str = "cli-cold"):
    rng = stream(seed, name)
    while True:
        yield from cold_cycle(rng)


# -- sweep-bulk -----------------------------------------------------------------

def sweep_round(rng: random.Random) -> list[tuple[str, ...]]:
    """One job per (regime, mode, deformation kind), B and epsilon sweeps
    alternating.  A gamma = 0 job skips the deformation terms, so fixing the
    mix keeps every round's work the same."""
    return [tuple(_sweep_argv(rng, "B" if k % 2 == 0 else "epsilon", SWEEP_ROWS,
                              regime, mode, kind))
            for k, ((regime, mode), kind) in enumerate(
                (combo, kind) for combo in COMBOS for kind in DEFORMATIONS)]


# -- lib-grid -------------------------------------------------------------------

def _branches(l):
    return ("plus",) if l == 0 else ("plus", "minus")


#: every (upper, lower) pair of level shapes (l, branch) with |dl| = 1 and
#: l <= MAX_LINE_L; zeeman_lines costs the same for any n of a shape
LEVEL_SHAPES = tuple(
    ((ul, ub), (ll, lb))
    for low in range(MAX_LINE_L) for ul, ll in ((low + 1, low), (low, low + 1))
    for ub in _branches(ul) for lb in _branches(ll))
SHIFTS_PER_ROUND = len(COMBOS) * len(DEFORMATIONS) * SHIFTS_PER_TYPE
LINE_SETS_PER_ROUND = LINE_PASSES * len(LEVEL_SHAPES)


def _lib_params(rng, kind):
    _, epsilon, gamma = deformation(rng, kind=kind)
    return rng.uniform(0.0, 10.0) * GAUSS_PER_TESLA, epsilon, gamma


def shift_round(rng: random.Random) -> list[tuple]:
    """(n, l, branch, mj, B_gauss, epsilon, gamma, regime, mode) tuples, the
    same number for every (regime, mode, deformation kind), so every round
    costs the same.  The field is drawn fresh for each: no tuple repeats."""
    return [(*state(rng), *_lib_params(rng, kind), regime, mode)
            for regime, mode in COMBOS for kind in DEFORMATIONS
            for _ in range(SHIFTS_PER_TYPE)]


def lines_round(rng: random.Random) -> list[tuple]:
    """(upper level, lower level, B_gauss, epsilon, gamma, regime, mode),
    LINE_PASSES per LEVEL_SHAPES entry, each with a fixed (regime, mode) and
    deformation kind; n and the parameters are drawn fresh."""
    rounds = []
    for i, ((ul, ub), (ll, lb)) in enumerate(LEVEL_SHAPES * LINE_PASSES):
        regime, mode = COMBOS[i % len(COMBOS)]
        upper = (rng.randint(ul + 1, MAX_N), ul, ub)
        lower = (rng.randint(ll + 1, MAX_N), ll, lb)
        kind = DEFORMATIONS[i % len(DEFORMATIONS)]
        rounds.append((upper, lower, *_lib_params(rng, kind), regime, mode))
    return rounds


def mj_values(l: int, branch: str) -> list[float]:
    j = l + 0.5 if branch == "plus" else l - 0.5
    return [k - j for k in range(int(2 * j) + 1)]


def expected_line_count(upper, lower) -> int:
    """Selection rules, counted independently of the package:
    |dl| = 1 and |d mj| <= 1 over the two multiplets."""
    (_, ul, ub), (_, ll, lb) = upper, lower
    if abs(ul - ll) != 1:
        return 0
    return sum(1 for mu in mj_values(ul, ub) for ml in mj_values(ll, lb)
               if abs(mu - ml) <= 1.0)
