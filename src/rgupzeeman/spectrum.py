"""Zeeman energy shifts per regime, spin-orbit shift, and line generation.

The first-order shift of a strong-field level (j = l +- 1/2, magnetic
number m_j) is a sum of labelled addends: the base part (all regimes), the
relativistic additions (REL and up), the deformation bracket, each addend
times eps gamma^2 (mc)^2 (RGUP), and its nonrelativistic limit, each
addend times -eps gamma^2 <p^2> (GUP).  Every addend is one entry of the
term table _TERMS below: its label, regimes, expressions, tags and known
coefficient defect.  Breakdowns, REGIME_TERM_LABELS and the discrepancy
report are all read from it.

Two evaluation modes exist for GUP/RGUP.  "derived" (the default and the
authoritative one) evaluates the expectation expression with
<Jz> = m_j hbar, <Sz> = +- m_j hbar/(2l+1), the angular-only
<p^2> = hbar^2 l(l+1)/r^2 at r = r0, and <p^4> = <p^2>^2.  "as-published"
evaluates the quoted closed-form coefficients literally, including their
known defects; discrepancy_report compares the two and classifies every
difference.  LANDE and REL ignore the mode (the modes only differ in the
deformation-era terms and in the <p^2> cross term).
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

from . import oracle
from .units import (ConstantsTable, DEFAULT_CONSTANTS, PhysicalParams, ValidationError,
                    check_n_l, is_integer)


class Branch(Enum):
    PLUS = "plus"     # j = l + 1/2
    MINUS = "minus"   # j = l - 1/2


class Regime(Enum):
    LANDE = "lande"
    REL = "rel"
    GUP = "gup"
    RGUP = "rgup"


class Mode(Enum):
    DERIVED = "derived"
    AS_PUBLISHED = "as-published"


def _is_half_odd(value: float) -> bool:
    doubled = 2.0 * value
    return is_integer(doubled) and int(doubled) % 2 != 0


def _sign(branch: Branch) -> float:
    """The +- of j = l +- 1/2, which every branch-dependent quantity carries."""
    if branch is Branch.PLUS:
        return 1.0
    if branch is Branch.MINUS:
        return -1.0
    raise ValidationError("branch", f"must be a Branch member, got {branch!r}")


def _j(l: int, sgn: float) -> float:
    return l + 0.5 * sgn


def _spin_factors(l: int, sgn: float) -> tuple[float, float]:
    """(1 +- 1/(2l+1), 1 -+ 1/(2l+1)), upper signs for j = l + 1/2.

    The first is the Lande g; <Jz + Sz> and <Jz - Sz> are m_j hbar times
    the first and the second.
    """
    fraction = sgn / (2 * l + 1)
    return 1.0 + fraction, 1.0 - fraction


def _sz(l: int, sgn: float, mj: float, hbar: float) -> float:
    """<Sz> = +- m_j hbar / (2l + 1)."""
    return sgn * mj * hbar / (2 * l + 1)


class _StateFields(NamedTuple):
    n: int
    l: int
    branch: Branch
    mj: float
    ml: int | None
    ms: float | None


class QuantumState(_StateFields):
    """Hydrogenic level (n, l, j = l +- 1/2, m_j), optionally with the
    decoupled basis labels (m_l, m_s) for the spin-orbit case.  Raises
    ValidationError naming the offending field, from _replace too."""

    __slots__ = ()

    def __new__(cls, n, l, branch, mj, ml=None, ms=None):
        check_n_l(n, l)
        sgn = _sign(branch)
        if sgn < 0.0 and l == 0:
            raise ValidationError("branch", "j = l - 1/2 requires l >= 1")
        if not _is_half_odd(mj):
            raise ValidationError("mj", f"must be half-odd-integer, got {mj!r}")
        j = _j(l, sgn)
        if abs(mj) > j + 1e-12:
            raise ValidationError("mj", f"|mj| = {abs(mj)!r} exceeds j = {j!r}")
        if (ml is None) != (ms is None):
            raise ValidationError("ml", "ml and ms must be given together")
        if ml is not None:
            if abs(ml) > l or not is_integer(ml):
                raise ValidationError("ml", f"must be an integer with |ml| <= l, got {ml!r}")
            if ms not in (0.5, -0.5):
                raise ValidationError("ms", f"must be +-1/2, got {ms!r}")
        return tuple.__new__(cls, (n, l, branch, mj, ml, ms))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def j(self) -> float:
        return _j(self.l, _sign(self.branch))


def level_states(n: int, l: int, branch: Branch) -> tuple[QuantumState, ...]:
    """The full m_j multiplet of a level, ordered by increasing m_j."""
    j = _j(l, _sign(branch))
    # built first, so QuantumState's rules on n, l and the branch apply
    # before 2j is used as a count
    lowest = QuantumState(n=n, l=l, branch=branch, mj=-j)
    return (lowest, *(QuantumState(n=n, l=l, branch=branch, mj=-j + k)
                      for k in range(1, int(round(2 * j)) + 1)))


# -- expectation values -------------------------------------------------------

def exp_ls(ml: int, ms: float, constants: ConstantsTable | None = None) -> float:
    """<L.S> = hbar^2 m_l m_s in the decoupled basis (ladder terms average out)."""
    table = constants if constants is not None else DEFAULT_CONSTANTS
    return table.hbar**2 * ml * ms


def exp_p2_angular(l: int, r: float | None = None,
                   constants: ConstantsTable | None = None) -> float:
    """Angular-only momentum-square estimate hbar^2 l(l+1) / r^2.

    This keeps just the centrifugal part of the radial Laplacian at a
    fixed radius (default r0), which is the substitution the closed-form
    shift formulas use.  The honest hydrogen <p^2> differs (factor 8 for
    n=2, l=1); see oracle.p2_expectation_exact.
    """
    table = constants if constants is not None else DEFAULT_CONSTANTS
    if l < 0 or not is_integer(l):
        raise ValidationError("l", f"must be a non-negative integer, got {l!r}")
    radius = table.r0 if r is None else r
    if radius <= 0.0:
        raise ValidationError("r", f"radius must be > 0, got {radius!r}")
    return table.hbar**2 * l * (l + 1) / radius**2


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise ValidationError(what, f"{value!r} is outside double precision")
    return value


def _finite_sum(values, what: str) -> float:
    """fsum of the values; ValidationError unless it is finite."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):  # an overflowing sum, or inf - inf
        total = math.nan
    return _finite(total, what)


# -- the term table -------------------------------------------------------------

LEVEL_SHIFT_TAGS = ("level-shift", "non-magnetic")

_DEFORMED = (Regime.GUP, Regime.RGUP)


class _Substitutions:
    """Every quantity a term expression reads.

    The level half (l through p4) is computed once per level: every state
    of one l and branch sign shares it, and set_mj moves it to another m_j
    (mj, jz, sz).  set_params computes the params half (B, base,
    eps_gamma2, scale, deformed) from a record, so a sweep over B or
    epsilon recomputes only that half.  scale is the regime's deformation
    scale: eps gamma^2 (mc)^2, or -eps gamma^2 <p^2> in the
    nonrelativistic (GUP) limit.  deformed gates the deformation addends
    (RGUP: scale != 0; GUP: eps gamma^2 != 0).
    """

    __slots__ = ("constants", "e", "m_e", "c", "hbar", "alpha", "r0", "B", "base", "l",
                 "ll", "mj", "sgn", "jz", "sz", "plus", "minus", "p2", "p4", "scale",
                 "eps_gamma2", "deformed")

    def __init__(self, state: QuantumState, params: PhysicalParams, regime: Regime):
        self.constants = C = params.constants
        self.e, self.m_e, self.c, self.hbar = C.e, C.m_e, C.c, C.hbar
        self.alpha, self.r0 = C.alpha, C.r0
        self.l = state.l
        self.ll = state.l * (state.l + 1)
        self.sgn = _sign(state.branch)
        self.plus, self.minus = _spin_factors(state.l, self.sgn)
        self.p2 = p2 = exp_p2_angular(state.l, constants=C)
        self.p4 = p2 * p2
        self.set_mj(state.mj)
        self.set_params(params, regime)

    def set_mj(self, mj: float) -> None:
        self.mj = mj
        self.jz = mj * self.hbar
        self.sz = _sz(self.l, self.sgn, mj, self.hbar)

    def set_params(self, params: PhysicalParams, regime: Regime) -> None:
        """The params half; params must share the constants of the level half."""
        self.B = params.B
        self.base = self.e * params.B / (2.0 * self.m_e * self.c)
        self.eps_gamma2 = eps_gamma2 = params.eps_gamma2
        if regime is Regime.GUP:
            # nonrelativistic limit: p0.p0 -> -hbar^2 grad^2 as c -> infinity,
            # so the (mc)^2 of the deformation scale becomes -<p^2>
            self.scale = -eps_gamma2 * self.p2 + 0.0  # +0.0 normalizes -0.0 away
            self.deformed = eps_gamma2 != 0.0
        else:
            self.scale = params.correction_scale
            self.deformed = self.scale != 0.0


class _Term(NamedTuple):
    """One addend of the shift.

    derived and published are Python expressions over the substitutions
    s (and math) giving erg; published is None where the quoted form is the
    derived one.  A deformation addend is gated as energy_shift_B describes.
    ratio is the expected published/derived ratio of a known coefficient
    defect, classified by ratio_tags.
    """

    label: str
    regimes: tuple[Regime, ...]
    expression: str
    derived: str
    published_expression: str | None = None
    published: str | None = None
    tags: tuple[str, ...] = ()
    deformation: bool = False
    ratio: Callable[[ConstantsTable], float] | None = None
    ratio_tags: tuple[str, ...] = ()


_RGUP = (Regime.RGUP,)
_GUP = (Regime.GUP,)

#: every addend, in emission order (a regime's entries keep this order)
_TERMS = (
    _Term("jz_plus_sz", tuple(Regime),
          "-(e B / 2 m_e c) <Jz + Sz>",
          "-s.base * (s.jz + s.sz)"),
    _Term("anomalous_sz", (Regime.REL, Regime.RGUP),
          "-(alpha' e B / 2 pi m_e c) <Sz>",
          "-s.base * (s.alpha / math.pi) * s.sz"),
    _Term("p2_jz_minus_sz", (Regime.REL, Regime.RGUP),
          "+(e B / 4 m_e^3 c^3) <p^2> <Jz - Sz>",
          "(s.e * s.B / (4.0 * s.m_e**3 * s.c**3)) * s.p2 * (s.jz - s.sz)",
          "+(e B / 4 m_e^3 c^3) (mj hbar^2 / r0^2) l(l+1) (1 -+ 1/(2l+1))",
          "(s.e * s.B / (4.0 * s.m_e**3 * s.c**3))"
          " * (s.mj * s.hbar**2 / s.r0**2) * s.ll * s.minus",
          ratio=lambda C: 1.0 / C.hbar, ratio_tags=("missing-hbar-power",)),
    _Term("rgup_jz_plus_sz", _RGUP,
          "scale * (e B / 2 m_e c) <Jz + Sz>",
          "s.scale * s.base * (s.jz + s.sz)",
          "scale * (e B / 2 m_e c) mj hbar (1 +- 1/(2l+1))",
          "s.scale * s.base * s.mj * s.hbar * s.plus",
          deformation=True),
    _Term("rgup_jz_minus_sz", _RGUP,
          "scale * (e B / 2 m_e c) <Jz - Sz>",
          "s.scale * s.base * (s.jz - s.sz)",
          "scale * (e B / 2 m_e c) mj hbar (1 -+ 1/(2l+1))",
          "s.scale * s.base * s.mj * s.hbar * s.minus",
          deformation=True),
    _Term("rgup_anomalous_sz", _RGUP,
          "scale * (alpha' e B / 2 pi m_e c) <Sz>",
          "s.scale * s.base * (s.alpha / math.pi) * s.sz",
          "scale * -+(alpha' e B / 2 pi m_e c) mj hbar / (2l+1)",
          "-s.sgn * s.scale * s.base * (s.alpha / math.pi) * s.mj * s.hbar / (2 * s.l + 1)",
          deformation=True, ratio=lambda C: -1.0, ratio_tags=("sign-of-alpha-term",)),
    _Term("rgup_p2_level", _RGUP,
          "scale * ( -<p^2> / m_e )",
          "s.scale * (-s.p2 / s.m_e)",
          "scale * ( -hbar^2 l(l+1) / m_e )",
          "s.scale * (-(s.hbar**2) * s.ll / s.m_e)",
          LEVEL_SHIFT_TAGS, deformation=True,
          ratio=lambda C: C.r0**2, ratio_tags=("missing-r0-power",)),
    _Term("rgup_p4_level", _RGUP,
          "scale * ( +<p^4> / 2 m_e^3 c^2 )",
          "s.scale * (s.p4 / (2.0 * s.m_e**3 * s.c**2))",
          "scale * ( +hbar^4 (l(l+1))^2 / 2 m_e^3 c^2 r0^4 )",
          "s.scale * (s.hbar**4 * s.ll * s.ll / (2.0 * s.m_e**3 * s.c**2 * s.r0**4))",
          LEVEL_SHIFT_TAGS, deformation=True),
    _Term("gup_p4", _GUP,
          "-eps gamma^2 <p^2> * ( -<p^2> / m_e )",
          "s.scale * (-s.p2 / s.m_e)",
          "(eps gamma^2 / m_e) hbar^4 (l(l+1))^2 / r0^4",
          "(s.eps_gamma2 / s.m_e) * s.hbar**4 * s.ll * s.ll / s.r0**4",
          LEVEL_SHIFT_TAGS, deformation=True),
    _Term("gup_cross", _GUP,
          "-eps gamma^2 <p^2> * (e B / 2 m_e c) <Jz + Sz>",
          "s.scale * s.base * (s.jz + s.sz)",
          "-(eps gamma^2 / m_e) (e B mj / c) (hbar^2 / r0^2) l(l+1) (1 +- 1/(2l+1))",
          "-(s.eps_gamma2 / s.m_e) * (s.e * s.B * s.mj / s.c)"
          " * (s.hbar**2 / s.r0**2) * s.ll * s.plus",
          deformation=True, ratio=lambda C: 2.0 / C.hbar,
          ratio_tags=("factor-2", "missing-hbar-power")),
)


class _Plan:
    """The terms of one regime and mode, and the functions compiled from them.

    terms holds (label, expression, tags) per term, in emission order, and
    forms the Python expression of each.  function(part, deformed) returns
    a function of the substitutions giving a tuple of values in erg, each
    + 0.0 (which drops -0.0), with the deformation addends on or off:
    "all" gives every term, None where an addend is off; "magnetic" and
    "offset" give the terms that are on, without and with the
    "non-magnetic" tag.  The offset terms read no m_j, so a level evaluates
    them once.  Each function is compiled on first use, so a cold start
    compiles only what it runs.  LANDE and REL ignore the mode: their terms
    always take the derived form.
    """

    __slots__ = ("name", "terms", "forms", "deformation", "_functions")

    def __init__(self, regime: Regime, published: bool):
        quoted = published and regime in _DEFORMED
        rows = [(t, quoted and t.published is not None) for t in _TERMS if regime in t.regimes]
        self.name = f"{regime.value} {'as-published' if published else 'derived'}"
        self.terms = tuple((t.label, t.published_expression if q else t.expression, t.tags)
                           for t, q in rows)
        self.forms = tuple(t.published if q else t.derived for t, q in rows)
        self.deformation = tuple(t.deformation for t, _ in rows)
        self._functions = {}

    def function(self, part: str, deformed: bool) -> Callable[[_Substitutions], tuple]:
        try:
            return self._functions[part, deformed]
        except KeyError:
            pass
        slots = []
        for (_, _, tags), form, deformation in zip(self.terms, self.forms, self.deformation):
            on = deformed or not deformation
            if part == "all":
                slots.append(f"({form}) + 0.0" if on else "None")
            elif on and (part == "offset") == ("non-magnetic" in tags):
                slots.append(f"({form}) + 0.0")
        source = "lambda s: (" + "".join(slot + ", " for slot in slots) + ")"
        code = compile(source, f"<{self.name} {part} deformed={deformed}>", "eval")
        function = self._functions[part, deformed] = eval(code, {"math": math})
        return function


#: keyed by (regime, as-published?)
_PLANS = {(regime, published): _Plan(regime, published)
          for regime in Regime for published in (False, True)}
_TERM_BY_LABEL = {t.label: t for t in _TERMS}

#: per-regime term labels, in emission order (stable CSV schema)
REGIME_TERM_LABELS: dict[Regime, tuple[str, ...]] = {
    regime: tuple(label for label, _, _ in _PLANS[regime, False].terms) for regime in Regime}


# -- shift breakdowns ---------------------------------------------------------

_new = tuple.__new__


class ShiftTerm(NamedTuple):
    label: str
    expression: str
    value_erg: float
    tags: tuple[str, ...] = ()


class ShiftBreakdown(NamedTuple):
    """Per-term energy-shift contributions for one state and regime."""

    state: QuantumState
    regime: Regime
    mode: Mode
    correction_scale: float      # dimensionless deformation scale actually used
    terms: tuple[ShiftTerm, ...]

    @property
    def total_erg(self) -> float:
        return math.fsum(t.value_erg for t in self.terms)

    def term(self, label: str) -> ShiftTerm:
        for t in self.terms:
            if t.label == label:
                return t
        raise KeyError(label)

    def labels(self) -> tuple[str, ...]:
        return tuple(t.label for t in self.terms)


def _plan_of(regime: Regime, mode: Mode) -> _Plan:
    if not isinstance(regime, Regime):
        raise ValidationError("regime", f"unknown regime {regime!r}")
    return _PLANS[regime, mode is Mode.AS_PUBLISHED]


def _evaluate(subs: _Substitutions, plan: _Plan) -> tuple[float, tuple, float]:
    """(scale, values in plan order, total) of one breakdown, in erg.

    A gated-off deformation addend is None; total is the fsum of the
    others.  Raises ValidationError when the scale, a value or the total is
    not finite in double precision, naming the term that left it if one did.
    """
    scale = _finite(subs.scale, "correction_scale")
    values = plan.function("all", subs.deformed)(subs)
    try:
        total = _finite_sum([v for v in values if v is not None], "total")
    except ValidationError:
        for (label, _, _), value in zip(plan.terms, values):
            if value is not None:
                _finite(value, label)
        raise
    return scale, values, total


def _row_evaluator(regime: Regime, mode: Mode):
    """A function (state, params) -> _evaluate's tuple for one regime and mode.

    While the state (and the constants table) stay the same objects from
    one call to the next, only the params half of the substitutions is
    computed again.
    """
    plan = _plan_of(regime, mode)
    subs = state = None

    def evaluate(row_state: QuantumState, params: PhysicalParams):
        nonlocal subs, state
        if row_state is state and params.constants is subs.constants:
            subs.set_params(params, regime)
        else:
            subs, state = _Substitutions(row_state, params, regime), row_state
        return _evaluate(subs, plan)
    return evaluate


def energy_shift_B(state: QuantumState, params: PhysicalParams, regime: Regime,
                   mode: Mode = Mode.DERIVED) -> ShiftBreakdown:
    """First-order Zeeman shift breakdown for one state.

    Deformation addends are emitted only while the regime's deformation is
    on (RGUP: eps gamma^2 (mc)^2 != 0; GUP: eps gamma^2 != 0), so a
    gamma = 0 RGUP breakdown is term-for-term the REL one and a gamma = 0
    GUP breakdown is the LANDE one.  Raises ValidationError when the scale,
    a term or the total is not finite in double precision.
    """
    plan = _plan_of(regime, mode)
    scale, values, _ = _evaluate(_Substitutions(state, params, regime), plan)
    # a list, not a generator: tuple(<generator>) left thousands more small
    # blocks allocated between calls and raised the sweep's peak RSS.  The
    # records have no rules, so tuple.__new__ skips their Python __new__
    terms = tuple([_new(ShiftTerm, (label, expression, value, tags))
                   for (label, expression, tags), value in zip(plan.terms, values)
                   if value is not None])
    return _new(ShiftBreakdown, (state, regime, mode, scale, terms))


def lande_g_factor(l: int, branch: Branch) -> float:
    """Textbook Lande g for s = 1/2: g = 1 +- 1/(2l+1)."""
    return _spin_factors(l, _sign(branch))[0]


def hls_shift(state: QuantumState, params: PhysicalParams) -> float:
    """Spin-orbit expectation with the deformation factor, in erg.

    (1 - eps gamma^2 (mc)^2) hbar^2 m_l m_s / (2 m_e^2 c^2) * Z e^2 <1/r^3>,
    for the Coulomb potential (<1/r^3> in closed form; the Thomas 1/2 is
    already inside).  Vanishes identically for l = 0.  Raises
    ValidationError when the result is not finite in double precision.
    """
    if state.ml is None or state.ms is None:
        raise ValidationError("ml", "spin-orbit shift needs the (ml, ms) basis labels")
    if state.l == 0:
        return 0.0
    C = params.constants
    ls = exp_ls(state.ml, state.ms, C)
    inv_r3 = oracle.closed_form_r_expectation(state.n, state.l, params.Z, -3, C)
    factor = 1.0 - params.correction_scale
    return _finite(factor * ls / (2.0 * C.m_e**2 * C.c**2) * params.Z * C.e**2 * inv_r3,
                   "hls_shift")


# -- line generation ----------------------------------------------------------

class ZeemanLine(NamedTuple):
    """One allowed transition: shift difference plus polarization tag.

    shift_erg carries only the field-dependent terms, so it vanishes at
    B = 0 in every regime; the field-independent deformation level shifts
    enter level_offset_erg instead.
    """

    upper: QuantumState
    lower: QuantumState
    delta_mj: float
    polarization: str          # "pi" (delta mj = 0) or "sigma+"/"sigma-"
    shift_erg: float
    level_offset_erg: float


def zeeman_lines(upper, lower, params: PhysicalParams, regime: Regime,
                 mode: Mode = Mode.DERIVED) -> tuple[ZeemanLine, ...]:
    """All transitions passing delta l = +-1 and delta m_j in {-1, 0, +1}.

    Raises ValidationError when a line shift or offset is not finite in
    double precision.
    """
    upper = tuple(upper)
    lower = tuple(lower)
    if not upper or not lower:
        raise ValidationError("states", "upper and lower level sets must be non-empty")

    plan = _plan_of(regime, mode)
    subs = None
    entries = []  # (state, magnetic sum, offset sum), following upper + lower
    for state in upper + lower:
        # one substitution per level: only l and the branch sign enter it,
        # and the offset terms read no m_j, so a level evaluates them once
        if subs is not None and state.l == subs.l and _sign(state.branch) == subs.sgn:
            subs.set_mj(state.mj)
        else:
            subs = _Substitutions(state, params, regime)
            _finite(subs.scale, "correction_scale")
            magnetic_of = plan.function("magnetic", subs.deformed)
            offsets, offset = plan.function("offset", subs.deformed)(subs), None
        # a failure is named as a per-state _evaluate names it: the scale, a
        # term or the total first, then the shift, then the level's offset sum
        try:
            magnetic = _finite_sum(magnetic_of(subs), "shift")
            if offset is None:
                offset = _finite_sum(offsets, "level_offset")
            _finite(magnetic + offset, "total")
        except ValidationError:
            _evaluate(subs, plan)  # names the term that left double precision, if one did
            raise
        entries.append((state, magnetic, offset))
    # m_j is a half-odd integer below 2**52, so m_j and m_j +- 1 are exact keys
    lower_by_mj = {}
    for entry in entries[len(upper):]:
        lower_by_mj.setdefault(entry[0].mj, []).append(entry)

    lines = []
    for u, mag_u, off_u in entries[:len(upper)]:
        for mj in (u.mj - 1.0, u.mj, u.mj + 1.0):
            for lo, mag_l, off_l in lower_by_mj.get(mj, ()):
                if abs(u.l - lo.l) != 1:
                    continue
                delta = u.mj - lo.mj
                if delta == 0.0:
                    pol = "pi"
                else:
                    pol = "sigma+" if delta > 0 else "sigma-"
                shift, offset = mag_u - mag_l, off_u - off_l
                if not (math.isfinite(shift) and math.isfinite(offset)):
                    raise ValidationError("shift", f"line mj {u.mj!r} -> {lo.mj!r} "
                                                   "is outside double precision")
                lines.append(_new(ZeemanLine, (u, lo, delta, pol, shift, offset)))
    lines.sort(key=lambda ln: (ln.upper.mj, ln.lower.mj))
    return tuple(lines)


# -- derived vs as-published comparison ----------------------------------------

_AGREE_RTOL = 1e-12
_RATIO_RTOL = 1e-9


class TermDifference(NamedTuple):
    regime: Regime
    label: str
    derived_erg: float
    published_erg: float
    ratio: float | None          # published / derived
    tags: tuple[str, ...]


class DiscrepancyReport(NamedTuple):
    state: QuantumState
    differences: tuple[TermDifference, ...]
    agreements: tuple[str, ...]  # "regime:label" for terms equal in both modes

    @property
    def uncatalogued(self) -> tuple[TermDifference, ...]:
        return tuple(d for d in self.differences if "uncatalogued" in d.tags)


def discrepancy_report(state: QuantumState, params: PhysicalParams) -> DiscrepancyReport:
    """Evaluate GUP and RGUP in both modes and classify per-term differences.

    A difference whose published/derived ratio matches its term's expected
    ratio takes the term's class tags; any other is "uncatalogued".
    """
    differences = []
    agreements = []
    for regime in (Regime.RGUP, Regime.GUP):
        subs = _Substitutions(state, params, regime)
        _, derived, _ = _evaluate(subs, _PLANS[regime, False])
        _, published, _ = _evaluate(subs, _PLANS[regime, True])
        for (label, _, _), dval, pval in zip(_PLANS[regime, False].terms, derived, published):
            if dval is None:  # gated off in both modes
                continue
            if (dval == 0.0 and pval == 0.0) or \
                    (dval != 0.0 and abs(pval - dval) <= _AGREE_RTOL * abs(dval)):
                agreements.append(f"{regime.value}:{label}")
                continue
            ratio = pval / dval if dval != 0.0 else None
            tags = ("uncatalogued",)
            term = _TERM_BY_LABEL[label]
            if term.ratio is not None and ratio is not None:
                expected_ratio = term.ratio(params.constants)
                if abs(ratio - expected_ratio) <= _RATIO_RTOL * abs(expected_ratio):
                    tags = term.ratio_tags
            differences.append(TermDifference(
                regime=regime, label=label, derived_erg=dval,
                published_erg=pval, ratio=ratio, tags=tags))
    return DiscrepancyReport(state=state, differences=tuple(differences),
                             agreements=tuple(agreements))
