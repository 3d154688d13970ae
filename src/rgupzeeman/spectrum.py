"""Zeeman energy shifts per regime, spin-orbit shift, and line generation.

The first-order shift of a strong-field level (j = l +- 1/2, magnetic
number m_j) decomposes into labelled addends:

    base part (all regimes):
        jz_plus_sz       -(eB / 2 m_e c) <Jz + Sz>
    relativistic additions (REL and up):
        anomalous_sz     -(alpha' eB / 2 pi m_e c) <Sz>
        p2_jz_minus_sz   +(eB / 4 m_e^3 c^3) <p^2> <Jz - Sz>
    deformation bracket (RGUP), each times eps gamma^2 (mc)^2:
        rgup_jz_plus_sz   +(eB / 2 m_e c) <Jz + Sz>
        rgup_jz_minus_sz  +(eB / 2 m_e c) <Jz - Sz>
        rgup_anomalous_sz +(alpha' eB / 2 pi m_e c) <Sz>
        rgup_p2_level     -<p^2> / m_e            (field-independent)
        rgup_p4_level     +<p^4> / 2 m_e^3 c^2    (field-independent)
    nonrelativistic deformation limit (GUP), each times -eps gamma^2 <p^2>:
        gup_p4            from the <p^2>/m_e addend
        gup_cross         from the <Jz + Sz> addend

Two evaluation modes exist for GUP/RGUP.  "derived" (the default and the
authoritative one) evaluates the expectation expression above with
<Jz> = m_j hbar, <Sz> = +- m_j hbar/(2l+1), the angular-only
<p^2> = hbar^2 l(l+1)/r^2 at r = r0, and <p^4> = <p^2>^2.  "as-published"
evaluates the quoted closed-form coefficients literally, including their
known defects; discrepancy_report compares the two and classifies every
difference.  LANDE and REL ignore the mode (the modes only differ in the
deformation-era terms and in the <p^2> cross term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import oracle
from .dispersion import nonrel_limit_note
from .units import ConstantsTable, DEFAULT_CONSTANTS, PhysicalParams, ValidationError


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
    return math.isfinite(doubled) and doubled == round(doubled) \
        and int(round(doubled)) % 2 != 0


@dataclass(frozen=True)
class QuantumState:
    """Hydrogenic level (n, l, j = l +- 1/2, m_j), optionally with the
    decoupled basis labels (m_l, m_s) for the spin-orbit case."""

    n: int
    l: int
    branch: Branch
    mj: float
    ml: int | None = None
    ms: float | None = None

    def __post_init__(self):
        if self.n < 1 or int(self.n) != self.n:
            raise ValidationError("n", f"must be a positive integer, got {self.n!r}")
        if self.l < 0 or self.l >= self.n or int(self.l) != self.l:
            raise ValidationError("l", f"must satisfy 0 <= l < n, got {self.l!r}")
        if self.branch is Branch.MINUS and self.l == 0:
            raise ValidationError("branch", "j = l - 1/2 requires l >= 1")
        if not _is_half_odd(self.mj):
            raise ValidationError("mj", f"must be half-odd-integer, got {self.mj!r}")
        if abs(self.mj) > self.j + 1e-12:
            raise ValidationError("mj", f"|mj| = {abs(self.mj)!r} exceeds j = {self.j!r}")
        if (self.ml is None) != (self.ms is None):
            raise ValidationError("ml", "ml and ms must be given together")
        if self.ml is not None:
            if abs(self.ml) > self.l or int(self.ml) != self.ml:
                raise ValidationError("ml", f"must be an integer with |ml| <= l, got {self.ml!r}")
            if self.ms not in (0.5, -0.5):
                raise ValidationError("ms", f"must be +-1/2, got {self.ms!r}")

    @property
    def j(self) -> float:
        return self.l + 0.5 if self.branch is Branch.PLUS else self.l - 0.5


def level_states(n: int, l: int, branch: Branch) -> tuple[QuantumState, ...]:
    """The full m_j multiplet of a level, ordered by increasing m_j."""
    if branch is Branch.MINUS and l == 0:
        raise ValidationError("branch", "j = l - 1/2 requires l >= 1")
    j = l + 0.5 if branch is Branch.PLUS else l - 0.5
    count = int(round(2 * j)) + 1
    return tuple(QuantumState(n=n, l=l, branch=branch, mj=-j + k)
                 for k in range(count))


# -- expectation values -------------------------------------------------------

def exp_jz(mj: float, constants: ConstantsTable | None = None) -> float:
    """<Jz> = m_j hbar."""
    table = constants if constants is not None else DEFAULT_CONSTANTS
    if not _is_half_odd(mj):
        raise ValidationError("mj", f"must be half-odd-integer, got {mj!r}")
    return mj * table.hbar


def exp_sz(l: int, branch: Branch, mj: float,
           constants: ConstantsTable | None = None) -> float:
    """<Sz> = +- m_j hbar / (2l + 1), upper sign for j = l + 1/2."""
    table = constants if constants is not None else DEFAULT_CONSTANTS
    if branch is Branch.MINUS and l == 0:
        raise ValidationError("branch", "j = l - 1/2 requires l >= 1")
    if not _is_half_odd(mj):
        raise ValidationError("mj", f"must be half-odd-integer, got {mj!r}")
    j = l + 0.5 if branch is Branch.PLUS else l - 0.5
    if abs(mj) > j + 1e-12:
        raise ValidationError("mj", f"|mj| = {abs(mj)!r} exceeds j = {j!r}")
    sign = 1.0 if branch is Branch.PLUS else -1.0
    return sign * mj * table.hbar / (2 * l + 1)


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
    if l < 0 or int(l) != l:
        raise ValidationError("l", f"must be a non-negative integer, got {l!r}")
    radius = table.r0 if r is None else r
    if radius <= 0.0:
        raise ValidationError("r", f"radius must be > 0, got {radius!r}")
    return table.hbar**2 * l * (l + 1) / radius**2


# -- shift breakdowns ---------------------------------------------------------

LEVEL_SHIFT_TAGS = ("level-shift", "non-magnetic")

#: per-regime term catalogue, in emission order (stable CSV schema)
REGIME_TERM_LABELS: dict[Regime, tuple[str, ...]] = {
    Regime.LANDE: ("jz_plus_sz",),
    Regime.REL: ("jz_plus_sz", "anomalous_sz", "p2_jz_minus_sz"),
    Regime.RGUP: ("jz_plus_sz", "anomalous_sz", "p2_jz_minus_sz",
                  "rgup_jz_plus_sz", "rgup_jz_minus_sz", "rgup_anomalous_sz",
                  "rgup_p2_level", "rgup_p4_level"),
    Regime.GUP: ("jz_plus_sz", "gup_p4", "gup_cross"),
}


@dataclass(frozen=True)
class ShiftTerm:
    label: str
    expression: str
    value_erg: float
    tags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ShiftBreakdown:
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


def energy_shift_B(state: QuantumState, params: PhysicalParams, regime: Regime,
                   mode: Mode = Mode.DERIVED,
                   radius: float | None = None) -> ShiftBreakdown:
    """First-order Zeeman shift breakdown for one state.

    radius overrides the r0 used inside the angular <p^2> substitution
    (derived mode only; the quoted coefficients are tied to r0 as printed).
    Deformation addends are emitted only when their scale is nonzero, so a
    gamma = 0 RGUP breakdown is term-for-term the REL one and a gamma = 0
    GUP breakdown is the LANDE one.
    """
    if not isinstance(regime, Regime):
        raise ValidationError("regime", f"unknown regime {regime!r}")
    if regime in (Regime.GUP, Regime.RGUP) and params.epsilon < 0:
        raise ValidationError("epsilon", "deformed regimes require epsilon >= 0")

    C = params.constants
    hbar = C.hbar
    B = params.B
    base = C.e * B / (2.0 * C.m_e * C.c)
    sgn = 1.0 if state.branch is Branch.PLUS else -1.0
    # exp_jz / exp_sz without their re-validation: QuantumState already holds
    jz = state.mj * hbar
    sz = sgn * state.mj * hbar / (2 * state.l + 1)
    p2 = exp_p2_angular(state.l, radius, C)
    p4 = p2 * p2
    scale = params.correction_scale
    ll = state.l * (state.l + 1)
    plus_factor = 1.0 + sgn / (2 * state.l + 1)
    minus_factor = 1.0 - sgn / (2 * state.l + 1)

    published = (mode is Mode.AS_PUBLISHED) and regime in (Regime.GUP, Regime.RGUP)

    terms: list[ShiftTerm] = []

    def add(label, expression, value, tags=()):
        terms.append(ShiftTerm(label=label, expression=expression,
                               value_erg=value + 0.0, tags=tuple(tags)))  # +0.0 drops -0.0

    add("jz_plus_sz", "-(e B / 2 m_e c) <Jz + Sz>", -base * (jz + sz))

    if regime in (Regime.REL, Regime.RGUP):
        add("anomalous_sz", "-(alpha' e B / 2 pi m_e c) <Sz>",
            -base * (C.alpha / math.pi) * sz)
        if published:
            add("p2_jz_minus_sz",
                "+(e B / 4 m_e^3 c^3) (mj hbar^2 / r0^2) l(l+1) (1 -+ 1/(2l+1))",
                (C.e * B / (4.0 * C.m_e**3 * C.c**3))
                * (state.mj * hbar**2 / C.r0**2) * ll * minus_factor)
        else:
            add("p2_jz_minus_sz", "+(e B / 4 m_e^3 c^3) <p^2> <Jz - Sz>",
                (C.e * B / (4.0 * C.m_e**3 * C.c**3)) * p2 * (jz - sz))

    if regime is Regime.RGUP and scale != 0.0:
        if published:
            add("rgup_jz_plus_sz",
                "scale * (e B / 2 m_e c) mj hbar (1 +- 1/(2l+1))",
                scale * base * state.mj * hbar * plus_factor)
            add("rgup_jz_minus_sz",
                "scale * (e B / 2 m_e c) mj hbar (1 -+ 1/(2l+1))",
                scale * base * state.mj * hbar * minus_factor)
            add("rgup_anomalous_sz",
                "scale * -+(alpha' e B / 2 pi m_e c) mj hbar / (2l+1)",
                -sgn * scale * base * (C.alpha / math.pi) * state.mj * hbar / (2 * state.l + 1))
            add("rgup_p2_level", "scale * ( -hbar^2 l(l+1) / m_e )",
                scale * (-(hbar**2) * ll / C.m_e), LEVEL_SHIFT_TAGS)
            add("rgup_p4_level", "scale * ( +hbar^4 (l(l+1))^2 / 2 m_e^3 c^2 r0^4 )",
                scale * (hbar**4 * ll * ll / (2.0 * C.m_e**3 * C.c**2 * C.r0**4)),
                LEVEL_SHIFT_TAGS)
        else:
            add("rgup_jz_plus_sz", "scale * (e B / 2 m_e c) <Jz + Sz>",
                scale * base * (jz + sz))
            add("rgup_jz_minus_sz", "scale * (e B / 2 m_e c) <Jz - Sz>",
                scale * base * (jz - sz))
            add("rgup_anomalous_sz", "scale * (alpha' e B / 2 pi m_e c) <Sz>",
                scale * base * (C.alpha / math.pi) * sz)
            add("rgup_p2_level", "scale * ( -<p^2> / m_e )",
                scale * (-p2 / C.m_e), LEVEL_SHIFT_TAGS)
            add("rgup_p4_level", "scale * ( +<p^4> / 2 m_e^3 c^2 )",
                scale * (p4 / (2.0 * C.m_e**3 * C.c**2)), LEVEL_SHIFT_TAGS)

    if regime is Regime.GUP:
        # nonrelativistic limit: the deformation scale becomes -eps gamma^2 <p^2>
        gscale = nonrel_limit_note().substitute_mass_shell(params.eps_gamma2, p2)
        scale = gscale
        if params.eps_gamma2 != 0.0:
            if published:
                add("gup_p4", "(eps gamma^2 / m_e) hbar^4 (l(l+1))^2 / r0^4",
                    (params.eps_gamma2 / C.m_e) * hbar**4 * ll * ll / C.r0**4,
                    LEVEL_SHIFT_TAGS)
                add("gup_cross",
                    "-(eps gamma^2 / m_e) (e B mj / c) (hbar^2 / r0^2) l(l+1) (1 +- 1/(2l+1))",
                    -(params.eps_gamma2 / C.m_e) * (C.e * B * state.mj / C.c)
                    * (hbar**2 / C.r0**2) * ll * plus_factor)
            else:
                add("gup_p4", "-eps gamma^2 <p^2> * ( -<p^2> / m_e )",
                    gscale * (-p2 / C.m_e), LEVEL_SHIFT_TAGS)
                add("gup_cross", "-eps gamma^2 <p^2> * (e B / 2 m_e c) <Jz + Sz>",
                    gscale * base * (jz + sz))

    return ShiftBreakdown(state=state, regime=regime, mode=mode,
                          correction_scale=scale, terms=tuple(terms))


def lande_g_factor(l: int, branch: Branch) -> float:
    """Textbook Lande g for s = 1/2: g = 1 +- 1/(2l+1)."""
    sgn = 1.0 if branch is Branch.PLUS else -1.0
    return 1.0 + sgn / (2 * l + 1)


def hls_shift(state: QuantumState, params: PhysicalParams) -> float:
    """Spin-orbit expectation with the deformation factor, in erg.

    (1 - eps gamma^2 (mc)^2) hbar^2 m_l m_s / (2 m_e^2 c^2) * Z e^2 <1/r^3>,
    for the Coulomb potential (<1/r^3> in closed form; the Thomas 1/2 is
    already inside).  Vanishes identically for l = 0.
    """
    if state.ml is None or state.ms is None:
        raise ValidationError("ml", "spin-orbit shift needs the (ml, ms) basis labels")
    if state.l == 0:
        return 0.0
    C = params.constants
    ls = exp_ls(state.ml, state.ms, C)
    inv_r3 = oracle.closed_form_r_expectation(state.n, state.l, params.Z, -3, C)
    factor = 1.0 - params.correction_scale
    return factor * ls / (2.0 * C.m_e**2 * C.c**2) * params.Z * C.e**2 * inv_r3


# -- line generation ----------------------------------------------------------

@dataclass(frozen=True)
class ZeemanLine:
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


def _split_magnetic(breakdown: ShiftBreakdown) -> tuple[float, float]:
    magnetic = math.fsum(t.value_erg for t in breakdown.terms
                         if "non-magnetic" not in t.tags)
    offset = math.fsum(t.value_erg for t in breakdown.terms
                       if "non-magnetic" in t.tags)
    return magnetic, offset


def zeeman_lines(upper, lower, params: PhysicalParams, regime: Regime,
                 mode: Mode = Mode.DERIVED) -> tuple[ZeemanLine, ...]:
    """All transitions passing delta l = +-1 and delta m_j in {-1, 0, +1}."""
    upper = tuple(upper)
    lower = tuple(lower)
    if not upper or not lower:
        raise ValidationError("states", "upper and lower level sets must be non-empty")

    shifts = {}
    for state in upper + lower:
        if state not in shifts:
            shifts[state] = _split_magnetic(energy_shift_B(state, params, regime, mode))

    lines = []
    for u in upper:
        for lo in lower:
            if abs(u.l - lo.l) != 1:
                continue
            delta = u.mj - lo.mj
            if abs(delta) > 1.0 + 1e-12:
                continue
            if delta == 0.0:
                pol = "pi"
            else:
                pol = "sigma+" if delta > 0 else "sigma-"
            mag_u, off_u = shifts[u]
            mag_l, off_l = shifts[lo]
            lines.append(ZeemanLine(upper=u, lower=lo, delta_mj=delta,
                                    polarization=pol,
                                    shift_erg=mag_u - mag_l,
                                    level_offset_erg=off_u - off_l))
    lines.sort(key=lambda ln: (ln.upper.mj, ln.lower.mj))
    return tuple(lines)


# -- derived vs as-published comparison ----------------------------------------

#: known coefficient defects in the quoted formulas: expected published/derived
#: ratio plus classification tags, keyed by (regime, term label)
_DISCREPANCY_CATALOGUE = {
    (Regime.RGUP, "p2_jz_minus_sz"):
        (lambda C: 1.0 / C.hbar, ("missing-hbar-power",)),
    (Regime.RGUP, "rgup_anomalous_sz"):
        (lambda C: -1.0, ("sign-of-alpha-term",)),
    (Regime.RGUP, "rgup_p2_level"):
        (lambda C: C.r0**2, ("missing-r0-power",)),
    (Regime.GUP, "gup_cross"):
        (lambda C: 2.0 / C.hbar, ("factor-2", "missing-hbar-power")),
}

_AGREE_RTOL = 1e-12
_RATIO_RTOL = 1e-9


@dataclass(frozen=True)
class TermDifference:
    regime: Regime
    label: str
    derived_erg: float
    published_erg: float
    ratio: float | None          # published / derived
    tags: tuple[str, ...]


@dataclass(frozen=True)
class DiscrepancyReport:
    state: QuantumState
    differences: tuple[TermDifference, ...]
    agreements: tuple[str, ...]  # "regime:label" for terms equal in both modes

    @property
    def uncatalogued(self) -> tuple[TermDifference, ...]:
        return tuple(d for d in self.differences if "uncatalogued" in d.tags)


def discrepancy_report(state: QuantumState, params: PhysicalParams) -> DiscrepancyReport:
    """Evaluate GUP and RGUP in both modes and classify per-term differences."""
    differences = []
    agreements = []
    for regime in (Regime.RGUP, Regime.GUP):
        derived = energy_shift_B(state, params, regime, Mode.DERIVED)
        published = energy_shift_B(state, params, regime, Mode.AS_PUBLISHED)
        for label in derived.labels():
            dval = derived.term(label).value_erg
            pval = published.term(label).value_erg
            if dval == 0.0 and pval == 0.0:
                agreements.append(f"{regime.value}:{label}")
                continue
            if dval != 0.0 and abs(pval - dval) <= _AGREE_RTOL * abs(dval):
                agreements.append(f"{regime.value}:{label}")
                continue
            ratio = pval / dval if dval != 0.0 else None
            tags = ("uncatalogued",)
            entry = _DISCREPANCY_CATALOGUE.get((regime, label))
            if entry is not None and ratio is not None:
                expected_ratio, known_tags = entry[0](params.constants), entry[1]
                if abs(ratio - expected_ratio) <= _RATIO_RTOL * abs(expected_ratio):
                    tags = known_tags
            differences.append(TermDifference(
                regime=regime, label=label, derived_erg=dval,
                published_erg=pval, ratio=ratio, tags=tags))
    return DiscrepancyReport(state=state, differences=tuple(differences),
                             agreements=tuple(agreements))
