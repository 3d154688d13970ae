"""Zeeman energy shifts per regime, spin-orbit shift, and line generation.

The first-order shift of a strong-field level (j = l +- 1/2, magnetic
number m_j) is a sum of labelled addends: the base part (all regimes), the
relativistic additions (REL and up), the deformation bracket, each addend
times eps gamma^2 (mc)^2 (RGUP), and its nonrelativistic limit, each
addend times -eps gamma^2 <p^2> (GUP).  Every addend is one entry of the
term table _TERMS below: its label, regimes, expressions, tags and known
coefficient defect.  Breakdowns, REGIME_TERM_LABELS and the discrepancy
report are all read from it.

Each form is a Python expression over the names three halves bind: the
level half (from l, the branch and the constants, shared by a level's
states), the m_j half and the params half (B, eps gamma^2, the
deformation scale and its gate).  A _Plan generates its functions from
the forms and those halves, each taking the QuantumState and PhysicalParams
records and reading their fields itself: shift gives a breakdown, and
every other part is a sweep of one field over a grid.  A part runs only
the statements its output reads.  It is compiled once, on first use, with
each field of the constants table, DEFAULT_CONSTANTS, and math.pi written
as its float, so the compiler folds what reads only them, with the bits
the part as written gives.  A sweep part evaluates per grid value only
what reads the swept field; no subexpression of that is moved out of its
loop.  One sweep part per field (B, epsilon, l, n, m_j) checks its grid's
two end rows, each running the text every row runs, then writes the CSV
rows of a sweep; multiplet, an m_j sweep, gives zeeman_lines a level's
offsets once and its magnetic values at each m_j.

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

import itertools
import math
import operator
import re
from keyword import iskeyword
from typing import NamedTuple

from .units import (_MAX_EXACT_INT, ConstantsTable, DEFAULT_CONSTANTS, GAUSS_PER_TESLA, Branch,
                    Mode, PhysicalParams, Regime, ValidationError, check_n_l, in_unit,
                    is_integer)


def _is_half_odd(value: float) -> bool:
    doubled = 2.0 * value
    return is_integer(doubled) and int(doubled) % 2 != 0


#: compared as module globals: each Branch.X is an enum-member lookup (~150 ns)
_PLUS, _MINUS = Branch.PLUS, Branch.MINUS


def _sign(branch: Branch) -> float:
    """The +- of j = l +- 1/2, which every branch-dependent quantity carries."""
    if branch is _PLUS:
        return 1.0
    if branch is _MINUS:
        return -1.0
    raise ValidationError("branch", f"must be a Branch member, got {branch!r}")


def _branch_sign(l: int, branch: Branch) -> float:
    """_sign of a branch that l has: j = l - 1/2 needs l >= 1."""
    sgn = _sign(branch)
    if sgn < 0.0 and l == 0:
        raise ValidationError("branch", "j = l - 1/2 requires l >= 1")
    return sgn


def _j(l: int, sgn: float) -> float:
    return l + 0.5 * sgn


def _check_mj(mj: float, j: float):
    """Raises ValidationError unless m_j is a half-odd integer with |m_j| <= j."""
    if not _is_half_odd(mj):
        raise ValidationError("mj", f"must be half-odd-integer, got {mj!r}")
    if abs(mj) > j + 1e-12:
        raise ValidationError("mj", f"|mj| = {abs(mj)!r} exceeds j = {j!r}")


class _StateFields(NamedTuple):
    n: int
    l: int
    branch: Branch
    mj: float
    ml: int | None
    ms: float | None


class QuantumState(_StateFields):
    """Hydrogenic level (n, l, j = l +- 1/2, m_j), optionally with the
    decoupled basis labels (m_l, m_s), m_l + m_s = m_j, for the spin-orbit
    case.  Raises ValidationError naming the offending field, from _replace
    too."""

    __slots__ = ()

    def __new__(cls, n, l, branch, mj, ml=None, ms=None):
        check_n_l(n, l)
        _check_mj(mj, _j(l, _branch_sign(l, branch)))
        if (ml is None) != (ms is None):
            raise ValidationError("ml", "ml and ms must be given together")
        if ml is not None:
            if abs(ml) > l or not is_integer(ml):
                raise ValidationError("ml", f"must be an integer with |ml| <= l, got {ml!r}")
            if ms not in (0.5, -0.5):
                raise ValidationError("ms", f"must be +-1/2, got {ms!r}")
            if ml + ms != mj:
                raise ValidationError("ml", f"ml + ms = {ml + ms!r} must equal mj = {mj!r}")
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

def _check_l(l: int):
    """Raises ValidationError unless l is an integer below 2**53, as
    check_n_l allows it."""
    if not 0 <= l < _MAX_EXACT_INT or not is_integer(l):
        raise ValidationError("l", f"must be a non-negative integer < 2**53, got {l!r}")


def exp_p2_angular(l: int) -> float:
    """Angular-only momentum-square estimate hbar^2 l(l+1) / r0^2.

    This keeps just the centrifugal part of the radial Laplacian at the
    fixed radius r0, which is the substitution the closed-form shift
    formulas use.  The honest hydrogen <p^2> differs (factor 8 for n=2,
    l=1); see oracle.p2_expectation_exact.  l is an integer below 2**53,
    as check_n_l allows it.
    """
    _check_l(l)
    return DEFAULT_CONSTANTS.hbar**2 * l * (l + 1) / DEFAULT_CONSTANTS.r0**2


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


class _Term(NamedTuple):
    """One addend of the shift.

    derived and published are Python expressions giving erg, over math, the
    constants' fields and the names _Plan binds (the state's and the params'
    fields, and the level, m_j and params halves); published is None where
    the quoted form is the derived one.  A deformation addend is gated as
    energy_shift_B describes.
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
    ratio: float | None = None
    ratio_tags: tuple[str, ...] = ()


_RGUP = (Regime.RGUP,)
_GUP = (Regime.GUP,)

#: every addend, in emission order (a regime's entries keep this order)
_TERMS = (
    _Term("jz_plus_sz", tuple(Regime),
          "-(e B / 2 m_e c) <Jz + Sz>",
          "-base * (jz + sz)"),
    _Term("anomalous_sz", (Regime.REL, Regime.RGUP),
          "-(alpha' e B / 2 pi m_e c) <Sz>",
          "-base * (alpha / math.pi) * sz"),
    _Term("p2_jz_minus_sz", (Regime.REL, Regime.RGUP),
          "+(e B / 4 m_e^3 c^3) <p^2> <Jz - Sz>",
          "(e * B / (4.0 * m_e**3 * c**3)) * p2 * (jz - sz)",
          "+(e B / 4 m_e^3 c^3) (mj hbar^2 / r0^2) l(l+1) (1 -+ 1/(2l+1))",
          "(e * B / (4.0 * m_e**3 * c**3))"
          " * (mj * hbar**2 / r0**2) * ll * minus",
          ratio=1.0 / DEFAULT_CONSTANTS.hbar, ratio_tags=("missing-hbar-power",)),
    _Term("rgup_jz_plus_sz", _RGUP,
          "scale * (e B / 2 m_e c) <Jz + Sz>",
          "scale * base * (jz + sz)",
          "scale * (e B / 2 m_e c) mj hbar (1 +- 1/(2l+1))",
          "scale * base * mj * hbar * plus",
          deformation=True),
    _Term("rgup_jz_minus_sz", _RGUP,
          "scale * (e B / 2 m_e c) <Jz - Sz>",
          "scale * base * (jz - sz)",
          "scale * (e B / 2 m_e c) mj hbar (1 -+ 1/(2l+1))",
          "scale * base * mj * hbar * minus",
          deformation=True),
    _Term("rgup_anomalous_sz", _RGUP,
          "scale * (alpha' e B / 2 pi m_e c) <Sz>",
          "scale * base * (alpha / math.pi) * sz",
          "scale * -+(alpha' e B / 2 pi m_e c) mj hbar / (2l+1)",
          "-sgn * scale * base * (alpha / math.pi) * mj * hbar / (2 * l + 1)",
          deformation=True, ratio=-1.0, ratio_tags=("sign-of-alpha-term",)),
    _Term("rgup_p2_level", _RGUP,
          "scale * ( -<p^2> / m_e )",
          "scale * (-p2 / m_e)",
          "scale * ( -hbar^2 l(l+1) / m_e )",
          "scale * (-(hbar**2) * ll / m_e)",
          LEVEL_SHIFT_TAGS, deformation=True,
          ratio=DEFAULT_CONSTANTS.r0**2, ratio_tags=("missing-r0-power",)),
    _Term("rgup_p4_level", _RGUP,
          "scale * ( +<p^4> / 2 m_e^3 c^2 )",
          "scale * (p4 / (2.0 * m_e**3 * c**2))",
          "scale * ( +hbar^4 (l(l+1))^2 / 2 m_e^3 c^2 r0^4 )",
          "scale * (hbar**4 * ll * ll / (2.0 * m_e**3 * c**2 * r0**4))",
          LEVEL_SHIFT_TAGS, deformation=True),
    _Term("gup_p4", _GUP,
          "-eps gamma^2 <p^2> * ( -<p^2> / m_e )",
          "scale * (-p2 / m_e)",
          "(eps gamma^2 / m_e) hbar^4 (l(l+1))^2 / r0^4",
          "(eps_gamma2 / m_e) * hbar**4 * ll * ll / r0**4",
          LEVEL_SHIFT_TAGS, deformation=True),
    _Term("gup_cross", _GUP,
          "-eps gamma^2 <p^2> * (e B / 2 m_e c) <Jz + Sz>",
          "scale * base * (jz + sz)",
          "-(eps gamma^2 / m_e) (e B mj / c) (hbar^2 / r0^2) l(l+1) (1 +- 1/(2l+1))",
          "-(eps_gamma2 / m_e) * (e * B * mj / c)"
          " * (hbar**2 / r0**2) * ll * plus",
          deformation=True, ratio=2.0 / DEFAULT_CONSTANTS.hbar,
          ratio_tags=("factor-2", "missing-hbar-power")),
)


# -- what the forms read ----------------------------------------------------------

#: The names a form reads beyond the fields of QuantumState, PhysicalParams
#: and ConstantsTable, each with the statement that binds it, in evaluation
#: order.  The level half depends on l, the branch and the constants only,
#: so every state of a level shares it: p2 is the angular-only <p^2> of
#: exp_p2_angular at r0, and p4 = <p^2>^2.  The m_j half gives <Jz> and
#: <Sz>.  The params half gives the deformation scale, eps gamma^2 (mc)^2
#: as in shift's record and PhysicalParams.correction_scale, and deformed,
#: which gates the deformation addends (RGUP: scale != 0).
_LEVEL_HALF = (
    ("sgn", "sgn = 1.0 if branch is PLUS else -1.0"),
    ("ll", "ll = l * (l + 1)"),
    ("fraction", "fraction = sgn / (2 * l + 1)"),
    ("plus", "plus = 1.0 + fraction"),
    ("minus", "minus = 1.0 - fraction"),
    ("p2", "p2 = hbar**2 * l * (l + 1) / r0**2"),
    ("p4", "p4 = p2 * p2"),
)
_MJ_HALF = (
    ("jz", "jz = mj * hbar"),
    ("sz", "sz = sgn * mj * hbar / (2 * l + 1)"),
)
_PARAMS_HALF = (
    ("base", "base = e * B / (2.0 * m_e * c)"),
    ("eps_gamma2", "eps_gamma2 = epsilon * gamma * gamma"),
    # PhysicalParams.correction_scale's statements, so scale is the record's q;
    # an epsilon sweep forms gmc once, and 8q <= 1 keeps gmc * gmc finite
    ("gmc", "gmc = gamma * (m * c)"),
    ("scale", "scale = epsilon * (gmc * gmc)"),
    ("deformed", "deformed = scale != 0.0"),
)
#: GUP's params half: in the nonrelativistic limit p0.p0 -> -hbar^2 grad^2
#: as c -> infinity, so the (mc)^2 of the scale becomes -<p^2>, and the
#: deformation is on while eps gamma^2 != 0
_GUP_PARAMS_HALF = (
    *_PARAMS_HALF[:2],
    # + 0.0 normalizes -0.0 away; the params' rules keep eps gamma^2 finite,
    # and |<p^2>| <= 3.3e-6 for every l < 2**53, so the scale stays finite
    ("scale", "scale = -eps_gamma2 * p2 + 0.0"),
    ("deformed", "deformed = eps_gamma2 != 0.0"),
)

#: the field each swept part rebinds per grid value, and the value it binds:
#: B from tesla, as the CLI converts it, and l and n as the ints a state holds
_SWEPT = {"sweep_B": ("B", "value * GAUSS_PER_TESLA"), "sweep_epsilon": ("epsilon", "value"),
          "sweep_l": ("l", "int(value)"), "sweep_n": ("n", "int(value)"),
          "sweep_mj": ("mj", "value"), "multiplet": ("mj", "value")}
#: every part: the def, every field of the records and what reads no swept field
_HEAD = ("def {part}(state, params, {arguments}):\n    n, l, branch, mj, ml, ms = state\n"
         "    B, epsilon, gamma, m, Z = params\n{before}")
#: the source of each part a plan compiles (see _Plan), with _Plan._fields to
#: fill in: shift checks its values' sum and gives their records; a swept
#: part evaluates per grid value what reads the swept field, and emits it
_PARTS = {
    "shift": _HEAD + "{check}{terms}"
                     "    return new(ShiftBreakdown, (state, REGIME, mode, scale, {records}))\n",
    **dict.fromkeys(_SWEPT, _HEAD + "{ends}    for value in grid:\n{loop}{emit}{after}"),
}
#: what _Plan._assign writes per addend i: its value, and its ShiftTerm record
_VALUE = "v{i} = ({form}) + 0.0"
_RECORD = "t{i} = new(ShiftTerm, ({term[0]!r}, {term[1]!r}, v{i}, {term[2]!r}))"
#: the fsum of some values, or nan for a sum outside double precision
_SUM = """\
    try:
        {total} = fsum({values})
    except (OverflowError, ValueError):  # overflow, or inf - inf
        {total} = nan
"""
_CHECK = "    values = {values}\n" + _SUM.format(total="total", values="values") + """\
    if not isfinite(total):
        name_failure({labels}, values, total)
"""
_IDENTIFIER = re.compile(r"\b(?!\d)\w+")


def _words(source: str) -> list[str]:
    """The names in some Python source: its identifiers but its keywords.
    A statement or form holds no comment, whose words would read as names."""
    return [word for word in _IDENTIFIER.findall(source) if not iskeyword(word)]


#: what a part writes for each field of DEFAULT_CONSTANTS and for math.pi:
#: the float's repr, which reads back as the same float
_LITERALS = {**{name: repr(value) for name, value in DEFAULT_CONSTANTS._asdict().items()},
             "math.pi": repr(math.pi)}
_LITERAL = r"\b(?:math\.pi|" + "|".join(ConstantsTable._fields) + r")\b"


def _folded(source: str) -> str:
    """A statement or form with each table field and math.pi written as its
    float, so the compiler folds every operation on these alone."""
    return re.sub(_LITERAL, lambda name: _LITERALS[name[0]], source)


def _deeper(source: str) -> str:
    """Statements, each line one level deeper."""
    return "".join("    " + line for line in source.splitlines(True))


def _code(half, keep, indent="    ") -> str:
    """The statements of a half whose names are kept, each folded, indented."""
    return "".join(indent + _folded(statement) + "\n" for name, statement in half if name in keep)


class _Plan:
    """The terms of one regime and mode, and the functions compiled from them.

    terms holds (label, expression, tags) per term, in emission order, and
    forms the Python expression of each.  The plan generates its functions
    from the forms and the halves that bind what they read, so each reads
    the QuantumState and PhysicalParams fields itself.  A function keeps
    only the statements its output reads: its forms, the gate "deformed" if
    the plan has a gated addend, and the scale of shift's record.  Each
    function is an attribute compiled on first use, so a cold start
    compiles only what it runs:

    - shift(state, params, mode): the ShiftBreakdown energy_shift_B returns;
    - sweep_B, sweep_epsilon, sweep_l, sweep_n and sweep_mj(state, params,
      grid, per, unit, header, write): a sweep of that field over the grid
      (B in tesla; the records give every other field).  It runs the rows of
      the grid's two ends first (one row, when no row reads the grid value),
      with ValidationError("unit") for a value times per (from erg into
      unit) outside double precision, then writes the header and
      "value,regime,cells,total\n" per grid value, each value times per and
      "0.0" for an addend gated off;
    - multiplet(state, params, grid, out): the m_j sweep of zeeman_lines.  It
      calls out with the values that read m_j at each m_j of the grid, and
      returns the others, the "non-magnetic" ones.

    One generator, _fields, writes every part: shift is the part that
    sweeps no field.  Each part is compiled once: its forms and statements
    write each field of DEFAULT_CONSTANTS and math.pi as its float, so the
    compiler folds every operation on these alone into a constant, with the
    bits the operation gives at run time.  Each grid value of a sweep part
    evaluates what reads the swept field, directly or through another
    statement (a gated addend also when the gate does); the two checked end
    rows run that same text.  Such a statement or form runs whole per grid
    value: its subexpressions that read no swept field are not moved out of
    the loop.
    A row's nonzero total that equals a float whose text the part already
    holds takes that text: the first cell's, or where every ungated addend
    is fixed, the text of their sum; a zero total is always formatted, since
    -0.0 == 0.0.

    Each value is its form + 0.0 (which drops -0.0), and the deformation
    addends are gated as energy_shift_B describes.  No part checks its
    scale: the params' rules, 8q <= 1 and then a finite eps gamma^2, keep
    every regime's scale finite.  Every part but multiplet, after a sum of
    the values that is not finite, names the first term outside double
    precision, else the total.
    """

    def __init__(self, regime: Regime, published: bool):
        rows = [(t, published and t.published is not None) for t in _TERMS if regime in t.regimes]
        self.name = f"{regime.value} {'as-published' if published else 'derived'}"
        self.regime = regime
        self.terms = tuple((t.label, t.published_expression if q else t.expression, t.tags)
                           for t, q in rows)
        self.forms = tuple(t.published if q else t.derived for t, q in rows)
        self.deformation = tuple(t.deformation for t, _ in rows)

    def __getattr__(self, part: str):
        # only a part not compiled yet gets here: compile it and keep it
        if part not in _PARTS:
            raise AttributeError(part)
        namespace = {"math": math, "nan": math.nan, "fsum": math.fsum,
                     "isfinite": math.isfinite, "PLUS": _PLUS, "REGIME": self.regime,
                     "new": tuple.__new__, "ShiftTerm": ShiftTerm,
                     "ShiftBreakdown": ShiftBreakdown, "name_failure": _name_failure,
                     "GAUSS_PER_TESLA": GAUSS_PER_TESLA, "in_unit": in_unit}
        source = _PARTS[part].format(part=part, **self._fields(part))
        exec(compile(source, f"<{self.name} {part}>", "exec"), namespace)
        setattr(self, part, namespace[part])
        return namespace[part]

    def _assign(self, template: str, addends, indent: str = "    ") -> str:
        """The template for each addend index, formatted with its index i,
        folded form and term, the deformation addends' under "if deformed:",
        after the others."""
        code = ["", ""]
        for i in addends:
            line = template.format(i=i, form=_folded(self.forms[i]), term=self.terms[i])
            code[self.deformation[i]] += indent + "    " * self.deformation[i] + line + "\n"
        return code[0] + (code[1] and f"{indent}if deformed:\n{code[1]}")

    def _gather(self, addends, item: str = "v{i}") -> str:
        """The tuple of the addends given, without those gated off, each
        written as item formatted with its index i and term."""
        on = "".join(item.format(i=i, term=self.terms[i]) + ", " for i in addends)
        off = "".join(item.format(i=i, term=self.terms[i]) + ", "
                      for i in addends if not self.deformation[i])
        return f"({on})" if on == off else f"({on}) if deformed else ({off})"

    def _fields(self, part: str) -> dict:
        """The text _PARTS takes for a part: shift, or a sweep of the field
        _SWEPT gives it, bound per grid value as _SWEPT gives it."""
        swept, binding = _SWEPT.get(part, ("", ""))
        every = range(len(self.forms))
        statements = (*_LEVEL_HALF, *_MJ_HALF,
                      *(_GUP_PARAMS_HALF if self.regime is Regime.GUP else _PARAMS_HALF))
        # the output reads the forms, the gate of a gated addend and shift's
        # scale; a statement reads only names bound before it, so one
        # backward pass finds every statement needed
        needed = set(_words(" ".join(self.forms)))
        if any(self.deformation):
            needed.add("deformed")
        if not swept:
            needed.add("scale")
        for name, statement in reversed(statements):
            if name in needed:
                needed.update(_words(statement))
        # one forward pass marks what reads the swept field, directly or
        # through a statement marked before
        marked = {swept} if swept else set()
        for name, statement in statements:
            if name in needed and marked.intersection(_words(statement)):
                marked.add(name)
        moving = [i for i in every if self.deformation[i] and "deformed" in marked
                  or marked.intersection(_words(self.forms[i]))]
        fixed = [i for i in every if i not in moving]
        before = _code(statements, needed - marked) + self._assign(_VALUE, fixed)
        check = _CHECK.format(values=self._gather(every), labels=self._gather(every, "{term[0]!r}"))
        # every row, the two checked end rows too, runs this per grid value
        loop = ((f"        {swept} = {binding}\n" if swept in needed else "")
                + _code(statements, needed & marked, "        ")
                + self._assign(_VALUE, moving, "        "))
        if not swept:  # shift
            return dict(arguments="mode", before=before, check=check,
                        terms=self._assign(_RECORD, every), records=self._gather(every, "t{i}"))
        if part == "multiplet":
            return dict(arguments="grid, out", before=before, ends="", loop=loop,
                        emit=f"        out({self._gather(moving)})\n",
                        after=f"    return {self._gather(fixed)}\n")
        # c<i> holds the text of a cell that reads no swept value
        cells, fixed_cells, row = [self.regime.value], "", ""
        for i, gated in enumerate(self.deformation):
            text = f"repr(v{i} * per)" + (" if deformed else '0.0'" if gated else "")
            if i in moving:
                cells.append(f"{{{text}}}" if gated else f"{{v{i} * per!r}}")
            else:
                fixed_cells += f"    c{i} = {text}\n"
                cells.append(f"{{c{i}}}")
        # each end row runs a row and its checks, then the display unit's;
        # every row between two valid ends is valid (see cli.cmd_sweep).  A
        # part whose rows read no grid value runs the checks once
        ends = check + "    in_unit((*values, total), per, unit)\n"
        if loop:
            ends = f"    for value in grid[0], grid[-1]:\n{loop}{_deeper(ends)}"
        check = _deeper(check)
        if moving:
            loop += check
            # a nonzero total equal to a float whose text the part holds takes
            # that text (a zero is formatted: -0.0 == 0.0): that of the ungated
            # addends' sum where none of them moves, else the first cell's
            ungated = [i for i in every if not self.deformation[i]]
            if not set(ungated).intersection(moving):
                # a nan sum equals no total
                fixed_cells += (_SUM.format(total="tf", values=self._gather(ungated))
                                + "    cf = repr(tf * per)\n")
                same = "cf if total == tf and total"
            else:
                if 0 in moving:
                    row = "        c0 = repr(v0 * per)\n"
                    cells[1] = "{c0}"
                same = "c0 if total == v0 and total"
            cells.append(f"{{{same} else repr(total * per)}}")
        else:
            fixed_cells += "    ct = repr(total * per)\n"
            cells.append("{ct}")
        return dict(arguments="grid, per, unit, header, write", before=before,
                    ends=ends + fixed_cells + "    write(header)\n", loop=loop,
                    emit=row + f'        write(f"{{value!r}},{",".join(cells)}\\n")\n', after="")


def _plan_pair(regime: Regime) -> tuple[_Plan, _Plan]:
    derived = _Plan(regime, False)
    # (derived, as-published): LANDE and REL ignore the mode, so one plan fills both
    return derived, _Plan(regime, True) if regime in (Regime.GUP, Regime.RGUP) else derived


#: by regime value: a dict keyed by the Regime itself would call the
#: Python-level Enum.__hash__ on every lookup
_PLANS = {regime.value: _plan_pair(regime) for regime in Regime}
_TERM_BY_LABEL = {t.label: t for t in _TERMS}

#: per-regime term labels, in emission order (stable CSV schema)
REGIME_TERM_LABELS: dict[Regime, tuple[str, ...]] = {
    regime: tuple(label for label, _, _ in _PLANS[regime.value][0].terms) for regime in Regime}


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


#: compared as module globals: each Mode.X is an enum-member lookup (~150 ns)
_DERIVED, _AS_PUBLISHED = Mode.DERIVED, Mode.AS_PUBLISHED


def _plan_of(regime: Regime, mode: Mode) -> _Plan:
    if not isinstance(regime, Regime):
        raise ValidationError("regime", f"unknown regime {regime!r}")
    if mode is _DERIVED:
        return _PLANS[regime._value_][0]
    if mode is _AS_PUBLISHED:
        return _PLANS[regime._value_][1]
    raise ValidationError("mode", f"unknown mode {mode!r}")


def _check_records(states, params) -> None:
    """Raises ValidationError unless each state is a QuantumState and params
    a PhysicalParams: only the records' constructors apply their rules, so
    no plain tuple stands in for one."""
    for state in states:
        if not isinstance(state, QuantumState):
            raise ValidationError("state", f"must be a QuantumState, not {type(state).__name__}")
    if not isinstance(params, PhysicalParams):
        raise ValidationError("params", f"must be a PhysicalParams, not {type(params).__name__}")


def _name_failure(labels: tuple[str, ...], values: tuple[float, ...], total: float):
    """Raises for a sum of the values that is not finite, naming the first
    term outside double precision, else the total."""
    for label, value in zip(labels, values):
        _finite(value, label)
    _finite(total, "total")


def energy_shift_B(state: QuantumState, params: PhysicalParams, regime: Regime,
                   mode: Mode = Mode.DERIVED) -> ShiftBreakdown:
    """First-order Zeeman shift breakdown for one state.

    Deformation addends are emitted only while the regime's deformation is
    on (RGUP: eps gamma^2 (mc)^2 != 0; GUP: eps gamma^2 != 0), so a
    gamma = 0 RGUP breakdown is term-for-term the REL one and a gamma = 0
    GUP breakdown is the LANDE one.  Raises ValidationError for a state or
    params that is not its record, and when a term or the total is not
    finite in double precision.
    """
    if not (isinstance(state, QuantumState) and isinstance(params, PhysicalParams)):
        _check_records((state,), params)  # raises, naming the one that is not
    return _plan_of(regime, mode).shift(state, params, mode)


def lande_g_factor(l: int, branch: Branch) -> float:
    """Textbook Lande g for s = 1/2: g = 1 +- 1/(2l+1), for an integer l
    below 2**53, as check_n_l allows it, and a branch that l has."""
    _check_l(l)
    return 1.0 + _branch_sign(l, branch) / (2 * l + 1)


def hls_shift(state: QuantumState, params: PhysicalParams) -> float:
    """Spin-orbit expectation with the deformation factor, in erg.

    (1 - eps gamma^2 (mc)^2) hbar^2 m_l m_s / (2 m_e^2 c^2) * Z e^2 <1/r^3>,
    for the Coulomb potential (<1/r^3> in closed form; the Thomas 1/2 is
    already inside).  Vanishes identically for l = 0.  Finite for every
    valid state and params: the params' first rule bounds the scale by 1/8.
    Raises ValidationError for a state or params that is not its record.
    """
    _check_records((state,), params)
    if state.ml is None:
        raise ValidationError("ml", "spin-orbit shift needs the (ml, ms) basis labels")
    if state.l == 0:
        return 0.0
    from . import oracle  # here, not at the top: no other spectrum function reads it
    C = DEFAULT_CONSTANTS
    ls = C.hbar**2 * state.ml * state.ms  # <L.S> in the decoupled basis: ladder terms average out
    inv_r3 = oracle.closed_form_r_expectation(state.n, state.l, params.Z, -3)
    factor = 1.0 - params.correction_scale
    return factor * ls / (2.0 * C.m_e**2 * C.c**2) * params.Z * C.e**2 * inv_r3


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


#: what a state's level half reads of it
_level_key = operator.attrgetter("l", "branch")
#: (delta m_j, polarization) of the lines from an upper m_j to the lower
#: m_j - 1, m_j and m_j + 1, in that order
_TRANSITIONS = ((1.0, "sigma+"), (0.0, "pi"), (-1.0, "sigma-"))
#: the order of the lines; the sort is stable, so equal keys keep the scan's
#: order: upper input order, then lower input order
_LINE_ORDER = operator.attrgetter("upper.mj", "lower.mj")


def _runs(states, plan: _Plan, params: PhysicalParams, mode: Mode):
    """Yields (l, states, m_j, magnetic sums, offset sum) of each run of
    states of one level, in input order.  A failing state raises as its
    shift does."""
    # only l, the branch and the constants enter the level half, and the
    # offset terms read no m_j, so each run of states in one level is one call
    for (l, _), run in itertools.groupby(states, _level_key):
        run, magnetic = tuple(run), []
        grid = [state.mj for state in run]
        offsets = plan.multiplet(run[0], params, grid, magnetic.append)
        try:
            offset = math.fsum(offsets)
            shifts = list(map(math.fsum, magnetic))
        except (OverflowError, ValueError):  # overflow, or inf - inf
            shifts = None
        # a state's total is finite only where its two sums are too
        if shifts is None or not all(map(math.isfinite, map(offset.__add__, shifts))):
            for state, values in zip(run, magnetic):
                # a failure is named as the state's shift names it: the term or
                # the total first, then the shift, then the level's offset sum
                try:
                    _finite(_finite_sum(values, "shift") + _finite_sum(offsets, "level_offset"),
                            "total")
                except ValidationError:
                    # names the term or the total that left, if one did
                    plan.shift(state, params, mode)
                    raise
        yield l, run, grid, shifts, offset


def zeeman_lines(upper, lower, params: PhysicalParams, regime: Regime,
                 mode: Mode = Mode.DERIVED) -> tuple[ZeemanLine, ...]:
    """All transitions passing delta l = +-1 and delta m_j in {-1, 0, +1},
    ordered by upper m_j, then lower m_j, with ties in upper, then lower
    input order.

    Raises ValidationError for a state or params that is not its record,
    and when a line shift or offset is not finite in double precision: the
    failing line named is the first in input scan order (upper input order,
    then delta m_j = +1, 0, -1, then lower input order).
    """
    upper = tuple(upper)
    lower = tuple(lower)
    if not upper or not lower:
        raise ValidationError("states", "upper and lower level sets must be non-empty")
    _check_records(upper + lower, params)

    plan = _plan_of(regime, mode)
    # every state is checked, upper first, before any line is
    uppers = list(_runs(upper, plan, params, mode))
    # m_j is a half-odd integer below 2**52, so m_j and m_j +- 1 are exact keys
    lower_by_mj = {}
    for l, run, grid, shifts, offset in _runs(lower, plan, params, mode):
        for mj, entry in zip(grid, zip(run, itertools.repeat(l), shifts, itertools.repeat(offset))):
            lower_by_mj.setdefault(mj, []).append(entry)

    isfinite, lines = math.isfinite, []
    append = lines.append
    for l, run, grid, shifts, offset in uppers:
        for u, mj, mag in zip(run, grid, shifts):
            for delta, pol in _TRANSITIONS:
                for lo, l_lo, mag_lo, offset_lo in lower_by_mj.get(mj - delta, ()):
                    if abs(l - l_lo) == 1:
                        shift, level_offset = mag - mag_lo, offset - offset_lo
                        if not (isfinite(shift) and isfinite(level_offset)):
                            raise ValidationError("shift", f"line mj {mj!r} -> {lo.mj!r} "
                                                           "is outside double precision")
                        append(_new(ZeemanLine, (u, lo, delta, pol, shift, level_offset)))
    mjs = [u.mj for u in upper]
    if not all(map(operator.lt, mjs, mjs[1:])):  # else the scan gave the lines in order
        lines.sort(key=_LINE_ORDER)
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
    ratio takes the term's class tags; any other is "uncatalogued".  Raises
    ValidationError as energy_shift_B does.
    """
    differences = []
    agreements = []
    for regime in (Regime.RGUP, Regime.GUP):
        derived = energy_shift_B(state, params, regime).terms
        published = energy_shift_B(state, params, regime, _AS_PUBLISHED).terms
        # the two modes gate off the same deformation addends
        for d, p in zip(derived, published):
            label, dval, pval = d.label, d.value_erg, p.value_erg
            if (dval == 0.0 and pval == 0.0) or \
                    (dval != 0.0 and abs(pval - dval) <= _AGREE_RTOL * abs(dval)):
                agreements.append(f"{regime.value}:{label}")
                continue
            ratio = pval / dval if dval != 0.0 else None
            tags = ("uncatalogued",)
            term = _TERM_BY_LABEL[label]
            if term.ratio is not None and ratio is not None:
                if abs(ratio - term.ratio) <= _RATIO_RTOL * abs(term.ratio):
                    tags = term.ratio_tags
            differences.append(TermDifference(
                regime=regime, label=label, derived_erg=dval,
                published_erg=pval, ratio=ratio, tags=tags))
    return DiscrepancyReport(state=state, differences=tuple(differences),
                             agreements=tuple(agreements))
