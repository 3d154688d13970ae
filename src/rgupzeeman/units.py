"""Physical constants, Gaussian-CGS unit bookkeeping, and parameter records.

Everything downstream works in Gaussian-CGS (statcoulomb, gram, centimeter,
second, gauss, erg) because the shift formulas carry Gaussian factors such
as e/(2 m_e c).  SI shows up only at entry points: tesla is converted to
gauss, and energies can be displayed in eV, wavenumbers, or hertz.

The elementary charge is stored as a positive magnitude; every sign is
written explicitly in the formulas that consume it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

GAUSS_PER_TESLA = 1.0e4

# CODATA 2018, converted to Gaussian-CGS.
_E_STATC = 4.803204712570263e-10       # 1.602176634e-19 C * c_cgs / 10
_M_E_G = 9.1093837015e-28
_C_CM_S = 2.99792458e10
_HBAR_ERG_S = 1.054571817e-27
_ALPHA = 7.2973525693e-3
_R0_CM = 5.29177210903e-9
_M_PLANCK_G = 2.176434e-5

ERG_PER_EV = 1.602176634e-12
_PLANCK_H = 6.62607015e-27             # erg s
_ERG_PER_INV_CM = _PLANCK_H * _C_CM_S  # h c
_ERG_PER_HZ = _PLANCK_H

_ENERGY_UNIT_TO_ERG = {
    "erg": 1.0,
    "eV": ERG_PER_EV,
    "cm-1": _ERG_PER_INV_CM,
    "Hz": _ERG_PER_HZ,
}

ENERGY_UNITS = tuple(_ENERGY_UNIT_TO_ERG)


class ValidationError(ValueError):
    """A physical parameter or quantum number failed a domain check."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ConstantsTable(NamedTuple):
    """Fundamental constants in Gaussian-CGS units."""

    e: float          # elementary charge magnitude (statC)
    m_e: float        # electron mass (g)
    c: float          # speed of light (cm/s)
    hbar: float       # reduced Planck constant (erg s)
    alpha: float      # fine-structure constant (dimensionless)
    r0: float         # Bohr radius (cm)
    m_planck: float   # Planck mass (g)

    @property
    def mu_bohr(self) -> float:
        """Bohr magneton e*hbar/(2 m_e c) in erg/G (computed, never stored)."""
        return self.e * self.hbar / (2.0 * self.m_e * self.c)

    @property
    def gamma_planck(self) -> float:
        """Inverse Planck momentum 1/(M_Pl c) in s/(g cm)."""
        return 1.0 / (self.m_planck * self.c)

    def validate(self) -> None:
        for name, value in zip(self._fields, self):
            if value <= 0.0:
                raise ValidationError(name, "must be positive")
        alpha = self.e**2 / (self.hbar * self.c)
        if abs(alpha - self.alpha) > 1e-6 * self.alpha:
            raise ValidationError("alpha", "inconsistent with e^2/(hbar c)")
        r0 = self.hbar**2 / (self.m_e * self.e**2)
        if abs(r0 - self.r0) > 1e-6 * self.r0:
            raise ValidationError("r0", "inconsistent with hbar^2/(m_e e^2)")


def load_constants(source: str = "builtin-codata") -> ConstantsTable:
    """Return the validated built-in constants table."""
    if source != "builtin-codata":
        raise ValidationError("source", f"unknown constants source {source!r}")
    table = ConstantsTable(_E_STATC, _M_E_G, _C_CM_S, _HBAR_ERG_S, _ALPHA, _R0_CM,
                           _M_PLANCK_G)
    table.validate()
    return table


DEFAULT_CONSTANTS = load_constants()


#: the unit of each ConstantsTable field, in field order
_CONSTANT_UNITS = ("statC", "g", "cm/s", "erg*s", "1", "cm", "g")


def _constant_rows(t: ConstantsTable) -> list[tuple[str, float, str]]:
    """(name, value, unit) of each listed constant, in listing order."""
    return [*zip(t._fields, t, _CONSTANT_UNITS), ("mu_bohr", t.mu_bohr, "erg/G")]


def constants_dump(table: ConstantsTable | None = None) -> str:
    """Flat text listing (name, value, unit), one constant per line."""
    rows = _constant_rows(table if table is not None else DEFAULT_CONSTANTS)
    return "\n".join(f"{name} {value!r} {unit}" for name, value, unit in rows)


def is_integer(value) -> bool:
    """True when value is a whole number; False, not an error, for inf and nan."""
    try:
        return int(value) == value
    except (OverflowError, ValueError):
        return False


#: the largest n, l and Z accepted: every integer up to it converts to a
#: double exactly, and the shift and oracle arithmetic on them stays finite
_MAX_EXACT_INT = 2**53


def check_Z(Z) -> None:
    if not 1 <= Z <= _MAX_EXACT_INT or not is_integer(Z):
        raise ValidationError("Z", "nuclear charge must be a positive integer "
                                   f"<= 2**53, got {Z!r}")


def check_n_l(n, l) -> None:
    """The hydrogenic quantum-number rules: integers 1 <= n <= 2**53 and 0 <= l < n."""
    if not 1 <= n <= _MAX_EXACT_INT or not is_integer(n):
        raise ValidationError("n", f"must be a positive integer <= 2**53, got {n!r}")
    if l < 0 or l >= n or not is_integer(l):
        raise ValidationError("l", f"must satisfy 0 <= l < n, got {l!r}")


class _ParamsFields(NamedTuple):
    B: float
    epsilon: float
    gamma: float
    m: float
    Z: int
    constants: ConstantsTable


class PhysicalParams(_ParamsFields):
    """Immutable bundle of field strength and deformation parameters.

    B is the magnetostatic field magnitude in gauss.  epsilon is the
    dimensionless deformation strength, gamma the inverse-momentum
    deformation scale in s/(g cm), m the mass entering (m c)^2 factors
    (defaults to the electron mass; kept separate for exploratory sweeps),
    Z the nuclear charge, stored as an int.  Raises ValidationError naming
    the offending field, from _replace too.
    """

    __slots__ = ()

    def __new__(cls, B, epsilon, gamma, m, Z, constants):
        if B < 0.0 or not math.isfinite(B):
            raise ValidationError("B", f"field magnitude must be >= 0, got {B!r}")
        if epsilon < 0.0 or not math.isfinite(epsilon):
            raise ValidationError("epsilon", f"must be >= 0, got {epsilon!r}")
        if m <= 0.0 or not math.isfinite(m):
            raise ValidationError("m", f"mass must be > 0, got {m!r}")
        check_Z(Z)
        if gamma < 0.0 or not math.isfinite(gamma):
            raise ValidationError("gamma", f"must be >= 0, got {gamma!r}")
        return tuple.__new__(cls, (B, epsilon, gamma, m, int(Z), constants))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def eps_gamma2(self) -> float:
        """The product epsilon * gamma^2 (inverse momentum squared)."""
        return self.epsilon * self.gamma * self.gamma

    @property
    def correction_scale(self) -> float:
        """Dimensionless deformation scale epsilon * gamma^2 * (m c)^2.

        Not finite when (gamma m c)^2 overflows double precision.
        """
        mc = self.m * self.constants.c
        try:
            return self.epsilon * (self.gamma * mc) ** 2
        except OverflowError:  # float ** raises where float * gives inf
            return self.epsilon * math.inf


def make_params(
    B: float = 0.0,
    epsilon: float = 1.0,
    gamma_mode: str = "planck",
    gamma: float | None = None,
    m: float | None = None,
    Z: int = 1,
    constants: ConstantsTable | None = None,
) -> PhysicalParams:
    """Build a validated PhysicalParams record.

    gamma_mode "planck" resolves gamma to 1/(M_Pl c) from the table;
    "explicit" takes the gamma argument verbatim (gamma=0 switches the
    deformation off); m defaults to the table's electron mass.  Raises
    ValidationError naming the offending field.
    """
    table = constants if constants is not None else DEFAULT_CONSTANTS
    if gamma_mode == "planck":
        if gamma is not None:
            raise ValidationError("gamma", "explicit value supplied with gamma_mode='planck'")
        gamma = table.gamma_planck
    elif gamma_mode == "explicit":
        if gamma is None:
            raise ValidationError("gamma", "gamma_mode='explicit' requires a value")
    else:
        raise ValidationError("gamma_mode", f"unknown mode {gamma_mode!r}")
    return PhysicalParams(B=B, epsilon=epsilon, gamma=gamma,
                          m=table.m_e if m is None else m, Z=Z, constants=table)


def convert_energy(value: float, from_unit: str, to_unit: str) -> float:
    """Convert an energy between erg, eV, cm-1 (spectroscopic), and Hz."""
    try:
        scale_from = _ENERGY_UNIT_TO_ERG[from_unit]
    except KeyError:
        raise ValidationError("unit", f"unknown energy unit {from_unit!r}") from None
    try:
        scale_to = _ENERGY_UNIT_TO_ERG[to_unit]
    except KeyError:
        raise ValidationError("unit", f"unknown energy unit {to_unit!r}") from None
    return value * (scale_from / scale_to)
