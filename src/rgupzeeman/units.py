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
            if not 0.0 < value < math.inf:  # False for nan too
                raise ValidationError(name, f"must be finite and > 0, got {value!r}")
        alpha = self.e**2 / (self.hbar * self.c)
        if abs(alpha - self.alpha) > 1e-6 * self.alpha:
            raise ValidationError("alpha", "inconsistent with e^2/(hbar c)")
        r0 = self.hbar**2 / (self.m_e * self.e**2)
        if abs(r0 - self.r0) > 1e-6 * self.r0:
            raise ValidationError("r0", "inconsistent with hbar^2/(m_e e^2)")


def load_constants() -> ConstantsTable:
    """Return the validated built-in CODATA 2018 constants table."""
    table = ConstantsTable(_E_STATC, _M_E_G, _C_CM_S, _HBAR_ERG_S, _ALPHA, _R0_CM,
                           _M_PLANCK_G)
    table.validate()
    return table


#: the one constants table: every shift, record and listing reads it
DEFAULT_CONSTANTS = load_constants()


#: the unit of each ConstantsTable field, in field order
_CONSTANT_UNITS = ("statC", "g", "cm/s", "erg*s", "1", "cm", "g")


def _constant_rows() -> list[tuple[str, float, str]]:
    """(name, value, unit) of each listed constant, in listing order."""
    t = DEFAULT_CONSTANTS
    return [*zip(t._fields, t, _CONSTANT_UNITS), ("mu_bohr", t.mu_bohr, "erg/G")]


def constants_dump() -> str:
    """Flat text listing (name, value, unit), one constant per line."""
    return "\n".join(f"{name} {value!r} {unit}" for name, value, unit in _constant_rows())


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


def has_real_root(q: float) -> bool:
    """Whether the mass shell at q = eps gamma^2 (mc)^2 has a real root: 8q <= 1."""
    return 8.0 * q <= 1.0


class _ParamsFields(NamedTuple):
    B: float
    epsilon: float
    gamma: float
    m: float
    Z: int


class PhysicalParams(_ParamsFields):
    """Immutable bundle of field strength and deformation parameters.

    B is the magnetostatic field magnitude in gauss.  epsilon is the
    dimensionless deformation strength, gamma the inverse-momentum
    deformation scale in s/(g cm), m the mass entering (m c)^2 factors
    (defaults to the electron mass; kept separate for exploratory sweeps)
    and Z the nuclear charge, stored as an int.  The deformation scale
    q = eps gamma^2 (m c)^2 keeps the mass shell's real root: 8q <= 1.
    Raises ValidationError naming the offending field, from _replace too.
    """

    __slots__ = ()

    def __new__(cls, B, epsilon, gamma, m, Z):
        if B < 0.0 or not math.isfinite(B):
            raise ValidationError("B", f"field magnitude must be finite and >= 0, got {B!r}")
        if epsilon < 0.0 or not math.isfinite(epsilon):
            raise ValidationError("epsilon", f"must be finite and >= 0, got {epsilon!r}")
        if m <= 0.0 or not math.isfinite(m):
            raise ValidationError("m", f"mass must be finite and > 0, got {m!r}")
        check_Z(Z)
        if gamma < 0.0 or not math.isfinite(gamma):
            raise ValidationError("gamma", f"must be finite and >= 0, got {gamma!r}")
        gmc = gamma * (m * DEFAULT_CONSTANTS.c)
        q = epsilon * (gmc * gmc)  # float * gives inf where float ** raises
        if not has_real_root(q):
            raise ValidationError("correction_scale", f"eps*gamma^2*(mc)^2 = {q!r} "
                                                      "exceeds 1/8 (trans-Planckian)")
        return tuple.__new__(cls, (B, epsilon, gamma, m, int(Z)))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def eps_gamma2(self) -> float:
        """The product epsilon * gamma^2 (inverse momentum squared)."""
        return self.epsilon * self.gamma * self.gamma

    @property
    def correction_scale(self) -> float:
        """Dimensionless deformation scale epsilon * gamma^2 * (m c)^2, <= 1/8."""
        return self.epsilon * (self.gamma * (self.m * DEFAULT_CONSTANTS.c)) ** 2


def make_params(
    B: float = 0.0,
    epsilon: float = 1.0,
    gamma_mode: str = "planck",
    gamma: float | None = None,
    m: float | None = None,
    Z: int = 1,
) -> PhysicalParams:
    """Build a validated PhysicalParams record.

    gamma_mode "planck" resolves gamma to 1/(M_Pl c); "explicit" takes the
    gamma argument verbatim (gamma=0 switches the deformation off); m
    defaults to the electron mass.  Raises ValidationError naming the
    offending field.
    """
    if gamma_mode == "planck":
        if gamma is not None:
            raise ValidationError("gamma", "explicit value supplied with gamma_mode='planck'")
        gamma = DEFAULT_CONSTANTS.gamma_planck
    elif gamma_mode == "explicit":
        if gamma is None:
            raise ValidationError("gamma", "gamma_mode='explicit' requires a value")
    else:
        raise ValidationError("gamma_mode", f"unknown mode {gamma_mode!r}")
    return PhysicalParams(B=B, epsilon=epsilon, gamma=gamma,
                          m=DEFAULT_CONSTANTS.m_e if m is None else m, Z=Z)


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


def in_unit(values, per: float, unit: str) -> list[float]:
    """The values times per, from erg into unit; ValidationError unless all stay finite."""
    values = [value * per for value in values]
    if not all(map(math.isfinite, values)):
        raise ValidationError("unit", f"a value is outside double precision in {unit}")
    return values
