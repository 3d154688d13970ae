"""Zeeman shifts for hydrogen-like atoms under minimal-length deformations.

Library layout:

- units: Gaussian-CGS constants, parameter records, energy conversion
- opalg: exact noncommutative operator polynomials and algebra checks
- dispersion: deformed mass-shell root, series, nonrelativistic limit
- fields: deformed magnetostatic field, vector potential, field tensor
- oracle: hydrogen radial wavefunctions and quadrature expectations; the
  only package module besides fields that needs numpy and scipy, loaded
  when a quadrature runs
- spectrum: per-regime shift breakdowns, spin-orbit shift, Zeeman lines
- cli: the rgupz command

The derived expectation expression is authoritative; the quoted
closed-form coefficients are available as an "as-published" comparison
mode, and spectrum.discrepancy_report classifies every difference.
"""

from .units import (
    ConstantsTable,
    PhysicalParams,
    ValidationError,
    convert_energy,
    load_constants,
    make_params,
)
from .dispersion import (
    DispersionSolution,
    TransPlanckianMassError,
    nonrel_limit_note,
    p0sq_exact,
    p0sq_series,
    solve_mass_shell,
)
from .spectrum import (
    Branch,
    DiscrepancyReport,
    Mode,
    QuantumState,
    Regime,
    ShiftBreakdown,
    ZeemanLine,
    discrepancy_report,
    energy_shift_B,
    hls_shift,
    lande_g_factor,
    level_states,
    zeeman_lines,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "ConstantsTable",
    "DiscrepancyReport",
    "DispersionSolution",
    "Mode",
    "PhysicalParams",
    "QuantumState",
    "Regime",
    "ShiftBreakdown",
    "TransPlanckianMassError",
    "ValidationError",
    "ZeemanLine",
    "convert_energy",
    "discrepancy_report",
    "energy_shift_B",
    "hls_shift",
    "lande_g_factor",
    "level_states",
    "load_constants",
    "make_params",
    "nonrel_limit_note",
    "p0sq_exact",
    "p0sq_series",
    "solve_mass_shell",
    "zeeman_lines",
    "__version__",
]
