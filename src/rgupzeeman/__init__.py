"""Zeeman shifts for hydrogen-like atoms under minimal-length deformations.

Library layout:

- units: Gaussian-CGS constants, parameter records, energy conversion
- opalg: exact noncommutative operator polynomials and algebra checks
- dispersion: deformed mass-shell root and its series
- oracle: hydrogen radial wavefunctions and quadrature expectations, on a
  Gauss-Laguerre rule built in pure Python
- spectrum: the term table, per-regime shift breakdowns, spin-orbit
  shift, Zeeman lines
- cli: the rgupz command

`import rgupzeeman` runs none of these: each name of `__all__`, and each
submodule read as an attribute (`rgupzeeman.spectrum`), is imported from
its module when it is first read, so a command or script runs only the
modules whose names it reads.

The derived expectation expression is authoritative; the quoted
closed-form coefficients are available as an "as-published" comparison
mode, and spectrum.discrepancy_report classifies every difference.
"""

import importlib

__version__ = "0.1.0"

#: each exported name -> the submodule that defines it
_HOMES = {name: module for module, names in (
    ("units", ("ConstantsTable", "PhysicalParams", "ValidationError", "convert_energy",
               "load_constants", "make_params")),
    ("dispersion", ("DispersionSolution", "TransPlanckianMassError", "p0sq_exact",
                    "p0sq_series", "solve_mass_shell")),
    ("spectrum", ("Branch", "DiscrepancyReport", "Mode", "QuantumState", "Regime",
                  "ShiftBreakdown", "ZeemanLine", "discrepancy_report", "energy_shift_B",
                  "hls_shift", "lande_g_factor", "level_states", "zeeman_lines")),
) for name in names}
_SUBMODULES = ("units", "opalg", "dispersion", "oracle", "spectrum", "cli")

__all__ = [*sorted(_HOMES), "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import binds the submodule on the package, so this runs once
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"),
                                      name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
