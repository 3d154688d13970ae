"""
Deformed mass-shell root: exact vs series
=========================================

The deformed mass-shell condition is a quadratic in u = p0.p0; the
physical root tends to -(mc)^2 as the deformation vanishes.  In test
units (mc = 1) the table below scans the deformation q = eps gamma^2 and
shows the exact root, the first-order series, and their difference, which
shrinks like the omitted 8 q^2 term.
"""

from rgupzeeman import TransPlanckianMassError, p0sq_exact, p0sq_series, solve_mass_shell

print(f"{'q':>10}  {'exact root':>20}  {'series (o1)':>14}  {'|diff|':>12}  {'8q^2':>12}")
for q in (10.0 ** (k / 2 - 6) for k in range(9)):  # 1e-6 to 1e-2, log-spaced
    exact = p0sq_exact(1.0, q)
    series = p0sq_series(1.0, q, order=1)
    print(f"{q:10.2e}  {exact:20.15f}  {series:14.8f}  "
          f"{abs(exact - series):12.3e}  {8 * q * q:12.3e}")

# the exact root satisfies its quadratic to rounding
sol = solve_mass_shell(1.0, 1e-2, order=2)
print(f"\nresidual of the exact root at q = 1e-2: {sol.residual:.3e}")
print(f"second-order series appends -8 q^2: {sol.series_root}")

# past q = 1/8 the root turns complex: flagged, not silently NaN'd
try:
    p0sq_exact(1.0, 0.2)
except TransPlanckianMassError as err:
    print(f"\nq = 0.2 rejected: {err}")
