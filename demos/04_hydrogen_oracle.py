"""
Hydrogen radial oracle and the angular momentum-square approximation
====================================================================

The quadrature oracle validates the closed-form radial expectation values
and quantifies how rough the angular-only substitution
<p^2> ~ hbar^2 l(l+1)/r0^2 (used inside the closed-form shift formulas)
really is: for the 2p state it overshoots the true hydrogen <p^2> by a
factor of 8.
"""

from rgupzeeman import Branch, QuantumState, convert_energy, make_params
from rgupzeeman.oracle import (
    closed_form_r_expectation,
    p2_expectation_exact,
    p4_expectation_exact,
    radial_expectation,
)
from rgupzeeman.spectrum import exp_p2_angular, hls_shift
from rgupzeeman.units import DEFAULT_CONSTANTS

print("radial moments <r^k>, quadrature vs closed form (n=3, l=1):")
for k in range(-3, 3):
    quad = radial_expectation(3, 1, 1, k)
    closed = closed_form_r_expectation(3, 1, 1, k)
    print(f"  k={k:+d}: {quad:.12e}  vs  {closed:.12e}  "
          f"(rel diff {abs(quad - closed) / abs(closed):.1e})")

print("\nmomentum moments for 2p:")
p2 = p2_expectation_exact(2, 1, 1)
p4 = p4_expectation_exact(2, 1, 1)
print(f"  <p^2>            = {p2:.6e} (g cm/s)^2")
print(f"  <p^4>            = {p4:.6e} (g cm/s)^4")
print(f"  angular estimate = {exp_p2_angular(1):.6e} (g cm/s)^2")
print(f"  estimate / exact = {exp_p2_angular(1) / p2:.6f}   (the factor 8)")

# spin-orbit shift for 2p (m_l = 1, m_s = +1/2), with and without deformation
state = QuantumState(n=2, l=1, branch=Branch.PLUS, mj=1.5, ml=1, ms=0.5)
plain = hls_shift(state, make_params(epsilon=0.0, gamma_mode="explicit", gamma=0.0))
planck = make_params(epsilon=1.0, gamma_mode="planck")
print(f"\nspin-orbit shift 2p (ml=1, ms=+1/2): "
      f"{convert_energy(plain, 'erg', 'eV'):.6e} eV")
# the physical suppression factor 1 - 1.75e-45 rounds to 1.0 in double
# precision, so the deformed value is bitwise identical; an exaggerated
# deformation makes the suppression visible
print(f"physical suppression scale (invisible in the float): "
      f"{planck.correction_scale:.3e}")
# (the mass shell keeps a real root only up to a scale of 1/8)
strong = make_params(epsilon=0.1, gamma_mode="explicit",
                     gamma=1.0 / (planck.m * DEFAULT_CONSTANTS.c))
print(f"with an exaggerated scale of 0.1 the shift drops to "
      f"{hls_shift(state, strong) / plain:.3f} of its undeformed value")
