"""Independent routes to the same force, pitted against each other.

The fast route does the in-plane momentum integral in closed form, summed
from a short series, and integrates over one frequency.  Everything else
here exists to check it: a brute-force nested quadrature over both
variables, a finite-difference derivative of the effective action, the
polarization-pinned variant, and the matter-only null result.  The brute-force quadrature is the QUADPACK
oracle, so this script needs scipy, which comes with the ``test`` extra.
"""

import math

from casimir_medium import (
    BoundaryCondition,
    Constant,
    ForceQuery,
    Lorentz,
    Medium,
    QuadratureSpec,
    FieldKind,
    force_field_bc,
    force_polarization_bc,
    force_via_action_fd,
    integrate_2d_oracle,
    matter_only_force,
)

medium = Medium(electric=Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1))
h = 1.0
fast = force_field_bc(ForceQuery(medium=medium, separation=h))
print(f"field route:        {fast.force_per_area:.12e} "
      f"({fast.evaluations} integrand calls)")


def brute_force_integrand(p0, q):
    energy = math.hypot(medium.refractive_index(FieldKind.SCALAR, p0) * p0, q)
    x = 2.0 * energy * h
    return 0.0 if x > 700.0 else q * energy / math.expm1(x)


oracle = integrate_2d_oracle(
    brute_force_integrand, QuadratureSpec(rel_tol=1e-8, abs_tol=1e-14),
    outer_scale=1.0 / (2.0 * h), inner_scale=1.0 / (2.0 * h),
)
slow = -oracle.value / (2.0 * math.pi**2)
print(f"nested quadrature:  {slow:.12e} ({oracle.evaluations} integrand calls)")
print(f"  relative deviation {abs(fast.force_per_area / slow - 1.0):.2e}")

print()
print("finite-difference derivative of the effective action")
print(f"{'delta':>8} {'force':>18} {'abs error':>12}")
for delta in (1e-1, 1e-2, 1e-3):
    fd = force_via_action_fd(ForceQuery(medium=medium, separation=h), delta)
    print(f"{delta:8.0e} {fd:18.12e} {abs(fd - fast.force_per_area):12.3e}")
print("  errors fall by ~100x per 10x step refinement: the scheme is second order")

print()
print("pinning the polarization field instead of the field itself")
for label, med in (("constant chi0=1", Medium(electric=Constant(1.0))),
                   ("lorentz broad", Medium(electric=Lorentz(1.0, 1.0, 0.5)))):
    pinned = force_polarization_bc(ForceQuery(
        medium=med, bc=BoundaryCondition.POLARIZATION, separation=h,
        spec=QuadratureSpec(rel_tol=1e-8, abs_tol=1e-14),
    ))
    direct = force_field_bc(ForceQuery(medium=med, separation=h))
    print(f"  {label:16} field-pinned {direct.force_per_area:14.6e}   "
          f"polarization-pinned {pinned.force_per_area:14.6e}")
print("  the polarization-pinned attraction is never stronger")

print()
print(f"matter-only boundary conditions: force = {matter_only_force(h)} "
      "(exact null, the reservoir kernel has no cross-plate entry)")
