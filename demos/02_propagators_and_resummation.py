"""Free, reservoir and dressed propagators, and the Dyson resummation.

The dressed field propagator absorbs the matter coupling into a geometric
series in r = omega^2 chi(omega) G0.  This script prints the partial sums
converging onto the closed form, with the a-priori geometric tail bound next
to the actual truncation error at every order.
"""

import math

from casimir_medium import (
    Axis,
    FieldKind,
    Lorentz,
    Medium,
    MomentumFrequencyPoint,
    dyson_partial_sum,
    g0,
    g_omega,
    g_phiphi,
)

medium = Medium(electric=Lorentz(omega_p=1.0, omega_0=2.0, gamma=0.3))
k, omega = 0.4, 1.1
point = MomentumFrequencyPoint(k, omega, Axis.REAL)

free = g0(k, omega)
reservoir = g_omega(2.0, omega)
dressed = g_phiphi(medium, FieldKind.SCALAR, point)

print(f"free propagator        G0({k}, {omega})      = {free:.12g}")
print(f"reservoir propagator   Gomega(2.0, {omega})  = {reservoir:.12g}")
print(f"dressed propagator     Gphiphi({k}, {omega}) = {dressed:.12g}")

ratio = abs(dyson_partial_sum(medium, point, 0).ratio)
print(f"\ncontraction ratio |r| = {ratio:.6f} (series converges for |r| < 1)")
print(f"{'order':>5} {'partial sum':>32} {'error':>12} {'tail bound':>12}")
for order in (0, 1, 2, 4, 8, 16, 30):
    partial = dyson_partial_sum(medium, point, order)
    err = abs(partial.value - dressed)
    bound = abs(free) * ratio ** (order + 1) / (1.0 - ratio)
    value = f"{partial.value.real:+.12f}{partial.value.imag:+.12f}j"
    print(f"{order:5d} {value:>32} {err:12.3e} {bound:12.3e}")

# order needed for a 1e-10 truncation error, straight from the bound
target = 1e-10
need = math.ceil(math.log(target * (1.0 - ratio) / abs(free)) / math.log(ratio)) - 1
partial = dyson_partial_sum(medium, point, max(0, need))
print(f"\norder {need} predicted for error < {target:.0e}; "
      f"actual error {abs(partial.value - dressed):.3e}")
