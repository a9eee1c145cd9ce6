"""Susceptibility models and the dispersion transform.

Every medium is described by its susceptibility on the imaginary frequency
axis, chi_bar(xi), which is what the force integrals consume.  For absorptive
models chi_bar is tied to the real-axis absorption Im chi(omega) by a
dispersion integral; this script evaluates both sides of that identity and
shows the tabulated model reproducing a closed-form one from samples of its
absorption alone.
"""

import numpy as np

from casimir_medium import (
    Constant,
    Drude,
    Lorentz,
    TabulatedCoupling,
    kk_imaginary_axis,
)

lorentz = Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1)
drude = Drude(omega_p=1.0, gamma=0.5)
sharp = Lorentz(omega_p=1.0, omega_0=2.0, gamma=0.0)  # lossless line
constant = Constant(1.25)

print("chi_bar on the imaginary axis")
print(f"{'xi':>8} {'lorentz':>12} {'drude':>12} {'sharp':>12} {'constant':>12}")
for xi in (0.01, 0.1, 1.0, 10.0, 100.0):
    row = [model.chi_bar(xi) for model in (lorentz, drude, sharp, constant)]
    print(f"{xi:8.2f} " + " ".join(f"{v:12.6f}" for v in row))

print()
print("dispersion integral vs closed form (absorptive models only)")
print(f"{'xi':>8} {'model':>8} {'closed':>16} {'integral':>16} {'rel dev':>10}")
for model, label in ((lorentz, "lorentz"), (drude, "drude")):
    for xi in (0.05, 1.0, 20.0):
        closed = model.chi_bar(xi)
        transformed = kk_imaginary_axis(model, xi)
        dev = abs(transformed / closed - 1.0)
        print(f"{xi:8.2f} {label:>8} {closed:16.10f} {transformed:16.10f} {dev:10.2e}")

# A tabulated medium carries only sampled absorption data.  Sampling the
# Lorentz absorption and rebuilding chi_bar from the table should land on the
# closed form up to the interpolation error of the grid.
omega = np.geomspace(1e-3, 60.0, 1601)
coupling = (2.0 / np.pi) * omega * np.array([lorentz.im_chi(float(w)) for w in omega])
table = TabulatedCoupling(tuple(float(w) for w in omega), tuple(float(g) for g in coupling))

print()
print("tabulated model rebuilt from sampled absorption")
print(f"{'xi':>8} {'closed chi_bar':>16} {'tabulated':>16} {'rel dev':>10}")
for xi in (0.1, 0.5, 1.0, 3.0):
    closed = lorentz.chi_bar(xi)
    sampled = table.chi_bar(xi)
    print(f"{xi:8.2f} {closed:16.10f} {sampled:16.10f} {abs(sampled / closed - 1.0):10.2e}")
