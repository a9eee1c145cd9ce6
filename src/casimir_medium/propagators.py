"""Momentum-space propagators of the field-matter system.

Free field, matter reservoir, the dressed field propagator on both frequency
axes, the mixed field-matter correlators, and the geometric (self-energy
resummation) series whose closed form the dressed propagator must reproduce.

Conventions: momenta are magnitudes (k >= 0), the retarded prescription is a
small imaginary shift eta in the denominator, and the Euclidean axis uses
xi >= 0 with strictly real, positive propagators.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import (
    DegenerateModeError,
    DomainError,
    MediumInstabilityError,
    PoleError,
    require_positive,
)
from .medium import FieldKind, Medium

__all__ = [
    "Axis",
    "MomentumFrequencyPoint",
    "CrossCorrelators",
    "DysonPartialSum",
    "g0",
    "g_omega",
    "g_phiphi",
    "cross_correlators",
    "dyson_partial_sum",
    "reservoir_gap",
]

DEFAULT_ETA = 1e-8


class Axis(enum.Enum):
    """Frequency axis a momentum-space point lives on."""

    REAL = "real"
    EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class MomentumFrequencyPoint:
    """A (momentum magnitude, frequency) pair tagged with its axis.

    ``frequency`` is the real frequency omega on the real axis and the
    Euclidean frequency xi >= 0 on the imaginary axis.
    """

    k: float
    frequency: float
    axis: Axis

    def __post_init__(self):
        require_positive(self.k, "momentum magnitude", zero_ok=True)
        if not math.isfinite(self.frequency):
            raise DomainError(f"frequency must be finite, got {self.frequency!r}")
        if self.axis is Axis.EUCLIDEAN and self.frequency < 0.0:
            raise DomainError("Euclidean frequency must be >= 0")


@dataclass(frozen=True)
class CrossCorrelators:
    """Mixed and matter-matter correlators at one real-axis point.

    The polarization and magnetization autocorrelators each carry a local
    noise term equal to the absorptive part of their susceptibility on top of
    the part transmitted through the dressed field propagator.
    """

    g_phi_p: complex
    g_phi_m: complex
    g_pp: complex
    g_mm: complex


@dataclass(frozen=True)
class DysonPartialSum:
    """Truncated geometric resummation of the field self-energy.

    ``converged`` is False when |ratio| >= 1, in which case ``value`` is the
    (finite) partial sum but no closed form exists to converge to.
    """

    value: complex
    ratio: complex
    converged: bool


def _retarded(stiffness, inertia, frequency: float, eta: float, sign=None) -> complex:
    """The real-axis 1/(stiffness - inertia - i eta sign), sign = sgn(frequency)."""
    require_positive(eta, "eta", zero_ok=True)
    if not math.isfinite(frequency):
        raise DomainError(f"frequency must be finite, got {frequency!r}")
    if stiffness == 0.0 and inertia == 0.0:
        raise DegenerateModeError("propagator undefined at k = omega = 0 "
                                  "(both terms vanish)")
    d = stiffness - inertia
    if eta == 0.0:
        # an infinite term is no pole: 1/d rounds to 0 as it does at eta > 0
        if abs(d) <= 1e-12 * max(abs(stiffness), abs(inertia)) < math.inf:
            raise PoleError(f"on the pole at frequency {frequency!r} with eta = 0")
        value = complex(1.0 / (d.real if d.imag == 0.0 else d))  # no -0 imag
    else:
        sign = (frequency > 0.0) - (frequency < 0.0) if sign is None else sign
        value = 1.0 / (d - complex(0.0, eta * sign))
    if value != value:  # overflowing terms
        raise DomainError(f"propagator is NaN at frequency {frequency!r}")
    return value


def g0(k: float, omega: float, eta: float = DEFAULT_ETA) -> complex:
    """Free-field propagator 1/(k^2 - omega^2) with retarded shift eta.

    The shift enters as 1/(k^2 - omega^2 - i eta sgn(omega)), which is
    negligible away from the light cone and regulates the pole on it.  With
    eta = 0 an on-cone evaluation raises PoleError; k = omega = 0 raises
    DomainError at any eta.
    """
    require_positive(k, "momentum magnitude", zero_ok=True)
    return _retarded(k * k, omega * omega, omega, eta)


def g_omega(omega_res: float, omega_prime: float, eta: float = DEFAULT_ETA) -> complex:
    """Reservoir-oscillator propagator 1/(omega_res^2 - w'^2 - i eta).

    Normalized per unit mass density.  Carries no momentum dependence at all:
    the reservoir is local, which is what kills the matter-only Casimir
    force (see ``reservoir_gap``).  omega_res > 0 keeps it clear of the origin
    rule of ``g0``; with eta = 0, w' = +-omega_res is a pole.
    """
    require_positive(omega_res, "reservoir frequency")
    return _retarded(omega_res * omega_res, omega_prime * omega_prime,
                     omega_prime, eta, sign=1)


def reservoir_gap(omega_res: float, separation: float) -> float:
    """Cross-plate entry of the reservoir propagator: exactly zero.

    The reservoir propagator is momentum independent, so its position-space
    kernel is a contact term; at any finite separation H > 0 the cross-plate
    matrix entry vanishes identically and the resulting determinant carries
    no H dependence.
    """
    require_positive(omega_res, "reservoir frequency")
    require_positive(separation, "separation")  # a contact term at 0
    return 0.0


def g_phiphi(
    medium: Medium,
    kind: FieldKind,
    point: MomentumFrequencyPoint,
    eta: float = DEFAULT_ETA,
) -> complex:
    """Dressed field propagator G_phiphi at one momentum-frequency point.

    Euclidean axis: 1/(k^2 (1 - chi_m) + xi^2 (1 + chi_e)), real and
    positive.  Real axis: 1/(k^2 (1 - chi_m) - omega^2 (1 + chi_e)) with the
    same retarded shift and pole rule as ``g0``, so the geometric
    resummation identity holds exactly at finite eta.  On both axes k = 0
    at zero frequency is a DegenerateModeError, and a NaN value (overflowing
    terms) a DomainError.  Scalar calculations take
    chi_m = 0.  Returns the complex value (real on the Euclidean axis).
    """
    k = point.k
    if point.axis is Axis.EUCLIDEAN:
        require_positive(eta, "eta", zero_ok=True)
        xi = point.frequency
        chi_e = medium.electric.chi_bar(xi)
        chi_m = medium.magnetic.chi_bar(xi) if kind is FieldKind.EM else 0.0
        if chi_m >= 1.0:
            raise MediumInstabilityError(xi, chi_m)
        den = k * k * (1.0 - chi_m) + xi * xi * (1.0 + chi_e)
        if den <= 0.0:
            raise DegenerateModeError(
                f"zero mode at (k={k:g}, xi={xi:g}); propagator undefined"
            )
        if den != den:  # overflowing terms, as in ``_retarded``
            raise DomainError(f"propagator is NaN at (k={k:g}, xi={xi:g})")
        return complex(1.0 / den)

    omega = point.frequency
    chi_e = medium.electric.chi_real_axis(omega)
    chi_m = medium.magnetic.chi_real_axis(omega) if kind is FieldKind.EM else 0j
    return _retarded(k * k * (1.0 - chi_m), omega * omega * (1.0 + chi_e), omega, eta)


def cross_correlators(
    medium: Medium,
    point: MomentumFrequencyPoint,
    eta: float = DEFAULT_ETA,
) -> CrossCorrelators:
    """Field-polarization, field-magnetization and matter autocorrelators.

    At real-axis point (k, omega), with G the dressed field propagator:

        G_phiP = i omega chi_e G
        G_phiM = i k omega chi_m G
        G_PP   = Im chi_e + omega^2 chi_e^2 G
        G_MM   = Im chi_m + k^2 chi_m^2 G

    The additive noise terms are the absorptive parts of the respective
    susceptibilities (zero for lossless models).
    """
    if point.axis is not Axis.REAL:
        raise DomainError("cross correlators are defined on the real axis")
    k, omega = point.k, point.frequency
    chi_e = medium.electric.chi_real_axis(omega)
    chi_m = medium.magnetic.chi_real_axis(omega)
    g = _retarded(k * k * (1.0 - chi_m), omega * omega * (1.0 + chi_e), omega, eta)
    return CrossCorrelators(
        g_phi_p=1j * omega * chi_e * g,
        g_phi_m=1j * k * omega * chi_m * g,
        # chi (w^2 chi G): chi^2 may overflow where the product, ~ -chi, does not
        g_pp=abs(chi_e.imag) + chi_e * (omega * omega * chi_e * g),
        g_mm=abs(chi_m.imag) + chi_m * (k * k * chi_m * g),
    )


def dyson_partial_sum(
    medium: Medium,
    point: MomentumFrequencyPoint,
    order: int,
    eta: float = DEFAULT_ETA,
) -> DysonPartialSum:
    """Self-energy resummation of the dressed propagator, truncated.

    The dressing of the free propagator by the electric response is the
    geometric series G0 sum_n r^n with ratio r = omega^2 chi_e(omega) G0.
    For |r| < 1 the truncation error obeys the exact tail bound

        |S_N - G| <= |G0| |r|^(N+1) / (1 - |r|),

    and S_N converges to the closed-form dressed propagator.  For |r| >= 1
    the partial sum is still returned but flagged unconverged.
    """
    if point.axis is not Axis.REAL:
        raise DomainError("the resummation is defined on the real axis")
    if order < 0:
        raise DomainError(f"order must be >= 0, got {order!r}")
    k, omega = point.k, point.frequency
    base = g0(k, omega, eta)
    if omega == 0.0:
        # static limit: the omega^2 vertex factor kills the dressing
        return DysonPartialSum(value=base, ratio=0j, converged=True)
    chi_e = medium.electric.chi_real_axis(omega)
    r = omega * omega * chi_e * base
    # compensated summation keeps the tail-bound comparison honest at 1e-10
    term = base
    res, ims = [term.real], [term.imag]
    for _ in range(order):
        term = term * r
        res.append(term.real)
        ims.append(term.imag)
    total = complex(math.fsum(res), math.fsum(ims))
    return DysonPartialSum(value=total, ratio=r, converged=abs(r) < 1.0)
