"""Casimir force per unit area between ideal parallel mirrors.

All routes start from the per-mode determinant of the two-plate correlation
matrix: each mode (Euclidean frequency p0, in-plane momentum q) contributes
ln(1 - exp(-2 E H)) with E = sqrt(n(p0)^2 p0^2 + q^2), and the force is the
H-derivative of the mode-summed effective action.  Carrying out the
derivative and the in-plane integral gives the closed-form route

    F(H) = -(m / 2 pi^2) integral_0^inf dp0  I(n(p0) p0, H),

with I the Bose-type mode integral from ``quadrature`` and m the number of
contributing polarizations (1 scalar, 2 EM).  In the scale-free variable
t = 2 H p0 this is -m/(2 pi^2 (2H)^4) integral_0^inf J(n(t/2H) t) dt with
J(x) = (2H)^3 I, an O(1) integral at every separation.  Signs follow the
attractive convention: forces are negative.

The force with boundary conditions imposed on the polarization field instead
of the field itself has no closed inner integral; it is a nested integral in
t and v = 2 H E on ``quadrature.integrate_nested``.  The module also
provides an independent route used only to check the field-BC one: a
finite-difference derivative of the effective action, a nested integral over
(t, 2 H q) on the same helper.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrationFailureError, InvalidRegimeError
from .medium import Constant, FieldKind, Medium, TabulatedCoupling, VACUUM
from .quadrature import (
    QuadratureSpec,
    inner_mode_integral,
    integrate_exp_sinh,
    integrate_nested,
)

__all__ = [
    "BoundaryCondition",
    "ForceQuery",
    "ForceResult",
    "vacuum_force_analytic",
    "force_field_bc",
    "force_polarization_bc",
    "mode_logdet",
    "force_via_action_fd",
    "nondispersive_scaling_check",
    "matter_only_force",
]

_PI2 = math.pi * math.pi
# the force scales as H^-4, and H^4 is a normal double only in this range
_SEPARATION_RANGE = (1e-75, 1e75)


def _check_separation(separation: float) -> None:
    if not (separation > 0.0 and math.isfinite(separation)):
        raise DomainError(f"separation must be > 0, got {separation!r}")
    lo, hi = _SEPARATION_RANGE
    if not lo <= separation <= hi:
        raise DomainError(
            f"separation must lie in [{lo:g}, {hi:g}], where H**4 neither "
            f"overflows nor underflows, got {separation!r}"
        )


class BoundaryCondition(enum.Enum):
    """What vanishes on the mirrors.

    FIELD: the field itself (imposing conditions on field and matter jointly
    gives the identical determinant, so it is covered by this case too).
    POLARIZATION: only the polarization field, scalar calculations only.
    """

    FIELD = "field"
    POLARIZATION = "polarization"


@dataclass(frozen=True)
class ForceQuery:
    """Inputs of one force evaluation."""

    medium: Medium = VACUUM
    kind: FieldKind = FieldKind.SCALAR
    bc: BoundaryCondition = BoundaryCondition.FIELD
    separation: float = 1.0
    spec: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        _check_separation(self.separation)

    @property
    def multiplicity(self) -> int:
        """Contributing polarizations: 1 scalar, 2 EM."""
        return 2 if self.kind is FieldKind.EM else 1


@dataclass(frozen=True)
class ForceResult:
    """Force per unit area plus the quadrature metadata behind it.

    ``vacuum_ratio`` is the force divided by the ideal-mirror vacuum force of
    the same field content at the same separation; media always suppress, so
    it lies in (0, 1] for passive media.
    """

    separation: float
    force_per_area: float
    error_estimate: float
    evaluations: int
    vacuum_ratio: float
    converged: bool


def vacuum_force_analytic(kind: FieldKind, separation: float) -> float:
    """Ideal-mirror vacuum force: -pi^2/(480 H^4) scalar, doubled for EM."""
    _check_separation(separation)
    base = -_PI2 / (480.0 * separation**4)
    return 2.0 * base if kind is FieldKind.EM else base


def _gap_frequency(medium: Medium, kind: FieldKind, p0):
    # n(p0) * p0, the in-plane mass gap of the mode; p0 may be an array
    return medium.refractive_index(kind, p0) * p0


def _force_result(h: float, kind: FieldKind, prefactor: float, res) -> ForceResult:
    # the force is -prefactor times the integral ``res``
    force = -prefactor * res.value
    return ForceResult(
        separation=h,
        force_per_area=force,
        error_estimate=prefactor * res.error_estimate,
        evaluations=res.evaluations,
        vacuum_ratio=force / vacuum_force_analytic(kind, h),
        converged=res.converged,
    )


def force_field_bc(query: ForceQuery) -> ForceResult:
    """Force with the field pinned on both mirrors (closed-form route).

    Integrates the in-plane mode integral (``inner_mode_integral``, a short
    series in x = n(p0) t) over t = 2 H p0 with the exp-sinh rule, every
    node of a pass in one array.  ``converged`` means the error estimate is
    within the spec's ``rel_tol`` of the force, at every separation;
    ``abs_tol`` plays no part.  Non-convergence is flagged on the result,
    not raised.
    """
    if query.bc is not BoundaryCondition.FIELD:
        raise DomainError("this route computes the field boundary condition")
    medium, kind, h = query.medium, query.kind, query.separation
    inv2h = 0.5 / h

    def integrand(t):
        # dp0 = dt / 2H; the 1/2H goes into the prefactor
        return inner_mode_integral(_gap_frequency(medium, kind, t * inv2h), h)

    res = integrate_exp_sinh(integrand, query.spec.rel_tol)
    return _force_result(h, kind, query.multiplicity / (2.0 * _PI2) * inv2h, res)


def _is_zero_model(model) -> bool:
    if isinstance(model, Constant):
        return model.chi0 == 0.0
    if isinstance(model, TabulatedCoupling):
        return not model.has_absorption
    return False


def force_polarization_bc(query: ForceQuery) -> ForceResult:
    """Force with only the polarization field pinned on the mirrors.

    Scalar field only.  Per mode the determinant entry picks up the local
    polarization noise, giving the integrand

        chi_bar^2(p0) E exp(-2EH) / (alpha - exp(-2EH)),
        alpha = E Im chi(p0) + chi_bar^2(p0),

    integrated over (1/2 pi^2) q dq dp0.  With q dq = E dE and the
    scale-free variables t = 2 H p0 and v = 2 H E this is

        F = -1/(2 pi^2 (2H)^4) integral_0^inf dt integral_{n t}^inf dv
                chi_bar^2 v^2 exp(-v) / D,
        D = (v/2H) Im chi + (chi_bar - 1)(chi_bar + 1) - expm1(-v),

    with n(p0) the scalar refractive index (``Medium.refractive_index``) and
    D = alpha - exp(-2EH) written without cancellation (the literal
    difference rounds to zero for chi_bar(0) = 1 media at the rule's
    smallest t).  It runs on ``integrate_nested``: the p0-only factors once
    per outer node, the v - n t integrals of a pass as one block of rows.
    ``converged`` means the error estimate is within ``rel_tol`` of the
    force at every separation.

    The absorptive part is read off the real axis at a frequency equal to
    the Euclidean one (chi_bar itself is strictly real; lossless models
    contribute zero).  Where D loses positivity at any node the medium is
    outside this boundary condition's regime of validity and
    InvalidRegimeError names the first such node (modes with zero coupling
    contribute nothing and are exempt).  A vanishing electric response
    gives exactly zero force.
    """
    if query.bc is not BoundaryCondition.POLARIZATION:
        raise DomainError("this route computes the polarization boundary condition")
    if query.kind is not FieldKind.SCALAR:
        raise DomainError(
            "polarization boundary conditions are implemented for the scalar field"
        )
    electric, h = query.medium.electric, query.separation
    if _is_zero_model(electric):
        # literal +0.0: -prefactor * 0.0 would give a vacuum_ratio of -0
        return ForceResult(separation=h, force_per_area=0.0, error_estimate=0.0,
                           evaluations=0, vacuum_ratio=0.0, converged=True)

    inv2h = 0.5 / h

    def integrand(t, inner):
        # one inner integral per outer node t = 2 H p0, all in one rule call
        p0 = t * inv2h
        chi = electric.chi_bar(p0)
        n = np.sqrt(1.0 + chi)  # Medium.refractive_index, from this chi
        noise = electric.im_chi(p0)
        live = chi != 0.0  # zero-coupling modes add nothing and are exempt
        p0, chi, n, noise = p0[live], chi[live], n[live], noise[live]
        # one row per outer node: v = v0 + s with v0 = n t, s over [0, inf)
        v0 = (n * t[live])[:, None]
        chi2 = (chi * chi)[:, None]
        gap = ((chi - 1.0) * (chi + 1.0))[:, None]
        noise_per_v = (noise * inv2h)[:, None]

        def rows(s):
            v = v0 + s
            den = v * noise_per_v + gap - np.expm1(-v)
            invalid = den <= 0.0
            if invalid.any():
                i, j = np.unravel_index(np.argmax(invalid), den.shape)
                q = math.sqrt(s[j] * (s[j] + 2.0 * v0[i, 0])) * inv2h
                raise InvalidRegimeError(float(p0[i]), q, float(den[i, j]))
            # exp(-v0) comes out of the row, so far rows do not underflow
            return chi2 * v * v * np.exp(-s) / den

        values = np.zeros(t.shape)
        values[live] = inner(rows) * np.exp(-v0[:, 0])
        return values

    res = integrate_nested(integrand, query.spec.rel_tol)
    return _force_result(h, FieldKind.SCALAR, inv2h**4 / (2.0 * _PI2), res)


def mode_logdet(energy: float, separation: float) -> float:
    """H-dependent part of one mode's log determinant: ln(1 - exp(-2EH)).

    Dirichlet and Neumann mirrors differ only by an H-independent
    normalization (regularized as a ratio of determinants), so this one value
    serves both.
    """
    if not (energy > 0.0 and math.isfinite(energy)):
        raise DomainError(f"mode energy must be > 0, got {energy!r}")
    if not (separation > 0.0 and math.isfinite(separation)):
        raise DomainError(
            f"separation must be > 0, got {separation!r} "
            "(the determinant diverges at contact)"
        )
    return float(_log1mexp(2.0 * energy * separation))


def force_via_action_fd(query: ForceQuery, delta: float) -> float:
    """Force as a central finite difference of the effective action.

    The effective action per unit area is -(m / 4 pi^2) times the (p0, q)
    integral of q ln(1 - exp(-2EH)); its H-derivative is the force.  The
    central difference is applied per mode (differencing commutes with the
    integral, and differencing first avoids cancellation between two large
    action values).  In t = 2 H p0 and r = 2 H q, with v = hypot(n t, r),
    the integrand is r [ln(1 - exp(-v (1 + delta/H))) - (delta -> -delta)],
    integrated like the polarization route on ``integrate_nested``, with
    the r integrals as rows; if it misses ``rel_tol``, it raises
    IntegrationFailureError.  The truncation error is O(delta^2) by
    construction, which is what this route exists to demonstrate.
    """
    if query.bc is not BoundaryCondition.FIELD:
        raise DomainError("the action route computes the field boundary condition")
    if not (0.0 < delta < query.separation):
        raise DomainError(
            f"step must satisfy 0 < delta < separation, got {delta!r}"
        )
    medium, kind, h = query.medium, query.kind, query.separation
    inv2h, step = 0.5 / h, delta / h

    def integrand(t, inner):
        # one r integral per outer node t, all in one rule call
        nt = _gap_frequency(medium, kind, t * inv2h)[:, None] * (2.0 * h)

        def rows(r):
            v = np.hypot(nt, r)
            return r * (_log1mexp(v * (1.0 + step)) - _log1mexp(v * (1.0 - step)))

        return inner(rows)

    res = integrate_nested(integrand, query.spec.rel_tol)
    if not res.converged:
        raise IntegrationFailureError(f"action integral at H = {h:g} did not converge")
    return -query.multiplicity / (4.0 * _PI2) * inv2h**3 / (2.0 * delta) * res.value


def _log1mexp(x):
    """ln(1 - exp(-x)) for x > 0, accurate at both ends (Maechler 2012)."""
    with np.errstate(divide="ignore"):  # in the branch np.where drops
        return np.where(x < math.log(2.0), np.log(-np.expm1(-x)), np.log1p(-np.exp(-x)))


def nondispersive_scaling_check(
    chi0: float,
    kind: FieldKind = FieldKind.SCALAR,
    separation: float = 1.0,
    spec: QuadratureSpec | None = None,
) -> float:
    """Ratio of the constant-medium force to the vacuum force.

    For a frequency-independent susceptibility the spectrum is the vacuum one
    stretched by n = sqrt(1 + chi0), so the ratio must be exactly 1/n at
    every separation.  Returns the computed ratio; the caller compares.
    """
    query = ForceQuery(
        medium=Medium(electric=Constant(chi0)),
        kind=kind,
        separation=separation,
        spec=spec or QuadratureSpec(),
    )
    return force_field_bc(query).vacuum_ratio


def matter_only_force(separation: float) -> float:
    """Force when boundary conditions act on the matter fields alone: zero.

    The reservoir propagator carries no momentum dependence, so its
    cross-plate entry vanishes at any finite separation and the two-plate
    determinant is independent of H.  The vanishing is exact, not a limit.
    """
    if not (separation > 0.0 and math.isfinite(separation)):
        raise DomainError(f"separation must be > 0, got {separation!r}")
    return 0.0
