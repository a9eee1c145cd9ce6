"""Self-check suites behind the command-line ``check`` subcommand.

Each suite pits two independent routes to the same number against each other
(closed form vs quadrature, series vs resummed propagator, derivative of the
action vs direct force) and reports the worst deviation found.  The suites
are also what the acceptance tests run, so the CLI and the test suite cannot
drift apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forces import (
    ForceQuery,
    force_field_bc,
    force_via_action_fd,
    nondispersive_scaling_check,
    vacuum_force_analytic,
)
from .medium import Drude, FieldKind, Lorentz, Medium, kk_imaginary_axis
from .propagators import MomentumFrequencyPoint, dyson_partial_sum, g0, g_phiphi
from .quadrature import QuadratureSpec

__all__ = [
    "CheckResult",
    "check_limits",
    "check_kk",
    "check_dyson",
    "check_action",
    "SUITES",
]

# separations (natural units) used by the limit checks
H_GRID = (0.5, 1.0, 2.0, 5.0)
CHI0_GRID = (0.25, 1.25, 3.0, 15.0)
DYSON_SEED = 20240811
DYSON_POINTS = 50
DYSON_MAX_ORDER = 30
FAR_H_GRID = (1e4, 1e5)
_ZETA_5, _ZETA_7 = 1.0369277551433699263, 1.0083492773819228268


@dataclass(frozen=True)
class CheckResult:
    """One pass/fail line of a check suite."""

    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def format_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"{status} {self.name}: measured {self.measured:.3e} "
            f"(bound {self.bound:.3e})"
        )
        if self.detail:
            line += f" [{self.detail}]"
        return line


def check_limits(spec: QuadratureSpec | None = None) -> list[CheckResult]:
    """Vacuum limits, EM polarization doubling, constant-medium scaling and
    the far-separation closed forms of the field-BC ``vacuum_ratio``.

    Far above the medium's wavelength that ratio, integral J(n(t/2H) t) dt /
    (pi^4/15) with J as in ``inner_mode_integral``, follows from n(p0) near 0;
    to order 1/H^2 in x = n t, with J'(x) = -x^2/(e^x - 1):

    * Drude: x^2 = s/(1 + t/(2H gamma)) + t^2, s = 2 H wp^2 t/gamma; from
      integral J(sqrt(s)) ds = 24 zeta(5) and integral y^6/(e^y - 1) dy =
      720 zeta(7), 180 zeta(5) gamma/(pi^4 wp^2 H) (1 + r/H^2), with
      r = 7.5 zeta(7)/zeta(5) (1/wp^2 - gamma^2/wp^4).
    * chi(p0) = chi0 + chi1 p0 + chi2 p0^2 + ... (a Lorentz), n0^2 = 1 + chi0:
      (1/n0)(1 - 90 zeta(5) chi1/(pi^4 n0^3 H)) (1 + r/H^2), with
      r = (5 pi^2/84)(5 chi1^2/n0^6 - 4 chi2/n0^4).

    A line passes when |ratio/closed - 1| <= |r|/H^2 + rel_tol at each H in
    ``FAR_H_GRID``, from 1e4 up, where the next terms (O(1/H^4) Drude, O(1/H^3)
    Lorentz) stay below 1e-13, so the lines hold down to the round-off floor.
    The vacuum and constant-medium lines are exact up to the quadrature, so
    they are bounded by rel_tol, and never looser than 1e-6.
    """
    spec = spec or QuadratureSpec()
    bound = min(spec.rel_tol, 1e-6)
    results = []

    worst = 0.0
    for h in H_GRID:
        got = force_field_bc(
            ForceQuery(kind=FieldKind.SCALAR, separation=h, spec=spec)
        ).force_per_area
        worst = max(worst, abs(got / vacuum_force_analytic(FieldKind.SCALAR, h) - 1.0))
    results.append(
        CheckResult(
            name="vacuum scalar limit",
            passed=worst <= bound,
            measured=worst,
            bound=bound,
            detail=f"H in {H_GRID}",
        )
    )

    scalar = force_field_bc(ForceQuery(kind=FieldKind.SCALAR, separation=1.0, spec=spec))
    em = force_field_bc(ForceQuery(kind=FieldKind.EM, separation=1.0, spec=spec))
    doubling = abs(em.force_per_area - 2.0 * scalar.force_per_area)
    results.append(
        CheckResult(
            name="em polarization doubling",
            passed=doubling == 0.0,
            measured=doubling,
            bound=0.0,
            detail="exact: same integral, multiplier 2",
        )
    )
    em_dev = abs(em.force_per_area / vacuum_force_analytic(FieldKind.EM, 1.0) - 1.0)
    results.append(
        CheckResult(
            name="vacuum em limit",
            passed=em_dev <= bound,
            measured=em_dev,
            bound=bound,
        )
    )

    worst = 0.0
    for chi0 in CHI0_GRID:
        expected = 1.0 / math.sqrt(1.0 + chi0)
        for h in H_GRID:
            ratio = nondispersive_scaling_check(
                chi0, FieldKind.SCALAR, separation=h, spec=spec
            )
            worst = max(worst, abs(ratio / expected - 1.0))
    results.append(
        CheckResult(
            name="constant-medium scaling",
            passed=worst <= bound,
            measured=worst,
            bound=bound,
            detail=f"chi0 in {CHI0_GRID}, H in {H_GRID}",
        )
    )

    drude = Drude(omega_p=1.0, gamma=0.5)
    wp2, damping = drude.omega_p**2, drude.gamma
    lorentz = Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1)
    w02, chi0 = lorentz.omega_0**2, (lorentz.omega_p / lorentz.omega_0) ** 2
    chi1, chi2 = -chi0 * lorentz.gamma / w02, chi0 * (lorentz.gamma**2 - w02) / w02**2
    n0 = math.sqrt(1.0 + chi0)
    for label, model, closed, r in (
        ("drude", drude, lambda h: 180.0 * _ZETA_5 * damping / (math.pi**4 * wp2 * h),
         7.5 * _ZETA_7 / _ZETA_5 * (1.0 - damping**2 / wp2) / wp2),
        ("lorentz", lorentz,
         lambda h: (1.0 - 90.0 * _ZETA_5 * chi1 / (math.pi**4 * n0**3 * h)) / n0,
         5.0 * math.pi**2 / 84.0 * (5.0 * chi1**2 / n0**6 - 4.0 * chi2 / n0**4)),
    ):
        excess = max(
            abs(force_field_bc(ForceQuery(medium=Medium(electric=model), separation=h,
                                          spec=spec)).vacuum_ratio / closed(h) - 1.0)
            - abs(r) / h**2
            for h in FAR_H_GRID
        )
        results.append(CheckResult(
            name=f"far-separation {label}",
            passed=excess <= spec.rel_tol,
            measured=excess,
            bound=spec.rel_tol,
            detail=f"|ratio/closed - 1| - {abs(r):.4g}/H^2, worst of H in {FAR_H_GRID}",
        ))
    return results


def check_kk(spec: QuadratureSpec | None = None) -> list[CheckResult]:
    """Dispersion-transform closure of the closed-form susceptibilities."""
    spec = spec or QuadratureSpec()
    grid = np.geomspace(1e-2, 1e2, 20)
    results = []
    for label, model in (
        ("lorentz", Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1)),
        ("drude", Drude(omega_p=1.0, gamma=0.5)),
    ):
        worst = 0.0
        for xi in grid:
            direct = model.chi_bar(float(xi))
            transformed = kk_imaginary_axis(model, float(xi), spec)
            worst = max(worst, abs(transformed / direct - 1.0))
        results.append(
            CheckResult(
                name=f"kk closure ({label})",
                passed=worst <= 1e-6,
                measured=worst,
                bound=1e-6,
                detail="20-point log grid, xi in [1e-2, 1e2]",
            )
        )
    return results


def sample_dyson_points(
    medium: Medium, count: int = DYSON_POINTS, seed: int = DYSON_SEED
) -> list[MomentumFrequencyPoint]:
    """Deterministic sample of real-axis points with contraction ratio < 0.9."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        k = float(rng.uniform(0.0, 3.0))
        omega = float(rng.uniform(0.05, 2.5))
        r = omega * omega * medium.electric.chi_real_axis(omega) * g0(k, omega)
        if abs(r) < 0.9:
            points.append(MomentumFrequencyPoint.real_axis(k, omega))
    return points


def check_dyson(spec: QuadratureSpec | None = None) -> list[CheckResult]:
    """Tail bound and closure of the geometric propagator resummation."""
    medium = Medium(electric=Lorentz(omega_p=1.0, omega_0=2.0, gamma=0.3))
    points = sample_dyson_points(medium)
    worst_bound_excess = -math.inf
    worst_closure = 0.0
    for point in points:
        closed = g_phiphi(medium, FieldKind.SCALAR, point)
        base = g0(point.k, point.frequency)
        for order in range(DYSON_MAX_ORDER + 1):
            partial = dyson_partial_sum(medium, point, order)
            ratio = abs(partial.ratio)
            bound = abs(base) * ratio ** (order + 1) / (1.0 - ratio)
            err = abs(partial.value - closed)
            worst_bound_excess = max(worst_bound_excess, err - bound)
        # order picked from the tail bound to push the truncation below 1e-10
        ratio = abs(dyson_partial_sum(medium, point, 0).ratio)
        target = 1e-10
        need = math.log(target * (1.0 - ratio) / abs(base)) / math.log(ratio)
        order = max(0, math.ceil(need) - 1)
        final = dyson_partial_sum(medium, point, order)
        worst_closure = max(worst_closure, abs(final.value - closed))
    return [
        CheckResult(
            name="dyson tail bound",
            passed=worst_bound_excess <= 1e-13,
            measured=worst_bound_excess,
            bound=0.0,
            detail=f"{len(points)} sampled points, orders 0..{DYSON_MAX_ORDER}",
        ),
        CheckResult(
            name="dyson closure",
            passed=worst_closure <= 1e-10,
            measured=worst_closure,
            bound=1e-10,
            detail="truncation order chosen from the tail bound",
        ),
    ]


def check_action(spec: QuadratureSpec | None = None) -> list[CheckResult]:
    """Finite-difference action derivative against the closed-form force."""
    spec = spec or QuadratureSpec()
    query = ForceQuery(kind=FieldKind.SCALAR, separation=1.0, spec=spec)
    direct = force_field_bc(query).force_per_area
    err = {}
    for delta in (1e-2, 1e-3):
        err[delta] = abs(force_via_action_fd(query, delta) - direct)
    ratio = err[1e-2] / err[1e-3]
    rel = err[1e-3] / abs(direct)
    return [
        CheckResult(
            name="action-route second order",
            passed=80.0 <= ratio <= 120.0,
            measured=ratio,
            bound=100.0,
            detail="error ratio for delta 1e-2 vs 1e-3",
        ),
        CheckResult(
            name="action-route agreement",
            passed=rel <= 1e-5,
            measured=rel,
            bound=1e-5,
            detail="relative error at delta 1e-3",
        ),
    ]


SUITES = {
    "limits": check_limits,
    "kk": check_kk,
    "dyson": check_dyson,
    "action": check_action,
}
