"""Self-check suites behind the command-line ``check`` subcommand.

Each suite pits two independent routes to the same number against each other
(closed form vs quadrature, series vs resummed propagator, derivative of the
action vs direct force) and reports the worst deviation found.  The suites
are also what the acceptance tests run, so the CLI and the test suite cannot
drift apart.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .forces import (
    BoundaryCondition,
    ForceQuery,
    force_field_bc,
    force_polarization_bc,
    force_via_action_fd,
    nondispersive_scaling_check,
)
from .medium import Constant, Drude, FieldKind, Lorentz, Medium, kk_imaginary_axis
from .propagators import Axis, MomentumFrequencyPoint, dyson_partial_sum, g0, g_phiphi
from .quadrature import QuadratureSpec, _series

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
POLARIZATION_CHI0_GRID = (1.0, 2.0, 4.0, 15.0)
POLARIZATION_H_GRID = (1e-3, *H_GRID, 1e5)
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


def _line(name: str, deviations, bound: float, detail: str = "") -> CheckResult:
    """A line that passes when the worst of ``deviations`` is at most ``bound``."""
    measured = max(deviations)
    return CheckResult(name=name, passed=measured <= bound, measured=measured,
                       bound=bound, detail=detail)


def check_limits(spec: QuadratureSpec | None = None) -> list[CheckResult]:
    """Vacuum limits, EM polarization doubling, constant-medium scaling for
    both boundary conditions and the far-separation closed forms of the
    field-BC ``vacuum_ratio``.

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

    The polarization-BC ratio of Constant(chi0 >= 1) is exact at every H (the
    static limit of Lifshitz, Sov. Phys. JETP 2 (1956) 73): with Im chi = 0
    the route integrates g(v) = chi0^2 v^2 e^-v/(chi0^2 - e^-v) over v >= n0 t,
    integral dt integral_{n0 t} g dv = (1/n0) integral v g dv, and the series
    in e^-v/chi0^2 gives integral v^3 e^-v/(1 - e^-v/chi0^2) dv = 6 chi0^2
    Li_4(chi0^-2).  Over the vacuum's pi^4/15: 90 chi0^2 Li_4(chi0^-2)/(pi^4
    n0), with Li_4(1) = zeta(4) = pi^4/90 and the series for chi0^-2 <= 1/4.

    Far above the wavelength the polarization-BC ratio, (15/pi^4) integral
    dt integral_{n t} dv chi^2 v^2 e^-v/D with D = (v/2H) Im chi + chi^2 -
    e^-v, has closed forms too (no coefficient below is fitted):

    * Drude: 180 gamma/(pi^4 wp^2 H) (1 + r2/H^2 + r3/H^3).  With s = 2 H
      wp^2 t/gamma, (n t)^2 = s - (1/wp^2 - gamma^2/wp^4) s^2/(4 H^2) +
      O(H^-4), and each row is Gamma(3, n t) to leading order, with integral
      Gamma(3, sqrt(s)) ds = 24; the shift of n t adds (720/24)/4 (1/wp^2 -
      gamma^2/wp^4) = r2/H^2, and the absorptive term v gamma t/(4 H^2 wp^2)
      of D/chi^2 adds r3/H^3 = -(2520/24) gamma^2/(8 wp^4 H^3); e^-v/chi^2
      is O(H^-4).
    * chi(p0) = chi0 + chi1 p0 + chi2 p0^2, Im chi(w) = a1 w + O(w^3) (a
      Lorentz, a1 = chi0 gamma/w0^2): R0 (1 + c/H + r/H^2).  Swapping the
      order and expanding in e^-v/chi^2, integral dt t^k integral_{nt} chi^2
      v^2 e^-v/(chi^2 - e^-v) dv = M_k(chi) = (k+3)! chi^2 Li_k+4(chi^-2)/
      ((k+1) n^(k+1)); so R0 = 15 M_0/pi^4, c = chi1 M_1'/(2 M_0) and r =
      (chi2 M_2' + chi1^2 M_2''/2 - 60 a1 Li_5(chi0^-2)/n0^2)/(4 M_0), at
      chi0, with d Li_s(chi^-2)/d chi = -2 Li_s-1(chi^-2)/chi.  At chi0 = 1
      every Li_s is zeta(s).

    Both are checked at ``FAR_H_GRID`` on Drude(1, 0.5) and Lorentz(1, 1,
    0.1); the Lorentz O(H^-3) remainder, not derived, measures 1.2e-13 at
    H = 1e4.  Up to that they, the vacuum and both constant-medium lines are
    exact, so bounded by rel_tol (the quadrature's), never looser than 1e-6.
    """
    spec = spec or QuadratureSpec()
    bound = min(spec.rel_tol, 1e-6)
    scalar = force_field_bc(ForceQuery(kind=FieldKind.SCALAR, separation=1.0, spec=spec))
    em = force_field_bc(ForceQuery(kind=FieldKind.EM, separation=1.0, spec=spec))
    polarization = []
    for chi0 in POLARIZATION_CHI0_GRID:
        li4 = math.pi**4 / 90.0 if chi0 == 1.0 else _series(4, chi0**-2)
        closed = 90.0 * chi0**2 * li4 / (math.pi**4 * math.sqrt(1.0 + chi0))
        for h in POLARIZATION_H_GRID:
            query = ForceQuery(medium=Medium(electric=Constant(chi0)),
                               bc=BoundaryCondition.POLARIZATION, separation=h, spec=spec)
            polarization.append(abs(force_polarization_bc(query).vacuum_ratio / closed - 1.0))
    results = [
        _line("vacuum scalar limit",
              [abs(force_field_bc(ForceQuery(separation=h, spec=spec)).vacuum_ratio - 1.0)
               for h in H_GRID], bound, f"H in {H_GRID}"),
        _line("em polarization doubling",
              [abs(em.force_per_area - 2.0 * scalar.force_per_area)], 0.0,
              "exact: same integral, multiplier 2"),
        _line("vacuum em limit", [abs(em.vacuum_ratio - 1.0)], bound),
        _line("constant-medium scaling",
              [abs(nondispersive_scaling_check(chi0, separation=h, spec=spec)
                   / (1.0 / math.sqrt(1.0 + chi0)) - 1.0)
               for chi0 in CHI0_GRID for h in H_GRID],
              bound, f"chi0 in {CHI0_GRID}, H in {H_GRID}"),
        _line("polarization constant-medium", polarization, bound,
              f"chi0 in {POLARIZATION_CHI0_GRID}, H in {POLARIZATION_H_GRID}"),
    ]

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
        results.append(_line(
            f"far-separation {label}",
            (abs(force_field_bc(ForceQuery(medium=Medium(electric=model), separation=h,
                                           spec=spec)).vacuum_ratio / closed(h) - 1.0)
             - abs(r) / h**2
             for h in FAR_H_GRID),
            spec.rel_tol,
            f"|ratio/closed - 1| - {abs(r):.4g}/H^2, worst of H in {FAR_H_GRID}",
        ))

    # Drude: r2 and r3; Lorentz at chi0 = 1, where Li_s(1) = zeta(s): M_0,
    # M_1', M_2' and M_2'' (dm1, dm2, d2m2), then c and r
    r2, r3 = 7.5 * (1.0 - damping**2 / wp2) / wp2, -105.0 * damping**2 / (8.0 * wp2**2)
    zeta4, zeta6 = math.pi**4 / 90.0, math.pi**6 / 945.0
    m0, dm1 = 6.0 * zeta4 / n0, 12.0 * (0.75 * _ZETA_5 - zeta4)
    dm2 = 40.0 * (2.0 * (zeta6 - _ZETA_5) / n0**3 - 1.5 * zeta6 / n0**5)
    d2m2 = 40.0 * ((2.0 * zeta6 - 6.0 * _ZETA_5 + 4.0 * zeta4) / n0**3
                   - 6.0 * (zeta6 - _ZETA_5) / n0**5 + 3.75 * zeta6 / n0**7)
    c = chi1 * dm1 / (2.0 * m0)
    r = (chi2 * dm2 + 0.5 * chi1**2 * d2m2 + 60.0 * chi1 * _ZETA_5 / n0**2) / (4.0 * m0)
    for label, model, closed in (
        ("drude", drude, lambda h: 180.0 * damping / (math.pi**4 * wp2 * h)
         * (1.0 + r2 / h**2 + r3 / h**3)),
        ("lorentz", lorentz, lambda h: 15.0 * m0 / math.pi**4 * (1.0 + c / h + r / h**2)),
    ):
        results.append(_line(
            f"far-separation polarization {label}",
            [abs(force_polarization_bc(ForceQuery(
                medium=Medium(electric=model), bc=BoundaryCondition.POLARIZATION,
                separation=h, spec=spec)).vacuum_ratio / closed(h) - 1.0)
             for h in FAR_H_GRID],
            bound, f"H in {FAR_H_GRID}"))
    return results


def check_kk(spec: QuadratureSpec | None = None) -> list[CheckResult]:
    """Dispersion-transform closure of the closed-form susceptibilities."""
    spec = spec or QuadratureSpec()
    grid = np.geomspace(1e-2, 1e2, 20)
    return [
        _line(
            f"kk closure ({label})",
            (abs(kk_imaginary_axis(model, float(xi), spec) / model.chi_bar(float(xi)) - 1.0)
             for xi in grid),
            1e-6, "20-point log grid, xi in [1e-2, 1e2]",
        )
        for label, model in (
            ("lorentz", Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1)),
            ("drude", Drude(omega_p=1.0, gamma=0.5)),
        )
    ]


def sample_dyson_points(medium: Medium) -> list[MomentumFrequencyPoint]:
    """Deterministic sample of real-axis points with contraction ratio < 0.9."""
    rng = random.Random(DYSON_SEED)
    points = []
    while len(points) < DYSON_POINTS:
        k = rng.uniform(0.0, 3.0)
        omega = rng.uniform(0.05, 2.5)
        r = omega * omega * medium.electric.chi_real_axis(omega) * g0(k, omega)
        if abs(r) < 0.9:
            points.append(MomentumFrequencyPoint(k, omega, Axis.REAL))
    return points


def check_dyson(spec: QuadratureSpec | None = None) -> list[CheckResult]:
    """Tail bound and closure of the geometric propagator resummation."""
    medium = Medium(electric=Lorentz(omega_p=1.0, omega_0=2.0, gamma=0.3))
    points = sample_dyson_points(medium)
    bound_excess, closure = [], []
    for point in points:
        closed = g_phiphi(medium, FieldKind.SCALAR, point)
        base = g0(point.k, point.frequency)
        for order in range(DYSON_MAX_ORDER + 1):
            partial = dyson_partial_sum(medium, point, order)
            ratio = abs(partial.ratio)
            bound = abs(base) * ratio ** (order + 1) / (1.0 - ratio)
            bound_excess.append(abs(partial.value - closed) - bound)
        # order picked from the tail bound to push the truncation below 1e-10
        ratio = abs(dyson_partial_sum(medium, point, 0).ratio)
        target = 1e-10
        need = math.log(target * (1.0 - ratio) / abs(base)) / math.log(ratio)
        order = max(0, math.ceil(need) - 1)
        closure.append(abs(dyson_partial_sum(medium, point, order).value - closed))
    return [
        _line("dyson tail bound", bound_excess, 1e-13,
              f"{len(points)} sampled points, orders 0..{DYSON_MAX_ORDER}"),
        _line("dyson closure", closure, 1e-10,
              "truncation order chosen from the tail bound"),
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
    return [
        CheckResult(
            name="action-route second order",
            passed=80.0 <= ratio <= 120.0,
            measured=ratio,
            bound=100.0,
            detail="error ratio for delta 1e-2 vs 1e-3",
        ),
        _line("action-route agreement", [err[1e-3] / abs(direct)], 1e-5,
              "relative error at delta 1e-3"),
    ]


SUITES = {
    "limits": check_limits,
    "kk": check_kk,
    "dyson": check_dyson,
    "action": check_action,
}
