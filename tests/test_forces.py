"""Force routes: direct mode sums, the action route and the null results."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

import casimir_medium
import casimir_medium.forces as forces_module
from casimir_medium import (
    BoundaryCondition,
    Constant,
    DomainError,
    Drude,
    FieldKind,
    ForceQuery,
    IntegrationFailureError,
    InvalidRegimeError,
    Lorentz,
    Medium,
    QuadratureSpec,
    TabulatedCoupling,
    VACUUM,
    force_field_bc,
    force_polarization_bc,
    force_via_action_fd,
    integrate_2d_oracle,
    matter_only_force,
    mode_logdet,
    nondispersive_scaling_check,
    vacuum_force_analytic,
)
from casimir_medium.quadrature import _DE_FIRST_LEVELS, _EXP_SINH

from .conftest import polarization_far_drude, polarization_far_lorentz

LOR_01 = Medium(electric=Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1))
LOR_05 = Medium(electric=Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.5))
DRUDE = Medium(electric=Drude(omega_p=1.0, gamma=0.5))

# locks computed with an mpmath Gauss-Legendre evaluation of the mode sum
# (closed-form inner integral, 15 significant digits, tail cut at p0 = 30
# where the integrand is below 1e-26)
LOCK_LOR_01_H1 = -0.01792260883964282
LOCK_LOR_05_H1 = -0.01825438710097188
LOCK_DRUDE_H1 = -0.01639467546391367

# case-ii value recorded from the nested-quadrature oracle at rel_tol 1e-8
LOCK_LOR_05_POLARIZATION_H1 = -0.006944964504583686


class TestVacuumLimits:
    def test_analytic_values(self):
        assert vacuum_force_analytic(FieldKind.SCALAR, 1.0) == pytest.approx(
            -math.pi**2 / 480.0, rel=1e-15
        )
        assert vacuum_force_analytic(FieldKind.EM, 1.0) == pytest.approx(
            -math.pi**2 / 240.0, rel=1e-15
        )
        # 1/H^4 scaling
        assert vacuum_force_analytic(FieldKind.SCALAR, 2.0) == pytest.approx(
            -math.pi**2 / 480.0 / 16.0, rel=1e-15
        )

    @pytest.mark.parametrize("h", [0.5, 1.0, 2.0, 5.0])
    def test_computed_scalar_matches_analytic(self, h):
        res = force_field_bc(ForceQuery(separation=h))
        assert res.converged
        assert res.force_per_area == pytest.approx(
            vacuum_force_analytic(FieldKind.SCALAR, h), rel=1e-10
        )
        assert res.vacuum_ratio == pytest.approx(1.0, rel=1e-10)

    def test_em_is_twice_scalar(self):
        scalar = force_field_bc(ForceQuery(separation=1.0))
        em = force_field_bc(ForceQuery(kind=FieldKind.EM, separation=1.0))
        assert em.force_per_area == pytest.approx(
            2.0 * scalar.force_per_area, rel=1e-14
        )

    def test_em_matches_analytic(self):
        res = force_field_bc(ForceQuery(kind=FieldKind.EM, separation=1.0))
        assert res.force_per_area == pytest.approx(
            -math.pi**2 / 240.0, rel=1e-10
        )


class TestNondispersiveScaling:
    @pytest.mark.parametrize("chi0", [0.25, 1.25, 3.0, 15.0])
    @pytest.mark.parametrize("h", [0.5, 2.0])
    def test_inverse_index_law(self, chi0, h):
        ratio = nondispersive_scaling_check(chi0, FieldKind.SCALAR, h)
        assert ratio == pytest.approx((1.0 + chi0) ** -0.5, rel=1e-9)

    def test_constant_three_halves_the_force(self):
        res = force_field_bc(
            ForceQuery(medium=Medium(electric=Constant(3.0)), separation=1.0)
        )
        assert res.force_per_area == pytest.approx(
            -math.pi**2 / 960.0, rel=1e-10
        )


class TestDispersiveForces:
    def test_lorentz_locked_value(self):
        res = force_field_bc(ForceQuery(medium=LOR_01, separation=1.0))
        assert res.converged
        assert res.force_per_area == pytest.approx(LOCK_LOR_01_H1, rel=1e-8)

    def test_broad_lorentz_locked_value(self):
        res = force_field_bc(ForceQuery(medium=LOR_05, separation=1.0))
        assert res.force_per_area == pytest.approx(LOCK_LOR_05_H1, rel=1e-8)

    def test_drude_locked_value(self):
        res = force_field_bc(ForceQuery(medium=DRUDE, separation=1.0))
        assert res.force_per_area == pytest.approx(LOCK_DRUDE_H1, rel=1e-8)

    def test_medium_suppresses_but_keeps_attraction(self):
        for medium in (LOR_01, LOR_05, DRUDE):
            res = force_field_bc(ForceQuery(medium=medium, separation=1.0))
            assert res.force_per_area < 0.0
            assert 0.0 < res.vacuum_ratio < 1.0

    @given(
        st.floats(min_value=0.2, max_value=2.0),
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.3, max_value=3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_suppression_property(self, omega_p, omega_0, gamma, h):
        medium = Medium(electric=Lorentz(omega_p=omega_p, omega_0=omega_0,
                                         gamma=gamma))
        res = force_field_bc(ForceQuery(medium=medium, separation=h))
        assert res.force_per_area < 0.0
        assert res.vacuum_ratio <= 1.0 + 1e-12


ZETA_3 = 1.2020569031595942854


def _mode_j(x):
    """J(x) = int_x^inf v^2/(e^v - 1) dv, built without the library."""
    if x < 2.0:
        head, _ = quad(lambda v: v * v / math.expm1(v) if v > 0.0 else 0.0,
                       0.0, x, epsabs=0.0, epsrel=1e-13)
        return 2.0 * ZETA_3 - head
    return math.fsum(math.exp(-k * x) * (x * x / k + 2.0 * x / k**2 + 2.0 / k**3)
                     for k in range(1, 40))


def _tight_field_force(index, h):
    """-1/(2 pi^2 (2H)^4) int_0^inf J(n(t/2H) t) dt in s = sqrt(t), relative only."""
    def integrand(s):
        t = s * s
        return 2.0 * s * _mode_j(index(t / (2.0 * h)) * t) if t > 0.0 else 0.0

    value, _ = quad(integrand, 0.0, 10.0, epsabs=0.0, epsrel=1e-12, limit=500,
                    points=(1e-4, 1e-3, 1e-2, 0.1, 1.0, 3.0))
    return -value / (2.0 * math.pi**2 * (2.0 * h) ** 4)


class TestLargeSeparationAccuracy:
    """The force scales as H^-4, so only a relative tolerance means anything
    at every H; an absolute one let large-H rows claim convergence."""

    INDEX = {
        "lorentz": lambda p0: math.sqrt(1.0 + 1.0 / (1.0 + p0 * p0 + 0.1 * p0)),
        "drude": lambda p0: math.sqrt(1.0 + 1.0 / (p0 * p0 + 0.5 * p0)),
    }
    MEDIA = {"lorentz": LOR_01, "drude": DRUDE}

    @pytest.mark.parametrize("label", ["lorentz", "drude"])
    @pytest.mark.parametrize("h", [1e3, 1e4, 1e5])
    def test_relative_error_at_default_spec(self, label, h):
        spec = QuadratureSpec()
        res = force_field_bc(ForceQuery(medium=self.MEDIA[label], separation=h,
                                        spec=spec))
        err = abs(res.force_per_area / _tight_field_force(self.INDEX[label], h) - 1.0)
        if res.converged:
            assert err <= spec.rel_tol
        assert err <= 1e-9


class TestFarSeparationClosedForms:
    """Far above the medium's wavelength only p0 <~ 1/H matters, so the
    field-BC ratio to the vacuum force follows from n(p0) near p0 = 0.

    With t = 2 H p0 and J(x) = integral_x^inf y^2/(e^y - 1) dy the ratio is
    integral J(n(t/2H) t) dt / integral J(t) dt, the denominator pi^4/15.

    * Drude: n^2 ~ wp^2/(gamma p0) as p0 -> 0, so n t = sqrt(s) with
      s = 2 H wp^2 t / gamma.  Then integral J(sqrt(s)) ds = integral y^4/
      (e^y - 1) dy = 24 zeta(5) by parts, and the ratio tends to
      180 zeta(5) gamma / (pi^4 wp^2 H).  The next term is O(1/H^2).
    * Lorentz: n(p0) = n0 + chi'(0) p0 / (2 n0) + O(p0^2), with
      n0^2 = 1 + wp^2/w0^2 and chi'(0) = -wp^2 gamma / w0^4.  Expanding
      J(n0 t + chi'(0) t^2/(4 n0 H)) with J'(x) = -x^2/(e^x - 1) gives the
      ratio (1/n0)(1 - 90 zeta(5) chi'(0) / (pi^4 n0^3 H)) + O(1/H^2).

    Each bound is the O(1/H^2) remainder, scaled from H = 1e3, plus rel_tol.
    """

    ZETA_5 = 1.0369277551433699263

    @pytest.mark.parametrize("h", [1e3, 1e4, 1e5])
    def test_drude(self, h):
        wp, gamma = 1.0, 0.5
        ratio = force_field_bc(
            ForceQuery(medium=Medium(electric=Drude(wp, gamma)), separation=h)
        ).vacuum_ratio
        closed = 180.0 * self.ZETA_5 * gamma / (math.pi**4 * wp * wp * h)
        assert abs(ratio / closed - 1.0) <= 1e-5 * (1e3 / h) ** 2 + 1e-9

    @pytest.mark.parametrize("wp, w0, gamma", [
        (1.0, 1.0, 0.1), (1.0, 1.0, 1.0), (2.0, 1.5, 0.3),
    ])
    @pytest.mark.parametrize("h", [1e3, 1e4, 1e5])
    def test_lorentz(self, wp, w0, gamma, h):
        ratio = force_field_bc(
            ForceQuery(medium=Medium(electric=Lorentz(wp, w0, gamma)), separation=h)
        ).vacuum_ratio
        n0 = math.sqrt(1.0 + wp * wp / (w0 * w0))
        slope = -wp * wp * gamma / w0**4
        closed = (1.0 - 90.0 * self.ZETA_5 * slope / (math.pi**4 * n0**3 * h)) / n0
        assert abs(ratio / closed - 1.0) <= 1e-6 * (1e3 / h) ** 2 + 1e-9


class TestFarSeparationPolarization:
    """Far-separation closed forms of the polarization-BC ratio to the vacuum
    force (``polarization_far_drude`` and ``polarization_far_lorentz``).

    The route runs at rel_tol 1e-12.  The bounds allow the underived
    remainders, 1e4/H^4 (Drude; Drude(1, 2) measures 1.8e3/H^4) and 10/H^3
    (Lorentz; Lorentz(1, 1, 1) measures 7.1/H^3), so at H = 1e4 they are
    below r3/H^3 and r/H^2 of every medium here.
    """

    SPEC = QuadratureSpec(rel_tol=1e-12)

    def _ratio(self, model, h):
        res = force_polarization_bc(ForceQuery(
            medium=Medium(electric=model), bc=BoundaryCondition.POLARIZATION,
            separation=h, spec=self.SPEC))
        assert res.converged
        return res.vacuum_ratio

    @pytest.mark.parametrize("wp, gamma", [(1.0, 0.5), (2.0, 0.3), (1.0, 2.0)])
    @pytest.mark.parametrize("h", [1e3, 1e4, 1e5])
    def test_drude(self, wp, gamma, h):
        closed = polarization_far_drude(wp, gamma, h)
        deviation = abs(self._ratio(Drude(wp, gamma), h) / closed - 1.0)
        assert deviation <= 1e4 / h**4 + self.SPEC.rel_tol

    @pytest.mark.parametrize("wp, w0, gamma, r_value", [
        (1.0, 1.0, 1.0, -1.249005), (2.0, 1.0, 1.0, 0.121638),
        (1.5, 1.0, 0.5, 0.208017), (1.0, 1.0, 0.1, 0.446542),
    ])
    @pytest.mark.parametrize("h", [1e3, 1e4, 1e5])
    def test_lorentz(self, wp, w0, gamma, r_value, h):
        closed, r = polarization_far_lorentz(wp, w0, gamma, h)
        assert r == pytest.approx(r_value, abs=1e-6)
        deviation = abs(self._ratio(Lorentz(wp, w0, gamma), h) / closed - 1.0)
        assert deviation <= 10.0 / h**3 + self.SPEC.rel_tol


def _lossless_rows_ratio(chi_bar, h):
    """Polarization-BC ratio of a lossless medium from its closed rows.

    With Im chi = 0 the denominator is D = chi^2 - e^-v, and each row is a
    geometric series: integral_v0^inf chi^2 v^2 e^-v/D dv = chi^2 [v0^2
    Li_1(z) + 2 v0 Li_2(z) + 2 Li_3(z)], z = e^-v0/chi^2, v0 = n t (z < 1,
    D > 0 at the row's start, is the route's regime).  The ratio to the
    vacuum force is 15/pi^4 times their t integral, here in 17-digit mpmath
    with mpmath's polylogs; past t = 120, e^-v0 < 1e-52.  ``chi_bar`` maps
    an mpf frequency to an mpf.
    """
    h = mp.mpf(h)

    def row(t):
        chi = chi_bar(t / (2 * h))
        v0 = mp.sqrt(1 + chi) * t
        z = mp.exp(-v0) / chi**2
        return chi**2 * (v0**2 * mp.polylog(1, z) + 2 * v0 * mp.polylog(2, z)
                         + 2 * mp.polylog(3, z))

    with mp.workdps(17):
        return float(15 / mp.pi**4 * mp.quad(row, [0, 4, 30, 120]))


class TestLosslessPolarizationRows:
    """The polarization BC on lossless media against ``_lossless_rows_ratio``.

    The route runs at rel_tol 1e-12 and must meet it; the sharp lines are
    refused at H = 0.3, so the gate starts at H = 1 (H = 0.5 for the line
    whose resonance then sits on an exp-sinh node).
    """

    SPEC = QuadratureSpec(rel_tol=1e-12)

    def _check(self, model, chi_bar, h):
        res = force_polarization_bc(ForceQuery(
            medium=Medium(electric=model), bc=BoundaryCondition.POLARIZATION,
            separation=h, spec=self.SPEC))
        assert res.converged
        reference = _lossless_rows_ratio(chi_bar, h)
        assert abs(res.vacuum_ratio / reference - 1.0) <= self.SPEC.rel_tol
        return reference

    @pytest.mark.parametrize("wp, w0", [(1.0, 1.0), (2.0, 1.0), (1.5, 0.7)])
    @pytest.mark.parametrize("h", [1.0, 3.0, 10.0, 1e3])
    def test_sharp_line(self, wp, w0, h):
        self._check(Lorentz(wp, w0, 0.0),
                    lambda p: mp.mpf(wp) ** 2 / (mp.mpf(w0) ** 2 + p * p), h)

    def test_sharp_line_on_an_exp_sinh_node(self):
        # 2 H omega_0 = 1 puts the exp-sinh node t = 1 (u = 0) on resonance,
        # where a lossless line's Im chi is a delta function and no number
        self._check(Lorentz(2.0, 1.0, 0.0), lambda p: 4 / (1 + p * p), 0.5)

    @pytest.mark.parametrize("h", [1e-2, 1e-1, 1.0, 10.0, 1e2])
    def test_constant(self, h):
        # here the rows' t integral is 90 chi0^2 Li_4(chi0^-2)/(pi^4 n0)
        reference = self._check(Constant(2.0), lambda p: mp.mpf(2), h)
        closed = 360.0 * float(mp.polylog(4, 0.25)) / (math.pi**4 * math.sqrt(3.0))
        assert reference == pytest.approx(closed, rel=1e-15)


def test_dense_tabulated_grid_in_bounded_memory():
    # the truth sweep's 60-node Gaussian scaled by 30, each segment cut in five
    # by collinear nodes: the same medium on 296 nodes, so 295 panel edges
    w = [0.2 + 2.8 * k / 59 for k in range(60)]
    g = [30.0 * math.exp(-((x - 1.2) / 0.4) ** 2) for x in w]
    fine = [a + (b - a) * j / 5 for a, b in zip(w, w[1:]) for j in range(5)] + [w[-1]]
    coupling = TabulatedCoupling(tuple(fine), tuple(np.interp(fine, w, g)))
    query = ForceQuery(medium=Medium(electric=coupling), bc=BoundaryCondition.POLARIZATION,
                       separation=10.0**1.2)
    tracemalloc.start()
    try:
        res = force_polarization_bc(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6  # bytes; one block of the first pass held all nodes at once
    # reference: the truth sweep's TABULATED_X30_RATIO at H = 10^1.2
    assert res.converged
    assert res.vacuum_ratio == pytest.approx(0.210041142936451, rel=query.spec.rel_tol)


def test_field_route_reaches_the_kernels_by_their_traced_names(monkeypatch):
    # a tracer that wraps forces.inner_mode_integral and a model class's
    # chi_bar sees every pass: the route looks both up there, once per pass
    calls = []
    mode_integral, chi_bar = forces_module.inner_mode_integral, TabulatedCoupling.chi_bar
    monkeypatch.setattr(forces_module, "inner_mode_integral",
                        lambda a, h: calls.append("J") or mode_integral(a, h))
    monkeypatch.setattr(TabulatedCoupling, "chi_bar",
                        lambda self, xi: calls.append("chi_bar") or chi_bar(self, xi))
    w = [0.2 + 2.8 * k / 59 for k in range(60)]
    coupling = TabulatedCoupling(tuple(w), tuple(math.exp(-((x - 1.2) / 0.4) ** 2) for x in w))
    # rel_tol 1e-14 is out of reach, so the rule takes all four passes
    res = force_field_bc(ForceQuery(medium=Medium(electric=coupling), separation=1.0,
                                    spec=QuadratureSpec(rel_tol=1e-14)))
    assert res.evaluations == 833  # 105, 209, 417 and 833 nodes
    assert calls == ["chi_bar", "J"] * 4


def _oracle_polarization_force(model, h):
    """The polarization-BC force as the nested QUADPACK oracle over (p0, q)."""
    def integrand(p0, q):
        chi = model.chi_bar(p0)
        energy = math.sqrt((1.0 + chi) * p0 * p0 + q * q)
        decay = math.exp(-2.0 * energy * h)
        den = energy * model.im_chi(p0) + chi * chi - decay
        return q * chi * chi * energy * decay / den

    scale = 1.0 / (2.0 * h)
    res = integrate_2d_oracle(integrand, QuadratureSpec(),
                              outer_scale=scale, inner_scale=scale)
    return -res.value / (2.0 * math.pi**2)


def _tight_polarization_force(chi, im_chi, h):
    """Same force in t = 2Hp0 and s = 2HE - n t, quad with relative tolerances only."""
    inv2h = 0.5 / h

    def outer(t):
        p0 = t * inv2h
        c, noise = chi(p0), im_chi(p0)
        v0 = math.sqrt(1.0 + c) * t

        def inner(s):
            v = v0 + s
            den = v * inv2h * noise + (c * c - 1.0) - math.expm1(-v)
            return c * c * v * v * math.exp(-s) / den

        value, _ = quad(inner, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)
        return value * math.exp(-v0)

    with warnings.catch_warnings():
        # a few far-tail inner integrals stall at round-off, far below the
        # outer tolerance
        warnings.simplefilter("ignore", IntegrationWarning)
        value, error = quad(outer, 0.0, math.inf, epsabs=0.0, epsrel=1e-11, limit=400)
    assert error <= 1e-10 * value
    return -value * inv2h**4 / (2.0 * math.pi**2)


class TestPolarizationBoundaryCondition:
    LORENTZ = Medium(electric=Lorentz(omega_p=1.0, omega_0=1.0, gamma=1.0))
    MEDIA = {"lorentz": LORENTZ, "drude": DRUDE}
    # closed forms of the two media, written out for the reference
    CHI = {
        "lorentz": (lambda p0: 1.0 / (1.0 + p0 * p0 + p0),
                    lambda w: w / ((1.0 - w * w) ** 2 + w * w)),
        "drude": (lambda p0: 1.0 / (p0 * p0 + 0.5 * p0),
                  lambda w: 0.5 / (w * (w * w + 0.25))),
    }

    @staticmethod
    def _force(medium, h, spec=None):
        return force_polarization_bc(ForceQuery(
            medium=medium, bc=BoundaryCondition.POLARIZATION, separation=h,
            spec=spec or QuadratureSpec(),
        ))

    @pytest.mark.parametrize("label", ["lorentz", "drude"])
    @pytest.mark.parametrize("h", [1.4, 2.8])
    def test_agrees_with_nested_oracle(self, label, h):
        medium = self.MEDIA[label]
        res = self._force(medium, h)
        assert res.converged
        oracle = _oracle_polarization_force(medium.electric, h)
        assert res.force_per_area == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("label, h", [
        ("lorentz", 12.0), ("drude", 16.0), ("drude", 1e3),
    ])
    def test_relative_error_at_default_spec(self, label, h):
        # the nested QUADPACK route flagged these converged with errors
        # up to 8e-8 (absolute tolerance) and 4e-4 (Drude at H = 1e3)
        spec = QuadratureSpec()
        res = self._force(self.MEDIA[label], h, spec)
        reference = _tight_polarization_force(*self.CHI[label], h)
        err = abs(res.force_per_area / reference - 1.0)
        if res.converged:
            assert err <= spec.rel_tol
            assert res.error_estimate <= spec.rel_tol * abs(res.force_per_area)
        assert err <= 1e-9

    def test_small_separation_drude_converges(self):
        res = self._force(DRUDE, 0.5)
        assert res.converged
        assert res.force_per_area == pytest.approx(
            _tight_polarization_force(*self.CHI["drude"], 0.5), rel=1e-9
        )

    @pytest.mark.parametrize("medium", [Medium(electric=Constant(1.0)), LORENTZ],
                             ids=["constant", "lorentz"])
    def test_no_false_refusal_where_chi_tends_to_one(self, medium):
        # chi_bar(0) = 1: at the rule's smallest t the literal
        # alpha - exp(-v) rounds to zero although the mode is valid
        res = self._force(medium, 1.4)
        assert res.converged and res.force_per_area < 0.0

    @pytest.mark.parametrize("medium, h", [
        (Medium(electric=Lorentz(omega_p=0.5, omega_0=1.0, gamma=0.05)), 0.2),
        (Medium(electric=Lorentz(omega_p=0.5, omega_0=1.0, gamma=0.05)), 4.0),
        (LORENTZ, 0.5),
    ], ids=["weak-0.2", "weak-4", "lorentz-0.5"])
    def test_refusal_names_a_mode_outside_the_regime(self, medium, h):
        with pytest.raises(InvalidRegimeError) as err:
            self._force(medium, h)
        # the route tests each row at its start v = n t, where q = 0
        assert err.value.p0 > 0.0 and err.value.q == 0.0
        assert err.value.denominator <= 0.0

    def test_narrow_line_converges_at_tight_tolerance(self):
        # the line's pole sits next to the right end of the head panel
        # [0, 2 H w0]; this point ended unconverged after 195,936 evaluations
        # when each node's D was summed from terms of both signs; reference:
        # the truth sweep's mpmath script at H = 1
        spec = QuadratureSpec(rel_tol=1e-12)
        res = self._force(Medium(electric=Lorentz(1.0, 1.0, 0.01)), 1.0, spec)
        assert res.converged
        assert res.vacuum_ratio == pytest.approx(0.7532847715680998, rel=spec.rel_tol)

    @pytest.mark.parametrize("chi0", [1.0, 1.5, 2.0, 4.0, 15.0])
    @pytest.mark.parametrize("h", [1e-3, 0.5, 1.0, 2.0, 5.0, 1e3, 1e5])
    def test_constant_medium_closed_form(self, chi0, h):
        # chi_bar = chi0 and no absorption: expanding 1/(chi0^2 - e^-v) in
        # powers of e^-v/chi0^2 sums the modes to Li_4, at every separation
        spec = QuadratureSpec()
        res = self._force(Medium(electric=Constant(chi0)), h, spec)
        n0 = math.sqrt(1.0 + chi0)
        li4 = float(mp.polylog(4, 1.0 / chi0**2))
        closed = 90.0 * chi0**2 * li4 / (math.pi**4 * n0)
        assert res.converged
        assert abs(res.vacuum_ratio / closed - 1.0) <= spec.rel_tol

    @pytest.mark.parametrize("chi0", [0.5, 0.99])
    def test_constant_medium_below_one_refused(self, chi0):
        # chi0^2 < 1 makes the mode denominator chi0^2 - e^-v negative at small v
        with pytest.raises(InvalidRegimeError):
            self._force(Medium(electric=Constant(chi0)), 1.0)

    def test_inner_evaluations_counted(self):
        res = self._force(self.LORENTZ, 1.4)
        # every outer node runs an inner integral of at least 105 nodes
        assert res.evaluations >= 105 * 105

    def test_route_does_not_import_quadpack(self):
        # nor numpy's lazily loaded numpy.ma (np.unique loads it), whose
        # import costs a cold CLI child about 1 MB and 24 ms
        code = (
            "import sys; from casimir_medium import *; "
            "force_polarization_bc(ForceQuery(medium=Medium(electric=Lorentz(1.0, 1.0, 1.0)), "
            "bc=BoundaryCondition.POLARIZATION, separation=1.4)); "
            "sys.exit(5 if 'scipy.integrate' in sys.modules else "
            "6 if 'numpy.ma' in sys.modules else 0)"
        )
        src = str(Path(casimir_medium.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="error::RuntimeWarning")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr

    def test_no_coupling_means_no_force(self):
        res = force_polarization_bc(
            ForceQuery(
                medium=Medium(electric=Constant(0.0)),
                bc=BoundaryCondition.POLARIZATION,
                separation=1.0,
            )
        )
        assert res.force_per_area == 0.0
        assert res.converged

    def test_unit_constant_reduces_to_field_bc(self, loose_spec):
        # at chi0 = 1 the noise weight alpha collapses to 1 and the
        # integrand is the field-condition one; the two routes must agree
        medium = Medium(electric=Constant(1.0))
        pol = force_polarization_bc(
            ForceQuery(
                medium=medium,
                bc=BoundaryCondition.POLARIZATION,
                separation=1.0,
                spec=loose_spec,
            )
        )
        direct = force_field_bc(ForceQuery(medium=medium, separation=1.0))
        assert pol.force_per_area == pytest.approx(
            direct.force_per_area, rel=1e-7
        )
        assert pol.force_per_area == pytest.approx(
            -math.pi**2 / 480.0 / math.sqrt(2.0), rel=1e-7
        )

    def test_lorentz_locked_value(self, loose_spec):
        res = force_polarization_bc(
            ForceQuery(
                medium=LOR_05,
                bc=BoundaryCondition.POLARIZATION,
                separation=1.0,
                spec=loose_spec,
            )
        )
        assert res.converged
        assert res.force_per_area == pytest.approx(
            LOCK_LOR_05_POLARIZATION_H1, rel=1e-6
        )

    def test_weaker_than_field_bc(self, loose_spec):
        pol = force_polarization_bc(
            ForceQuery(
                medium=LOR_05,
                bc=BoundaryCondition.POLARIZATION,
                separation=1.0,
                spec=loose_spec,
            )
        )
        direct = force_field_bc(ForceQuery(medium=LOR_05, separation=1.0))
        assert pol.force_per_area < 0.0
        assert abs(pol.force_per_area) < abs(direct.force_per_area)

    def test_weak_lossless_coupling_invalid(self):
        # alpha = chi0^2 < e^{-2EH} for soft modes: the determinant loses
        # positivity and the route must refuse rather than integrate junk
        with pytest.raises(InvalidRegimeError):
            force_polarization_bc(
                ForceQuery(
                    medium=Medium(electric=Constant(0.1)),
                    bc=BoundaryCondition.POLARIZATION,
                    separation=1.0,
                )
            )

    @pytest.mark.parametrize("wp, w0, gamma", [(1.0, 1.0, 1.0), (1.0, 1.0, 0.5),
                                                (2.0, 2.0, 1.0)])
    def test_regime_edge_for_unit_static_response(self, wp, w0, gamma):
        """Below H* = -chi'(0)/n(0) the softest modes are refused.

        With chi_bar(0) = 1, near p0 = 0 chi_bar = 1 + chi'(0) p0, so
        (chi_bar - 1)(chi_bar + 1) = 2 chi'(0) p0; at the lower inner limit
        v = 2 H n(0) p0, -expm1(-v) = 2 H n(0) p0; and (v/2H) Im chi is
        O(p0^2).  So D = 2 p0 (n(0) H + chi'(0)), negative for every
        H < H*.  For Lorentz media chi'(0) = -omega_p^2 gamma/omega_0^4 and
        n(0) = sqrt(2), so H* = omega_p^2 gamma/(omega_0^4 sqrt(2)).
        """
        medium = Medium(electric=Lorentz(omega_p=wp, omega_0=w0, gamma=gamma))
        assert medium.electric.chi_bar(0.0) == 1.0
        h_star = wp * wp * gamma / (w0**4 * math.sqrt(2.0))
        for factor in (0.9, 0.99):
            with pytest.raises(InvalidRegimeError) as err:
                TestPolarizationBoundaryCondition._force(medium, factor * h_star)
            assert 0.0 < err.value.p0 < 1e-6
        if (wp, w0, gamma) == (1.0, 1.0, 1.0):
            # the other two are refused just above H* too, at finite p0
            res = TestPolarizationBoundaryCondition._force(medium, 1.01 * h_star)
            assert res.converged and res.force_per_area < 0.0

    def test_requires_polarization_bc_and_scalar(self):
        with pytest.raises(DomainError):
            force_polarization_bc(ForceQuery(separation=1.0))
        with pytest.raises(DomainError):
            force_polarization_bc(
                ForceQuery(
                    kind=FieldKind.EM,
                    bc=BoundaryCondition.POLARIZATION,
                    separation=1.0,
                )
            )


def _kernel_grid():
    rng = random.Random(2404)
    w = [0.2 + 2.8 * k / 59 for k in range(60)]
    x30 = TabulatedCoupling(tuple(w), tuple(30.0 * math.exp(-((x - 1.2) / 0.4) ** 2)
                                            for x in w))
    return [
        # around the regime edge H* = 1/sqrt(2) of the test above
        *(pytest.param(Lorentz(1.0, 1.0, 1.0), f / math.sqrt(2.0), id=f"lorentz-{f}H*")
          for f in (0.9, 0.99, 1.01)),
        *(pytest.param(Lorentz(0.5, 1.0, 0.05), h, id=f"weak-{h:.3g}")
          for h in (0.2 * 20.0 ** rng.random() for _ in range(6))),
        *(pytest.param(Constant(chi0), 1.0, id=f"constant-{chi0}")
          for chi0 in (0.5, 0.99, 1.0, 2.0)),
        # the truth sweep's tabulated coupling scaled by 30, at in-regime H
        *(pytest.param(x30, 10.0 ** (-3.0 + 0.2 * k), id=f"tabulated-x30-k{k}")
          for k in (12, 16, 21, 26)),
    ]


class _StopRoute(Exception):
    pass


class TestPolarizationKernel:
    """The route's rows and its refusal rule against the literal formula.

    The route forms its block of rows as two matrix products and tests the
    regime once per row, at the row's start.  Here one outer call runs on
    the exp-sinh first-pass nodes t, its rows on the same nodes s, next to
    the literal chi_bar^2 v^2 e^-s / D with D = (v/2H) Im chi + (chi_bar -
    1)(chi_bar + 1) - expm1(-v), v = n t + s, from the public model methods.
    """

    NODES = _EXP_SINH[0][:_EXP_SINH[1][_DE_FIRST_LEVELS]]

    @staticmethod
    def _literal(model, h, s):
        # p0 of the live rows, chi_bar, v and the three terms D sums, on s
        medium, t = Medium(electric=model), TestPolarizationKernel.NODES
        p0 = t * (0.5 / h)
        chi = model.chi_bar(p0)
        v0 = medium.refractive_index(FieldKind.SCALAR, p0) * t
        live = (chi != 0.0) & (np.exp(-v0) > 0.0)
        p0, chi, v = p0[live], chi[live, None], v0[live, None] + s
        noise = model.im_chi(p0) if model.has_absorption else 0.0 * p0
        return p0, chi, v, (v * (noise * (0.5 / h))[:, None],
                            (chi - 1.0) * (chi + 1.0), -np.expm1(-v))

    @staticmethod
    def _kernel(model, h, monkeypatch):
        # the route's rows on the nodes, or its refusal
        seen = {}

        def one_call(outer, rel_tol, cuts=()):
            def inner(rows):
                seen["rows"] = rows(TestPolarizationKernel.NODES)
                return np.ones(len(seen["rows"]))
            outer(TestPolarizationKernel.NODES, inner)
            raise _StopRoute

        monkeypatch.setattr(forces_module, "integrate_nested", one_call)
        with pytest.raises((_StopRoute, InvalidRegimeError)) as err:
            force_polarization_bc(ForceQuery(medium=Medium(electric=model),
                                             bc=BoundaryCondition.POLARIZATION,
                                             separation=h))
        return seen.get("rows"), err.value

    @pytest.mark.parametrize("model, h", _kernel_grid())
    def test_refusal_and_rows_match_the_literal_formula(self, model, h, monkeypatch):
        p0, chi, v, terms = self._literal(model, h, self.NODES)
        den = sum(terms)
        rows, raised = self._kernel(model, h, monkeypatch)
        assert isinstance(raised, InvalidRegimeError) == bool((den <= 0.0).any())
        if isinstance(raised, InvalidRegimeError):
            # the first row whose start v = n t has D <= 0, named at q = 0
            starts = sum(self._literal(model, h, 0.0)[3])[:, 0]
            i = np.flatnonzero(starts <= 0.0)[0]
            assert (raised.p0, raised.q) == (p0[i], 0.0)
            assert raised.denominator == pytest.approx(starts[i], rel=1e-12)
        else:
            # within a few ulps of the terms D sums, and of the numerator
            literal = chi * chi * v * v * np.exp(-self.NODES) / den
            ulps = 8.0 * np.finfo(float).eps * (1.0 + sum(map(np.abs, terms)) / den)
            assert np.all(np.abs(rows - literal) <= ulps * literal)


class TestUnderflowedSum:
    """Where n(p0) t > 745 at every exp-sinh node, every integrand value
    underflows to 0 although the true force is not 0; a zero sum must not
    count as converged on either route."""

    @pytest.mark.parametrize("model, h", [
        (Constant(1e68), 1.0), (Constant(1e100), 1.0), (Drude(1e20, 1.0), 1.0),
        (Drude(1.0, 1e-40), 1e5), (Drude(1.0, 0.5), 1e75),
    ], ids=["constant-1e68", "constant-1e100", "drude-1e20", "drude-gamma-1e-40",
            "drude-h-1e75"])
    @pytest.mark.parametrize("bc", list(BoundaryCondition), ids=lambda bc: bc.value)
    def test_zero_sum_is_unconverged(self, model, h, bc):
        route = force_field_bc if bc is BoundaryCondition.FIELD else force_polarization_bc
        res = route(ForceQuery(medium=Medium(electric=model), bc=bc, separation=h))
        assert res.vacuum_ratio == 0.0
        assert not res.converged

    @pytest.mark.parametrize("model", [
        Constant(1e155), Constant(1e308), Lorentz(1e200, 1.0, 0.1),
    ], ids=["constant-1e155", "constant-1e308", "lorentz-wp-1e200"])
    def test_polarization_skips_rows_whose_weight_underflows(self, model):
        # such rows add exactly 0 and chi^2 is never formed for them: past
        # chi = 1.4e154 it overflows, and at omega_p = 1e200 chi itself is inf
        # (Constant(1e68), whose chi^2 is finite, is a case of the test above)
        res = force_polarization_bc(ForceQuery(
            medium=Medium(electric=model), bc=BoundaryCondition.POLARIZATION,
            separation=1.0))
        assert res.force_per_area == 0.0
        assert not res.converged

    def test_skipped_rows_keep_the_force(self):
        # Drude(2, 0.3) at H = 1e5: the force bit for bit as when every row
        # was integrated (22,154 evaluations), now with fewer
        res = force_polarization_bc(ForceQuery(
            medium=Medium(electric=Drude(2.0, 0.3)),
            bc=BoundaryCondition.POLARIZATION, separation=1e5))
        assert res.converged
        assert res.force_per_area == -2.8496582904630426e-28
        assert res.evaluations < 22154


class TestModeLogdet:
    def test_unit_mode(self):
        entry = mode_logdet(1.0, 1.0)
        assert entry == pytest.approx(
            math.log(-math.expm1(-2.0)), rel=1e-15
        )
        assert entry == pytest.approx(-0.14541345786885906, rel=1e-14)
        # below 2EH = ln 2 log1p(-exp(-x)) loses digits; this form does not
        assert mode_logdet(1e-3, 1e-3) == pytest.approx(
            math.log(-math.expm1(-2e-6)), rel=1e-15
        )

    def test_far_plates_vanishes(self):
        assert abs(mode_logdet(1.0, 100.0)) < 1e-15

    def test_validation(self):
        with pytest.raises(DomainError):
            mode_logdet(0.0, 1.0)
        with pytest.raises(DomainError):
            mode_logdet(1.0, 0.0)
        # 2EH underflows to 0, where ln(1 - exp(-2EH)) would be -inf
        with pytest.raises(DomainError, match="energy .*separation"):
            mode_logdet(1e-300, 1e-300)

    @given(
        st.floats(min_value=1e-3, max_value=20.0),
        st.floats(min_value=1e-2, max_value=50.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_positive(self, energy, separation):
        # underflows to -0.0 once 2EH passes ~745, which is the right limit
        value = mode_logdet(energy, separation)
        assert value <= 0.0
        if 2.0 * energy * separation < 700.0:
            assert value < 0.0


class TestActionRoute:
    def test_second_order_convergence(self):
        query = ForceQuery(separation=1.0)
        direct = force_field_bc(query).force_per_area
        err_coarse = abs(force_via_action_fd(query, 1e-2) - direct)
        err_fine = abs(force_via_action_fd(query, 1e-3) - direct)
        ratio = err_coarse / err_fine
        assert 80.0 <= ratio <= 120.0
        assert err_fine / abs(direct) <= 1e-5

    def test_tracks_dispersive_force(self):
        query = ForceQuery(medium=LOR_01, separation=1.0)
        direct = force_field_bc(query).force_per_area
        fd = force_via_action_fd(query, 1e-3)
        assert fd == pytest.approx(direct, rel=1e-5)

    def test_quadratic_error_scaling_at_short_separation(self):
        # the truncation constant grows as 1/H^2; what must survive at any
        # separation is the delta^2 scaling itself
        query = ForceQuery(medium=LOR_05, separation=0.5)
        direct = force_field_bc(query).force_per_area
        err_coarse = abs(force_via_action_fd(query, 1e-2) - direct)
        err_fine = abs(force_via_action_fd(query, 1e-3) - direct)
        assert 80.0 <= err_coarse / err_fine <= 120.0

    @pytest.mark.parametrize("h", [0.5, 1.0, 3.0])
    def test_matches_quadpack_reference(self, h):
        # the route runs on the production route's quadrature engine; this
        # reference integrates the same per-mode difference over (p0, q)
        # with the QUADPACK oracle instead
        delta = 1e-3 * h
        index = TestLargeSeparationAccuracy.INDEX["lorentz"]

        def integrand(p0, q):
            energy = math.hypot(index(p0) * p0, q)
            upper = math.log1p(-math.exp(-2.0 * energy * (h + delta)))
            lower = math.log1p(-math.exp(-2.0 * energy * (h - delta)))
            return q * (upper - lower) / (2.0 * delta)

        scale = 1.0 / (2.0 * h)
        ref = integrate_2d_oracle(integrand, QuadratureSpec(),
                                  outer_scale=scale, inner_scale=scale)
        got = force_via_action_fd(ForceQuery(medium=LOR_01, separation=h), delta)
        assert got == pytest.approx(-ref.value / (4.0 * math.pi**2), rel=1e-8)

    def test_unconverged_integral_raises(self):
        # at this tolerance every inner row misses its tenth of rel_tol
        query = ForceQuery(separation=1.0, spec=QuadratureSpec(rel_tol=1e-13))
        with pytest.raises(IntegrationFailureError, match="H = 1 "):
            force_via_action_fd(query, 1e-3)

    def test_step_validation(self):
        query = ForceQuery(separation=1.0)
        with pytest.raises(DomainError):
            force_via_action_fd(query, 0.0)
        with pytest.raises(DomainError):
            force_via_action_fd(query, 1.0)
        with pytest.raises(DomainError):
            force_via_action_fd(query, -1e-3)


class TestMatterOnly:
    def test_exactly_zero(self):
        for h in (1e-3, 1.0, 42.0):
            assert matter_only_force(h) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            matter_only_force(0.0)
        with pytest.raises(DomainError):
            matter_only_force(-1.0)
        for h in (1e-100, 1e100):
            with pytest.raises(DomainError, match="separation"):
                matter_only_force(h)


class TestForceQueryValidation:
    def test_separation_must_be_positive(self):
        with pytest.raises(DomainError):
            ForceQuery(separation=0.0)
        with pytest.raises(DomainError):
            ForceQuery(separation=-2.0)

    def test_field_routes_refuse_polarization(self):
        query = ForceQuery(bc=BoundaryCondition.POLARIZATION, separation=1.0)
        with pytest.raises(DomainError, match="field boundary condition"):
            force_field_bc(query)
        with pytest.raises(DomainError, match="field boundary condition"):
            force_via_action_fd(query, 1e-3)

    @pytest.mark.parametrize("h", [1e100, 1e-100])
    def test_separation_where_h4_is_not_a_double(self, h):
        with pytest.raises(DomainError, match="separation"):
            ForceQuery(separation=h)
        with pytest.raises(DomainError, match="separation"):
            vacuum_force_analytic(FieldKind.SCALAR, h)

    def test_em_default_multiplicity(self):
        assert ForceQuery(kind=FieldKind.EM, separation=1.0).multiplicity == 2
        assert ForceQuery(separation=1.0).multiplicity == 1
