"""Susceptibility models, the medium container and the JSON loader."""

import json
import math
import re
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_medium import (
    Constant,
    DomainError,
    Drude,
    FieldKind,
    IntegrationFailureError,
    Lorentz,
    Medium,
    MediumFileError,
    MediumInstabilityError,
    PoleError,
    QuadratureSpec,
    TabulatedCoupling,
    UnsupportedDistributionError,
    VACUUM,
    kk_imaginary_axis,
    load_medium,
    medium_from_dict,
)
from casimir_medium.medium import _MODEL_TYPES


def sharp_resonance(omega_p, omega_0):
    """The model a medium file of type sharp_resonance builds."""
    line = {"type": "sharp_resonance", "omega_p": omega_p, "omega_0": omega_0}
    return medium_from_dict({"electric": line}).electric


def lorentz_tabulated(omega_p=1.0, omega_0=1.0, gamma=0.5, n=1601, w_max=60.0):
    """Sample the Lorentz coupling density onto a grid."""
    lor = Lorentz(omega_p=omega_p, omega_0=omega_0, gamma=gamma)
    grid = np.geomspace(1e-3, w_max, n)
    g = [2.0 / math.pi * w * lor.im_chi(w) for w in grid]
    return TabulatedCoupling(omega_grid=tuple(grid), g_values=tuple(g))


def model_id(model):
    """Test id: the model's class name, and Drude for the omega_0 = 0 Lorentz line."""
    if isinstance(model, Lorentz) and model.omega_0 == 0.0:
        return "Drude"
    return type(model).__name__


HAT_MODEL = TabulatedCoupling(omega_grid=(0.5, 1.0, 2.0), g_values=(0.0, 1.0, 0.0))


class TestConstant:
    def test_flat_response(self):
        model = Constant(chi0=1.5)
        assert model.chi_bar(0.0) == 1.5
        assert model.chi_bar(37.2) == 1.5
        assert model.im_chi(1.0) == 0.0
        assert model.chi_real_axis(2.0) == 1.5 + 0.0j
        assert not model.has_absorption

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            Constant(chi0=-0.1)


class TestLorentz:
    def test_imaginary_axis_closed_form(self):
        model = Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1)
        assert model.chi_bar(1.0) == pytest.approx(1.0 / 2.1, rel=1e-15)
        assert model.chi_bar(0.0) == pytest.approx(1.0, rel=1e-15)

    def test_absorption_peak(self):
        model = Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1)
        # on resonance the width alone sets the height
        assert model.im_chi(1.0) == pytest.approx(10.0, rel=1e-15)
        assert model.im_chi(2.0) == pytest.approx(
            0.1 * 2.0 / (9.0 + 0.04), rel=1e-14
        )

    def test_real_axis_value(self):
        model = Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1)
        value = model.chi_real_axis(2.0)
        expected = 1.0 / complex(1.0 - 4.0, -0.2)
        assert value == pytest.approx(expected, rel=1e-14)

    def test_real_and_imag_consistent(self):
        model = Lorentz(omega_p=1.3, omega_0=0.8, gamma=0.25)
        for w in (0.3, 0.8, 1.7):
            assert model.chi_real_axis(w).imag == pytest.approx(
                model.im_chi(w), rel=1e-13
            )

    def test_lossless_resonance_guards(self):
        # (line, a frequency off it)
        for omega_0, off in ((2.0, 1.0), (1.0, 0.7)):
            lossless = Lorentz(omega_p=1.0, omega_0=omega_0, gamma=0.0)
            assert lossless.im_chi(off) == 0.0
            with pytest.raises(UnsupportedDistributionError):
                lossless.im_chi(omega_0)
            with pytest.raises(PoleError):
                lossless.chi_real_axis(omega_0)
            # real on both sides of the line, Im chi = +0 as for gamma -> 0+
            for w in (0.5 * omega_0, 1.5 * omega_0):
                value = lossless.chi_real_axis(w)
                assert value.imag == 0.0 and math.copysign(1.0, value.imag) == 1.0
            assert not lossless.has_absorption
        assert Lorentz(omega_p=1.0, omega_0=2.0, gamma=0.1).has_absorption

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            Lorentz(omega_p=0.0, omega_0=1.0, gamma=0.1)
        with pytest.raises(DomainError):
            Lorentz(omega_p=1.0, omega_0=-1.0, gamma=0.1)
        with pytest.raises(DomainError):
            Lorentz(omega_p=1.0, omega_0=1.0, gamma=-0.5)
        # no restoring force and no damping: the plasma limit is refused
        with pytest.raises(DomainError, match="gamma"):
            Lorentz(omega_p=1.0, omega_0=0.0, gamma=0.0)

    def test_underflowed_denominator_rejected(self):
        # omega_0^2 + xi^2 + gamma xi rounds to 0: a DomainError naming xi
        with pytest.raises(DomainError, match="xi = 0.0"):
            Lorentz(1.0, 1e-200, 0.0).chi_bar(0.0)

    def test_large_damping_is_no_overflow(self):
        # gamma^2 = inf, yet Im chi ~ 1/gamma = 1e-300 is a double: nothing
        # raises, and the value is kept
        tiny = pytest.approx(1e-300, rel=1e-15, abs=0.0)
        assert Lorentz(1.0, 1.0, 1e300).im_chi(1.0) == tiny
        assert Drude(1.0, 1e300).im_chi(1.0) == tiny


class TestDrude:
    def test_is_the_zero_frequency_lorentz_line(self):
        assert Drude(omega_p=1.0, gamma=0.5) == Lorentz(1.0, 0.0, 0.5)

    @pytest.mark.parametrize("wp, gamma", [(1.0, 0.5), (1.3, 0.7), (1e3, 1e-3)])
    def test_lorentz_line_keeps_the_free_carrier_formulas(self, wp, gamma):
        # chi_bar bit for bit: 0 + xi^2 is exact
        model = Lorentz(wp, 0.0, gamma)
        xi = np.geomspace(1e-6, 1e6, 241)
        assert np.array_equal(model.chi_bar(xi), wp * wp / (xi * xi + gamma * xi))
        assert all(model.chi_bar(x) == wp * wp / (x * x + gamma * x)
                   for x in xi.tolist())
        # Im chi = wp^2 gamma/(w (w^2 + gamma^2)) to 1e-15, also where w^4
        # underflows: down to 1e-300, or to where Im chi ~ wp^2/(gamma w)
        # would overflow, and up to where w^2 nears the double range
        low = 1e-300 * max(1.0, wp * wp / gamma)
        omega = np.geomspace(low, 1e150, 301)
        with mp.workdps(50):
            wp2, g = mp.mpf(wp) ** 2, mp.mpf(gamma)
            exact = [float(wp2 * g / (w * (mp.mpf(w) ** 2 + g * g)))
                     for w in omega.tolist()]
        assert model.im_chi(omega).tolist() == pytest.approx(exact, rel=1e-15, abs=0.0)
        assert [model.im_chi(w) for w in omega.tolist()] == pytest.approx(
            exact, rel=1e-15, abs=0.0)

    def test_parameter_validation(self):
        with pytest.raises(DomainError, match="omega_p"):
            Drude(omega_p=0.0, gamma=1.0)

    def test_imaginary_axis(self):
        model = Drude(omega_p=1.0, gamma=0.5)
        assert model.chi_bar(1.0) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_static_divergence(self):
        model = Drude(omega_p=1.0, gamma=0.5)
        with pytest.raises(DomainError):
            model.chi_bar(0.0)

    def test_absorption(self):
        model = Drude(omega_p=1.0, gamma=0.5)
        assert model.im_chi(1.0) == pytest.approx(0.4, rel=1e-15)
        assert model.has_absorption

    def test_real_axis(self):
        model = Drude(omega_p=1.0, gamma=0.5)
        value = model.chi_real_axis(1.0)
        expected = -1.0 / complex(1.0, 0.5)
        assert value == pytest.approx(expected, rel=1e-14)


class TestSharpResonance:
    """The sharp_resonance file type: a lossless Lorentz line."""

    def test_off_resonance(self):
        model = sharp_resonance(omega_p=1.0, omega_0=1.0)
        assert model.chi_bar(2.0) == pytest.approx(0.2, rel=1e-15)
        assert model.im_chi(0.7) == 0.0
        assert not model.has_absorption

    def test_on_resonance_pole(self):
        model = sharp_resonance(omega_p=1.0, omega_0=1.0)
        with pytest.raises(PoleError):
            model.chi_real_axis(1.0)

    def test_matches_narrow_lorentz(self):
        sharp = sharp_resonance(omega_p=1.0, omega_0=1.0)
        narrow = Lorentz(omega_p=1.0, omega_0=1.0, gamma=1e-6)
        for xi in (0.01, 0.5, 1.0, 4.0):
            assert sharp.chi_bar(xi) == pytest.approx(
                narrow.chi_bar(xi), rel=1e-4
            )


class TestTabulatedCoupling:
    def test_grid_validation(self):
        with pytest.raises(DomainError):
            TabulatedCoupling(omega_grid=(1.0,), g_values=(1.0,))
        with pytest.raises(DomainError):
            TabulatedCoupling(omega_grid=(1.0, 0.5), g_values=(1.0, 1.0))
        with pytest.raises(DomainError):
            TabulatedCoupling(omega_grid=(0.0, 1.0), g_values=(1.0, 1.0))
        with pytest.raises(DomainError):
            TabulatedCoupling(omega_grid=(1.0, 2.0), g_values=(1.0, -1.0))
        with pytest.raises(DomainError):
            TabulatedCoupling(omega_grid=(1.0, 2.0), g_values=(1.0,))
        with pytest.raises(DomainError):
            TabulatedCoupling(omega_grid=(1.0, 2.0), g_values=(1.0, math.nan))

    def test_overflowing_slope_names_its_segment(self):
        # nodes that agree to six digits still print as two numbers
        with pytest.raises(DomainError, match=r"segment \[1\.0, 1\.000000000000001\]$"):
            TabulatedCoupling(omega_grid=(0.5, 1.0, 1.000000000000001),
                              g_values=(0.0, 0.0, 1e300))

    def test_zero_outside_grid(self):
        model = TabulatedCoupling(omega_grid=(1.0, 2.0), g_values=(3.0, 3.0))
        assert model._g(0.5) == 0.0
        assert model._g(2.5) == 0.0
        assert model._g(1.0) == 3.0
        assert model._g(1.5) == 3.0

    def test_interpolant_exact_at_nodes(self):
        grid = (0.3, 0.7, 1.1, 2.9, 3.0)
        g = (0.1, 0.37, 1.3, 0.05, 0.2)
        model = TabulatedCoupling(omega_grid=grid, g_values=g)
        assert [model._g(w) for w in grid] == list(g)
        assert model._g(0.9) == pytest.approx(0.835, rel=1e-15)

    def test_chi_bar_matches_direct_quadrature(self):
        model = lorentz_tabulated()
        from casimir_medium import integrate_1d

        spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
        for xi in (0.0, 0.3, 1.0, 10.0):
            ref = integrate_1d(
                lambda w: model._g(w) / (w * w + xi * xi),
                (model.omega_grid[0], model.omega_grid[-1]),
                spec,
                points=model.omega_grid[1:-1],
            )
            assert model.chi_bar(xi) == pytest.approx(ref.value, rel=1e-9)

    def test_reproduces_lorentz(self):
        model = lorentz_tabulated()
        lor = Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.5)
        for xi in (0.05, 0.3, 1.0, 3.0, 10.0):
            assert model.chi_bar(xi) == pytest.approx(lor.chi_bar(xi), rel=1e-4)
        for w in (0.2, 0.9, 1.5, 5.0):
            assert model.im_chi(w) == pytest.approx(lor.im_chi(w), rel=1e-3)

    def test_real_axis_tracks_lorentz_original(self):
        # agreement with the Lorentz original is limited by the linear
        # interpolation of g near the resonance peak, not by quadrature
        model = lorentz_tabulated(n=801)
        lor = Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.5)
        for w in (0.5, 1.0, 2.0):
            got = model.chi_real_axis(w)
            want = lor.chi_real_axis(w)
            assert got.real == pytest.approx(want.real, abs=1e-3)
            assert got.imag == pytest.approx(want.imag, rel=2e-3)

    def test_principal_value_against_exact_antiderivative(self):
        # independent oracle: for a piecewise-linear density g = m u + b the
        # principal value has the closed form
        #   m/2 ln|u^2 - a^2| + b/(2a) ln|(u - a)/(u + a)|
        # summed per segment, with the pole contributions cancelling exactly
        def pv_exact(model, a):
            total = 0.0
            w, g = model.omega_grid, model.g_values
            for i in range(len(w) - 1):
                u1, u2 = w[i], w[i + 1]
                m = (g[i + 1] - g[i]) / (u2 - u1)
                b = g[i] - m * u1
                total += 0.5 * m * (
                    math.log(abs(u2 * u2 - a * a))
                    - math.log(abs(u1 * u1 - a * a))
                )
                total += (b / (2.0 * a)) * (
                    math.log(abs((u2 - a) / (u2 + a)))
                    - math.log(abs((u1 - a) / (u1 + a)))
                )
            return total

        # inside the grid, then below and above it
        for a in (0.7, 1.3, 1.9, 0.3, 2.5):
            got = HAT_MODEL.chi_real_axis(a)
            assert got.real == pytest.approx(pv_exact(HAT_MODEL, a), rel=1e-9)
            assert got.imag == pytest.approx(
                0.5 * math.pi * HAT_MODEL._g(a) / a, rel=1e-12
            )
        # on the interior node a = 1.0 the log terms of the two segments
        # cancel: finite there, and continuous across it
        on_node = HAT_MODEL.chi_real_axis(1.0)
        assert math.isfinite(on_node.real)
        for a in (1.0 - 1e-9, 1.0 + 1e-9):
            assert HAT_MODEL.chi_real_axis(a).real == pytest.approx(
                on_node.real, rel=1e-6
            )
        coarse = lorentz_tabulated(n=41, w_max=20.0)
        for a in (0.8, 1.5):
            assert coarse.chi_real_axis(a).real == pytest.approx(
                pv_exact(coarse, a), rel=1e-8
            )

    def test_principal_value_diverges_at_a_band_edge(self):
        # g jumps from 1 to 0 at each end of this grid
        model = TabulatedCoupling(omega_grid=(0.5, 1.0, 2.0), g_values=(1.0, 1.0, 0.5))
        for a in (0.5, 2.0):
            with pytest.raises(PoleError, match="band edge"):
                model.chi_real_axis(a)

    # nodes past 1.3e154 used to overflow u^2; the Gaussian grid is the
    # benchmark's, where ln((u2^2 + xi^2)/(u1^2 + xi^2)) rounded to 0 at large xi
    WIDE = TabulatedCoupling(omega_grid=(1e-300, 0.5, 1.0, 2.0, 1e300),
                             g_values=(0.0, 0.3, 1.0, 0.2, 0.0))
    GAUSSIAN = TabulatedCoupling(
        tuple(0.2 + 2.8 * k / 59 for k in range(60)),
        tuple(math.exp(-((0.2 + 2.8 * k / 59 - 1.2) / 0.4) ** 2) for k in range(60)))
    XI = (0.0, 1e-200, 1e-13, 1.0, 2.0, 10.0, 1e3, 1e5, 1e8, 1e10, 1e20, 1e200)
    # narrow segments far from the origin, where b atan + m log cancels: the
    # values are up to 7.5e-14 off, and the bound below catches a lost digit
    NARROW = TabulatedCoupling(tuple(4.58e4 + 100.0 * k for k in range(8)),
                               (0.1, 0.9, 0.2, 0.8, 0.3, 0.7, 0.4, 0.6))

    @staticmethod
    def _mp_chi_bar(model, xi):
        # g = m u + b per segment, in 50 digits: log1p keeps the log term
        # where its ratio is near 1, and atan(u2/x) - atan(u1/x) is one
        # arctan, atan(x z), with the limit z at x = 0
        with mp.workdps(50):
            x, total = mp.mpf(xi), mp.mpf(0)
            w, g = model.omega_grid, model.g_values
            for u1, u2, g1, g2 in zip(w, w[1:], g, g[1:]):
                u1, u2, g1, g2 = map(mp.mpf, (u1, u2, g1, g2))
                m = (g2 - g1) / (u2 - u1)
                total += m / 2 * mp.log1p((u2 - u1) * (u2 + u1) / (u1 * u1 + x * x))
                z = (u2 - u1) / (x * x + u1 * u2)
                total += (g1 - m * u1) * (mp.atan(x * z) / x if x else z)
            return total

    @pytest.mark.parametrize("model", [WIDE, GAUSSIAN], ids=["wide", "gaussian"])
    def test_chi_bar_across_the_double_range(self, model):
        values = model.chi_bar(np.array(self.XI))
        for xi, value in zip(self.XI, values.tolist()):
            assert model.chi_bar(xi) == pytest.approx(value, rel=1e-15, abs=0.0)
            exact = self._mp_chi_bar(model, xi)
            if exact >= sys.float_info.min:  # a normal double
                assert value == pytest.approx(float(exact), rel=1e-12, abs=0.0)
        # finite, and no RuntimeWarning, at every xi >= 0
        xi = np.concatenate([[0.0], np.geomspace(5e-324, 1e308, 2001),
                             [sys.float_info.max]])
        assert np.isfinite(model.chi_bar(xi)).all()

    def test_chi_bar_on_narrow_segments_far_from_the_origin(self):
        xi = (0.0, 1.0, 1e3, 4.6e4, 1e5, 1e8)
        for x, value in zip(xi, self.NARROW.chi_bar(np.array(xi)).tolist()):
            exact = float(self._mp_chi_bar(self.NARROW, x))
            assert value == pytest.approx(exact, rel=1e-13, abs=0.0)
            assert self.NARROW.chi_bar(x) == pytest.approx(exact, rel=1e-13, abs=0.0)

    def test_small_xi_stability(self):
        # the arctan difference must not cancel at tiny xi
        model = TabulatedCoupling(omega_grid=(1.0, 2.0, 3.0), g_values=(0.5, 1.0, 0.25))
        value_zero = model.chi_bar(0.0)
        value_tiny = model.chi_bar(1e-9)
        assert value_tiny == pytest.approx(value_zero, rel=1e-12)

    def test_static_point_on_real_axis(self):
        # at omega = 0 the principal value is chi_bar(0), with no absorption
        assert HAT_MODEL.chi_real_axis(0.0) == complex(HAT_MODEL.chi_bar(0.0))


class TestArrayEvaluation:
    """chi_bar, im_chi and refractive_index on arrays match the scalar calls."""

    MODELS = [
        Constant(chi0=0.7),
        Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1),
        Drude(omega_p=1.0, gamma=0.5),
        pytest.param(Lorentz(omega_p=1.0, omega_0=2.0, gamma=0.0),
                     id="LorentzLossless"),
        HAT_MODEL,
    ]
    XI = np.array([1e-9, 0.3, 1.0, 2.5, 40.0])

    @pytest.mark.parametrize("model", MODELS, ids=model_id)
    def test_chi_bar_elementwise(self, model):
        values = model.chi_bar(self.XI)
        assert isinstance(values, np.ndarray) and values.shape == self.XI.shape
        expected = [model.chi_bar(float(xi)) for xi in self.XI]
        assert values.tolist() == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("model", MODELS, ids=model_id)
    def test_scalar_in_float_out(self, model):
        assert type(model.chi_bar(0.5)) is float
        assert type(Medium(electric=model).refractive_index(FieldKind.EM, 0.5)) is float

    @pytest.mark.parametrize("model", MODELS, ids=model_id)
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_domain_checked_elementwise(self, model, bad):
        with pytest.raises(DomainError):
            model.chi_bar(np.array([1.0, bad, 2.0]))

    def test_drude_zero_inside_array(self):
        with pytest.raises(DomainError):
            Drude(omega_p=1.0, gamma=0.5).chi_bar(np.array([1.0, 0.0]))

    def test_tabulated_static_point_inside_array(self):
        values = HAT_MODEL.chi_bar(np.array([0.0, 1.0]))
        assert values[0] == pytest.approx(HAT_MODEL.chi_bar(0.0), rel=1e-15)

    @pytest.mark.parametrize("kind", [FieldKind.SCALAR, FieldKind.EM])
    def test_refractive_index_elementwise(self, kind):
        medium = Medium(electric=Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1),
                        magnetic=Lorentz(omega_p=0.5, omega_0=1.0, gamma=0.0))
        values = medium.refractive_index(kind, self.XI)
        expected = [medium.refractive_index(kind, float(xi)) for xi in self.XI]
        assert values.tolist() == pytest.approx(expected, rel=1e-15)

    IM_MODELS = MODELS + [Lorentz(omega_p=1.0, omega_0=1.2, gamma=0.0)]
    # off every line, on and off the tabulated grid (nodes 0.5, 1, 2)
    OMEGA = np.array([1e-9, 0.3, 0.5, 0.75, 1.0, 1.5, 2.5, 40.0])

    @pytest.mark.parametrize("model", IM_MODELS, ids=model_id)
    def test_im_chi_elementwise(self, model):
        values = model.im_chi(self.OMEGA)
        assert isinstance(values, np.ndarray) and values.shape == self.OMEGA.shape
        expected = [model.im_chi(float(w)) for w in self.OMEGA]
        assert values.tolist() == pytest.approx(expected, rel=1e-15, abs=0.0)
        assert type(model.im_chi(0.75)) is float

    def test_tabulated_im_chi_exact_at_nodes(self):
        nodes = np.array(HAT_MODEL.omega_grid)
        expected = [0.5 * math.pi * g / w for w, g in zip(nodes, HAT_MODEL.g_values)]
        assert HAT_MODEL.im_chi(nodes).tolist() == expected

    @pytest.mark.parametrize("model", IM_MODELS, ids=model_id)
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_im_chi_domain_checked_elementwise(self, model, bad):
        with pytest.raises(DomainError, match="real-axis frequency"):
            model.im_chi(np.array([1.5, bad, 2.5]))

    @pytest.mark.parametrize("model", [
        pytest.param(sharp_resonance(omega_p=1.0, omega_0=2.0),
                     id="SharpResonance"),
        Lorentz(omega_p=1.0, omega_0=2.0, gamma=0.0),
    ], ids=model_id)
    def test_line_inside_array_refused(self, model):
        assert model.im_chi(np.array([1.0, 3.0])).tolist() == [0.0, 0.0]
        with pytest.raises(UnsupportedDistributionError):
            model.im_chi(np.array([1.0, 2.0, 3.0]))

    def test_instability_reports_first_unstable_frequency(self):
        # chi_m(xi) = 2/(1 + xi^2) reaches 1 for xi <= 1
        line = Lorentz(omega_p=math.sqrt(2.0), omega_0=1.0, gamma=0.0)
        medium = Medium(electric=Constant(0.0), magnetic=line)
        with pytest.raises(MediumInstabilityError) as err:
            medium.refractive_index(FieldKind.EM, np.array([3.0, 0.5, 0.2]))
        assert err.value.xi == 0.5


class TestMedium:
    def test_vacuum(self):
        assert VACUUM.refractive_index(FieldKind.SCALAR, 1.0) == 1.0
        assert VACUUM.refractive_index(FieldKind.EM, 1.0) == 1.0
        assert VACUUM.mu_bar(2.0) == 1.0

    def test_scalar_index_ignores_magnetic(self):
        medium = Medium(electric=Constant(3.0), magnetic=Constant(0.5))
        assert medium.refractive_index(FieldKind.SCALAR, 1.0) == pytest.approx(2.0)

    def test_em_index_includes_magnetic(self):
        # chi_m enters through mu = 1/(1 - chi_m): chi_e = 1 and chi_m = 1/2
        # give eps = 2, mu = 2, n = 2
        medium = Medium(electric=Constant(1.0), magnetic=Constant(0.5))
        assert medium.refractive_index(FieldKind.EM, 1.0) == pytest.approx(2.0)

    def test_magnetic_instability(self):
        medium = Medium(electric=Constant(0.0), magnetic=Constant(1.0))
        with pytest.raises(MediumInstabilityError):
            medium.mu_bar(1.0)
        with pytest.raises(MediumInstabilityError):
            medium.refractive_index(FieldKind.EM, 1.0)
        # the scalar sector never touches mu
        assert medium.refractive_index(FieldKind.SCALAR, 1.0) == 1.0

    def test_instability_message_names_value(self):
        medium = Medium(electric=Constant(0.0), magnetic=Constant(2.0))
        with pytest.raises(MediumInstabilityError, match="chi_m"):
            medium.mu_bar(3.0)


class TestKramersKronig:
    @pytest.mark.parametrize(
        "model",
        [
            Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1),
            Drude(omega_p=1.0, gamma=0.5),
        ],
        ids=["lorentz", "drude"],
    )
    def test_closure_on_log_grid(self, model, default_spec):
        worst = 0.0
        for xi in np.geomspace(1e-2, 1e2, 20):
            via_kk = kk_imaginary_axis(model, float(xi), default_spec)
            direct = model.chi_bar(float(xi))
            worst = max(worst, abs(via_kk - direct) / abs(direct))
        assert worst < 1e-6

    def test_only_a_narrow_line_is_a_breakpoint(self, default_spec):
        assert Lorentz(1.0, 1.0, 0.1)._dispersion_breakpoints() == (1.0,)
        for model in (Lorentz(1.0, 1.0, 1.0), Lorentz(1.0, 1.0, 0.0), Drude(1.0, 0.5)):
            assert model._dispersion_breakpoints() == ()
        # with no breakpoint and xi = 0 the algebraic tail starts at w = 1
        model = Lorentz(omega_p=2.0, omega_0=0.5, gamma=1.0)
        assert kk_imaginary_axis(model, 0.0, default_spec) == pytest.approx(16.0, rel=1e-9)

    def test_requires_absorption(self, default_spec):
        with pytest.raises(DomainError):
            kk_imaginary_axis(Constant(1.0), 1.0, default_spec)
        # at xi = 0 the integrand is Im chi(w)/w, and Drude's Im chi ~ 1/w
        with pytest.raises(DomainError, match="diverges at zero imaginary frequency"):
            kk_imaginary_axis(Drude(omega_p=1.0, gamma=0.5), 0.0, default_spec)

    def test_unreachable_tolerance_raises(self):
        # round-off keeps the error estimate above a 1e-15 relative target
        lor = Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1)
        with pytest.raises(IntegrationFailureError, match="xi = 0.01"):
            kk_imaginary_axis(lor, 0.01, QuadratureSpec(rel_tol=1e-15))

    def test_tabulated_closure(self, default_spec):
        # for a tabulated model the two routes integrate the same density,
        # so closure holds exactly whatever the grid resolution
        for xi in (0.1, 1.0, 10.0):
            via_kk = kk_imaginary_axis(HAT_MODEL, xi, default_spec)
            assert via_kk == pytest.approx(HAT_MODEL.chi_bar(xi), rel=1e-9)

    def test_tabulated_closure_with_band_edges(self, default_spec):
        # g jumps to zero at both ends of the grid, and xi = 10 puts a panel
        # beyond it whose integrand is zero but for the closed end node
        model = TabulatedCoupling(omega_grid=(0.5, 1.0, 2.0), g_values=(1.0, 1.0, 0.5))
        for xi in (0.0, 0.1, 1.0, 10.0):
            via_kk = kk_imaginary_axis(model, xi, default_spec)
            assert via_kk == pytest.approx(model.chi_bar(xi), rel=1e-9)


MODELS = st.sampled_from(
    [
        Constant(0.7),
        Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.1),
        Lorentz(omega_p=2.0, omega_0=0.5, gamma=1.0),
        Drude(omega_p=1.0, gamma=0.5),
        Lorentz(omega_p=1.0, omega_0=1.0, gamma=0.0),
        TabulatedCoupling(omega_grid=(0.5, 1.0, 2.0), g_values=(0.1, 0.8, 0.0)),
    ]
)


class TestModelProperties:
    @given(MODELS, st.floats(min_value=1e-6, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_imaginary_axis_positive(self, model, xi):
        assert model.chi_bar(xi) > 0.0 or isinstance(model, TabulatedCoupling)
        assert model.chi_bar(xi) >= 0.0

    @given(MODELS, st.floats(min_value=1e-6, max_value=50.0),
           st.floats(min_value=1.0 + 1e-9, max_value=4.0))
    @settings(max_examples=200, deadline=None)
    def test_imaginary_axis_nonincreasing(self, model, xi, factor):
        assert model.chi_bar(xi * factor) <= model.chi_bar(xi) + 1e-15

    @given(MODELS, st.floats(min_value=1e-3, max_value=100.0))
    @settings(max_examples=200, deadline=None)
    def test_passivity(self, model, omega):
        try:
            assert model.im_chi(omega) >= 0.0
        except UnsupportedDistributionError:
            pass


class TestLoader:
    def test_round_trip(self, tmp_path):
        cfg = {
            "electric": {"type": "lorentz", "omega_p": 1.0, "omega_0": 1.0,
                         "gamma": 0.1},
            "magnetic": {"type": "constant", "chi0": 0.2},
        }
        path = tmp_path / "medium.json"
        path.write_text(json.dumps(cfg))
        medium = load_medium(str(path))
        assert isinstance(medium.electric, Lorentz)
        assert medium.electric.gamma == 0.1
        assert isinstance(medium.magnetic, Constant)

    def test_gamma_defaults_to_zero(self):
        medium = medium_from_dict(
            {"electric": {"type": "lorentz", "omega_p": 1.0, "omega_0": 2.0}}
        )
        assert medium.electric.gamma == 0.0

    def test_sharp_resonance_is_lossless_lorentz(self):
        line = {"type": "sharp_resonance", "omega_p": 1.3, "omega_0": 0.7}
        assert medium_from_dict({"electric": line}).electric == Lorentz(1.3, 0.7, 0.0)

    def test_drude_file_builds_the_free_carrier_line(self):
        drude = {"type": "drude", "omega_p": 1.0, "gamma": 0.5}
        assert medium_from_dict({"electric": drude}).electric == Lorentz(1.0, 0.0, 0.5)
        with pytest.raises(MediumFileError, match="electric.omega_0: unexpected"):
            medium_from_dict({"electric": {**drude, "omega_0": 1.0}})
        with pytest.raises(MediumFileError, match="electric.gamma: missing"):
            medium_from_dict({"electric": {"type": "drude", "omega_p": 1.0}})
        # a lorentz file may reach the same line, but not undamped
        line = {"type": "lorentz", "omega_p": 1.0, "omega_0": 0.0}
        with pytest.raises(MediumFileError, match="electric: gamma"):
            medium_from_dict({"electric": line})

    def test_readme_model_table_matches_loader(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        # the paragraph after the table's heading
        table = readme.split("Model types and their parameters", 1)[1].split("\n\n")[1]
        rows = re.findall(r"^\| `(\w+)` +\|(.*)\|$", table, flags=re.M)
        samples = {"omega_grid": [0.5, 1.0, 2.0], "g_values": [0.0, 1.0, 0.0]}
        for kind, cell in rows:
            params = re.findall(r"`(\w+)`( \(optional)?", cell)
            full = {"type": kind}
            full.update((name, samples.get(name, 1.0)) for name, _ in params)
            medium_from_dict({"electric": full})
            for name, optional in params:
                partial = {k: v for k, v in full.items() if k != name}
                if optional:
                    medium_from_dict({"electric": partial})
                else:
                    missing = rf"electric\.{name}: missing"
                    with pytest.raises(MediumFileError, match=missing):
                        medium_from_dict({"electric": partial})
        assert {kind for kind, _ in rows} == set(_MODEL_TYPES)

    def test_magnetic_defaults_to_vacuum(self):
        medium = medium_from_dict({"electric": {"type": "constant", "chi0": 1.0}})
        assert medium.magnetic == Constant(0.0)

    def test_unknown_type_names_field(self):
        with pytest.raises(MediumFileError, match="electric.type"):
            medium_from_dict({"electric": {"type": "polynomial"}})

    def test_missing_field_named(self):
        with pytest.raises(MediumFileError, match="electric.omega_p"):
            medium_from_dict({"electric": {"type": "lorentz", "omega_0": 1.0}})

    def test_extra_field_named(self):
        # sharp_resonance fixes gamma at 0, so a file may not set it
        for extra in ("q_factor", "gamma"):
            with pytest.raises(MediumFileError, match=f"electric.{extra}"):
                medium_from_dict(
                    {
                        "electric": {
                            "type": "sharp_resonance",
                            "omega_p": 1.0,
                            "omega_0": 1.0,
                            extra: 10.0,
                        }
                    }
                )

    def test_non_number_rejected(self):
        with pytest.raises(MediumFileError, match="electric.chi0"):
            medium_from_dict({"electric": {"type": "constant", "chi0": "big"}})
        with pytest.raises(MediumFileError, match="electric.chi0"):
            medium_from_dict({"electric": {"type": "constant", "chi0": True}})

    def test_missing_electric_section(self):
        with pytest.raises(MediumFileError, match="electric"):
            medium_from_dict({"magnetic": {"type": "constant", "chi0": 0.1}})

    @pytest.mark.parametrize("cfg, field", [
        ([], "medium"),
        ({"electric": 3}, "medium.electric"),
        ({"electric": {}}, "medium.electric.type"),
        ({"electric": {"type": "tabulated", "omega_grid": 1, "g_values": [1.0]}},
         "medium.electric.omega_grid"),
    ])
    def test_malformed_section_named(self, cfg, field):
        with pytest.raises(MediumFileError, match=re.escape(field)):
            medium_from_dict(cfg)

    def test_unknown_top_level_key(self):
        with pytest.raises(MediumFileError, match="thermal"):
            medium_from_dict(
                {
                    "electric": {"type": "constant", "chi0": 0.1},
                    "thermal": {},
                }
            )

    def test_tabulated_from_dict(self):
        medium = medium_from_dict(
            {
                "electric": {
                    "type": "tabulated",
                    "omega_grid": [0.5, 1.0, 2.0],
                    "g_values": [0.0, 1.0, 0.0],
                }
            }
        )
        assert isinstance(medium.electric, TabulatedCoupling)
        assert medium.electric.has_absorption

    def test_invalid_parameter_value_reported(self):
        with pytest.raises(MediumFileError, match="electric"):
            medium_from_dict({"electric": {"type": "drude", "omega_p": 1.0,
                                           "gamma": -2.0}})

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"electric": ')
        with pytest.raises(MediumFileError, match=r"broken\.json:1:"):
            load_medium(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MediumFileError, match="no-such"):
            load_medium(str(tmp_path / "no-such.json"))
