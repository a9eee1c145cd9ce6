"""Free, dressed and cross propagators plus the resummation identity."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_medium import (
    Axis,
    CasimirMediumError,
    Constant,
    DegenerateModeError,
    DomainError,
    Drude,
    FieldKind,
    Lorentz,
    Medium,
    MomentumFrequencyPoint,
    PoleError,
    UnsupportedDistributionError,
    VACUUM,
    cross_correlators,
    dyson_partial_sum,
    g0,
    g_omega,
    g_phiphi,
    reservoir_gap,
)
from casimir_medium.propagators import DEFAULT_ETA

LORENTZ_MEDIUM = Medium(electric=Lorentz(omega_p=1.0, omega_0=2.0, gamma=0.3))


def real_point(k: float, omega: float) -> MomentumFrequencyPoint:
    return MomentumFrequencyPoint(k, omega, Axis.REAL)


def euclid_point(k: float, xi: float) -> MomentumFrequencyPoint:
    return MomentumFrequencyPoint(k, xi, Axis.EUCLIDEAN)


class TestFreePropagator:
    def test_static_value(self):
        assert g0(2.0, 0.0) == 0.25 + 0.0j

    def test_timelike_value(self):
        value = g0(0.0, 1.0)
        assert value.real == pytest.approx(-1.0, rel=1e-12)
        assert value.imag == pytest.approx(1e-8, rel=1e-6)

    def test_spacelike_no_shift_needed(self):
        assert g0(1.0, 3.0, eta=0.0) == pytest.approx(-0.125 + 0.0j)

    def test_retarded_sign_flips_with_frequency(self):
        plus = g0(1.0, 2.0)
        minus = g0(1.0, -2.0)
        assert plus.imag > 0.0
        assert minus.imag < 0.0
        assert plus.real == pytest.approx(minus.real, rel=1e-14)

    def test_on_shell_pole_without_shift(self):
        with pytest.raises(PoleError):
            g0(1.0, 1.0, eta=0.0)

    def test_on_shell_regulated(self):
        value = g0(1.0, 1.0)
        # purely imaginary, height set by the shift
        assert value == pytest.approx(complex(0.0, 1e8), rel=1e-6)

    def test_origin_rejected(self):
        with pytest.raises(DomainError):
            g0(0.0, 0.0)

    def test_negative_momentum_rejected(self):
        with pytest.raises(DomainError):
            g0(-1.0, 1.0)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_rejected(self, omega):
        with pytest.raises(DomainError, match="frequency"):
            g0(1.0, omega)

    def test_overflowing_terms_rejected(self):
        # k^2 and omega^2 both overflow: inf - inf is no number
        with pytest.raises(DomainError, match="NaN"):
            g0(1e200, 1e200)

    @pytest.mark.parametrize("eta", [DEFAULT_ETA, 0.0])
    def test_one_infinite_term_is_no_pole(self, eta):
        # 1/inf rounds to 0 at every shift
        assert g0(1e200, 1.0, eta) == 0.0
        assert g_omega(1.0, 1e200, eta) == 0.0


class TestReservoirPropagator:
    def test_off_resonance(self):
        assert g_omega(1.0, 3.0, eta=0.0) == pytest.approx(-0.125 + 0.0j)

    def test_static(self):
        value = g_omega(1.0, 0.0)
        assert value.real == pytest.approx(1.0, rel=1e-12)

    def test_requires_positive_resonance(self):
        with pytest.raises(DomainError):
            g_omega(0.0, 1.0)
        with pytest.raises(DomainError):
            g_omega(-2.0, 1.0)

    def test_resonance_pole_without_shift(self):
        with pytest.raises(PoleError):
            g_omega(2.0, 2.0, eta=0.0)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_frequency_rejected(self, omega):
        with pytest.raises(DomainError, match="frequency"):
            g_omega(1.0, omega)

    def test_reservoir_gap_identically_zero(self):
        for h in (1e-6, 0.5, 3.0, 100.0):
            assert reservoir_gap(2.0, h) == 0.0

    def test_reservoir_gap_needs_positive_separation(self):
        with pytest.raises(DomainError):
            reservoir_gap(2.0, 0.0)
        with pytest.raises(DomainError, match="reservoir frequency"):
            reservoir_gap(0.0, 1.0)


class TestDressedPropagator:
    def test_euclidean_vacuum(self):
        value = g_phiphi(VACUUM, FieldKind.SCALAR, euclid_point(1.0, 1.0))
        assert type(value) is complex and value == 0.5 + 0.0j

    def test_euclidean_dressed(self):
        medium = Medium(electric=Constant(3.0))
        value = g_phiphi(medium, FieldKind.SCALAR, euclid_point(1.0, 1.0))
        # 1/(k^2 + 4 xi^2)
        assert value == pytest.approx(0.2 + 0.0j, rel=1e-15)

    def test_euclidean_magnetic_screening(self):
        medium = Medium(electric=Constant(0.0), magnetic=Constant(0.5))
        value = g_phiphi(medium, FieldKind.EM, euclid_point(2.0, 0.0))
        # k^2 (1 - chi_m) = 4 * 0.5
        assert value == pytest.approx(0.5 + 0.0j, rel=1e-15)

    def test_euclidean_zero_mode_rejected(self):
        with pytest.raises(DegenerateModeError):
            g_phiphi(VACUUM, FieldKind.SCALAR, euclid_point(0.0, 0.0))

    def test_real_axis_zero_mode_rejected(self):
        # one origin rule on both axes
        with pytest.raises(DegenerateModeError):
            g_phiphi(VACUUM, FieldKind.SCALAR, real_point(0.0, 0.0))

    def test_unshifted_value_has_no_negative_zero(self):
        # a real denominator gives Im = +0, as in g0
        value = g_phiphi(VACUUM, FieldKind.SCALAR, real_point(0.5, 1.7), 0.0)
        assert math.copysign(1.0, value.imag) == 1.0
        assert value == g0(0.5, 1.7, 0.0)

    @pytest.mark.parametrize(
        "model", [Lorentz(1e308, 1e-308, 0.1), Drude(1e200, 1e-200)]
    )
    def test_overflowing_susceptibility_rejected(self, model):
        # chi overflows, so the denominator and every correlator are NaN
        point = real_point(1.0, 0.5)
        with pytest.raises(DomainError, match="NaN"):
            g_phiphi(Medium(electric=model), FieldKind.SCALAR, point)
        with pytest.raises(DomainError, match="NaN"):
            cross_correlators(Medium(electric=model), point)

    def test_euclidean_overflowing_susceptibility_rejected(self):
        # chi_bar(0) = inf, so k^2 + 0 * inf is NaN: refused, not returned
        medium = Medium(electric=Lorentz(1e200, 1.0, 1.0))
        with pytest.raises(DomainError, match="NaN"):
            g_phiphi(medium, FieldKind.SCALAR, euclid_point(1.0, 0.0))

    def test_real_axis_vacuum(self):
        value = g_phiphi(VACUUM, FieldKind.SCALAR, real_point(1.0, 2.0))
        assert value.real == pytest.approx(-1.0 / 3.0, rel=1e-12)

    def test_real_axis_reduces_to_g0_in_vacuum(self):
        # near the light cone at eta = 0 and at the origin: both raise the
        # same error type, or both give one value
        def outcome(call):
            try:
                return call()
            except CasimirMediumError as err:
                return type(err)

        for k, w, eta in [
            (0.5, 1.7, DEFAULT_ETA), (2.0, 0.3, DEFAULT_ETA), (1.0, -1.4, DEFAULT_ETA),
            (0.5, 1.7, 0.0), (0.30000000000000004, 0.3, 0.0),
            (1.0, -1.0 - 1e-13, 0.0), (1.0, 1.0 + 1e-9, 0.0),
            *[(k, w, eta) for k, w in [(0.0, 0.0), (1e-13, 0.0), (0.0, 1e-13)]
              for eta in (DEFAULT_ETA, 0.0)],
        ]:
            point = real_point(k, w)
            free = outcome(lambda: g0(k, w, eta))
            dressed = outcome(lambda: g_phiphi(VACUUM, FieldKind.SCALAR, point, eta))
            if isinstance(free, type):
                assert dressed is free, (k, w, eta)
            else:
                assert dressed == pytest.approx(free, rel=1e-14), (k, w, eta)

    def test_absorptive_medium_moves_pole_off_axis(self):
        # on the vacuum light cone the dressed propagator stays finite
        value = g_phiphi(LORENTZ_MEDIUM, FieldKind.SCALAR, real_point(1.0, 1.0),
                         eta=0.0)
        assert math.isfinite(abs(value))
        assert value.imag > 0.0

    def test_euclidean_rejects_negative_frequency(self):
        with pytest.raises(DomainError):
            euclid_point(1.0, -1.0)

    @pytest.mark.parametrize("eta", [-1.0, math.nan, math.inf])
    def test_bad_shift_rejected_everywhere(self, eta):
        # a negative shift would flip to the advanced prescription
        point = real_point(1.0, 1.0)
        with pytest.raises(DomainError, match="eta"):
            g0(1.0, 1.0, eta)
        with pytest.raises(DomainError, match="eta"):
            g_omega(1.0, 1.0, eta)
        with pytest.raises(DomainError, match="eta"):
            g_phiphi(LORENTZ_MEDIUM, FieldKind.SCALAR, point, eta)
        with pytest.raises(DomainError, match="eta"):
            cross_correlators(LORENTZ_MEDIUM, point, eta)


class TestCrossCorrelators:
    def test_vacuum_all_zero(self):
        c = cross_correlators(VACUUM, real_point(1.0, 2.0))
        assert c.g_phi_p == 0.0
        assert c.g_phi_m == 0.0
        assert c.g_pp == 0.0
        assert c.g_mm == 0.0

    def test_identities_against_components(self):
        medium = Medium(
            electric=Lorentz(omega_p=1.0, omega_0=2.0, gamma=0.3),
            magnetic=Lorentz(omega_p=0.4, omega_0=3.0, gamma=0.2),
        )
        k, w = 1.3, 0.9
        point = real_point(k, w)
        c = cross_correlators(medium, point)
        g = g_phiphi(medium, FieldKind.EM, point)
        chi_e = medium.electric.chi_real_axis(w)
        chi_m = medium.magnetic.chi_real_axis(w)
        assert c.g_phi_p == pytest.approx(1j * w * chi_e * g, rel=1e-13)
        assert c.g_phi_m == pytest.approx(1j * k * w * chi_m * g, rel=1e-13)
        assert c.g_pp == pytest.approx(
            medium.electric.im_chi(w) + w * w * chi_e * chi_e * g, rel=1e-13
        )
        assert c.g_mm == pytest.approx(
            medium.magnetic.im_chi(w) + k * k * chi_m * chi_m * g, rel=1e-13
        )

    def test_static_limit_lorentz(self):
        c = cross_correlators(LORENTZ_MEDIUM, real_point(1.0, 0.0))
        assert c.g_phi_p == 0.0
        assert c.g_pp == 0.0  # the absorptive part vanishes linearly at 0

    def test_static_limit_drude_unsupported(self):
        # the free-carrier response diverges at zero frequency
        medium = Medium(electric=Drude(omega_p=1.0, gamma=0.5))
        with pytest.raises(DomainError):
            cross_correlators(medium, real_point(1.0, 0.0))

    def test_euclidean_axis_rejected(self):
        with pytest.raises(DomainError):
            cross_correlators(VACUUM, euclid_point(1.0, 1.0))


class TestDysonResummation:
    def test_vacuum_ratio_zero(self):
        s = dyson_partial_sum(VACUUM, real_point(1.0, 0.7), order=5)
        assert s.ratio == 0.0
        assert s.value == pytest.approx(g0(1.0, 0.7), rel=1e-14)
        assert s.converged

    def test_static_limit(self):
        s = dyson_partial_sum(LORENTZ_MEDIUM, real_point(1.5, 0.0), order=12)
        assert s.value == pytest.approx(g0(1.5, 0.0), rel=1e-14)
        assert s.ratio == 0.0

    def test_converges_to_closed_form(self):
        point = real_point(1.0, 0.8)
        closed = g_phiphi(LORENTZ_MEDIUM, FieldKind.SCALAR, point)
        base = g0(point.k, point.frequency)
        s30 = dyson_partial_sum(LORENTZ_MEDIUM, point, order=30)
        assert s30.converged
        bound = abs(base) * abs(s30.ratio) ** 31 / (1.0 - abs(s30.ratio))
        assert abs(s30.value - closed) <= bound + 1e-16

    def test_tail_bound_every_order(self):
        point = real_point(0.4, 1.1)
        closed = g_phiphi(LORENTZ_MEDIUM, FieldKind.SCALAR, point)
        base = g0(point.k, point.frequency)
        ratio = abs(dyson_partial_sum(LORENTZ_MEDIUM, point, order=0).ratio)
        assert ratio < 1.0
        for order in range(0, 31):
            s = dyson_partial_sum(LORENTZ_MEDIUM, point, order=order)
            bound = abs(base) * ratio ** (order + 1) / (1.0 - ratio)
            assert abs(s.value - closed) <= bound * (1.0 + 1e-12) + 1e-15

    def test_divergent_ratio_flagged(self):
        # a large static-like response pushes |r| past 1 near the light cone
        medium = Medium(electric=Constant(30.0))
        s = dyson_partial_sum(medium, real_point(1.0, 0.99), order=5)
        assert abs(s.ratio) >= 1.0
        assert not s.converged

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            dyson_partial_sum(VACUUM, real_point(1.0, 1.0), order=-1)

    def test_euclidean_axis_rejected(self):
        with pytest.raises(DomainError):
            dyson_partial_sum(VACUUM, euclid_point(1.0, 1.0), order=3)


class TestPointValidation:
    def test_real_axis_allows_negative_frequency(self):
        point = real_point(1.0, -2.0)
        assert point.frequency == -2.0

    def test_momentum_must_be_nonnegative(self):
        with pytest.raises(DomainError):
            real_point(-0.5, 1.0)

    def test_frequency_must_be_finite(self):
        with pytest.raises(DomainError, match="frequency must be finite"):
            MomentumFrequencyPoint(1.0, math.nan, Axis.REAL)


@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.05, max_value=5.0),
)
@settings(max_examples=150, deadline=None)
def test_dressed_real_axis_absorptive_sign(k, omega):
    """For a passive absorptive medium the retarded propagator keeps
    Im G >= 0 at positive frequency."""
    value = g_phiphi(LORENTZ_MEDIUM, FieldKind.SCALAR, real_point(k, omega))
    assert value.imag >= 0.0


@given(
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=5.0)),
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=5.0)),
)
@settings(max_examples=150, deadline=None)
def test_dressed_euclidean_positive(k, xi):
    if k == 0.0 and xi == 0.0:
        return
    value = g_phiphi(LORENTZ_MEDIUM, FieldKind.SCALAR, euclid_point(k, xi))
    assert value.real > 0.0
    assert value.imag == 0.0
