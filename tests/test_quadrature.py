"""Polylogarithms, the closed-form mode integral and the quadrature wrappers."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir_medium import (
    Constant,
    DomainError,
    ForceQuery,
    IntegrationFailureError,
    InvalidRegimeError,
    Medium,
    QuadratureSpec,
    force_field_bc,
    force_via_action_fd,
    inner_mode_integral,
    integrate_1d,
    integrate_2d_oracle,
    integrate_exp_sinh,
    polylog,
)
from casimir_medium.quadrature import (
    _DEBYE_SERIES,
    ZETA_3,
    integrate_nested,
    integrate_panels,
    integrate_tanh_sinh,
)

from .conftest import mp_inner_mode_integral

PI2_6 = math.pi * math.pi / 6.0


class TestPolylog:
    def test_li2_at_one(self):
        assert polylog(2, 1.0) == pytest.approx(PI2_6, abs=1e-15)

    def test_li3_at_one(self):
        assert polylog(3, 1.0) == pytest.approx(ZETA_3, abs=1e-15)

    def test_li2_at_half(self):
        # pi^2/12 - ln^2(2)/2
        exact = PI2_6 / 2.0 - math.log(2.0) ** 2 / 2.0
        assert polylog(2, 0.5) == pytest.approx(exact, rel=1e-15)

    def test_li3_at_half(self):
        # 7 zeta(3)/8 - pi^2 ln 2 / 12 + ln^3 2 / 6
        exact = (
            7.0 * ZETA_3 / 8.0
            - PI2_6 * math.log(2.0) / 2.0
            + math.log(2.0) ** 3 / 6.0
        )
        assert polylog(3, 0.5) == pytest.approx(exact, rel=1e-15)

    def test_li1_matches_log(self):
        assert polylog(1, 0.3) == pytest.approx(-math.log(0.7), rel=1e-15)

    def test_li1_at_one_diverges(self):
        with pytest.raises(DomainError):
            polylog(1, 1.0)

    def test_at_zero(self):
        for s in (1, 2, 3):
            assert polylog(s, 0.0) == 0.0

    def test_rejects_bad_order_and_argument(self):
        with pytest.raises(DomainError):
            polylog(4, 0.5)
        with pytest.raises(DomainError):
            polylog(2, -0.1)
        with pytest.raises(DomainError):
            polylog(2, 1.5)
        with pytest.raises(DomainError):
            polylog(2, math.nan)

    @pytest.mark.parametrize(
        "y", [1e-12, 1e-6, 0.1, 0.3, 0.5, 0.7, 0.74, 0.76, 0.9, 0.99, 0.9999, 1.0]
    )
    @pytest.mark.parametrize("s", [2, 3])
    def test_against_mpmath(self, s, y):
        with mp.workdps(30):
            ref = float(mp.polylog(s, y))
        assert polylog(s, y) == pytest.approx(ref, rel=5e-15, abs=1e-300)

    @given(st.integers(min_value=2, max_value=3), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_series_tail_bound(self, s, y):
        """Truncating the defining series at M terms leaves at most
        y^(M+1)/((M+1)^s (1-y)); the implementation must sit inside that."""
        if y >= 0.999:
            return
        m = 60
        partial = math.fsum(y**n / n**s for n in range(1, m + 1))
        bound = y ** (m + 1) / ((m + 1) ** s * (1.0 - y))
        value = polylog(s, y)
        assert abs(value - partial) <= bound + 1e-14 * (1.0 + abs(value))

    @given(st.sampled_from([1, 2, 3]), st.floats(min_value=1e-8, max_value=0.98))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_order(self, s, y):
        # Li_s decreases with s for fixed y in (0, 1)
        if s > 1:
            assert polylog(s, y) <= polylog(s - 1, y) + 1e-15


class TestInnerModeIntegral:
    def test_gapless_value(self):
        assert inner_mode_integral(0.0, 0.5) == pytest.approx(
            2.0 * ZETA_3, rel=1e-14
        )

    def test_scaling_with_separation(self):
        # gapless case scales as 1/(2H)^3
        assert inner_mode_integral(0.0, 2.0) == pytest.approx(
            2.0 * ZETA_3 / 64.0, rel=1e-14
        )

    def test_frozen_values(self):
        # references computed with the mpmath closed form at 60 digits
        assert inner_mode_integral(1.0, 0.5) == pytest.approx(
            2.0501745685052739294, rel=1e-13
        )
        assert inner_mode_integral(10.0, 1.0) == pytest.approx(
            1.1387873775138238042e-07, rel=1e-13
        )
        assert inner_mode_integral(0.1, 0.25) == pytest.approx(
            19.223076075582442459, rel=1e-13
        )

    @pytest.mark.parametrize("a", [0.0, 1e-3, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0])
    @pytest.mark.parametrize("h", [0.25, 1.0, 4.0])
    def test_against_mpmath_grid(self, a, h):
        ref = mp_inner_mode_integral(a, h)
        if ref == 0.0:
            assert inner_mode_integral(a, h) == 0.0
        else:
            assert inner_mode_integral(a, h) == pytest.approx(ref, rel=1e-12)

    def test_against_direct_quadrature(self, default_spec):
        # independent route: integrate q E/(e^{2EH}-1) numerically
        for a, h in [(0.0, 1.0), (0.7, 0.5), (2.0, 1.5)]:
            def integrand(q, a=a, h=h):
                e = math.hypot(a, q)
                return q * e / math.expm1(2.0 * e * h)

            res = integrate_1d(
                integrand, (0.0, math.inf), default_spec, scale=1.0 / (2.0 * h)
            )
            assert res.converged
            assert inner_mode_integral(a, h) == pytest.approx(
                res.value, rel=1e-8
            )

    def test_underflow_returns_zero(self):
        assert inner_mode_integral(500.0, 1.0) == 0.0

    def test_monotone_decreasing_in_gap(self):
        values = [inner_mode_integral(a, 1.0) for a in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            inner_mode_integral(-1.0, 1.0)
        with pytest.raises(DomainError):
            inner_mode_integral(1.0, 0.0)
        with pytest.raises(DomainError):
            inner_mode_integral(math.nan, 1.0)
        # an infinite gap is the limit J = 0, not an error
        assert inner_mode_integral(math.inf, 1.0) == 0.0

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.05, max_value=5.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_positive_and_finite(self, a, h):
        value = inner_mode_integral(a, h)
        assert value >= 0.0
        assert math.isfinite(value)


class TestArrayModeIntegral:
    A = np.array([0.0, 1e-9, 1e-3, 0.1, 0.143, 0.144, 1.0, 10.0, 400.0])

    def test_matches_scalar_calls(self):
        values = inner_mode_integral(self.A, 1.0)
        expected = [inner_mode_integral(float(a), 1.0) for a in self.A]
        assert values.tolist() == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_keeps_shape(self):
        grid = self.A.reshape(3, 3)
        assert inner_mode_integral(grid, 0.5).shape == (3, 3)
        assert type(inner_mode_integral(0.5, 0.5)) is float

    def test_against_mpmath(self):
        for a in self.A[1:-1]:
            ref = mp_inner_mode_integral(float(a), 0.25)
            got = inner_mode_integral(np.array([a]), 0.25)[0]
            assert got == pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, -math.inf])
    def test_domain_checked_elementwise(self, bad):
        with pytest.raises(DomainError):
            inner_mode_integral(np.array([0.5, bad]), 1.0)

    def test_infinite_gap_gives_zero_elementwise(self):
        # where chi_bar overflows, n p0 is inf and the mode adds exactly 0
        got = inner_mode_integral(np.array([0.5, math.inf]), 1.0)
        assert got[0] == inner_mode_integral(0.5, 1.0) and got[1] == 0.0


class TestModeIntegralSeries:
    """J(x) = (2H)^3 I: the Debye-function series below x = 2, the Bose
    series from x = 2 up.  At H = 1/2, x equals a and I equals J."""

    # up to where J leaves the normal range (x = 722) and rounds to 0 (758)
    X = np.concatenate([
        np.geomspace(1e-31, 40.0, 300),
        np.linspace(1.9, 2.1, 41),
        [1.99, np.nextafter(2.0, 0.0), 2.0, 2.01],
        np.geomspace(40.0, 700.0, 60),
        np.linspace(700.0, 770.0, 71),
    ])

    def test_against_mpmath(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inner_mode_integral(self.X, 0.5)
        refs = np.array([mp_inner_mode_integral(float(x), 0.5) for x in self.X])
        normal = refs >= np.finfo(float).tiny
        assert (np.abs(got - refs) <= 2e-15 * refs)[normal].all()
        # a subnormal J within one step of the rounded reference, and 0 past it
        assert (np.abs(got - refs) <= 5e-324)[~normal].all()
        assert (got[refs == 0.0] == 0.0).all()
        assert (refs[~normal] > 0.0).sum() > 20 and (refs == 0.0).sum() > 10

    def test_gapless_value_is_exact(self):
        assert inner_mode_integral(0.0, 0.5) == 2.0 * ZETA_3
        assert inner_mode_integral(np.zeros(3), 0.5).tolist() == [2.0 * ZETA_3] * 3

    def test_overflowing_gap_gives_zero(self):
        # x^2 would overflow where e^-x has long underflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert inner_mode_integral(1e200, 1.0) == 0.0
            values = inner_mode_integral(np.array([1e200, 0.0]), 1.0)
        assert values[0] == 0.0
        assert values[1] == 2.0 * ZETA_3 / 8.0

    def test_debye_coefficients_from_bernoulli_numbers(self):
        # c_k = B_2k / ((2k + 2)(2k)!), with B_n from sum_j C(n+1, j) B_j = 0
        bernoulli = [Fraction(1)]
        for n in range(1, 2 * len(_DEBYE_SERIES) + 1):
            bernoulli.append(
                -sum(math.comb(n + 1, j) * b for j, b in enumerate(bernoulli)) / (n + 1)
            )
        exact = [
            float(bernoulli[2 * k] / ((2 * k + 2) * math.factorial(2 * k)))
            for k in range(1, len(_DEBYE_SERIES) + 1)
        ]
        assert _DEBYE_SERIES.tolist() == exact


class TestIntegrateExpSinh:
    def test_exponential(self):
        res = integrate_exp_sinh(lambda t: np.exp(-t), 1e-12)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-13)

    def test_endpoint_singularity(self):
        # t^-1/2 e^-t integrates to sqrt(pi); t = 0 is never a node
        res = integrate_exp_sinh(lambda t: np.exp(-t) / np.sqrt(t), 1e-10)
        assert res.converged
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-10)

    def test_bose_integral(self):
        res = integrate_exp_sinh(lambda t: t**3 / np.expm1(t), 1e-9)
        assert res.value == pytest.approx(math.pi**4 / 15.0, rel=1e-13)
        assert res.error_estimate <= 1e-9 * res.value

    def test_looser_tolerance_uses_fewer_nodes(self):
        f = lambda t: t**3 / np.expm1(t)
        loose = integrate_exp_sinh(f, 1e-3)
        tight = integrate_exp_sinh(f, 1e-12)
        assert loose.converged and tight.converged
        assert loose.evaluations < tight.evaluations

    def test_round_off_floor_refuses_unreachable_tolerance(self):
        res = integrate_exp_sinh(lambda t: np.exp(-t), 1e-15)
        assert not res.converged
        assert res.value == pytest.approx(1.0, rel=1e-13)
        assert res.error_estimate > 1e-15

    def test_nonfinite_integrand_raises(self):
        with pytest.raises(IntegrationFailureError):
            integrate_exp_sinh(lambda t: np.full(t.shape, math.nan), 1e-9)

    def test_one_row_gives_plain_floats(self):
        res = integrate_exp_sinh(lambda t: np.exp(-t), 1e-9)
        assert type(res.value) is float and type(res.error_estimate) is float
        assert type(res.converged) is bool

    def test_rows_match_one_row_calls(self):
        rates = np.array([0.5, 1.0, 3.0])
        rows = integrate_exp_sinh(lambda t: np.exp(-np.outer(rates, t)), 1e-12)
        assert rows.value.shape == rows.error_estimate.shape == (3,)
        assert rows.converged.tolist() == [True, True, True]
        for value, rate in zip(rows.value, rates):
            one = integrate_exp_sinh(lambda t: np.exp(-rate * t), 1e-12)
            assert value == pytest.approx(one.value, rel=1e-15)
            assert value == pytest.approx(1.0 / rate, rel=1e-13)

    def test_each_row_judged_on_its_own(self):
        # a kink at t = 1 holds the trapezoid rule to algebraic convergence:
        # that row stays unconverged and keeps the smooth row refining
        rows = integrate_exp_sinh(
            lambda t: np.stack([np.exp(-t), np.abs(t - 1.0) * np.exp(-t)]), 1e-12
        )
        assert rows.converged.tolist() == [True, False]
        assert rows.evaluations == 833
        assert rows.value[0] == pytest.approx(1.0, rel=1e-13)
        assert rows.error_estimate[1] > 1e-12 * rows.value[1]


# closed forms on both node tables; x^-1/2 on (0, 1) is left out, because
# the tanh-sinh nodes stop at x = 2e-17, which drops about 9e-9 of it
CLOSED_FORMS = [
    (integrate_exp_sinh, lambda t: np.exp(-t), 1.0),
    (integrate_exp_sinh, lambda t: np.exp(-t) / np.sqrt(t), math.sqrt(math.pi)),
    (integrate_exp_sinh, lambda t: t**3 / np.expm1(t), math.pi**4 / 15.0),
    (integrate_tanh_sinh, lambda x: 4.0 / (1.0 + x * x), math.pi),
    (integrate_tanh_sinh, lambda x: -np.log(x), 1.0),
]


class TestFirstPass:
    @pytest.mark.parametrize("rule, nodes", [
        (integrate_exp_sinh, 105), (integrate_tanh_sinh, 103),
    ])
    def test_first_pass_covers_levels_0_to_3(self, rule, nodes):
        res = rule(lambda t: np.exp(-t), 1e-3)
        assert res.converged
        assert res.evaluations == nodes

    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("rule, f, exact", CLOSED_FORMS,
                             ids=["exp", "inv-sqrt", "bose", "arctan", "log"])
    def test_converged_estimate_bounds_the_error(self, rule, f, exact, rel_tol):
        res = rule(f, rel_tol)
        if res.converged:
            assert abs(res.value - exact) <= res.error_estimate
            assert res.error_estimate <= rel_tol * abs(res.value)


def _gompertz(t, inner):
    # integral_0^inf e^-t integral_0^inf e^-(1+t)s ds dt = e E_1(1)
    rate = (1.0 + t)[:, None]
    return np.exp(-t) * inner(lambda s: np.exp(-rate * s))


GOMPERTZ = 0.59634736232319407


class TestIntegrateNested:
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-9, 1e-12])
    def test_closed_form_within_estimate(self, rel_tol):
        res = integrate_nested(_gompertz, rel_tol)
        assert res.converged
        assert abs(res.value - GOMPERTZ) <= res.error_estimate
        assert res.error_estimate <= rel_tol * res.value

    def test_evaluations_count_outer_and_inner_nodes(self):
        seen = {"outer": 0, "inner": 0}

        def outer(t, inner):
            seen["outer"] += t.size
            rate = (1.0 + t)[:, None]

            def rows(s):
                seen["inner"] += rate.size * s.size
                return np.exp(-rate * s)

            return np.exp(-t) * inner(rows)

        res = integrate_nested(outer, 1e-9)
        assert seen["outer"] >= 105
        assert res.evaluations == seen["outer"] + seen["inner"]

    def test_unreachable_tolerance_flagged(self):
        res = integrate_nested(_gompertz, 1e-15)
        assert math.isfinite(res.value) and math.isfinite(res.error_estimate)
        assert not res.converged
        assert res.value == pytest.approx(GOMPERTZ, rel=1e-13)

    def test_row_exception_propagates(self):
        refusal = InvalidRegimeError(0.5, 1.0, -1e-3)

        def outer(t, inner):
            def rows(s):
                raise refusal
            return inner(rows)

        with pytest.raises(InvalidRegimeError) as err:
            integrate_nested(outer, 1e-9)
        assert err.value is refusal

    def test_zero_rows_add_nothing(self):
        # at n = 1000, e^-1000t underflows: rows of outer nodes t > 0.75 are exactly 0
        query = ForceQuery(medium=Medium(electric=Constant(1e6)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value = force_via_action_fd(query, 1e-3)
        assert value == pytest.approx(force_field_bc(query).force_per_area, rel=1e-5)

    def test_cuts_split_the_outer_integral(self):
        # panels on [0, 0.5], [0.5, 2] first, then exp-sinh past t = 2
        tail_calls = []

        def outer(t, inner):
            tail_calls.append(bool(t.min() >= 2.0))
            return _gompertz(t, inner)

        res = integrate_nested(outer, 1e-12, (0.5, 2.0))
        assert tail_calls == sorted(tail_calls) and not tail_calls[0] and tail_calls[-1]
        assert res.converged
        assert abs(res.value - GOMPERTZ) <= res.error_estimate <= 1e-12 * res.value
        assert res.evaluations > 2 * 103 * 105

    def test_outer_calls_take_bounded_blocks(self):
        # 200 panels put 20,600 nodes in the first pass; outer sees them in blocks
        sizes = []

        def outer(t, inner):
            sizes.append(t.size)
            return _gompertz(t, inner)

        res = integrate_nested(outer, 1e-9, tuple(0.05 * k for k in range(1, 201)))
        assert max(sizes) <= 512 and sum(sizes) > 200 * 103
        assert res.converged and res.value == pytest.approx(GOMPERTZ, rel=1e-9)

    def test_parts_are_judged_on_their_sum(self):
        # the tail past t = 1 holds a kink at t = 3 and 1e-20 of the integral:
        # it cannot meet 1e-12 of its own value, but it need not
        def outer(t, inner):
            tail = 1e-20 * abs(t - 3.0) * np.exp(-t)
            return np.where(t < 1.0, 1.0, tail) + 0.0 * inner(lambda s: np.exp(-s) * t[:, None])

        res = integrate_nested(outer, 1e-12, (1.0,))
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-15)
        assert res.error_estimate <= 1e-12


class TestIntegratePanels:
    def test_kinks_at_the_edges(self):
        # |x - 1| + |x - 2| on [0, 3] is linear on each panel: exactly 5
        res = integrate_panels(lambda x: abs(x - 1.0) + abs(x - 2.0),
                               (0.0, 1.0, 2.0, 3.0), 1e-13)
        assert res.converged and res.value == pytest.approx(5.0, rel=1e-14)
        assert res.evaluations == 103

    def test_infinite_edge_is_an_algebraic_tail(self):
        res = integrate_panels(lambda x: 1.0 / (1.0 + x * x), (0.0, 1.0, math.inf), 1e-13)
        assert res.converged and res.value == pytest.approx(math.pi / 2.0, rel=1e-13)


class TestIntegrate1D:
    def test_finite_interval(self, default_spec):
        res = integrate_1d(math.sin, (0.0, math.pi), default_spec)
        assert res.converged
        assert res.value == pytest.approx(2.0, rel=1e-12)
        assert res.evaluations > 0

    def test_decaying_exponential(self, default_spec):
        res = integrate_1d(lambda x: math.exp(-x), (0.0, math.inf), default_spec)
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-12)

    def test_bose_integral(self):
        # int_0^inf x^3/(e^x - 1) dx = pi^4/15; the tail past x = 50
        # contributes ~e^-50 * 50^3 ~ 2.6e-17, far below the target
        spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-14)
        res = integrate_1d(
            lambda x: x**3 / math.expm1(x), (0.0, 50.0), spec
        )
        assert res.converged
        assert res.value == pytest.approx(math.pi**4 / 15.0, abs=1e-12)

    def test_scale_invariance(self, default_spec):
        # the transform scale is a reparametrization, not a result knob
        f = lambda x: math.exp(-0.25 * x)
        values = [
            integrate_1d(f, (0.0, math.inf), default_spec, scale=s).value
            for s in (0.5, 1.0, 4.0)
        ]
        for v in values:
            # agreement is limited by the requested tolerance, not the scale
            assert v == pytest.approx(4.0, rel=5e-9)

    def test_breakpoint_hint(self, default_spec):
        # kink at x=1 handled through the points hint
        f = lambda x: 1.0 if x < 1.0 else math.exp(-(x - 1.0))
        res = integrate_1d(f, (0.0, math.inf), default_spec, points=(1.0,))
        assert res.value == pytest.approx(2.0, rel=1e-10)

    def test_integrable_endpoint_singularity_never_sampled(self, default_spec):
        # 1/sqrt(x) at the origin: open rule must not evaluate x=0
        res = integrate_1d(lambda x: 1.0 / math.sqrt(x), (0.0, 1.0), default_spec)
        assert res.value == pytest.approx(2.0, rel=1e-9)

    def test_nonfinite_integrand_raises(self, default_spec):
        with pytest.raises(IntegrationFailureError):
            integrate_1d(
                lambda x: math.nan, (0.0, 1.0), default_spec
            )

    def test_budget_exhaustion_flagged(self):
        # sin(1/x) oscillates without bound at 0: the 2000 subintervals run
        # out long before the error estimate reaches 1e-13
        tight = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-16)
        res = integrate_1d(lambda x: math.sin(1.0 / x), (1e-9, 1.0), tight)
        assert not res.converged
        assert res.evaluations > 2000

    def test_node_at_mapped_infinity(self):
        # a subinterval next to t = 1 puts a node on t = 1 after rounding,
        # where x = a - ln(1 - t) is infinite: it counts as 0, not a crash
        res = integrate_1d(
            lambda x: math.cos(50.0 * x) ** 2 / (1.0 + x * x), (0.0, math.inf)
        )
        assert not res.converged
        assert res.value == pytest.approx(math.pi / 4.0, rel=0.1)

    def test_domain_validation(self, default_spec):
        with pytest.raises(DomainError, match="lower integration limit"):
            integrate_1d(math.exp, (-math.inf, 0.0), default_spec)
        with pytest.raises(DomainError, match="scale"):
            integrate_1d(math.exp, (0.0, 1.0), default_spec, scale=0.0)
        with pytest.raises(DomainError, match="reversed"):
            integrate_1d(math.exp, (1.0, 0.0), default_spec)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=-1.0)
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=-1e-3)


class TestIntegrate2DOracle:
    def test_separable_product(self, loose_spec):
        res = integrate_2d_oracle(
            lambda x, y: math.exp(-x) * math.exp(-y), loose_spec
        )
        assert res.converged
        assert res.value == pytest.approx(1.0, rel=1e-8)
        assert res.evaluations > 0

    def test_bose_sphere(self, loose_spec):
        # int_0^inf dp0 int_0^inf dq q E/(e^E - 1) with E = |p|: going polar,
        # the angular factor integrates to 1 and the radial part is the Bose
        # cube integral, so the quarter-plane value is pi^4/15
        def integrand(p0, q):
            e = math.hypot(p0, q)
            return q * e / math.expm1(e)

        res = integrate_2d_oracle(integrand, loose_spec)
        assert res.converged
        assert res.value == pytest.approx(math.pi**4 / 15.0, rel=1e-7)
