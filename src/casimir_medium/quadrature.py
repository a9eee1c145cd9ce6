"""Numerical quadrature and the special functions used by the force integrals.

The field route for the force needs the Bose-type mode integral

    I(a, H) = integral_a^inf  u^2 / (exp(2 u H) - 1) du,

which ``inner_mode_integral`` sums from one short series on whole arrays
(the Debye-function series below 2 a H = 2, the Bose series above).
``polylog`` gives Li_1, Li_2, Li_3 on [0, 1] from its own series.

Every integral the package computes runs on one nested double-exponential
engine that evaluates its integrand on whole arrays of nodes, and many
integrands at once as the rows of one array.  Its node tables are
``integrate_exp_sinh`` on the half-line (first pass 105 nodes; the field
route) and ``integrate_tanh_sinh`` on (0, 1) (103; the dispersion
transform).  ``integrate_nested`` runs exp-sinh at both levels of the
polarization and action routes and alone splits their tolerance.

The exported oracles ``integrate_1d`` (QUADPACK via scipy, imported on first
use; the ``test`` extra brings it) and ``integrate_2d_oracle``, built on it,
serve only the tests: no package path calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, IntegrationFailureError

__all__ = [
    "QuadratureSpec",
    "IntegralResult",
    "polylog",
    "inner_mode_integral",
    "integrate_exp_sinh",
    "integrate_tanh_sinh",
    "integrate_nested",
    "integrate_1d",
    "integrate_2d_oracle",
    "ZETA_3",
]

# zeta(3) and friends, to full double precision
ZETA_3 = 1.2020569031595942854
_PI2_6 = math.pi * math.pi / 6.0

# the defining power series serves arguments up to this one; closer to 1 the
# standard reflection / log-series forms keep 15-digit accuracy
_SERIES_THRESHOLD = 0.75
# z^n falls below 1e-17 by this n at z <= 0.75, which bounds the tail
# z^(n+1)/((n+1)^s (1-z)) far below double precision
_SERIES_TERMS = math.ceil(math.log(1e-17) / math.log(_SERIES_THRESHOLD))

# Li3(e^-x) = zeta(3) - zeta(2) x + x^2 (3/2 - ln x)/2 + sum over even powers
# with zeta(negative odd) coefficients; valid for 0 < x < ln 2, truncated
# where the next term is below 1e-17 for x <= -ln(0.75).  Entry k-1 is the
# coefficient of x^k, without the x^2 ln x term.
_LI3_LOG_SERIES = (
    -_PI2_6, 0.75, 1.0 / 12.0,
    -1.0 / 288.0, 0.0,
    1.0 / 86400.0, 0.0,
    -1.0 / 10160640.0, 0.0,
    1.0 / 870912000.0, 0.0,
    -1.0 / 63228211200.0,
)

# J(x) = (2H)^3 I as in inner_mode_integral.  Below x = 2, (J - 2 zeta(3))/x^2
# in powers x^0, x^1, x^2, x^4, ..., x^40, from the literal c_k = B_2k/((2k
# + 2)(2k)!) (entry k-1); the first term left out is below 2e-22 J.
_DEBYE_SPLIT = 2.0
_DEBYE_SERIES = np.array([
    0.020833333333333332, -0.0002314814814814815, 4.133597883597884e-06,
    -8.267195767195767e-08, 1.7397297489890083e-09, -3.774421527633924e-11,
    8.364085331677924e-13, -1.8831557201792126e-14, 4.293031028138922e-16,
    -9.885766811627554e-18, 2.2954178451500956e-19, -5.367101802235586e-21,
    1.2623953712962384e-22, -2.9845058090125156e-24, 7.087351413555259e-26,
    -1.689644314374177e-27, 4.042145765596847e-29, -9.699986685961343e-31,
    2.3341835642737612e-32, -5.631005751668167e-34,
])
_DEBYE_COEFFS = np.concatenate(([-0.5, 1.0 / 6.0], -_DEBYE_SERIES))
_DEBYE_ORDERS = np.concatenate(([0.0, 1.0], np.arange(2.0, 41.0, 2.0)))[:, None]
# x^40 would underflow (slowly) below x = 2e-8; taking x = 1e-7 into the
# table there moves J by less than x^2 1e-7/6 < 2e-22
_DEBYE_FLOOR = 1e-7
# from x = 2 up, e^-kx (x^2/k + 2x/k^2 + 2/k^3) to k = 21 (e^-22x < 1e-19)
_BOSE_ORDERS = np.arange(1.0, 22.0)[:, None]
_BOSE_COEFFS = 1.0 / _BOSE_ORDERS.T ** [[1.0], [2.0], [3.0]] * [[1.0], [2.0], [2.0]]
# J = 0 once e^-x underflows (x > 745); the cap keeps x^2 finite there
_BOSE_CAP = 1e3


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance settings shared by all integrals.

    ``rel_tol`` governs every route.  ``abs_tol`` applies only to the
    exported QUADPACK oracles (``integrate_1d`` and the 2D oracle); the
    double-exponential engine is purely relative.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and math.isfinite(self.rel_tol)):
            raise DomainError(f"rel_tol must be positive, got {self.rel_tol!r}")
        if not (self.abs_tol > 0 and math.isfinite(self.abs_tol)):
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol!r}")


@dataclass(frozen=True)
class IntegralResult:
    """Value of an integral plus its convergence metadata.

    ``converged`` implies ``error_estimate <= max(abs_tol, rel_tol*|value|)``
    for the QUADPACK oracles and ``error_estimate <= rel_tol*|value|`` for
    the double-exponential rules, row by row for several rows at once (then
    ``value``, ``error_estimate`` and ``converged`` are arrays).
    An unconverged result still carries the best estimate found within the
    budget, but its ``error_estimate`` is no bound: the QUADPACK oracles
    report QUADPACK's own (9.2e-5 for cos(50x)^2/(1+x^2) on [0, inf), whose
    true error is 1.5e-2), so read ``converged``.
    """

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _series(s: int, z: float) -> float:
    # the defining series sum_n z^n/n^s, for 0 <= z <= 0.75
    return math.fsum(z**n / n**s for n in range(1, _SERIES_TERMS + 1))


def polylog(s: int, y: float) -> float:
    """Polylogarithm Li_s(y) for s in {1, 2, 3} and y in [0, 1].

    The defining power series serves y <= 0.75.  Above it, with x = -ln y,
    Li_1 = -ln(1 - y), Li_2 comes from Euler's reflection Li2(y) + Li2(1-y)
    = pi^2/6 - ln(y) ln(1-y) with the series at 1 - y, and Li_3 from its
    log-series in x, so the result stays accurate to ~1e-15.  Li_1(1)
    diverges and raises.

    Parameters
    ----------
    s : int
        Order of the polylogarithm, one of 1, 2, 3.
    y : float
        Argument, 0 <= y <= 1.
    """
    if s not in (1, 2, 3):
        raise DomainError(f"polylog order must be 1, 2 or 3, got {s!r}")
    if not (0.0 <= y <= 1.0):
        raise DomainError(f"polylog argument must lie in [0, 1], got {y!r}")
    if y == 1.0:
        if s == 1:
            raise DomainError("Li_1(1) diverges")
        return _PI2_6 if s == 2 else ZETA_3
    if y <= _SERIES_THRESHOLD:
        return _series(s, y)
    x = -math.log(y)
    complement = -math.expm1(-x)  # 1 - y, to full relative precision
    if s == 1:
        return -math.log(complement)
    if s == 2:
        return _PI2_6 + x * math.log(complement) - _series(2, complement)
    powers = math.fsum(c * x**k for k, c in enumerate(_LI3_LOG_SERIES, 1))
    return ZETA_3 + powers - 0.5 * x * x * math.log(x)


def inner_mode_integral(a, h: float):
    """Bose-weighted mode integral integral_a^inf u^2/(exp(2uH) - 1) du.

    With x = 2 a H this is J(x)/(2H)^3, J(x) = integral_x^inf u^2/(e^u - 1)
    du = x^2 Li_1(e^-x) + 2 x Li_2(e^-x) + 2 Li_3(e^-x), which is 2 zeta(3)
    at a = 0.  Below x = 2, J is the Debye-function series 2 zeta(3) -
    x^2/2 + x^3/6 - sum_k c_k x^(2k+2), c_k = B_2k/((2k + 2)(2k)!), to
    k = 20; from x = 2 up, the Bose series sum_k e^-kx (x^2/k + 2x/k^2 +
    2/k^3), to k = 21.  Each branch sums its elements at once, as one
    coefficient matrix times one table of powers (x^m or e^-kx).

    Parameters
    ----------
    a : float or ndarray
        Lower limit (the in-plane mass gap of the mode), a >= 0; an array
        is evaluated elementwise and gives an array of the same shape.
    h : float
        Mirror separation H > 0.
    """
    if not (h > 0.0 and math.isfinite(h)):
        raise DomainError(f"separation must be positive, got {h!r}")
    gap = np.asarray(a, dtype=float)
    # NaN fails both comparisons
    if not (gap.min(initial=math.inf) >= 0.0 and gap.max(initial=0.0) < math.inf):
        bad = gap[~((gap >= 0.0) & np.isfinite(gap))].flat[0]
        raise DomainError(f"lower limit must be >= 0, got {float(bad)!r}")
    x = (2.0 * h) * gap.ravel()
    j = np.empty_like(x)
    low = x < _DEBYE_SPLIT
    x_low = x[low]
    table = np.maximum(x_low, _DEBYE_FLOOR) ** _DEBYE_ORDERS
    j[low] = 2.0 * ZETA_3 + x_low * x_low * (_DEBYE_COEFFS @ table)
    high = ~low
    x_high = np.minimum(x[high], _BOSE_CAP)
    s1, s2, s3 = _BOSE_COEFFS @ np.exp(-_BOSE_ORDERS * x_high)  # row k-1: e^-kx
    j[high] = x_high * (x_high * s1 + s2) + s3
    value = j / (8.0 * h * h * h)
    if gap.ndim == 0:
        return float(value[0])
    return value.reshape(gap.shape)


# Double-exponential rules (Takahasi and Mori, Publ. RIMS 9 (1974) 721;
# Bailey, Jeyabalan and Li, Exp. Math. 14 (2005) 317): the trapezoid rule in
# u after a change of variable x = phi(u), truncated to a finite u range.
# Level k has step 2^-(k+1); its nodes are the odd multiples of the step in
# the range (all multiples for level 0), stored level after level so that
# any run of levels is one slice.  A table is (nodes, level bounds, level
# weights, first-pass weights).
_DE_LEVELS = 7
_DE_FIRST_LEVELS = 4
_EPS = 2.0**-52  # double-precision machine epsilon
_TINY = np.finfo(float).tiny


def _node_table(lo: float, hi: float, phi) -> tuple:
    # phi maps an array of u to (x, dx/du)
    us, bounds = [], [0]
    for k in range(_DE_LEVELS):
        step = 0.5 ** (k + 1)
        j = np.arange(math.ceil(lo / step), math.floor(hi / step) + 1)
        us.append(step * (j if k == 0 else j[j % 2 == 1]))
        bounds.append(bounds[-1] + us[-1].size)
    x, w = phi(np.concatenate(us))
    # S_k, the trapezoid sum of step 2^-k, obeys S_k+1 = S_k / 2 + 2^-(k+1)
    # times the sum of w f over level k's nodes, so each level's weights
    # carry its step; column j of the first-pass weights gives S_j+1
    level_weights = [0.5 ** (k + 1) * w[bounds[k]:bounds[k + 1]] for k in range(_DE_LEVELS)]
    first_sums = np.zeros((bounds[_DE_FIRST_LEVELS], _DE_FIRST_LEVELS))
    for j in range(_DE_FIRST_LEVELS):
        first_sums[:bounds[j + 1], j] = 0.5 ** (j + 1) * w[:bounds[j + 1]]
    return x, bounds, level_weights, first_sums


def _exp_sinh(u):
    t = np.exp(0.5 * math.pi * np.sinh(u))
    return t, 0.5 * math.pi * np.cosh(u) * t


def _tanh_sinh(u):
    # x = 1/(1 + e^-s) and 1 - x = 1/(1 + e^s) keep both ends off 0, where
    # 0.5 (1 + tanh(s/2)) would round the left end to exactly 0
    s = math.pi * np.sinh(u)
    x = 1.0 / (1.0 + np.exp(-s))
    return x, math.pi * np.cosh(u) * x / (1.0 + np.exp(s))


_EXP_SINH = _node_table(-4.5, 2.0, _exp_sinh)  # t from 2e-31 to 300
_TANH_SINH = _node_table(-3.2, 3.2, _tanh_sinh)  # x from 2e-17 to 1


def integrate_exp_sinh(
    f: Callable[[np.ndarray], np.ndarray], rel_tol: float
) -> IntegralResult:
    """Integral of ``f`` over [0, inf) by the nested exp-sinh rule.

    ``f`` maps an array of K nodes t > 0 to K values, or to an (M, K) array
    whose rows are M integrands sampled on the same nodes.  With t =
    exp(pi/2 sinh u), u in [-4.5, 2], the rule converges doubly
    exponentially for integrands analytic on (0, inf) that decay
    exponentially, endpoint singularities at t = 0 included: 105 nodes,
    then up to 833 (``_integrate_de`` has the refinement and error estimate).
    ``evaluations`` counts the nodes, the same for every row.  For a one-row
    ``f`` the other fields of the result are a float and a bool; for M rows,
    ``value``, ``error_estimate`` and ``converged`` are arrays of M.
    """
    return _integrate_de(_EXP_SINH, f, rel_tol)


def integrate_tanh_sinh(
    f: Callable[[np.ndarray], np.ndarray], rel_tol: float
) -> IntegralResult:
    """Integral of ``f`` over (0, 1) by the nested tanh-sinh rule.

    As ``integrate_exp_sinh``, on x = 1/(1 + exp(-pi sinh u)), u in
    [-3.2, 3.2] (103 nodes, then up to 819); the nodes run from x = 2e-17 to
    x = 1 after rounding, so endpoint singularities are fine to that extent.
    """
    return _integrate_de(_TANH_SINH, f, rel_tol)


def _integrate_de(table: tuple, f, rel_tol: float) -> IntegralResult:
    """The refinement loop of both node tables.

    The first pass evaluates levels 0-3 (steps 1/2 to 1/16) in one call of
    ``f``, where most of the package's integrals converge; each
    further pass adds one level.  Error estimate, per row and at every pass
    alike, from the changes d_k = |S_k - S_k-1| of the level sums: d_k
    times the larger of the last two reduction ratios d_k/d_k-1 and
    d_k-1/d_k-2 (each capped at 1), which bounds the error
    while the doubly exponential convergence does not slow down and cannot
    be made small by one level landing near the value by chance; plus a
    round-off floor N eps sum |w f| over the N nodes used.  It stops once
    every row's estimate is within ``rel_tol`` of its value, purely
    relative, or after the finest level (step 1/128), unconverged.
    """
    nodes, bounds, level_weights, first_sums = table
    last = bounds[_DE_FIRST_LEVELS]
    values = f(nodes[:last])
    s1, s2, s3, s = (values @ first_sums).T
    magnitude = np.abs(values) @ first_sums[:, -1]
    d_previous, d = abs(s3 - s2), abs(s - s3)
    previous_ratio = _capped_ratio(d_previous, abs(s2 - s1))
    ratio, level = _capped_ratio(d, d_previous), _DE_FIRST_LEVELS
    while True:
        # magnitude holds 2^-level sum |w f|, so the last term is the
        # round-off floor
        error = d * np.maximum(ratio, previous_ratio) + last * _EPS * magnitude
        converged = error <= rel_tol * abs(s)
        done = converged.all()
        if done or level == _DE_LEVELS:
            break
        first, last = last, bounds[level + 1]
        values = f(nodes[first:last])
        weights = level_weights[level]
        level += 1
        previous, s = s, 0.5 * s + values @ weights
        magnitude = 0.5 * magnitude + np.abs(values) @ weights
        d_previous, d = d, abs(s - previous)
        previous_ratio, ratio = ratio, _capped_ratio(d, d_previous)
    # a converged row is finite, so only an unconverged result can hide one
    if not done and not np.isfinite(s).all():
        raise IntegrationFailureError("quadrature returned a non-finite value")
    if isinstance(s, np.ndarray):
        return IntegralResult(s, error, last, converged)
    return IntegralResult(float(s), float(error), last, bool(converged))


def _capped_ratio(newer, older):
    # newer/older capped at 1 (no reduction), elementwise; the tiny term
    # only keeps 0/0 out, where the ratio multiplies a zero change anyway
    return newer / (np.maximum(newer, older) + _TINY)


def integrate_nested(outer: Callable, rel_tol: float) -> IntegralResult:
    """Double integral over [0, inf)^2 on the exp-sinh rule at both levels.

    ``outer(t, inner)`` gives one value per outer node t and integrates its
    inner rows by passing ``inner`` a row function as ``integrate_exp_sinh``
    takes it, which returns the row values.  The rows get a tenth of
    ``rel_tol``, the outer rule the rest.  The error estimate is the outer
    one plus the largest relative row error times |value| (a bound for rows
    of one sign; an exactly-zero row adds nothing); ``converged`` needs the
    outer rule and every row; ``evaluations`` counts the outer nodes plus
    the inner nodes of every row.
    """
    inner_tol = 0.1 * rel_tol
    evaluations, rel_error, converged = 0, 0.0, True

    def inner(rows):
        nonlocal evaluations, rel_error, converged
        res = integrate_exp_sinh(rows, inner_tol)
        error, value = np.atleast_1d(res.error_estimate, np.abs(res.value))
        live = value > 0.0
        evaluations += res.evaluations * value.size
        rel_error = max(rel_error, float(np.max(error[live] / value[live], initial=0.0)))
        converged = converged and bool(np.all(res.converged))
        return res.value

    res = integrate_exp_sinh(lambda t: outer(t, inner), rel_tol - inner_tol)
    return IntegralResult(res.value, res.error_estimate + rel_error * abs(res.value),
                          res.evaluations + evaluations, res.converged and converged)


def integrate_1d(
    f: Callable[[float], float],
    domain: tuple[float, float],
    spec: QuadratureSpec | None = None,
    *,
    scale: float = 1.0,
    points: Sequence[float] | None = None,
) -> IntegralResult:
    """Adaptive Gauss-Kronrod integration of ``f`` over ``domain``.

    Finite domains go straight to the adaptive rule.  Semi-infinite domains
    (upper bound ``inf``) are first mapped onto (0, 1) by x = a - scale
    ln(1 - t), with a length ``scale`` matching the integrand's decay; a
    node that rounds onto t = 1 is the point at infinity and contributes 0.
    Otherwise the rule evaluates only interior nodes, so integrable endpoint
    singularities are fine.  At most 2000 subintervals are used.

    Parameters
    ----------
    f : callable
        Scalar integrand.
    domain : tuple
        (a, b); b may be ``math.inf``.
    spec : QuadratureSpec, optional
        Tolerances; defaults are tight.
    scale : float
        Characteristic length of the semi-infinite map, > 0.
    points : sequence of float, optional
        Interior locations (in the original variable) where the integrand has
        known structure; the subdivision starts there.

    Returns
    -------
    IntegralResult
        Unconverged results are returned, not raised, with QUADPACK's own
        ``error_estimate``, which is then no bound on the error (see
        ``IntegralResult``); a non-finite value raises IntegrationFailureError.
    """
    spec = spec or QuadratureSpec()
    a, b = domain
    if not math.isfinite(a):
        raise DomainError("lower integration limit must be finite")
    if not (scale > 0.0 and math.isfinite(scale)):
        raise DomainError(f"transform scale must be positive, got {scale!r}")

    if math.isinf(b):
        def g(t: float) -> float:
            w = 1.0 - t
            if w == 0.0:  # the integrand vanishes at infinity
                return 0.0
            return f(a - scale * math.log(w)) * scale / w
        lo, hi = 0.0, 1.0
        if points is not None:
            mapped = [-math.expm1(-(p - a) / scale) for p in points if p > a]
            pts = sorted(t for t in mapped if 0.0 < t < 1.0)
        else:
            pts = None
        func = g
    else:
        if b <= a:
            raise DomainError(f"empty or reversed domain ({a!r}, {b!r})")
        lo, hi = a, b
        pts = sorted(p for p in points if lo < p < hi) if points else None
        func = f

    from scipy.integrate import quad  # the test extra brings scipy

    out = quad(
        func,
        lo,
        hi,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=2000,
        points=pts if pts else None,
        full_output=1,
    )
    value, abserr, info = out[0], out[1], out[2]
    exhausted = len(out) > 3
    if not math.isfinite(value):
        raise IntegrationFailureError(
            f"integral over {domain} returned a non-finite value", abserr
        )
    converged = (not exhausted) and abserr <= max(
        spec.abs_tol, spec.rel_tol * abs(value)
    )
    return IntegralResult(
        value=value,
        error_estimate=float(abserr),
        evaluations=int(info["neval"]),
        converged=converged,
    )


def integrate_2d_oracle(
    f: Callable[[float, float], float],
    spec: QuadratureSpec | None = None,
    *,
    outer_scale: float = 1.0,
    inner_scale: float = 1.0,
) -> IntegralResult:
    """Brute-force nested integration of ``f(p0, q)`` over [0, inf)^2.

    The outer adaptive pass runs over ``p0``; each outer evaluation performs
    a full inner adaptive integral over ``q`` at a ten-times tighter
    tolerance.  The integrand receives the measure as-is (include any q
    factor in ``f`` itself).  Slow by design: this routine exists to check
    the force routes' reductions independently, not to be fast.

    Returns
    -------
    IntegralResult
        ``evaluations`` counts every inner integrand call plus the outer
        nodes; ``converged`` requires the outer pass and every inner pass to
        meet their tolerances.
    """
    spec = spec or QuadratureSpec()
    inner_spec = replace(spec, rel_tol=spec.rel_tol * 0.1, abs_tol=spec.abs_tol * 0.1)

    state = {"inner_evals": 0, "inner_err": 0.0, "inner_ok": True}

    def outer_integrand(p0: float) -> float:
        res = integrate_1d(
            lambda q: f(p0, q), (0.0, math.inf), inner_spec, scale=inner_scale
        )
        state["inner_evals"] += res.evaluations
        state["inner_err"] = max(state["inner_err"], res.error_estimate)
        state["inner_ok"] = state["inner_ok"] and res.converged
        return res.value

    outer = integrate_1d(
        outer_integrand, (0.0, math.inf), spec, scale=outer_scale
    )
    return IntegralResult(
        value=outer.value,
        error_estimate=outer.error_estimate + state["inner_err"],
        evaluations=outer.evaluations + state["inner_evals"],
        converged=outer.converged and state["inner_ok"],
    )
