"""Susceptibility models and the media built from them.

The medium is a continuum of harmonic oscillators linearly coupled to the
field.  Only the coupling ratio g(w') (oscillator coupling density over mass
density) is physical, so every model is parametrized directly by the response
it produces:

* on the imaginary frequency axis (Wick rotated), chi_bar(xi) =
  integral g(w') / (w'^2 + xi^2) dw', real and positive;
* on the real axis, the absorptive part Im chi(w) = (pi/2) g(w) / w.

These two are linked by the Kramers-Kronig transform

    chi_bar(xi) = (2/pi) integral_0^inf w Im chi(w) / (w^2 + xi^2) dw,

implemented here on the tanh-sinh rule as an independent cross-check of
every closed form; nothing else here integrates numerically (the tabulated
model's chi_bar and real-axis response are exact integrals).

A lossless sharp line is Lorentz with gamma = 0, and a free-carrier (Drude)
response is Lorentz with omega_0 = 0.  The medium-file schema is read off the
signature of the callable that builds each file type.

All quantities are in natural units (hbar = c = 1); frequencies carry an
arbitrary common unit and susceptibilities are dimensionless.
"""

from __future__ import annotations

import enum
import inspect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    IntegrationFailureError,
    MediumFileError,
    MediumInstabilityError,
    PoleError,
    UnsupportedDistributionError,
    require_positive,
)
from .quadrature import QuadratureSpec, integrate_panels

__all__ = [
    "SusceptibilityModel",
    "Constant",
    "Lorentz",
    "Drude",
    "TabulatedCoupling",
    "Medium",
    "FieldKind",
    "VACUUM",
    "kk_imaginary_axis",
    "medium_from_dict",
    "load_medium",
]


class FieldKind(enum.Enum):
    """Field content of the calculation.

    SCALAR ignores the magnetic model entirely; EM uses both electric and
    magnetic susceptibilities and doubles the mode count (two transverse
    polarizations contribute equally).
    """

    SCALAR = "scalar"
    EM = "em"


# chi_bar, im_chi and refractive_index take a float or an ndarray.  Where
# they must tell the two apart they test ``type(x) is float`` first, inline:
# integrands of the exported QUADPACK oracles pass plain floats one at a time
# (some 2e5 refractive_index calls per 2D oracle force), and a helper call,
# an isinstance check or an array round trip would cost more than the math.
# Only a frequency that fails the inline test goes to ``require_positive``.
_XI = "imaginary-axis frequency"
_OMEGA = "real-axis frequency"


class SusceptibilityModel:
    """Base class for the oscillator-continuum response models.

    Concrete models implement the Wick-rotated response ``chi_bar``, the
    real-axis absorptive part ``im_chi`` and the full complex retarded
    response ``chi_real_axis``.  ``chi_bar`` and ``im_chi`` also take an
    ndarray of frequencies and return an array of the same shape, with the
    domain checked elementwise; a float argument gives a float.  Instances
    are immutable and safe to share across threads.
    """

    def chi_bar(self, xi):
        """Susceptibility on the imaginary frequency axis, real and >= 0."""
        raise NotImplementedError

    def im_chi(self, omega):
        """Absorptive part at real frequency omega > 0: zero for a lossless model."""
        if not (type(omega) is float and 0.0 < omega < math.inf):
            require_positive(omega, _OMEGA)
        return 0.0 * omega

    def chi_real_axis(self, omega: float) -> complex:
        """Full complex retarded response at real frequency."""
        raise NotImplementedError

    @property
    def has_absorption(self) -> bool:
        """True when im_chi is a genuine function (not zero or a delta)."""
        return False

    def _dispersion_breakpoints(self) -> tuple[float, ...]:
        # frequencies where Im chi has poles or kinks on or next to the real axis
        return ()


@dataclass(frozen=True)
class Constant(SusceptibilityModel):
    """Frequency-independent, lossless susceptibility chi0 >= 0."""

    chi0: float

    def __post_init__(self):
        require_positive(self.chi0, "chi0", zero_ok=True)

    def chi_bar(self, xi):
        if not (type(xi) is float and 0.0 <= xi < math.inf):
            require_positive(xi, _XI, zero_ok=True)
        return self.chi0 + 0.0 * xi

    def chi_real_axis(self, omega: float) -> complex:
        return complex(self.chi0)


@dataclass(frozen=True)
class Lorentz(SusceptibilityModel):
    """Damped resonance: chi(w) = omega_p^2 / (omega_0^2 - w^2 - i gamma w).

    On the imaginary axis chi_bar(xi) = omega_p^2/(omega_0^2 + xi^2 + gamma xi).
    gamma = 0 is the lossless sharp line (file type ``sharp_resonance``):
    delta-function absorption at omega_0, and a real-axis pole there.
    omega_0 = 0 is the free-carrier (Drude) response, with no restoring
    force; it needs gamma > 0.  Its chi_bar, its real-axis response and its
    Im chi(w)/w diverge at zero frequency, so nothing may evaluate it there
    (a DomainError); the adaptive integrators only touch interior nodes.
    """

    omega_p: float
    omega_0: float
    gamma: float = 0.0

    def __post_init__(self):
        require_positive(self.omega_p, "omega_p")
        require_positive(self.omega_0, "omega_0", zero_ok=True)
        require_positive(self.gamma, "gamma", zero_ok=True)
        if self.omega_0 == 0.0 and self.gamma == 0.0:
            raise DomainError("gamma must be > 0 for a free carrier (omega_0 = 0)")

    def chi_bar(self, xi):
        if not (type(xi) is float and 0.0 <= xi < math.inf):
            require_positive(xi, _XI, zero_ok=True)
        den = self.omega_0 * self.omega_0 + xi * xi + self.gamma * xi
        # den >= omega_0^2, so it is 0 only where omega_0^2 is: a free carrier
        # at xi = 0, or where all three terms underflow
        if self.omega_0 * self.omega_0 == 0.0 and (
                den == 0.0 if type(xi) is float else not np.all(den)):
            if self.omega_0 == 0.0 and np.any(xi == 0.0):
                raise DomainError(
                    "free-carrier response diverges at zero imaginary frequency"
                )
            if type(xi) is float:
                raise DomainError(f"Lorentz response overflows at xi = {xi!r}")
            with np.errstate(divide="ignore"):  # inf there: n t = inf, which
                return self.omega_p * self.omega_p / den  # every route maps to 0
        return self.omega_p * self.omega_p / den

    def im_chi(self, omega):
        if not (type(omega) is float and 0.0 < omega < math.inf):
            require_positive(omega, _OMEGA)
        if self.gamma == 0.0:
            if np.any(omega == self.omega_0):
                raise UnsupportedDistributionError(
                    "lossless resonance has a delta-function absorption line; "
                    "Im chi is not a number exactly on resonance"
                )
            return 0.0 * omega
        return self._response(omega).imag

    def _response(self, omega):
        # omega_p^2/(omega_0^2 - w^2 - i gamma w), gamma > 0: complex division
        # scales its operands (R. L. Smith, CACM 5 (1962) 435) and squares neither
        d = self.omega_0 * self.omega_0 - omega * omega
        if not isinstance(omega, np.ndarray):
            if d == 0.0 == self.gamma * omega:  # all underflowed; the response overflows
                raise DomainError(f"Lorentz response overflows at omega = {omega!r}")
            return self.omega_p * self.omega_p / complex(d, -self.gamma * omega)
        den = np.asarray(d, dtype=complex)
        den.imag = -self.gamma * omega
        return self.omega_p * self.omega_p / den

    def chi_real_axis(self, omega: float) -> complex:
        if omega == 0.0 and self.omega_0 == 0.0:
            raise DomainError("free-carrier response diverges at zero frequency")
        if self.gamma > 0.0:
            return self._response(omega)
        d = self.omega_0 * self.omega_0 - omega * omega
        if d == 0.0:  # lossless: real, Im = +0 as in the gamma -> 0+ limit
            raise PoleError(f"undamped resonance pole at omega = {omega!r}")
        return complex(self.omega_p * self.omega_p / d)

    @property
    def has_absorption(self) -> bool:
        return self.gamma > 0.0

    def _dispersion_breakpoints(self) -> tuple[float, ...]:
        # a damped line narrower than its frequency has poles next to the axis
        return (self.omega_0,) if 0.0 < self.gamma < self.omega_0 else ()


def Drude(omega_p: float, gamma: float) -> Lorentz:
    """Free carriers, chi(w) = -omega_p^2/(w^2 + i gamma w): Lorentz at omega_0 = 0."""
    return Lorentz(omega_p, 0.0, gamma)


@dataclass(frozen=True, eq=False)
class TabulatedCoupling(SusceptibilityModel):
    """Coupling density g(w') sampled on an ascending positive grid.

    Between nodes g is linear; outside the grid it is zero.  chi_bar is the
    exact integral of that piecewise-linear interpolant against
    1/(w'^2 + xi^2) (per-segment log/arctan closed form), so it carries no
    quadrature error of its own.
    """

    omega_grid: tuple[float, ...]
    g_values: tuple[float, ...]
    _nodes: np.ndarray = field(init=False, repr=False, compare=False)
    _values: np.ndarray = field(init=False, repr=False, compare=False)
    _slopes: np.ndarray = field(init=False, repr=False, compare=False)
    _segments: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.omega_grid, dtype=float)
        g = np.asarray(self.g_values, dtype=float)
        if w.ndim != 1 or w.size < 2:
            raise DomainError("omega_grid needs at least two ascending nodes")
        if g.shape != w.shape:
            raise DomainError(
                f"g_values length {g.size} does not match omega_grid length {w.size}"
            )
        require_positive(w, "omega_grid")
        require_positive(g, "g_values", zero_ok=True)
        u1, du = w[:-1], np.diff(w)
        if np.any(du <= 0.0):
            raise DomainError("omega_grid must be strictly ascending")
        with np.errstate(over="ignore"):
            slopes = np.diff(g) / du
            # chi_bar's u1, u2 - u1, u1 + u2, m/2, b (g = m u + b) and largest w
            segments = (u1, du, u1 + w[1:], 0.5 * slopes, g[:-1] - slopes * u1,
                        float(np.max(du / u1 / w[1:])))
        if not np.isfinite(slopes).all():
            lo, hi = w[np.argmin(np.isfinite(slopes)):][:2].tolist()  # the first one
            raise DomainError(f"slope of g overflows on segment [{lo!r}, {hi!r}]")
        object.__setattr__(self, "omega_grid", tuple(float(x) for x in w))
        object.__setattr__(self, "g_values", tuple(float(x) for x in g))
        object.__setattr__(self, "_nodes", w)
        object.__setattr__(self, "_values", g)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_segments", segments)

    def _g(self, omega):
        # zero outside the grid, closed at the end nodes, exact at every node
        value = np.interp(omega, self._nodes, self._values, left=0.0, right=0.0)
        return value if isinstance(omega, np.ndarray) else float(value)

    def chi_bar(self, xi):
        if not (type(xi) is float and 0.0 <= xi < math.inf):
            require_positive(xi, _XI, zero_ok=True)
        u1, du, u_sum, half_m, b, w_max = self._segments
        # one row of segments per frequency; lengths enter as ratios to
        # s = max(u1, xi), so no square or product of two lengths is formed
        x = np.asarray(xi, dtype=float)[..., None]
        s = np.maximum(u1, x)
        t = np.minimum(u1, x)
        t *= t / s
        t += s  # (u1^2 + xi^2)/s
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            sf = np.multiply(s / du, t, out=t)  # (u1^2 + xi^2)/(u2 - u1)
            # log1p of (u2^2 + xi^2)/(u1^2 + xi^2) - 1, precise also at xi >> u
            log_ratio = np.log1p(u_sum / sf)
            # atan(u2/xi) - atan(u1/xi) = atan(z), z = xi w, w = 1/(sf + u1) =
            # (u2 - u1)/(xi^2 + u1 u2) <= w_max; where xi w_max <= 1e-8 (xi = 0
            # among them) atan(z)/xi rounds to w in the whole row
            w = np.reciprocal(np.add(sf, u1, out=sf), out=sf)
            z = np.arctan(np.multiply(x, w, out=s), out=s)
            arc = np.where(x[..., 0] * w_max > 1e-8, (z @ b) / x[..., 0], w @ b)
            total = log_ratio @ half_m + arc
            if not np.isfinite(total).all():  # a log ratio past the double range
                far = np.diff(2.0 * np.log(np.hypot(self._nodes, x)), axis=-1)
                total = np.where(np.isfinite(log_ratio), log_ratio, far) @ half_m + arc
        return total if isinstance(xi, np.ndarray) else float(total)

    def im_chi(self, omega):
        if not (type(omega) is float and 0.0 < omega < math.inf):
            require_positive(omega, _OMEGA)
        return 0.5 * math.pi * self._g(omega) / omega

    def chi_real_axis(self, omega: float) -> complex:
        """Complex response at real frequency, with no quadrature.

        The real part, PV integral g(u)/(u^2 - a^2) du with a = |omega|, has
        the antiderivative m/2 ln|u^2 - a^2| + b/(2a) ln|(u - a)/(u + a)| on
        a segment where g = m u + b.  Summed node by node, with dm and dg the
        jumps of slope and g (left minus right, 0 outside the grid), node u
        adds dm/(2a) [(u + a) ln(u + a) - (u - a) ln|u - a|] + dg/(2a)
        ln|(u - a)/(u + a)|.  g is continuous, so dg = 0 at interior nodes
        and a may sit on one; at an end node with g != 0 the principal value
        diverges (PoleError).
        """
        if omega == 0.0:
            return complex(self.chi_bar(0.0))
        a = abs(omega)
        u, g = self._nodes, self._values
        slope_jump = -np.diff(self._slopes, prepend=0.0, append=0.0)
        value_jump = np.zeros(u.size)
        value_jump[[0, -1]] = -g[0], g[-1]
        r = u / a
        with np.errstate(all="ignore"):  # in the branch np.where drops
            # ln|(u - a)/(u + a)| and ln|u^2 - a^2| - 2 ln a, each in the form
            # that keeps full relative precision for u << a, u ~ a and u >> a
            log_ratio = np.where(
                (r < 0.5) | (r > 2.0),
                np.log1p(-2.0 * np.minimum(r, 1.0) / (r + 1.0)),
                np.log(np.abs(u - a) / (u + a)),
            )
            log_product = np.where(
                r < 0.5, np.log1p(-r * r), np.log(np.abs(u - a) / a) + np.log1p(r)
            )
            # the bracket that multiplies dm/(2a), less 2a ln a (the slope
            # jumps sum to 0); it tends to 2a ln 2 as u -> a
            kink = np.where(u == a, 2.0 * a * math.log(2.0),
                            a * log_product - u * log_ratio)
        if np.isinf(log_ratio[value_jump != 0.0]).any():
            raise PoleError("principal value diverges at the band edge "
                            f"omega = {float(omega)!r}")
        log_ratio[value_jump == 0.0] = 0.0
        real = (slope_jump @ kink + value_jump @ log_ratio) / (2.0 * a)
        return complex(real, math.copysign(self.im_chi(a), omega))

    @property
    def has_absorption(self) -> bool:
        return any(v > 0.0 for v in self.g_values)

    def _dispersion_breakpoints(self) -> tuple[float, ...]:
        # every node is a kink of the interpolant
        return self.omega_grid


@dataclass(frozen=True)
class Medium(object):
    """Electric plus magnetic response enclosed between the mirrors."""

    electric: SusceptibilityModel
    magnetic: SusceptibilityModel = Constant(0.0)

    def mu_bar(self, xi):
        """Permeability 1/(1 - chi_m) on the imaginary axis.

        Raises MediumInstabilityError once chi_m reaches 1 (at the first
        such frequency of an array).
        """
        chi_m = self.magnetic.chi_bar(xi)
        if type(chi_m) is not float and isinstance(chi_m, np.ndarray):
            unstable = chi_m >= 1.0
            if unstable.any():
                i = int(np.argmax(unstable))
                raise MediumInstabilityError(float(xi.flat[i]), float(chi_m.flat[i]))
        elif chi_m >= 1.0:
            raise MediumInstabilityError(xi, chi_m)
        return 1.0 / (1.0 - chi_m)

    def refractive_index(self, kind: FieldKind, xi):
        """Euclidean refractive index n(xi) for the given field content.

        Scalar: n = sqrt(1 + chi_e).  EM: n = sqrt((1 + chi_e) * mu_bar) =
        sqrt((1 + chi_e)/(1 - chi_m)).  Takes a float or an ndarray of
        frequencies, like ``chi_bar``.
        """
        n2 = 1.0 + self.electric.chi_bar(xi)
        if kind is FieldKind.EM:
            n2 = n2 * self.mu_bar(xi)
        return math.sqrt(n2) if type(n2) is float else np.sqrt(n2)


VACUUM = Medium(Constant(0.0), Constant(0.0))


def kk_imaginary_axis(
    model: SusceptibilityModel, xi: float, spec: QuadratureSpec | None = None
) -> float:
    """Imaginary-axis susceptibility from the absorptive real-axis data.

    Evaluates (2/pi) integral_0^inf w Im chi(w) / (w^2 + xi^2) dw in one
    ``integrate_panels`` call, with edges at 0, the model's breakpoints and
    xi (at w = 1 if there is none of them) and infinity, against the spec's
    ``rel_tol``; a miss raises IntegrationFailureError.  For every
    closed-form chi_bar this must agree with it; the two routes share no
    code, which is the point.

    Only models with genuine absorption qualify (delta lines and lossless
    constants have no integrable Im chi); at xi = 0 Im chi(w)/w is integrable
    exactly where chi_bar(0) is finite, so ``model.chi_bar(xi)`` comes first.
    """
    model.chi_bar(xi)
    if not model.has_absorption:
        raise DomainError("dispersion transform needs a model with nonzero absorption")
    spec = spec or QuadratureSpec()
    cuts = {*model._dispersion_breakpoints(), xi} - {0.0}
    res = integrate_panels(lambda w: w * model.im_chi(w) / (w * w + xi * xi),
                           (0.0, *sorted(cuts or {1.0}), math.inf), spec.rel_tol)
    if not res.converged:
        raise IntegrationFailureError(
            f"dispersion integral at xi = {xi:g} did not converge",
            res.error_estimate,
        )
    return 2.0 / math.pi * res.value


def _sharp_line(omega_p: float, omega_0: float) -> Lorentz:
    return Lorentz(omega_p, omega_0, 0.0)


# medium-file type -> the callable that builds it; its parameters are the
# type's fields, optional where they have a default
_MODEL_TYPES = {
    "constant": Constant,
    "lorentz": Lorentz,
    "drude": Drude,
    "sharp_resonance": _sharp_line,
    "tabulated": TabulatedCoupling,
}


def _model_from_dict(cfg: object, path: str) -> SusceptibilityModel:
    if not isinstance(cfg, dict):
        raise MediumFileError(f"{path}: expected an object, got {type(cfg).__name__}")
    if "type" not in cfg:
        raise MediumFileError(f"{path}.type: missing (one of {sorted(_MODEL_TYPES)})")
    kind = cfg["type"]
    if kind not in _MODEL_TYPES:
        raise MediumFileError(
            f"{path}.type: unknown model {kind!r} (one of {sorted(_MODEL_TYPES)})"
        )
    build = _MODEL_TYPES[kind]
    params = inspect.signature(build).parameters.values()
    extra = set(cfg) - {p.name for p in params} - {"type"}
    if extra:
        raise MediumFileError(
            f"{path}.{sorted(extra)[0]}: unexpected field for model {kind!r}"
        )
    kwargs = {}
    for param in params:
        name = param.name
        if name not in cfg:
            if param.default is not param.empty:
                continue
            raise MediumFileError(f"{path}.{name}: missing required field")
        value = cfg[name]
        if param.annotation.startswith("tuple"):  # postponed: a string
            if not isinstance(value, list) or not all(
                isinstance(x, (int, float)) and not isinstance(x, bool) for x in value
            ):
                raise MediumFileError(f"{path}.{name}: must be a list of numbers")
            kwargs[name] = tuple(float(x) for x in value)
        else:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise MediumFileError(f"{path}.{name}: must be a number")
            kwargs[name] = float(value)
    try:
        return build(**kwargs)
    except DomainError as err:
        raise MediumFileError(f"{path}: {err}") from err


def medium_from_dict(cfg: object) -> Medium:
    """Build a Medium from a plain dict (the JSON file schema).

    Schema: {"electric": {"type": ..., ...}, "magnetic": {...}} where
    "magnetic" is optional and defaults to no magnetic response.  Errors name
    the offending field.
    """
    if not isinstance(cfg, dict):
        raise MediumFileError(
            f"medium: expected an object, got {type(cfg).__name__}"
        )
    unknown = set(cfg) - {"electric", "magnetic"}
    if unknown:
        raise MediumFileError(f"medium.{sorted(unknown)[0]}: unexpected field")
    if "electric" not in cfg:
        raise MediumFileError("medium.electric: missing required field")
    electric = _model_from_dict(cfg["electric"], "medium.electric")
    if "magnetic" in cfg:
        magnetic = _model_from_dict(cfg["magnetic"], "medium.magnetic")
    else:
        magnetic = Constant(0.0)
    return Medium(electric=electric, magnetic=magnetic)


def _read_json(path: str) -> object:
    """The JSON value in file ``path``; every failure is a MediumFileError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise MediumFileError(f"{path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise MediumFileError(f"{path}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise MediumFileError(
            f"{path}:{err.lineno}:{err.colno}: {err.msg}"
        ) from err


def load_medium(path: str) -> Medium:
    """Load a medium description from a JSON file.

    Syntax errors report line and column; schema errors report the field.
    """
    return medium_from_dict(_read_json(path))
