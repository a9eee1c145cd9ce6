"""Independent reference values for the benchmark's correctness gate.

Nothing here calls into ``casimir_medium``.  Media arrive as the plain dicts
of the medium-file schema, and every quantity is rebuilt from its definition:

* susceptibilities from their closed forms; the tabulated coupling by
  8-point Gauss-Legendre on every grid segment, not the library's log/arctan
  closed form;
* the mode integral J(x) = int_x^inf v^2/(e^v - 1) dv from a Bernoulli
  series below x = 2 and the Bose series e^{-kx}(x^2/k + 2x/k^2 + 2/k^3)
  above, not the library's polylogarithms;
* the field-BC force in the scale-free variable t = 2 H p0 (with t = s^2 so
  the Drude square-root edge at t -> 0 is smooth):

      F = -m / (2 pi^2 (2H)^4) int_0^inf J(n(t / 2H) t) dt;

* the polarization-BC force with q dq = E dE, in v = 2 H E and t = 2 H p0,
  one purely relative tolerance at every H.

Values are cached on disk keyed by the input and a hash of this file, so a
change to the reference invalidates every cached value.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.integrate import quad

ZETA_3 = 1.2020569031595942854
CODE_HASH = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:16]

# scale-free field integral: s in [0, S_MAX] covers t <= 81, where
# J(t) < 1e-31 is far below any force the workloads produce
S_MAX = 9.0
S_BREAKS = (1e-4, 1e-3, 1e-2, 0.1, 1.0, 3.0)
FIELD_REL = 1e-12
POLAR_OUTER_REL = 1e-11
POLAR_INNER_REL = 1e-12
# a reference must be tighter than the rel_tol 1e-9 it judges
MAX_REL_ESTIMATE = 1e-10


class Refused(Exception):
    """The polarization-BC denominator lost positivity: outside the regime."""


def _settled(value: float, error: float, what: str) -> None:
    if not (math.isfinite(value) and error <= MAX_REL_ESTIMATE * abs(value)):
        raise RuntimeError(f"reference {what} did not converge: {value!r} +- {error!r}")


def _bernoulli(count: int) -> list[Fraction]:
    # Akiyama-Tanigawa gives B_1 = +1/2; the generating function
    # v/(e^v - 1) needs B_1 = -1/2
    a = [Fraction(0)] * count
    out = []
    for m in range(count):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    out[1] = -out[1]
    return out


# int_0^x v^2/(e^v - 1) dv = x^2 sum_n B_n x^n / ((n + 2) n!), radius 2 pi
_LOW = [float(b / ((n + 2) * math.factorial(n))) for n, b in enumerate(_bernoulli(41))]
_SWITCH = 2.0


def mode_j(x: float) -> float:
    """J(x) = int_x^inf v^2 / (e^v - 1) dv for x >= 0."""
    if x < _SWITCH:
        acc = 0.0
        for c in reversed(_LOW):
            acc = acc * x + c
        return 2.0 * ZETA_3 - acc * x * x
    e = math.exp(-x)
    total, power = 0.0, 1.0
    for k in range(1, 200):
        power *= e
        term = power * (x * x / k + 2.0 * x / (k * k) + 2.0 / (k * k * k))
        total += term
        if term <= 1e-18 * total:
            break
    return total


def _chi(model: dict):
    kind = model["type"]
    if kind == "constant":
        c = float(model["chi0"])
        return lambda xi: c
    if kind == "lorentz":
        wp2, w02, g = model["omega_p"] ** 2, model["omega_0"] ** 2, model["gamma"]
        return lambda xi: wp2 / (w02 + xi * (xi + g))
    if kind == "drude":
        wp2, g = model["omega_p"] ** 2, model["gamma"]
        return lambda xi: wp2 / (xi * (xi + g))
    if kind == "tabulated":
        w = np.asarray(model["omega_grid"], dtype=float)
        gv = np.asarray(model["g_values"], dtype=float)
        x, wt = np.polynomial.legendre.leggauss(8)
        lo, hi = w[:-1, None], w[1:, None]
        half = 0.5 * (hi - lo)
        nodes = 0.5 * (lo + hi) + half * x
        weights = (half * wt * np.interp(nodes, w, gv)).ravel()
        nodes2 = (nodes * nodes).ravel()
        return lambda xi: float(weights @ (1.0 / (nodes2 + xi * xi)))
    raise ValueError(f"reference has no model {kind!r}")


def _im_chi(model: dict):
    kind = model["type"]
    if kind == "lorentz":
        wp2, w02, g = model["omega_p"] ** 2, model["omega_0"] ** 2, model["gamma"]
        return lambda w: wp2 * g * w / ((w02 - w * w) ** 2 + (g * w) ** 2)
    if kind == "drude":
        wp2, g = model["omega_p"] ** 2, model["gamma"]
        return lambda w: wp2 * g / (w * (w * w + g * g))
    raise ValueError(f"reference has no absorption for model {kind!r}")


def _index(medium: dict, field: str):
    chi_e = _chi(medium["electric"])
    if field == "scalar":
        return lambda xi: math.sqrt(1.0 + chi_e(xi))
    chi_m = _chi(medium.get("magnetic", {"type": "constant", "chi0": 0.0}))
    return lambda xi: math.sqrt((1.0 + chi_e(xi)) / (1.0 - chi_m(xi)))


def field_force(medium: dict, field: str, h: float) -> float:
    """Field-BC force per area, relative accuracy ~1e-12 at every H."""
    n = _index(medium, field)
    inv2h = 0.5 / h

    def integrand(s: float) -> float:
        t = s * s
        if t == 0.0:
            return 0.0
        return 2.0 * s * mode_j(n(t * inv2h) * t)

    value, error = quad(integrand, 0.0, S_MAX, epsabs=0.0, epsrel=FIELD_REL,
                        limit=500, points=S_BREAKS)
    _settled(value, error, f"field force at H={h!r}")
    m = 2 if field == "em" else 1
    return -m / (2.0 * math.pi**2) * value / (2.0 * h) ** 4


def polarization_force(model: dict, h: float) -> float:
    """Polarization-BC force per area; raises Refused outside the regime."""
    chi, im = _chi(model), _im_chi(model)
    inv2h = 0.5 / h

    def outer(t: float) -> float:
        if t == 0.0:
            return 0.0
        p0 = t * inv2h
        c = chi(p0)
        c2, noise = c * c, im(p0)
        v0 = math.sqrt(1.0 + c) * t

        def inner(v: float) -> float:
            energy = v * inv2h
            decay = math.exp(-v)
            den = energy * noise + c2 - decay
            if den <= 0.0:
                raise Refused(p0, energy, den)
            return c2 * energy * energy * decay / den

        value, _ = quad(inner, v0, math.inf, epsabs=0.0,
                        epsrel=POLAR_INNER_REL, limit=200)
        return value * inv2h

    value, error = quad(outer, 0.0, math.inf, epsabs=0.0, epsrel=POLAR_OUTER_REL,
                        limit=400)
    _settled(value, error, f"polarization force at H={h!r}")
    return -value * inv2h / (2.0 * math.pi**2)


def vacuum_force(field: str, h: float) -> float:
    """Ideal-mirror limit -pi^2/(480 H^4), doubled for EM."""
    return -(2 if field == "em" else 1) * math.pi**2 / (480.0 * h**4)


def self_test() -> list[str]:
    """Problems found by checking the reference against exact limits."""
    problems = []
    if mode_j(0.0) != 2.0 * ZETA_3:
        problems.append("J(0) != 2 zeta(3)")
    below = mode_j(math.nextafter(_SWITCH, 0.0))
    if abs(below / mode_j(_SWITCH) - 1.0) > 1e-14:
        problems.append("J series branches disagree at the switch point")
    vacuum = {"electric": {"type": "constant", "chi0": 0.0}}
    for h in (1e-3, 1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e5):
        dev = abs(field_force(vacuum, "scalar", h) / vacuum_force("scalar", h) - 1.0)
        if dev > 1e-12:
            problems.append(f"vacuum limit off by {dev:.1e} at H={h:g}")
        for chi_e, chi_m in ((0.25, 0.0), (3.0, 0.0), (1.0, 0.2)):
            medium = {"electric": {"type": "constant", "chi0": chi_e},
                      "magnetic": {"type": "constant", "chi0": chi_m}}
            field = "em" if chi_m else "scalar"
            n = math.sqrt((1.0 + chi_e) / (1.0 - chi_m))
            ratio = field_force(medium, field, h) / vacuum_force(field, h)
            if abs(ratio * n - 1.0) > 1e-12:
                problems.append(
                    f"1/n scaling off by {abs(ratio * n - 1.0):.1e} at "
                    f"H={h:g}, n={n:g}"
                )
    return problems


class ReferenceCache:
    """Reference values on disk, keyed by input and reference code hash."""

    def __init__(self, path: Path):
        self.path = path
        self.values: dict[str, object] = {}
        self.hits = self.misses = 0
        try:
            saved = json.loads(path.read_text())
        except (OSError, ValueError):
            saved = None
        if isinstance(saved, dict) and saved.get("code") == CODE_HASH:
            self.values = saved.get("values", {})

    def _get(self, parts: list, compute):
        text = json.dumps(parts, sort_keys=True)
        key = hashlib.sha256(text.encode()).hexdigest()[:32]
        if key in self.values:
            self.hits += 1
            return self.values[key]
        self.misses += 1
        self.values[key] = value = compute()
        return value

    def field(self, medium: dict, field: str, h: float) -> float:
        return self._get(["field", medium, field, h.hex()],
                         lambda: field_force(medium, field, h))

    def polarization(self, model: dict, h: float) -> float | None:
        """Reference force, or None when the reference also refuses."""
        def compute():
            try:
                return polarization_force(model, h)
            except Refused:
                return None

        return self._get(["polarization", model, h.hex()], compute)

    def save(self) -> None:
        if not self.misses:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"code": CODE_HASH, "values": self.values}))
        os.replace(tmp, self.path)
