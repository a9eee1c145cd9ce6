"""Exception types shared across the package.

Numerical routines here never let NaN or Inf escape silently: conditions
that would produce them (poles, unstable media, divergent integrals) raise
one of the errors below instead.
"""

import math

import numpy as np

__all__ = [
    "CasimirMediumError",
    "DomainError",
    "PoleError",
    "UnsupportedDistributionError",
    "MediumInstabilityError",
    "IntegrationFailureError",
    "InvalidRegimeError",
    "DegenerateModeError",
    "MediumFileError",
]


class CasimirMediumError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CasimirMediumError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(CasimirMediumError):
    """Evaluation requested exactly on a propagator pole with no regulator."""


class UnsupportedDistributionError(CasimirMediumError):
    """A distributional (delta-function) value was requested pointwise."""


class MediumInstabilityError(CasimirMediumError):
    """The magnetic susceptibility reached or exceeded 1, so the effective
    permeability is no longer positive."""

    def __init__(self, xi: float, chi_m: float):
        self.xi = xi
        self.chi_m = chi_m
        super().__init__(
            f"magnetic susceptibility chi_m({xi:g}) = {chi_m:g} >= 1; "
            "effective permeability is not positive"
        )


class IntegrationFailureError(CasimirMediumError):
    """Adaptive quadrature did not reach the requested tolerance."""

    def __init__(self, message: str, achieved: float | None = None):
        self.achieved = achieved
        if achieved is not None:
            message = f"{message} (achieved error estimate {achieved:.3e})"
        super().__init__(message)


class InvalidRegimeError(CasimirMediumError):
    """The polarization-boundary-condition force integrand lost positivity
    of its denominator somewhere on the sampled domain."""

    def __init__(self, p0: float, q: float, denominator: float):
        self.p0 = p0
        self.q = q
        self.denominator = denominator
        super().__init__(
            f"alpha*exp(2EH) - 1 <= 0 at (p0={p0:g}, q={q:g}) "
            f"(scaled denominator {denominator:.3e}); the boundary condition "
            "is outside its regime of validity for this medium"
        )


class DegenerateModeError(DomainError):
    """A mode with zero energy was requested (zero momentum and frequency)."""


class MediumFileError(CasimirMediumError, ValueError):
    """A medium description file is malformed; the message names the
    offending field or location."""


def require_positive(value, field: str, *, zero_ok: bool = False, error=DomainError):
    """Raise ``error``, "<field> must be > 0, got <value>", unless ``value`` is
    finite and > 0 (>= 0 with ``zero_ok``); an ndarray elementwise, naming one."""
    ok = value >= 0.0 if zero_ok else value > 0.0
    if isinstance(ok, np.ndarray):
        ok &= np.isfinite(value)
        if ok.all():
            return
        value = value[~ok].flat[0]
    elif ok and math.isfinite(value):
        return
    raise error(f"{field} must be {'>=' if zero_ok else '>'} 0, got {float(value)!r}")
