"""Casimir force per unit area across dispersive magnetodielectric media.

The package works in natural units (hbar = c = 1). Forces are per unit
plate area; negative values are attractive. The main entry points:

* :mod:`casimir_medium.medium`: susceptibility models and the two-sided
  medium description, plus a JSON loader.
* :mod:`casimir_medium.propagators`: free, dressed and cross propagators
  on the real and Euclidean frequency axes.
* :mod:`casimir_medium.forces`: force routes for the two boundary
  conditions, the mode log-determinant and the finite-difference
  action route.
* :mod:`casimir_medium.checks`: self-contained validation suites.
* :mod:`casimir_medium.cli`: the ``casimir-medium`` command.
"""

from .errors import (
    CasimirMediumError,
    DegenerateModeError,
    DomainError,
    IntegrationFailureError,
    InvalidRegimeError,
    MediumFileError,
    MediumInstabilityError,
    PoleError,
    UnsupportedDistributionError,
)
from .forces import (
    BoundaryCondition,
    ForceQuery,
    ForceResult,
    force_field_bc,
    force_polarization_bc,
    force_via_action_fd,
    matter_only_force,
    mode_logdet,
    nondispersive_scaling_check,
    vacuum_force_analytic,
)
from .medium import (
    Constant,
    Drude,
    FieldKind,
    Lorentz,
    Medium,
    SusceptibilityModel,
    TabulatedCoupling,
    VACUUM,
    kk_imaginary_axis,
    load_medium,
    medium_from_dict,
)
from .propagators import (
    Axis,
    CrossCorrelators,
    DysonPartialSum,
    MomentumFrequencyPoint,
    cross_correlators,
    dyson_partial_sum,
    g0,
    g_omega,
    g_phiphi,
    reservoir_gap,
)
from .quadrature import (
    IntegralResult,
    QuadratureSpec,
    inner_mode_integral,
    integrate_1d,
    integrate_2d_oracle,
    integrate_exp_sinh,
    polylog,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "BoundaryCondition",
    "CasimirMediumError",
    "Constant",
    "CrossCorrelators",
    "DegenerateModeError",
    "DomainError",
    "Drude",
    "DysonPartialSum",
    "FieldKind",
    "ForceQuery",
    "ForceResult",
    "IntegralResult",
    "IntegrationFailureError",
    "InvalidRegimeError",
    "Lorentz",
    "Medium",
    "MediumFileError",
    "MediumInstabilityError",
    "MomentumFrequencyPoint",
    "PoleError",
    "QuadratureSpec",
    "SusceptibilityModel",
    "TabulatedCoupling",
    "UnsupportedDistributionError",
    "VACUUM",
    "cross_correlators",
    "dyson_partial_sum",
    "force_field_bc",
    "force_polarization_bc",
    "force_via_action_fd",
    "g0",
    "g_omega",
    "g_phiphi",
    "inner_mode_integral",
    "integrate_1d",
    "integrate_2d_oracle",
    "integrate_exp_sinh",
    "kk_imaginary_axis",
    "load_medium",
    "matter_only_force",
    "medium_from_dict",
    "mode_logdet",
    "nondispersive_scaling_check",
    "polylog",
    "reservoir_gap",
    "vacuum_force_analytic",
    "__version__",
]
