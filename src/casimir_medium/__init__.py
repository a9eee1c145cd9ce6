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

from . import errors, forces, medium, propagators, quadrature
from .errors import *  # noqa: F403
from .forces import *  # noqa: F403
from .medium import *  # noqa: F403
from .propagators import *  # noqa: F403
from .quadrature import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *forces.__all__,
    *medium.__all__,
    *propagators.__all__,
    *quadrature.__all__,
    "__version__",
]
