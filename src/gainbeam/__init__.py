"""Gaussian beams in waveguides with gain and loss.

Three propagators for the same physics, cross-validated against each
other:

* :mod:`gainbeam.dynamics` -- semiclassical dynamics of the five Gaussian
  beam parameters (center, momentum, complex width, norm, phase);
* :mod:`gainbeam.closed_forms` -- exact solutions for the locally
  quadratic potential with a linear gain slope;
* :mod:`gainbeam.grid` -- split-operator solution of the full paraxial
  wave equation.

:mod:`gainbeam.harness` runs configured scenarios, exports CSV data and
quantifies the agreement between propagators; ``gainbeam`` is also a CLI.
The package exports ``__version__`` and the ``__all__`` of each module
below, so a public name is listed once, in its own module.
"""

__version__ = "0.1.0"

from . import closed_forms, config, dynamics, errors, grid, harness, potentials, scenarios
from .closed_forms import *  # noqa: F403
from .config import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .errors import *  # noqa: F403
from .grid import *  # noqa: F403
from .harness import *  # noqa: F403
from .potentials import *  # noqa: F403
from .scenarios import *  # noqa: F403

__all__ = ["__version__"] + [
    name
    for module in (closed_forms, config, dynamics, errors, grid, harness, potentials, scenarios)
    for name in module.__all__
]
