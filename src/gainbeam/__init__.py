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
"""

__version__ = "0.1.0"

from .closed_forms import (
    OscillatorSolution,
    adaptive_simpson,
    b_evolution,
    center_solution,
    forcing_ratio,
    quadratic_trajectory,
    reduced_forcing_center_solution,
    width_drift_rate,
)
from .config import (
    FilterConfig,
    GaussianSettings,
    GridSettings,
    InitialBeam,
    ScenarioConfig,
    load_filter,
    load_scenario,
)
from .dynamics import (
    GaussianParams,
    Trajectory,
    center_acceleration,
    integrate,
    reconstruct_wavefunction,
    rhs,
    widths,
)
from .errors import (
    BoundaryContaminationWarning,
    ConfigError,
    NarrowGridWarning,
    NumericalAbortError,
    WidthCollapseError,
)
from .grid import (
    GridObservables,
    GridRun,
    GridSpec,
    GridState,
    observables,
    propagate,
    renormalized_intensity,
)
from .harness import (
    ComparisonReport,
    FilterReport,
    ObservableSeries,
    ScenarioResult,
    compare,
    filter_experiment,
    run_scenario,
)
from .potentials import (
    DEFAULT_CONSTANTS,
    FreeSpace,
    PhysicalConstants,
    Potential,
    PotentialSample,
    PtTanhGaussian,
    QuadraticLinear,
    hermitian_variant,
)
from .scenarios import scenario_library

__all__ = [
    "__version__",
    # potentials
    "PhysicalConstants", "DEFAULT_CONSTANTS", "PotentialSample", "Potential",
    "PtTanhGaussian", "QuadraticLinear", "FreeSpace", "hermitian_variant",
    # dynamics
    "GaussianParams", "Trajectory", "rhs", "center_acceleration", "widths",
    "integrate", "reconstruct_wavefunction",
    # closed forms
    "b_evolution", "forcing_ratio", "OscillatorSolution", "center_solution",
    "reduced_forcing_center_solution", "adaptive_simpson", "width_drift_rate",
    "quadratic_trajectory",
    # grid
    "GridSpec", "GridState", "GridObservables", "GridRun", "propagate", "observables",
    "renormalized_intensity",
    # harness
    "ObservableSeries", "ComparisonReport", "ScenarioResult", "FilterReport",
    "run_scenario", "compare", "filter_experiment",
    # config / scenarios
    "ScenarioConfig", "FilterConfig", "InitialBeam", "GaussianSettings",
    "GridSettings", "load_scenario", "load_filter", "scenario_library",
    # errors
    "WidthCollapseError", "NumericalAbortError", "ConfigError",
    "BoundaryContaminationWarning", "NarrowGridWarning",
]
