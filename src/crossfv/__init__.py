"""Structure-preserving finite volumes for nonlocal cross-diffusion systems."""

from .errors import (
    ConfigurationError,
    CrossFVError,
    NumericalStateError,
    SolverFailure,
    StepFailure,
    UsageError,
)
from .harness import (
    ErrorTable,
    ExperimentConfig,
    coarsen,
    dominant_mode,
    error_norms,
    fit_rate,
    parse_config,
    run_experiment,
)
from .initial import BoxIC, ConstantIC, TrigIC, project_initial
from .kernels import (
    DiscreteKernel,
    Extension,
    Gaussian,
    KernelSpec,
    TopHat,
    c_star,
    c_star_report,
    check_psd,
    discretize,
    small_mass_threshold,
)
from .mesh import Mesh, MeshSpec, build_mesh
from .scheme import (
    Coupling,
    LinearSolverConfig,
    LinearSystem,
    SchemeConfig,
    State,
    advance,
    assemble,
    run,
    solve_linear,
)
from .weights import WeightKind, eval_B_kappa
from .diagnostics import StepReport, entropy_boltzmann, productions

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
