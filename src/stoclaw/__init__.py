"""stoclaw: simulation and verification laboratory for degenerate parabolic
conservation laws driven by compensated Poisson jump noise."""

from .entropy import (
    BETA_M1, BETA_M2, EntropyTriple, kirchhoff, make_beta_theta,
    make_quadratic,
)
from .model import (
    DomainTooSmallError, Grid, InvalidSpecError, ProblemSpec,
    discretize_initial, eta_family, flux_family, init_family, phi_family,
    validate_assumptions,
)
from .noise import (
    JumpPath, LevyIntensity, SizeMeasure, TruncationRequiredError,
    compensated_increment, martingale_term, sample_jump_path,
)
from .solver import (
    StepFailureError, Trajectory, discrete_energy_report, implicit_step,
    solve_path,
)

__version__ = "0.1.0"
