"""Radial numerical laboratory for the fourth-order Hardy-Henon equation.

The equation under study is

    Delta^2 u = |x|^alpha u^p   on the punctured unit ball, n > 4.

It is Delta^2 only: the polyharmonic order is fixed at m = 2, and the
paper's general (-Delta)^m is not covered.  The Emden-Fowler change of
variables w(t) = r^B u(r), t = ln r, turns the radial problem into an
autonomous fourth-order ODE.  The subpackages cover the coefficient algebra and sign regimes
(:mod:`.params`), the change of variables (:mod:`.transform`), the ODE as
a dynamical system (:mod:`.dynamics`), the monotone energy along the flow
(:mod:`.energy`), radial Green operators on the unit ball (:mod:`.green`),
reproducible experiment tables (:mod:`.experiments`) and a command line
front end (:mod:`.cli`).
"""

__version__ = "0.1.0"

from .params import (
    ProblemParams,
    ExponentSet,
    CoefficientSet,
    RegimeReport,
    critical_exponents,
    coefficients,
    a0_factored,
    kelvin_dual,
    classify_regime,
    in_dichotomy_window,
)
from .transform import RadialJet, OdeState, to_log, from_log, neg_laplacian_radial
from .dynamics import (
    Trajectory,
    LinearizationReport,
    LimitClass,
    vector_field,
    fixed_points,
    linearize,
    integrate,
    classify_limit,
)
from .energy import (
    MonotonicityAudit,
    energy,
    energy_rate,
    audit_monotonicity,
    scaling_check,
)
from .green import (
    RadialGrid,
    RadialField,
    IntegrabilityError,
    make_grid,
    poisson_solve_radial,
    bilaplacian_solve_radial,
    representation_check,
    superharmonic_check,
    integrability_report,
    singularity_bound_check,
)
from .experiments import (
    ExperimentConfig,
    ResultTable,
    run_atlas,
    run_classification_sweep,
    run_energy_audit,
    run_green_study,
    run_experiment,
)

__all__ = [
    "ProblemParams",
    "ExponentSet",
    "CoefficientSet",
    "RegimeReport",
    "critical_exponents",
    "coefficients",
    "a0_factored",
    "kelvin_dual",
    "classify_regime",
    "in_dichotomy_window",
    "RadialJet",
    "OdeState",
    "to_log",
    "from_log",
    "neg_laplacian_radial",
    "Trajectory",
    "LinearizationReport",
    "LimitClass",
    "vector_field",
    "fixed_points",
    "linearize",
    "integrate",
    "classify_limit",
    "MonotonicityAudit",
    "energy",
    "energy_rate",
    "audit_monotonicity",
    "scaling_check",
    "RadialGrid",
    "RadialField",
    "IntegrabilityError",
    "make_grid",
    "poisson_solve_radial",
    "bilaplacian_solve_radial",
    "representation_check",
    "superharmonic_check",
    "integrability_report",
    "singularity_bound_check",
    "ExperimentConfig",
    "ResultTable",
    "run_atlas",
    "run_classification_sweep",
    "run_energy_audit",
    "run_green_study",
    "run_experiment",
]
