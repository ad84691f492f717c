"""kolmolab: a numerical laboratory for nonautonomous dissipative diffusions.

The package evaluates evolution operators G(t, s) of Kolmogorov equations
with time-dependent coefficients, builds their evolution systems of
measures {mu_t}, and certifies -- with explicit tolerances -- the pointwise
gradient estimate, logarithmic Sobolev and Poincare inequalities,
hypercontractivity along the induced exponent curve, exponential decay to
measure averages, and weak-star convergence of mu_t when the coefficients
stabilize.  Linear-drift (Ornstein-Uhlenbeck type) problems are handled in
closed form through Gaussian kernels; general dissipative drifts go through
paths, with every Monte Carlo estimate carrying a standard error.
"""

from ._version import __version__

from .errors import (
    KolmolabError,
    DomainError,
    EvaluationError,
    CertificateUnavailableError,
    StiffnessError,
    HorizonError,
    NoEvolutionMeasureError,
    BlowUpError,
    UnboundedFunctionError,
    ConstantFunctionError,
    ScenarioError,
)
from .model import (
    FunctionMeta,
    TestFunction,
    ProblemSpec,
    LyapunovCertificate,
    AuditGrid,
    default_audit_grid,
    apply_generator,
    audit_hypotheses,
    check_monotonicity,
    check_gradients,
    build_lyapunov_power,
    build_lyapunov_gaussian,
)
from . import functions
from .ou import (
    GaussianMeasure,
    OUModel,
    transition_U,
    forward_transition,
    estimate_omega0,
    evolution_measure,
    ou_apply_G,
    solve_lyapunov_limit,
)
from .sde import (
    SimConfig,
    PathBundle,
    simulate,
    evaluate_G,
    evaluate_grad_G,
    jacobian_norms,
    grid_lipschitz,
    eps_dt,
    jacobian_bound_violations,
    jacobian_certificate,
)
from .measures import (
    EmpiricalMeasure,
    Defect,
    burn_in_start,
    sample_mu,
    mean_functional,
    invariance_defect,
    tightness_profile,
    flow_derivative_defect,
    weak_star_gap,
    export_measure_csv,
    export_measure_json,
)
from .engines import (
    AnalyticOUEngine,
    MonteCarloEngine,
    engine_for,
    lp_norm_measure,
    lp_norm_of_G,
    grad_lp_norm_of_G,
)
from .ineq import (
    lsi_deficit,
    poincare_quotient,
    hyper_exponent,
    hyper_check,
    hyper_curve,
    decay_fit_A,
    decay_fit_B,
    rate_agreement,
    ExperimentRow,
)
from . import catalog
from .scenario import Scenario, parse_scenario, load_scenario, validate_scenario
from .runner import run_scenario, write_report

__all__ = [
    "__version__",
    # errors
    "KolmolabError",
    "DomainError",
    "EvaluationError",
    "CertificateUnavailableError",
    "StiffnessError",
    "HorizonError",
    "NoEvolutionMeasureError",
    "BlowUpError",
    "UnboundedFunctionError",
    "ConstantFunctionError",
    "ScenarioError",
    # problems and audits
    "FunctionMeta",
    "TestFunction",
    "ProblemSpec",
    "LyapunovCertificate",
    "AuditGrid",
    "default_audit_grid",
    "apply_generator",
    "audit_hypotheses",
    "check_monotonicity",
    "check_gradients",
    "build_lyapunov_power",
    "build_lyapunov_gaussian",
    "functions",
    # linear closed forms
    "GaussianMeasure",
    "OUModel",
    "transition_U",
    "forward_transition",
    "estimate_omega0",
    "evolution_measure",
    "ou_apply_G",
    "solve_lyapunov_limit",
    # paths
    "SimConfig",
    "PathBundle",
    "simulate",
    "evaluate_G",
    "evaluate_grad_G",
    "jacobian_norms",
    "grid_lipschitz",
    "eps_dt",
    "jacobian_bound_violations",
    "jacobian_certificate",
    # measures
    "EmpiricalMeasure",
    "Defect",
    "burn_in_start",
    "sample_mu",
    "mean_functional",
    "invariance_defect",
    "tightness_profile",
    "flow_derivative_defect",
    "weak_star_gap",
    "export_measure_csv",
    "export_measure_json",
    # engines and norms
    "AnalyticOUEngine",
    "MonteCarloEngine",
    "engine_for",
    "lp_norm_measure",
    "lp_norm_of_G",
    "grad_lp_norm_of_G",
    # inequalities and rates
    "lsi_deficit",
    "poincare_quotient",
    "hyper_exponent",
    "hyper_check",
    "hyper_curve",
    "decay_fit_A",
    "decay_fit_B",
    "rate_agreement",
    "ExperimentRow",
    # scenarios
    "catalog",
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "validate_scenario",
    "run_scenario",
    "write_report",
]
