"""Spillover-effect regressions on interference networks.

Tools for simulating randomized experiments on networks, fitting the three
standard spillover regressions (treated-neighbor count with a degree
control; treated-neighbor fraction on the connected subsample; zero-imputed
fraction on everyone), computing their theoretical population coefficients
from a degree distribution, and quantifying the bias introduced by imputing
a zero treated fraction for isolated nodes.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .dgp import (
    BuiltinDesign,
    DesignSpec,
    EffectGaps,
    expand,
    load_design_csv,
    simulate_outcomes,
    true_effect_deltas,
)
from .errors import (
    ConfigurationError,
    EmptySubsampleError,
    IngestionError,
    ParameterError,
    SingularModelError,
    SpillnetError,
)
from .estimators import (
    RegressionFit,
    StratifiedResult,
    dbar_regression,
    dbar_star_regression,
    ols,
    stratified_regression,
    t_regression,
)
from .exposure import (
    ExposureDiagnostics,
    ExposureProfile,
    TreatmentVector,
    assign_bernoulli,
    compute_exposure,
    cov_dbar_star_degree_closed_form,
    empirical_exposure_diagnostics,
)
from .graph import (
    WS_CALIBRATED,
    DegreeSummary,
    Network,
    from_edge_list,
    generate_erdos_renyi,
    generate_watts_strogatz,
    read_edge_csv,
    read_table,
    summarize,
    to_edge_list,
    write_edge_csv,
)
from .montecarlo import (
    AggregateReport,
    CoefficientSummary,
    ErdosRenyiGraph,
    SimConfig,
    WattsStrogatzGraph,
    derive_seed,
    run,
    write_results_csv,
)
from .oracle import (
    OracleReport,
    dbar_star_moments,
    dbar_weights,
    enumeration_population_ols,
    imputation_bias,
    oracle_report,
    t_weights,
    true_dbar_coefficients,
    true_dbar_star_coefficients,
    true_t_coefficients,
)

__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
