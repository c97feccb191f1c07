"""Spillover-effect regressions on interference networks.

Tools for simulating randomized experiments on networks, fitting the three
standard spillover regressions (treated-neighbor count with a degree
control; treated-neighbor fraction on the connected subsample; zero-imputed
fraction on everyone), computing their theoretical population coefficients
from a degree distribution, and quantifying the bias introduced by imputing
a zero treated fraction for isolated nodes.
"""

__version__ = "0.3.0"

from types import ModuleType as _ModuleType

from .dgp import (
    BuiltinDesign,
    DesignSpec,
    EffectGaps,
    design_stack,
    load_design_csv,
)
from .errors import (
    ConfigurationError,
    EmptySubsampleError,
    IngestionError,
    ParameterError,
    SingularModelError,
    SpillnetError,
    TooFewUnitsError,
)
from .estimators import (
    CellTable,
    ExposureDiagnostics,
    empirical_exposure_diagnostics,
    fit_cells,
    ols,
    stratified_regression,
)
from .exposure import (
    assign_bernoulli,
    compute_exposure,
    cov_dbar_star_degree_closed_form,
)
from .graph import (
    WS_CALIBRATED,
    DegreeSummary,
    Network,
    from_edge_list,
    generate_erdos_renyi,
    generate_watts_strogatz,
    read_table,
)
from .montecarlo import (
    AggregateReport,
    CoefficientSummary,
    ErdosRenyiGraph,
    SimConfig,
    WattsStrogatzGraph,
    derive_seed,
    results_rows,
    run_study,
)
from .oracle import (
    OracleReport,
    dbar_star_moments,
    dbar_weights,
    enumeration_population_ols,
    imputation_bias,
    oracle_report,
    t_weights,
)

__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
