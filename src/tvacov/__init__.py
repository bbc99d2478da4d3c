"""Time-varying variance and autocovariance estimation for nonstationary
series whose mean may contain abrupt level shifts.

The estimators work on squared lag differences of the raw observations, so
the trend never has to be removed first. Local linear smoothing of those
difference series yields curve estimates of the variance and of each
autocovariance on a common time grid, and simultaneous confidence bands come
from either a Gaussian multiplier bootstrap or an asymptotic extreme-value
approximation.
"""

__version__ = "0.1.0"

from .acov import (
    AcovEstimate,
    LagEstimate,
    estimate_gamma0,
    estimate_gammak,
    estimate_lags,
    naive_estimate,
)
from .diffseries import (
    DifferenceSeries,
    LagSelection,
    default_start_lag,
    difference,
    select_lag,
)
from .errors import (
    ConfigurationError,
    DegenerateVarianceError,
    GridAlignmentError,
    InvalidLagError,
    NumericError,
    ParseError,
    SingularDesignError,
    TuningError,
    TvacovError,
)
from .kernels import Kernel, epanechnikov
from .locallinear import (
    CurveOnGrid,
    fit_curve,
    hat_trace,
    interior_grid,
    unit_grid,
    weights,
)
from .lrv import (
    LongRunCovCurve,
    ResidualPair,
    SigmaFunctionals,
    lrv_curve,
    residuals,
    sigma_functionals,
)
from .procgen import (
    LinearProcess,
    MA2Process,
    MeanSpec,
    PRESET_NAMES,
    TimeSeries,
    generate,
    model_preset,
    true_gamma,
)
from .scb import (
    BandResult,
    BootstrapQuantile,
    bootstrap_quantile,
    build_band,
    coverage_check,
    gumbel_critical,
)
from .study import StudyConfig, StudyReport, run_naive_study, run_study
from .tuning import (
    GcvResult,
    MinVolResult,
    default_bandwidth_grid,
    default_block_grid,
    default_span_grid,
    gcv_bandwidth,
    min_volatility,
)

__all__ = [
    "__version__",
    "AcovEstimate",
    "BandResult",
    "BootstrapQuantile",
    "ConfigurationError",
    "CurveOnGrid",
    "DegenerateVarianceError",
    "DifferenceSeries",
    "GcvResult",
    "GridAlignmentError",
    "InvalidLagError",
    "Kernel",
    "LagEstimate",
    "LagSelection",
    "LinearProcess",
    "LongRunCovCurve",
    "MA2Process",
    "MeanSpec",
    "MinVolResult",
    "NumericError",
    "PRESET_NAMES",
    "ParseError",
    "ResidualPair",
    "SigmaFunctionals",
    "SingularDesignError",
    "StudyConfig",
    "StudyReport",
    "TimeSeries",
    "TuningError",
    "TvacovError",
    "bootstrap_quantile",
    "build_band",
    "coverage_check",
    "default_bandwidth_grid",
    "default_block_grid",
    "default_span_grid",
    "default_start_lag",
    "difference",
    "epanechnikov",
    "estimate_gamma0",
    "estimate_gammak",
    "estimate_lags",
    "fit_curve",
    "gcv_bandwidth",
    "generate",
    "gumbel_critical",
    "hat_trace",
    "interior_grid",
    "lrv_curve",
    "min_volatility",
    "model_preset",
    "naive_estimate",
    "residuals",
    "run_naive_study",
    "run_study",
    "select_lag",
    "sigma_functionals",
    "true_gamma",
    "unit_grid",
    "weights",
]
