"""Constant-function market-maker swap mechanics and orbit geometry.

The library exposes four layers: reserve states and the pool invariant
(state), swap rules and chains (rules), randomized axiom-conformance
checks (axioms), orbit sampling and invariant recovery (classify), and
the fee extension (fees).  A CLI front end lives in ammorbit.cli.
"""

from .axioms import (
    AxiomReport,
    TrialConfig,
    Witness,
    check_all,
    check_pareto,
    check_token_symmetry,
    check_unit_invariance,
    check_validity_invariance,
    report_to_dict,
    shrink,
)
from .classify import (
    ClassificationReport,
    HyperplaneFit,
    LineFit,
    OrbitConfig,
    OrbitSample,
    SliceReport,
    check_equal_weights,
    check_slices,
    classification_to_dict,
    fit_log_hyperplane,
    fit_log_line,
    orbit_to_csv,
    sample_orbit,
    verify_level_sets,
    weight_from_slope,
)
from .errors import (
    AmmError,
    ChainError,
    ClassificationError,
    ConfigError,
    DegenerateSampleError,
    DomainError,
    InternalError,
    MalformedInputError,
    NumericError,
    SamplingError,
    UsageError,
    VerticalFitError,
)
from .fees import (
    DriftSeries,
    FeeDecomposition,
    decompose_check,
    drift_to_csv,
    fee_drift,
    fee_swap,
    scaling_factor,
)
from .rules import (
    RuleSpec,
    SwapRule,
    Trajectory,
    chain,
    constant_sum,
    make_rule,
    out_amount,
    parse_rule,
    product,
    swap,
    weighted_product,
    wgm,
)
from .state import (
    as_reserves,
    as_weights,
    exp_map,
    is_valid,
    log_map,
    pareto_geq,
    rel_close,
    require_valid,
    scale,
    weighted_gmean,
)

__version__ = "0.2.0"

__all__ = [
    "AmmError", "AxiomReport", "ChainError", "ClassificationError",
    "ClassificationReport", "ConfigError", "DegenerateSampleError", "DomainError",
    "DriftSeries", "FeeDecomposition", "HyperplaneFit", "InternalError", "LineFit",
    "MalformedInputError", "NumericError", "OrbitConfig", "OrbitSample",
    "RuleSpec", "SamplingError", "SliceReport", "SwapRule", "Trajectory",
    "TrialConfig", "UsageError", "VerticalFitError", "Witness",
    "as_reserves", "as_weights", "chain", "check_all", "check_equal_weights",
    "check_pareto", "check_slices", "check_token_symmetry", "check_unit_invariance",
    "check_validity_invariance", "classification_to_dict", "constant_sum",
    "decompose_check", "drift_to_csv", "exp_map", "fee_drift", "fee_swap",
    "fit_log_hyperplane", "fit_log_line", "is_valid", "log_map", "make_rule",
    "orbit_to_csv", "out_amount", "pareto_geq", "parse_rule", "product",
    "rel_close", "report_to_dict", "require_valid", "sample_orbit", "scale",
    "scaling_factor", "shrink", "swap", "verify_level_sets", "weight_from_slope",
    "weighted_gmean", "weighted_product", "wgm",
]
