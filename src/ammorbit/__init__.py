"""Constant-function market-maker swap mechanics and orbit geometry.

The library exposes four layers: reserve states and the pool invariant
(state), swap rules and chains (rules), randomized axiom-conformance
checks (axioms), orbit sampling and invariant recovery (classify), and
the fee extension (fees).  A CLI front end lives in ammorbit.cli.

Submodules load on first use (PEP 562): `import ammorbit` loads none, and
each public name below loads the one module that defines it.
"""

import importlib
import sys

__version__ = "0.2.0"

# Public name -> the submodule that defines it.
_HOME = {name: module for module, names in {
    "axioms": ("AxiomReport", "TrialConfig", "Witness", "check_all", "check_pareto",
               "check_token_symmetry", "check_unit_invariance", "check_validity_invariance",
               "report_to_dict", "shrink"),
    "classify": ("ClassificationReport", "HyperplaneFit", "LineFit", "OrbitConfig",
                 "OrbitSample", "SliceReport", "check_equal_weights", "check_slices",
                 "classification_to_dict", "fit_log_hyperplane", "fit_log_line", "orbit_to_csv",
                 "sample_orbit", "verify_level_sets", "weight_from_slope"),
    "errors": ("AmmError", "ChainError", "ClassificationError", "ConfigError",
               "DegenerateSampleError", "DomainError", "InternalError", "MalformedInputError",
               "NumericError", "SamplingError", "UsageError", "VerticalFitError"),
    "fees": ("DriftSeries", "FeeDecomposition", "decompose_check", "drift_to_csv", "fee_drift",
             "fee_swap", "scaling_factor"),
    "rules": ("RuleSpec", "SwapRule", "Trajectory", "chain", "constant_sum", "make_rule",
              "out_amount", "parse_rule", "product", "swap", "weighted_product", "wgm"),
    "state": ("as_reserves", "as_weights", "exp_map", "is_valid", "log_map", "pareto_geq",
              "rel_close", "require_valid", "scale", "weighted_gmean"),
}.items() for name in names}

_SUBMODULES = ("axioms", "classify", "cli", "errors", "fees", "rand", "rules", "state")

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        # The lookup without this hook, which raises AttributeError.
        return object.__getattribute__(sys.modules[__name__], name)
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
