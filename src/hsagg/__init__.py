"""Hierarchical secure aggregation over prime fields.

Builds zero-row-sum coefficient schemes with the MDS property, simulates
the two-hop masking protocol, and certifies (or refutes) security with
exhaustive rank audits and exact independence checks, each decided from
four ranks by the rank-entropy identity.

The names in ``__all__`` are imported from their modules on first access
(PEP 562), as are the submodules themselves, so ``import hsagg`` loads
none of them and a command loads only the modules it runs.
"""

_EXPORTS = {
    "errors": (
        "AuditBudgetExceeded",
        "ConfigurationError",
        "CorrectnessViolation",
        "InfeasibleConfiguration",
        "SchemeFormatError",
    ),
    "fields": (
        "FieldSpec",
        "FqMatrix",
        "extended_vandermonde",
        "extended_vandermonde_subdet",
        "is_prime",
        "next_prime",
        "vandermonde",
    ),
    "protocol": (
        "ObservedRates",
        "RoundInputs",
        "RoundTranscript",
        "measure_rates",
        "run_round",
        "sample_round",
        "transcript_to_json_obj",
    ),
    "rates": (
        "HsaConfig",
        "RateRow",
        "active_branch",
        "baseline_source_rate",
        "optimal_rates",
        "optimal_source_rate",
        "rate_table",
        "rate_table_csv",
    ),
    "schemes": (
        "CoefficientScheme",
        "KeyMaterial",
        "SchemeParams",
        "build_baseline",
        "build_elements",
        "build_scheme",
        "derive_keys",
        "import_scheme",
        "scheme_to_json",
        "search_gamma",
    ),
    "security": (
        "AuditReport",
        "CollusionSet",
        "IndependenceVerdict",
        "RankViolation",
        "audit",
        "exact_independence_check",
        "exact_sweep",
        "infeasibility_attack",
        "relay_condition_matrix",
        "server_condition_matrix",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")  # binds a submodule here itself
    if module != name:
        value = globals()[name] = getattr(value, name)  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
