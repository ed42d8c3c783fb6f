"""Hierarchical secure aggregation over prime fields.

Builds zero-row-sum coefficient schemes with the MDS property, simulates
the two-hop masking protocol, and certifies (or refutes) security with
exhaustive rank audits and exact brute-force independence checks.
"""

from .security import (
    AuditReport,
    CollusionSet,
    IndependenceVerdict,
    RankViolation,
    audit,
    exact_independence_check,
    exact_sweep,
    infeasibility_attack,
    relay_condition_matrix,
    server_condition_matrix,
)
from .errors import (
    AuditBudgetExceeded,
    ConfigurationError,
    CorrectnessViolation,
    InfeasibleConfiguration,
    SchemeFormatError,
)
from .fields import (
    FieldSpec,
    FqMatrix,
    extended_vandermonde,
    extended_vandermonde_subdet,
    is_prime,
    next_prime,
    vandermonde,
)
from .protocol import (
    ObservedRates,
    RoundInputs,
    RoundTranscript,
    measure_rates,
    run_round,
    sample_round,
    transcript_to_json_obj,
)
from .rates import (
    HsaConfig,
    RateRow,
    active_branch,
    baseline_source_rate,
    optimal_rates,
    optimal_source_rate,
    rate_table,
    rate_table_csv,
)
from .schemes import (
    CoefficientScheme,
    KeyMaterial,
    SchemeParams,
    build_baseline,
    build_elements,
    build_scheme,
    derive_keys,
    import_scheme,
    scheme_to_json,
    search_gamma,
)

__version__ = "0.1.0"
