"""Rate region formulas, feasibility boundary, and the tabulated sweep."""

import pytest

from hsagg.errors import AuditBudgetExceeded, ConfigurationError, InfeasibleConfiguration
from hsagg.rates import (
    HsaConfig,
    active_branch,
    baseline_source_rate,
    optimal_rates,
    optimal_source_rate,
    rate_table,
    rate_table_csv,
)
from hsagg.schemes import CoefficientScheme, SchemeParams, build_scheme
from hsagg.fields import FieldSpec, FqMatrix
from hsagg import security
import itertools


def test_optimal_rates_worked_examples():
    r = optimal_rates(HsaConfig(2, 3, 1))
    assert (r.feasible, r.R_X, r.R_Y, r.R_Z, r.R_Z_sigma) == (True, 1, 1, 1, 4)
    r = optimal_rates(HsaConfig(3, 2, 2))
    assert r.R_Z_sigma == 4
    r = optimal_rates(HsaConfig(2, 2, 0))
    assert (r.feasible, r.R_Z_sigma) == (True, 2)


def test_infeasible_at_boundary():
    r = optimal_rates(HsaConfig(2, 3, 3))
    assert not r.feasible
    assert r.R_Z_sigma is None
    with pytest.raises(InfeasibleConfiguration):
        optimal_source_rate(HsaConfig(2, 3, 3))


def test_boundary_is_exact():
    for U in range(2, 6):
        for V in range(1, 5):
            limit = (U - 1) * V
            for T in range(limit + 3):
                assert optimal_rates(HsaConfig(U, V, T)).feasible == (T < limit)


def test_single_relay_rejected():
    with pytest.raises(ConfigurationError):
        HsaConfig(1, 3, 0)
    with pytest.raises(ConfigurationError):
        HsaConfig(2, 0, 0)
    with pytest.raises(ConfigurationError):
        HsaConfig(2, 2, -1)


def test_monotone_in_collusion_budget():
    for U in range(2, 6):
        for V in range(1, 4):
            values = [
                optimal_source_rate(HsaConfig(U, V, T))
                for T in range((U - 1) * V)
            ]
            assert values == sorted(values)


def test_baseline_rate():
    assert baseline_source_rate(HsaConfig(3, 2, 2)) == 5
    assert baseline_source_rate(HsaConfig(2, 3, 1)) == 5
    assert baseline_source_rate(HsaConfig(2, 1, 0)) == 1
    with pytest.raises(InfeasibleConfiguration):
        baseline_source_rate(HsaConfig(2, 2, 2))


def test_baseline_dominates_optimum():
    for U in range(2, 7):
        for V in range(1, 5):
            for T in range((U - 1) * V):
                cfg = HsaConfig(U, V, T)
                assert baseline_source_rate(cfg) >= optimal_source_rate(cfg)


def test_active_branch_boundary_cases():
    # U = V + 1 keeps both terms equal: branch reads V+T throughout
    for T in range(9):
        assert active_branch(HsaConfig(4, 3, T)) == "V+T"
        assert optimal_source_rate(HsaConfig(4, 3, T)) == 3 + T
    for T in range(2):
        assert active_branch(HsaConfig(2, 2, T)) == "V+T"


def test_active_branch_min_side():
    # U much larger than V: the min side decides until UV-1 caps it
    cfg = HsaConfig(6, 1, 2)  # V+T = 3, min(5, 7) = 5
    assert optimal_source_rate(cfg) == 5
    assert active_branch(cfg) == "UV-1"
    cfg = HsaConfig(5, 2, 3)  # V+T = 5, min(9, 7) = 7
    assert optimal_source_rate(cfg) == 7
    assert active_branch(cfg) == "U+T-1"


def test_rate_table_sweep():
    rows = rate_table(range(2, 5), range(1, 4), range(0, 7))
    assert len(rows) == 3 * 3 * 7
    by_key = {(r.U, r.V, r.T): r for r in rows}
    assert by_key[(2, 3, 1)].R_Z_sigma == 4
    assert by_key[(2, 3, 1)].baseline == 5
    infeasible = by_key[(2, 3, 3)]
    assert not infeasible.feasible and infeasible.R_Z_sigma is None
    # every infeasible row sits exactly at or past the boundary
    for r in rows:
        assert r.feasible == (r.T < (r.U - 1) * r.V)


def test_rate_table_csv_format():
    text = rate_table_csv(rate_table([2], [3], [1, 3]))
    lines = text.strip().split("\n")
    assert lines[0] == "U,V,T,feasible,R_X,R_Y,R_Z,R_Zsigma,baseline,active_branch"
    # the header names the JSON keys of a row, in column order
    assert lines[0].split(",") == list(rate_table([2], [3], [1])[0].to_json_obj())
    assert lines[1] == "2,3,1,true,1,1,1,4,5,V+T"
    assert lines[2] == "2,3,3,false,,,,,,"


def test_rate_table_rejects_empty_ranges():
    with pytest.raises(ConfigurationError):
        rate_table([], [1], [0])


def test_rate_table_refuses_a_grid_before_listing_it():
    # an empty range beside one longer than sys.maxsize, then a grid past the row limit
    with pytest.raises(ConfigurationError, match="^rate table ranges must be nonempty$"):
        rate_table(range(2, 10**30), [], [0])
    with pytest.raises(AuditBudgetExceeded, match="^rate grid has more than the limit of "):
        rate_table(range(2, 10**30), [1], [0])
    with pytest.raises(AuditBudgetExceeded):
        rate_table(range(2, 1002), range(1, 1001), [0, 1])


def _external_single_column(cfg: HsaConfig, q: int, column: list[int]) -> CoefficientScheme:
    field = FieldSpec.for_prime(q)
    H = FqMatrix.from_rows(field, [[x] for x in column])
    return CoefficientScheme(
        SchemeParams(cfg, None),
        H,
        {user: i for i, user in enumerate(cfg.users())},
        "external",
    )


def test_2x2_0_minimum_confirmed_by_audit_search():
    # the built 2-column scheme is audit-clean while no 1-column matrix can
    # be: the audit needs V = 2 independent rows per cluster.
    cfg = HsaConfig(2, 2, 0)
    scheme = build_scheme(cfg)
    assert scheme.n_source == 2
    assert security.audit(scheme).passed
    for q in (2, 3, 5):
        for column in itertools.product(range(q), repeat=4):
            if sum(column) % q != 0:
                continue  # not even a valid masking scheme
            candidate = _external_single_column(cfg, q, list(column))
            assert not security.audit(candidate).passed


def test_4x3_0_minimality_spot_check():
    # at T = 0 a 12x2 candidate can never give each 3-user cluster
    # independent masks; sampled zero-sum candidates all fail the audit.
    import random

    cfg = HsaConfig(4, 3, 0)
    assert optimal_source_rate(cfg) == 3
    rng = random.Random(5)
    field = FieldSpec.for_prime(5)
    for _ in range(50):
        rows = [[rng.randrange(5) for _ in range(2)] for _ in range(11)]
        closing = [(-sum(r[j] for r in rows)) % 5 for j in range(2)]
        H = FqMatrix.from_rows(field, rows + [closing])
        candidate = CoefficientScheme(
            SchemeParams(cfg, None),
            H,
            {user: i for i, user in enumerate(cfg.users())},
            "external",
        )
        assert not security.audit(candidate).passed
