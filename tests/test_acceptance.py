"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
suite executes.  Every tolerance is exact integer equality unless a runtime
bound is stated.
"""

import itertools
import json
import time

import pytest

from hsagg.cli import main as cli_main
from hsagg.errors import InfeasibleConfiguration
from hsagg.fields import FieldSpec, extended_vandermonde, extended_vandermonde_subdet
from hsagg.protocol import RoundInputs, measure_rates, run_round, sample_round
from hsagg.rates import HsaConfig, baseline_source_rate, optimal_source_rate
from hsagg.schemes import (
    build_baseline,
    build_scheme,
    derive_keys,
    import_scheme,
)
from hsagg.security import (
    CollusionSet,
    audit,
    exact_independence_check,
    infeasibility_attack,
)

from conftest import (
    elementary_symmetric,
    elim_det,
    elim_rank,
    golden_2x3_f3_obj,
    golden_3x2_f17_obj,
    vandermonde_product,
)
from oracles import _reference_exact_check


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def _feasible_configs(max_users: int) -> list[HsaConfig]:
    out = []
    for U in range(2, max_users + 1):
        for V in range(1, max_users // U + 1):
            for T in range((U - 1) * V):
                out.append(HsaConfig(U, V, T))
    return out


@pytest.fixture(scope="module")
def built_schemes():
    """Every feasible configuration with at most 12 users, built once."""
    start = time.perf_counter()
    schemes = {cfg: build_scheme(cfg) for cfg in _feasible_configs(12)}
    return schemes, time.perf_counter() - start


def _handmade_2x2_0_q5():
    # 4 pairwise-independent rows of F_5^2 with zero column sums: an optimal
    # 2-source-symbol scheme for (2,2,0) living in the q = 5 field (no
    # spaced-node construction exists there, so this one is imported).
    rows = [(1, 0), (0, 1), (1, 2), (3, 2)]
    return import_scheme(
        {
            "U": 2, "V": 2, "T": 0, "q": 5,
            "gamma": None, "kind": "external", "elements": [],
            "H": {"q": 5, "rows": 4, "cols": 2, "data": [x for r in rows for x in r]},
            "row_index": [["1,1", 0], ["1,2", 1], ["2,1", 2], ["2,2", 3]],
        }
    )


@pytest.fixture(scope="module")
def exact_security_suite():
    """Criterion 5 workload, shared with criterion 8.

    Three q = 5 schemes: the built (2,2,1) scheme, an imported optimal
    (2,2,0) scheme, and the (2,2,0) baseline.  For each, every relay and
    server check over every collusion set within budget.
    """
    subjects = {
        "(2,2,1) built q=5": build_scheme(HsaConfig(2, 2, 1), q_hint=5),
        "(2,2,0) imported q=5": _handmade_2x2_0_q5(),
        "(2,2,0) baseline q=5": build_baseline(HsaConfig(2, 2, 0), q_hint=5),
    }
    results = {}
    for name, scheme in subjects.items():
        cfg = scheme.cfg
        verdicts = []
        for t in range(cfg.T + 1):
            for combo in itertools.combinations(cfg.users(), t):
                tset = CollusionSet(combo)
                for u in range(1, cfg.U + 1):
                    verdicts.append(exact_independence_check(scheme, tset, relay=u))
                verdicts.append(exact_independence_check(scheme, tset))
        results[name] = (scheme, verdicts)
    return results


def test_criterion_1_achievability_sweep(built_schemes):
    """Every feasible config with UV <= 12 builds and hits the exact rates."""
    schemes, build_elapsed = built_schemes
    start = time.perf_counter()
    failures = []
    for cfg, scheme in schemes.items():
        expected = max(cfg.V + cfg.T, min(cfg.n_users - 1, cfg.U + cfg.T - 1))
        inputs, keys = sample_round(scheme, 1, seed=0)
        observed = measure_rates(scheme, run_round(scheme, inputs, keys))
        if observed != (1, 1, 1, expected):
            failures.append((cfg, observed, expected))
    elapsed = build_elapsed + (time.perf_counter() - start)
    ok = not failures and elapsed < 300.0
    _report(
        1,
        ok,
        f"{len(schemes)} configs built and measured in {elapsed:.1f}s "
        f"(bound 300s), mismatches: {failures!r}",
    )
    assert not failures
    assert elapsed < 300.0
    # spot anchors for the two worked configurations
    assert schemes[HsaConfig(2, 3, 1)].n_source == 4
    assert schemes[HsaConfig(3, 2, 2)].n_source == 4


def test_criterion_2_infeasibility_boundary(tmp_path, capsys):
    """Builders refuse past the boundary; the collusion attack always wins."""
    refused = 0
    for U in range(2, 10):
        for V in range(1, 9 // U + 1):
            boundary = (U - 1) * V
            for T in [boundary, boundary + 1, boundary + 2, U * V]:
                with pytest.raises(InfeasibleConfiguration):
                    build_scheme(HsaConfig(U, V, T))
                refused += 1

    # 100 seeded rounds against a force-built out-of-region scheme, via the CLI
    scheme_path = tmp_path / "forced.json"
    assert cli_main(
        ["build", "--U", "2", "--V", "2", "--T", "2", "--force-infeasible",
         "--out", str(scheme_path)]
    ) == 0
    capsys.readouterr()
    assert cli_main(
        ["attack", "--scheme", str(scheme_path), "--rounds", "100", "--json"]
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["successes"] == 100

    # exhaustive all-input verification at q = 3, U = V = 2
    forced = build_baseline(HsaConfig(2, 2, 2), force_infeasible=True)
    assert forced.field.q == 3
    users = forced.cfg.users()
    checked = 0
    for w_flat in itertools.product(range(3), repeat=4):
        W = {user: (w_flat[i],) for i, user in enumerate(users)}
        expected = ((w_flat[0] + w_flat[1]) % 3,)
        for source in itertools.product(range(3), repeat=3):
            keys = [derive_keys(forced, source)]
            transcript = run_round(forced, RoundInputs(W, 1), keys)
            assert infeasibility_attack(forced, transcript) == expected
            checked += 1
    _report(
        2,
        True,
        f"{refused} infeasible configs refused; 100/100 seeded recoveries; "
        f"{checked} exhaustive realizations recovered",
    )


def test_criterion_3_golden_vectors():
    """Hand-built schemes audit clean; the F_17 matrix is (6,4)-MDS."""
    f3 = import_scheme(golden_2x3_f3_obj())
    f17 = import_scheme(golden_3x2_f17_obj())
    report_f3 = audit(f3)
    report_f17 = audit(f17)
    ranks = [
        elim_rank([f17.H.row(i) for i in idx], 17)
        for idx in itertools.combinations(range(6), 4)
    ]
    ok = report_f3.passed and report_f17.passed and ranks == [4] * 15
    _report(
        3,
        ok,
        f"F_3 audit clean: {report_f3.passed}; F_17 audit clean: "
        f"{report_f17.passed}; all {len(ranks)} 4x4 submatrix ranks = 4",
    )
    assert ok


def test_criterion_4_mds_certification(built_schemes):
    """Every built scheme is fully MDS with zero row sums, by elimination."""
    schemes, _ = built_schemes
    submatrices = 0
    for cfg, scheme in schemes.items():
        assert not any(scheme.H.column_sums()), cfg
        n, q = scheme.n_source, scheme.field.q
        for idx in itertools.combinations(range(scheme.H.rows), n):
            assert elim_det([scheme.H.row(i) for i in idx], q) != 0, (cfg, idx)
            submatrices += 1
    _report(
        4,
        True,
        f"{submatrices} square submatrices nonsingular across "
        f"{len(schemes)} schemes; all row sums zero",
    )


def test_criterion_5_exact_definitional_security(exact_security_suite):
    """Exact independence checks pass at q = 5, as complete enumeration finds."""
    total_checks = 0
    for name, (scheme, verdicts) in exact_security_suite.items():
        for v in verdicts:
            assert v.passed, (name, v.relay, v.collusion)
            assert v.tuples_enumerated <= 5**7
            reference = _reference_exact_check(scheme, v.collusion, v.relay)
            assert v.to_json_obj() == reference.to_json_obj(), (name, v.relay, v.collusion)
            total_checks += 1
    _report(
        5,
        True,
        f"{total_checks} zero-MI checks passed, each equal to complete enumeration "
        f"(<= 5^7 tuples each, exact integer counting)",
    )


def test_criterion_6_determinant_identity_oracles():
    """100 randomized cases per identity, exact equality, under 10 seconds."""
    import random

    rng = random.Random(2024)
    start = time.perf_counter()

    # parity-submatrix closed form vs assembled elimination determinant
    for _ in range(100):
        q = rng.choice([11, 13, 17, 101, 257])
        field = FieldSpec.for_prime(q)
        m = rng.randrange(2, 8)
        nodes = rng.sample(range(q), m)
        n = rng.randrange(1, m + 1)
        idx = sorted(rng.sample(range(m), n - 1))
        closed = extended_vandermonde_subdet(field, nodes, idx)
        ev = extended_vandermonde(field, nodes, n)
        assert closed == elim_det([ev.row(0)] + [ev.row(1 + i) for i in idx], q)

    # missing-power determinant vs Vandermonde times symmetric polynomial
    for _ in range(100):
        q = rng.choice([11, 13, 17, 101, 257])
        m = rng.randrange(1, 7)
        nodes = rng.sample(range(q), m)
        missing = rng.randrange(m + 1)
        powers = [p for p in range(m + 1) if p != missing]
        lhs = elim_det([[pow(x, p, q) for p in powers] for x in nodes], q)
        rhs = (
            vandermonde_product(nodes, q)
            * elementary_symmetric(nodes, m - missing, q)
            % q
        )
        assert lhs == rhs

    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _report(6, ok, f"200 randomized identity cases, exact, in {elapsed:.2f}s (bound 10s)")
    assert ok


def test_criterion_7_baseline_gap(capsys):
    """The rate report reproduces the key-efficiency gaps."""
    gaps = {}
    for U, V, T in [(2, 3, 1), (3, 2, 2)]:
        assert cli_main(
            ["rates", "--U", str(U), "--V", str(V), "--T", str(T), "--json"]
        ) == 0
        [row] = json.loads(capsys.readouterr().out)
        gaps[(U, V, T)] = row["baseline"] - row["R_Zsigma"]
        assert gaps[(U, V, T)] == 1

    # U = 4, V = 3 sweep: baseline stays at 11 while the optimum grows with T,
    # so the separation shrinks from 8 to 0 without ever going negative.
    sweep = []
    for T in range(9):
        cfg = HsaConfig(4, 3, T)
        gap = baseline_source_rate(cfg) - optimal_source_rate(cfg)
        sweep.append(gap)
    ok = sweep == [8 - T for T in range(9)] and all(g >= 0 for g in sweep)
    _report(
        7,
        ok,
        f"gap((2,3,1)) = {gaps[(2, 3, 1)]}, gap((3,2,2)) = {gaps[(3, 2, 2)]}, "
        f"U=4 V=3 sweep gaps = {sweep}",
    )
    assert ok


def test_criterion_8_audit_soundness_cross_check(exact_security_suite):
    """Rank audit and exact oracle agree: clean passes both, tampered fails both."""
    from hsagg.fields import FqMatrix
    from hsagg.schemes import CoefficientScheme

    agreements = []
    for name, (scheme, verdicts) in exact_security_suite.items():
        clean_report = audit(scheme)
        assert clean_report.passed, name
        assert all(v.passed for v in verdicts), name

        # row (1,1) moved onto user (2,2): the columns still sum to zero
        rows = scheme.H.row_list()
        moved, last = scheme.row_index[(1, 1)], scheme.row_index[(2, 2)]
        rows[last] = tuple((x + y) % scheme.field.q for x, y in zip(rows[last], rows[moved]))
        rows[moved] = (0,) * scheme.H.cols
        tampered = CoefficientScheme(
            scheme.params,
            FqMatrix.from_rows(scheme.field, rows),
            scheme.row_index,
            "external",
        )
        tampered_report = audit(tampered)
        assert not tampered_report.passed, name
        oracle = exact_independence_check(tampered, CollusionSet.of([]), relay=1)
        assert not oracle.passed, name
        assert oracle.witness is not None
        reference = _reference_exact_check(tampered, CollusionSet.of([]), relay=1)
        assert oracle.to_json_obj() == reference.to_json_obj(), name
        agreements.append(name)
    _report(
        8,
        True,
        f"audit and exact oracle agree on {len(agreements)} configurations, "
        f"clean and tampered",
    )
