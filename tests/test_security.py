"""Rank audits, the exact independence oracle, and the boundary attack."""

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from hsagg import security
from hsagg.errors import AuditBudgetExceeded, CorrectnessViolation
from hsagg.fields import FieldSpec, FqMatrix, _reduce, _span
from hsagg.protocol import RoundInputs, run_round, sample_round
from hsagg.rates import HsaConfig
from hsagg.schemes import (
    CoefficientScheme,
    SchemeParams,
    build_baseline,
    build_scheme,
    derive_keys,
    import_scheme,
)
from hsagg.security import (
    AuditReport,
    CollusionSet,
    RankViolation,
    _checks,
    _planned_checks,
    _planned_nodes,
    _violations,
    audit,
    exact_independence_check,
    exact_sweep,
    infeasibility_attack,
    relay_condition_matrix,
    server_condition_matrix,
)

from conftest import elim_rank
from oracles import _observations, _random_scheme, _reference_exact_check, big_space_verdict


def _with_collusion_budget(scheme: CoefficientScheme, T: int) -> CoefficientScheme:
    cfg = scheme.cfg
    new_cfg = HsaConfig(cfg.U, cfg.V, T)
    params = SchemeParams(new_cfg, scheme.params.gamma)
    return CoefficientScheme(params, scheme.H, scheme.row_index, scheme.kind)


def _zeroed_row(scheme: CoefficientScheme, user) -> CoefficientScheme:
    rows = scheme.H.row_list()
    rows[scheme.row_index[user]] = (0,) * scheme.H.cols
    return CoefficientScheme(
        scheme.params,
        FqMatrix.from_rows(scheme.field, rows),
        scheme.row_index,
        "external",
    )


def _moved_row(scheme: CoefficientScheme, user) -> CoefficientScheme:
    """``_zeroed_row`` with the zeroed row added to user (U, V)'s, so the
    columns still sum to zero."""
    last = scheme.row_index[(scheme.cfg.U, scheme.cfg.V)]
    moved = scheme.coefficient_row(*user)
    rows = _zeroed_row(scheme, user).H.row_list()
    rows[last] = tuple((x + y) % scheme.field.q for x, y in zip(rows[last], moved))
    return CoefficientScheme(
        scheme.params, FqMatrix.from_rows(scheme.field, rows), scheme.row_index, "external"
    )


# ---------------------------------------------------------------------------
# condition matrices
# ---------------------------------------------------------------------------


def test_relay_matrix_inter_cluster_colluders(golden_3x2_f17):
    tset = CollusionSet.of([(2, 1), (3, 1)])
    m = relay_condition_matrix(golden_3x2_f17, 1, tset)
    assert (m.rows, m.cols) == (4, 4)
    expected = [
        golden_3x2_f17.coefficient_row(1, 1),
        golden_3x2_f17.coefficient_row(1, 2),
        golden_3x2_f17.coefficient_row(2, 1),
        golden_3x2_f17.coefficient_row(3, 1),
    ]
    assert m.row_list() == expected
    assert m.rank() == 4


def test_relay_matrix_empty_collusion(golden_3x2_f17):
    m = relay_condition_matrix(golden_3x2_f17, 2, CollusionSet.of([]))
    assert m.rows == golden_3x2_f17.cfg.V
    assert m.row_list() == [
        golden_3x2_f17.coefficient_row(2, 1),
        golden_3x2_f17.coefficient_row(2, 2),
    ]


def test_relay_matrix_intra_cluster_colluders(golden_3x2_f17):
    # colluders inside the audited cluster appear exactly once
    tset = CollusionSet.of([(1, 2)])
    m = relay_condition_matrix(golden_3x2_f17, 1, tset)
    assert m.rows == golden_3x2_f17.cfg.V
    non_colluding = [golden_3x2_f17.coefficient_row(1, 1)]
    colluding = [golden_3x2_f17.coefficient_row(1, 2)]
    assert m.row_list() == non_colluding + colluding


def test_relay_matrix_mixed_split(golden_2x3_f3):
    # set-arithmetic check of the (V - T_in) + |T| row count
    tset = CollusionSet.of([(1, 3), (2, 1)])
    scheme = _with_collusion_budget(golden_2x3_f3, 2)
    m = relay_condition_matrix(scheme, 1, tset)
    t_in = 1
    assert m.rows == (scheme.cfg.V - t_in) + len(tset)


def test_server_matrix_fully_covered_cluster(golden_3x2_f17):
    tset = CollusionSet.of([(1, 1), (1, 2)])
    m = server_condition_matrix(golden_3x2_f17, tset)
    assert (m.rows, m.cols) == (3, 4)
    q = 17
    cluster2_sum = tuple(
        (a + b) % q
        for a, b in zip(
            golden_3x2_f17.coefficient_row(2, 1), golden_3x2_f17.coefficient_row(2, 2)
        )
    )
    assert m.row(0) == cluster2_sum
    assert m.rank() == 3


def test_server_matrix_empty_collusion(golden_3x2_f17):
    m = server_condition_matrix(golden_3x2_f17, CollusionSet.of([]))
    assert m.rows == golden_3x2_f17.cfg.U - 1


def test_server_matrix_omitted_cluster_is_dependent(golden_3x2_f17):
    # appending the omitted cluster's sum row never raises the rank
    q = golden_3x2_f17.field.q
    for tset in [CollusionSet.of([]), CollusionSet.of([(1, 1)]), CollusionSet.of([(2, 1), (3, 2)])]:
        m = server_condition_matrix(golden_3x2_f17, tset)
        colluders = set(tset)
        uncovered = [
            u
            for u in range(1, 4)
            if not all((u, v) in colluders for v in (1, 2))
        ]
        omitted = uncovered[-1]
        omitted_sum = tuple(
            sum(golden_3x2_f17.coefficient_row(omitted, v)[j] for v in (1, 2)) % q
            for j in range(4)
        )
        extended = FqMatrix.from_rows(
            golden_3x2_f17.field, m.row_list() + [omitted_sum]
        )
        assert extended.rank() == m.rank()


def test_collusion_set_canonical_and_validated(golden_3x2_f17):
    assert CollusionSet.of([(3, 1), (2, 1), (3, 1)]).members == ((2, 1), (3, 1))
    with pytest.raises(ValueError):
        CollusionSet(((3, 1), (2, 1)))
    with pytest.raises(ValueError):
        relay_condition_matrix(golden_3x2_f17, 1, CollusionSet.of([(9, 9)]))
    with pytest.raises(ValueError):
        relay_condition_matrix(
            golden_3x2_f17, 1, CollusionSet.of([(1, 1), (1, 2), (2, 1)])
        )


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_golden_schemes_clean(golden_2x3_f3, golden_3x2_f17):
    for scheme in (golden_2x3_f3, golden_3x2_f17):
        report = audit(scheme)
        assert report.passed
        assert not report.violations
    # (U+1) checks per collusion set
    cfg = golden_2x3_f3.cfg
    expected = (cfg.U + 1) * (1 + cfg.n_users)
    assert audit(golden_2x3_f3).checks_performed == expected


def test_audit_all_zero_matrix_fails_immediately(golden_2x3_f3):
    zero = CoefficientScheme(
        golden_2x3_f3.params,
        FqMatrix(6, 4, (0,) * 24, golden_2x3_f3.field),
        golden_2x3_f3.row_index,
        "external",
    )
    report = audit(zero)
    assert not report.relay_ok and not report.server_ok
    first = report.violations[0]
    assert first.kind == "relay"
    assert first.collusion.members == ()
    assert first.observed_rank == 0


def test_audit_baseline_clean_for_feasible_configs():
    for cfg in [HsaConfig(2, 3, 1), HsaConfig(3, 2, 2), HsaConfig(2, 2, 1), HsaConfig(4, 1, 2)]:
        assert audit(build_baseline(cfg)).passed


def test_audit_built_schemes_clean():
    for cfg in [HsaConfig(2, 2, 1), HsaConfig(3, 2, 2), HsaConfig(2, 4, 2)]:
        assert audit(build_scheme(cfg)).passed


def test_audit_monotone_in_collusion_budget(golden_3x2_f17):
    assert audit(golden_3x2_f17).passed
    for smaller in (0, 1):
        assert audit(_with_collusion_budget(golden_3x2_f17, smaller)).passed


def test_audit_forced_scheme_reports_boundary_violation():
    forced = build_baseline(HsaConfig(2, 2, 2), force_infeasible=True)
    report = audit(forced)
    assert not report.relay_ok
    # the witness collusion covers a full inter-cluster
    kinds = {(v.kind, v.relay) for v in report.violations}
    assert ("relay", 1) in kinds or ("relay", 2) in kinds


def test_audit_reports_are_canonical(golden_3x2_f17):
    tampered = _moved_row(golden_3x2_f17, (1, 1))
    r1, r2 = audit(tampered), audit(tampered)
    assert r1 == r2
    assert [v.to_json_obj() for v in r1.violations] == [
        v.to_json_obj() for v in r2.violations
    ]
    assert r1.violations == tuple(
        sorted(r1.violations, key=lambda v: (v.kind, v.relay or 0, v.collusion.members))
    )


def test_audit_refuses_non_zero_sum_scheme(golden_3x2_f17):
    with pytest.raises(CorrectnessViolation, match="do not sum to zero"):
        audit(_zeroed_row(golden_3x2_f17, (1, 1)))


def test_audit_budget_is_explicit(golden_3x2_f17):
    with pytest.raises(AuditBudgetExceeded):
        audit(golden_3x2_f17, budget=10)


def test_audit_json_shape(golden_2x3_f3):
    obj = audit(golden_2x3_f3).to_json_obj()
    assert set(obj) == {"relay_ok", "server_ok", "checks_performed", "violations"}


def test_audit_walk_matches_condition_matrices(golden_3x2_f17):
    # the audit's walk against one elimination of each condition matrix
    rng = random.Random(20240517)
    schemes = []
    while len(schemes) < 150:
        scheme = _random_scheme(rng)
        if not any(scheme.H.column_sums()):
            schemes.append(scheme)
        else:  # the server basis assumes the zero row sum
            with pytest.raises(CorrectnessViolation):
                audit(scheme)
    schemes += [golden_3x2_f17, _moved_row(golden_3x2_f17, (2, 1))]
    for scheme in schemes:
        violations = []
        for tset, relay in _checks(scheme.cfg):
            if relay is None:
                m = server_condition_matrix(scheme, tset)
            else:
                m = relay_condition_matrix(scheme, relay, tset)
            r = m.rank()
            assert r == elim_rank(m.row_list(), scheme.field.q)
            if r < m.rows:
                violations.append(RankViolation(relay, tset, r, m.rows))
        violations.sort(key=lambda v: (v.kind, v.relay or 0, v.collusion.members))
        report = audit(scheme)
        assert report == AuditReport(report.checks_performed, tuple(violations))
        assert report.checks_performed == sum(1 for _ in _checks(scheme.cfg))


def _replaced_row(scheme: CoefficientScheme, user, row) -> CoefficientScheme:
    """``scheme`` with ``user``'s row replaced by ``row`` and the change taken
    from user (U, V)'s row, so the columns still sum to zero."""
    q, last = scheme.field.q, scheme.row_index[(scheme.cfg.U, scheme.cfg.V)]
    old = scheme.coefficient_row(*user)
    rows = scheme.H.row_list()
    rows[scheme.row_index[user]] = tuple(row)
    rows[last] = tuple((x + a - b) % q for x, a, b in zip(rows[last], old, row))
    return CoefficientScheme(
        scheme.params, FqMatrix.from_rows(scheme.field, rows), scheme.row_index, "external"
    )


def _dependent_sums(scheme: CoefficientScheme) -> CoefficientScheme:
    """``_replaced_row`` of user (U - 1, V), so that cluster U - 1 sums to the
    sum of clusters 1..U-2."""
    U, V, q = scheme.cfg.U, scheme.cfg.V, scheme.field.q
    target = [security._cluster_sum_row(scheme, u) for u in range(1, U - 1)]
    target += [[-x % q for x in scheme.coefficient_row(U - 1, v)] for v in range(1, V)]
    return _replaced_row(scheme, (U - 1, V), [sum(col) % q for col in zip(*target)])


def test_walk_matches_condition_matrices_from_deficient_starting_spans(golden_3x2_f17):
    # the walk's root tables are reduced modulo each basis's starting span;
    # here those spans lose rank to a repeated row, dependent sums or a zero row
    from test_output_pins import VANDERMONDE_434

    empty = CollusionSet(())
    for base in (_with_collusion_budget(golden_3x2_f17, 6), import_scheme(VANDERMONDE_434)):
        U, V = base.cfg.U, base.cfg.V
        repeated = _replaced_row(base, (1, 2), base.coefficient_row(1, 1))
        zero = _moved_row(base, (2, 1))
        every = _dependent_sums(_moved_row(repeated, (2, 1)))
        for scheme in (repeated, _dependent_sums(base), zero, every):
            violations = []
            for tset, relay in _checks(scheme.cfg):
                if relay is None:
                    m = server_condition_matrix(scheme, tset)
                else:
                    m = relay_condition_matrix(scheme, relay, tset)
                r = m.rank()
                assert r == elim_rank(m.row_list(), scheme.field.q)
                if r < m.rows:
                    violations.append(RankViolation(relay, tset, r, m.rows))
            violations.sort(key=lambda v: (v.kind, v.relay or 0, v.collusion.members))
            assert audit(scheme).violations == tuple(violations)
        assert relay_condition_matrix(every, 1, empty).rank() == V - 1
        assert relay_condition_matrix(every, 2, empty).rank() == V - 1
        assert server_condition_matrix(every, empty).rank() == U - 2


def test_first_violation_is_read_before_any_extension(golden_2x3_f3, monkeypatch):
    # cluster 1 sums to zero, so the empty set already leaks to the server,
    # whose walk goes first, and, its rows being dependent, to relay 1: each
    # walk yields before it reduces or normalizes a row; past that item,
    # where T = 2 makes the root decide both levels below it, it normalizes
    base = golden_2x3_f3
    q = base.field.q
    first, second = base.coefficient_row(1, 1), base.coefficient_row(1, 2)
    dependent = [-(a + b) % q for a, b in zip(first, second)]
    scheme = _with_collusion_budget(_replaced_row(base, (1, 3), dependent), 2)
    walk = _violations(scheme)  # every walk's starting table is built on the call
    rows = [scheme.coefficient_row(*user) for user in scheme.cfg.users()]
    basis = _span(rows[:3], q)  # relay 1's walk over the users outside cluster 1
    relay = security._walk([_reduce(basis, row, q) for row in rows[3:]], len(basis), 3, 2, q)
    calls = []
    reduce, pivot = security._reduce, security._pivot_row
    monkeypatch.setattr(security, "_reduce", lambda *a: calls.append(a) or reduce(*a))
    monkeypatch.setattr(security, "_pivot_row", lambda *a: calls.append(a) or pivot(*a))
    assert next(walk) == RankViolation(None, CollusionSet(()), 0, 1)
    assert next(relay) == ((), 2, 3)
    assert calls == []
    next(walk)
    assert calls
    calls.clear()
    next(relay)
    assert calls


def test_walk_visits_each_observers_sets_once(monkeypatch):
    # one single-basis walk per observer: the server's over all 12 users and
    # each relay's over the 9 outside its cluster; one ``any`` and, where the
    # rank rises and users are left to add, one elimination step per set of
    # 1 to T - 2 users, and one normalization per set of T - 1 users, which
    # decides the sets of T users with no further step; a set of T - 1 users
    # whose parent has no other child, the set of T - 2 users that ends with
    # the last but one user, takes one ``any`` instead.  At T = 0, 1 and 2
    # the root decides every set below it with no step
    from test_output_pins import VANDERMONDE_434

    scheme = import_scheme(VANDERMONDE_434)  # (4,3,4) at (23, 2): 10 server leaks
    walks, stepped, pivots, anys = [], Counter(), Counter(), Counter()
    walk, step, pivot = security._walk, security._stepped, security._pivot_row

    def labelled(table, *args):  # counts go to the walk of len(table) users
        inner = walk(table, *args)

        def run():
            walks.append(len(table))
            yield from inner

        return run()

    monkeypatch.setattr(security, "_walk", labelled)
    monkeypatch.setattr(
        security, "_stepped", lambda t, j, q: stepped.update(walks[-1:]) or step(t, j, q)
    )
    monkeypatch.setattr(
        security, "_pivot_row", lambda r, q: pivots.update(walks[-1:]) or pivot(r, q)
    )
    monkeypatch.setattr(
        security, "any", lambda r: anys.update(walks[-1:]) or any(r), raising=False
    )
    violations = list(_violations(scheme))
    assert walks == [12, 9, 9, 9, 9]
    server_sets = sum(math.comb(12, t) for t in range(5))
    relay_sets = sum(math.comb(9, t) for t in range(5))
    assert (server_sets, relay_sets) == (794, 256)
    # the audit's budget counts these sets, roots included
    assert _planned_nodes(scheme.cfg, 10**6) == server_sets + 4 * relay_sets
    # the sets of 1 or 2 users, and those without the last user, which each
    # raise each rank; a step normalizes its row, and the rest of the
    # normalizations are one per set of 3 users but the 10 and 7 that end
    # with the last two users
    assert anys == {12: 12 + 66 + 10, 9: 4 * (9 + 36 + 7)}
    inner = sum(math.comb(11, t) for t in (1, 2)), sum(math.comb(8, t) for t in (1, 2))
    assert stepped == {12: inner[0], 9: 4 * inner[1]}
    assert pivots - stepped == {12: math.comb(12, 3) - 10, 9: 4 * (math.comb(9, 3) - 7)}
    assert len(violations) == 10 and all(v.relay is None for v in violations)
    for T, counts in [
        (0, ({}, {}, {})),  # the empty set alone: no row is looked at
        (1, ({12: 12, 9: 4 * 9}, {}, {})),  # one ``any`` per set of one user
        (2, ({}, {}, {12: 12, 9: 4 * 9})),  # one normalization per user
    ]:
        for counter in (walks, stepped, pivots, anys):
            counter.clear()
        assert list(_violations(_with_collusion_budget(scheme, T))) == []
        assert walks == [12, 9, 9, 9, 9]
        assert (anys, stepped, pivots) == counts


def _zero_sum_scheme(cfg: HsaConfig, q: int, rows: list) -> CoefficientScheme:
    """``rows`` with the last replaced by minus the sum of the others, as an
    external scheme whose users own the rows in label order."""
    rows = [*rows[:-1], [-sum(col) % q for col in zip(*rows[:-1])]]
    return CoefficientScheme(
        SchemeParams(cfg, None),
        FqMatrix.from_rows(FieldSpec.for_prime(q), rows),
        dict(zip(cfg.users(), range(cfg.n_users))),
        "external",
    )


def _parallel_pair_scheme(seed: int) -> CoefficientScheme:
    """A (4,3,3) scheme over F_101 with h(4,1) = h(2,1) + h(3,1) + S_1, S_1
    being cluster 1's sum, and random rows otherwise, in 11 columns."""
    rng = random.Random(seed)
    cfg, q = HsaConfig(4, 3, 3), 101
    rows = [[rng.randrange(q) for _ in range(11)] for _ in range(12)]
    s1 = [sum(col) % q for col in zip(*rows[:3])]
    rows[9] = [(x + y + z) % q for x, y, z in zip(rows[3], rows[6], s1)]
    return _zero_sum_scheme(cfg, q, rows)


def _walk_digest_schemes() -> list:
    """Seeded random zero-sum schemes, each with a zero row, a row that is a
    multiple of another, a row that the rest of its cluster spans, or none of
    these, in turn; V = 1 in a third of them, T >= UV in about a third,
    and last the parallel-pair scheme."""
    rng = random.Random(20261020)
    shapes = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4)]
    schemes = []
    for i in range(288):
        U, V = shapes[i % len(shapes)]
        q = rng.choice([2, 3, 5, 7, 101, 101, 101])
        users = U * V
        n = rng.randint(max(users // 2, 1), users - 1)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(users)]
        # the last row is the zero-sum fix, so change only rows before it,
        # and only in clusters before the last
        user = rng.randrange(users - 1)
        kind = i // len(shapes) % 4
        if kind == 0:
            rows[user] = [0] * n
        elif kind == 1:
            other = rng.randrange(users - 1)
            rows[user] = [rng.randrange(1, q) * x % q for x in rows[other]]
        elif kind == 2 and V > 1:
            u = rng.randrange(U - 1) * V
            mix = [rng.randrange(q) for _ in range(V - 1)]
            rows[u] = [sum(a * r[k] for a, r in zip(mix, rows[u + 1:u + V])) % q for k in range(n)]
        cfg = HsaConfig(U, V, max(rng.choice([1, 2, n - V, n - U + 1, users, users + 1]), 0))
        schemes.append(_zero_sum_scheme(cfg, q, rows))
    return [*schemes, _parallel_pair_scheme(7)]


# sha256 of the repr of list(_violations(s)) over _walk_digest_schemes(), in
# order, as recorded with the walk that stepped every set below T and decided
# each set of T users by one ``any`` of its residual
WALK_DIGEST = "d46300c0e0884aabe4132438a0064e36a6667b13009712e876ff62d197cb04ee"


def test_walk_output_is_pinned_on_random_schemes():
    schemes = _walk_digest_schemes()
    digest = hashlib.sha256()
    counts = Counter()
    for scheme in schemes:
        violations = list(_violations(scheme))
        digest.update(repr(violations).encode())
        counts["leaky"] += bool(violations)
        cfg, q, rows = scheme.cfg, scheme.field.q, scheme.H.row_list()
        counts["V = 1"] += cfg.V == 1
        counts["T >= UV"] += cfg.T >= cfg.n_users
        nonzero = [row for row in rows if any(row)]
        counts["zero row"] += len(nonzero) < len(rows)
        counts["parallel rows"] += any(
            elim_rank(pair, q) == 1 for pair in itertools.combinations(nonzero, 2)
        )
        clusters = [rows[u:u + cfg.V] for u in range(0, cfg.n_users, cfg.V)]
        counts["dependent cluster"] += cfg.V > 1 and any(
            elim_rank(cluster, q) < cfg.V for cluster in clusters
        )
    assert counts == {
        "leaky": 259, "V = 1": 96, "T >= UV": 112, "zero row": 100,
        "parallel rows": 98, "dependent cluster": 111,
    }
    assert digest.hexdigest() == WALK_DIGEST


def test_parallel_pair_under_a_healthy_node():
    # the only deficient sets are {(2,1), (3,1), (4,1)}, for the server and
    # relay 1; in both walks the node {(2,1)} and its children are healthy,
    # and the residuals of (3,1) and (4,1) there are parallel
    scheme = _parallel_pair_scheme(7)
    leak = CollusionSet.of([(2, 1), (3, 1), (4, 1)])
    assert list(_violations(scheme)) == [
        RankViolation(None, leak, 5, 6), RankViolation(1, leak, 5, 6)
    ]
    assert audit(_with_collusion_budget(scheme, 2)).passed
    assert server_condition_matrix(scheme, leak).rank() == 5
    assert relay_condition_matrix(scheme, 1, leak).rank() == 5


def test_relay_violations_stay_under_own_cluster_colluders():
    # an own-cluster colluder's row moves from the cluster's part of a relay's
    # matrix to the colluders' part, so neither rank changes: a failing relay
    # check fails, with the same ranks, for every collusion set that adds its
    # own cluster's members within T
    rng = random.Random(20241019)
    closed = 0
    for _ in range(60):
        U, V = rng.choice([(2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
        q = rng.choice([2, 3, 5])
        cfg = HsaConfig(U, V, rng.randint(V, U * V))
        n = rng.randint(V, U * V)
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(U * V)]
        u = rng.randrange(U - 1)  # a cluster that the zero-sum fix below leaves alone
        rows[u * V + 1] = [(a * rng.randrange(q)) % q for a in rows[u * V]]
        rows[-1] = [(x - sum(col)) % q for x, col in zip(rows[-1], zip(*rows))]
        scheme = CoefficientScheme(
            SchemeParams(cfg, None),
            FqMatrix.from_rows(FieldSpec.for_prime(q), rows),
            dict(zip(cfg.users(), range(U * V))),
            "external",
        )
        report = set(audit(scheme).violations)
        for v in report:
            if v.relay is None or len(v.collusion) == cfg.T:
                continue
            for member in set(itertools.product([v.relay], range(1, V + 1))) - set(v.collusion):
                larger = CollusionSet.of([*v.collusion, member])
                assert v._replace(collusion=larger) in report
                closed += 1
    assert closed > 1000


def test_first_violation_decides_pass_fail():
    from test_output_pins import VANDERMONDE_434

    rng = random.Random(20240517)  # the draws of the walk test above
    schemes = [import_scheme(VANDERMONDE_434)]
    while len(schemes) < 151:
        scheme = _random_scheme(rng)
        if not any(scheme.H.column_sums()):
            schemes.append(scheme)
    verdicts = [next(_violations(s), None) is None for s in schemes]
    assert verdicts == [audit(s).passed for s in schemes]
    assert True in verdicts and False in verdicts


def test_audit_refuses_a_walk_past_the_depth_limit():
    deep = build_baseline(HsaConfig(2, 129, 257), force_infeasible=True)
    with pytest.raises(AuditBudgetExceeded, match="more than 256"):
        audit(deep, budget=10**200)


def test_walk_reaches_the_depth_limit():
    # 256 nested generators, one per colluder, stay inside the recursion limit
    # (the server's 256-member set is the walk's first violation).  A walk that
    # missed that set would go on through about 2^256 others, so the walk runs
    # in a child process that the timeout ends.
    probe = (
        "from hsagg.rates import HsaConfig; from hsagg.schemes import build_baseline; "
        "from hsagg.security import _violations; "
        "scheme = build_baseline(HsaConfig(2, 128, 256), force_infeasible=True); "
        "print(len(next(_violations(scheme)).collusion))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(security.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "256\n"), proc.stderr


def test_audited_matrix_ranks_match_minor_oracle(golden_2x3_f3):
    # every condition matrix this scheme's audit looks at (all are <= 6x6)
    from conftest import minor_rank

    scheme = golden_2x3_f3
    cfg = scheme.cfg
    q = scheme.field.q
    for t in range(cfg.T + 1):
        for combo in itertools.combinations(cfg.users(), t):
            tset = CollusionSet(combo)
            for u in range(1, cfg.U + 1):
                m = relay_condition_matrix(scheme, u, tset)
                assert m.rank() == minor_rank([list(r) for r in m.row_list()], q)
            m = server_condition_matrix(scheme, tset)
            assert m.rank() == minor_rank([list(r) for r in m.row_list()], q)


# ---------------------------------------------------------------------------
# exact independence oracle
# ---------------------------------------------------------------------------


def test_exact_oracle_2x2_1_relay_and_server():
    scheme = build_scheme(HsaConfig(2, 2, 1), q_hint=5)
    assert scheme.field.q == 5
    v = exact_independence_check(scheme, CollusionSet.of([(2, 1)]), relay=1)
    assert v.passed
    assert v.tuples_enumerated == 5 ** 7
    v = exact_independence_check(scheme, CollusionSet.of([]))
    assert v.passed


def test_exact_oracle_tampered_scheme_yields_witness():
    scheme = build_scheme(HsaConfig(2, 2, 1), q_hint=5)
    tampered = _zeroed_row(scheme, (1, 1))
    v = exact_independence_check(tampered, CollusionSet.of([]), relay=1)
    assert not v.passed
    assert v.witness is not None


def test_exact_oracle_cap_is_explicit():
    # the sweep's 15 checks, 3 for each of the 5 sets, against its budget
    scheme = build_scheme(HsaConfig(2, 2, 1), q_hint=5)
    with pytest.raises(AuditBudgetExceeded, match="budget of 14 checks"):
        exact_sweep(scheme, budget=14)
    assert len(exact_sweep(scheme, budget=15)) == 15


def test_exact_oracle_argument_validation():
    scheme = build_scheme(HsaConfig(2, 2, 1), q_hint=5)
    for relay in (0, scheme.cfg.U + 1):
        with pytest.raises(ValueError, match="out of range"):
            exact_independence_check(scheme, CollusionSet.of([]), relay=relay)


@pytest.mark.parametrize(
    "tset, match",
    [
        (CollusionSet.of([(9, 9)]), "outside the user grid"),
        (CollusionSet.of([(1, 1), (1, 2), (2, 1)]), "exceeds budget"),
    ],
)
def test_one_validator_serves_every_check(golden_3x2_f17, tset, match):
    # the two matrix builders and the oracle refuse the same checks alike
    for check in (
        lambda: relay_condition_matrix(golden_3x2_f17, 1, tset),
        lambda: server_condition_matrix(golden_3x2_f17, tset),
        lambda: exact_independence_check(golden_3x2_f17, tset),
    ):
        with pytest.raises(ValueError, match=match):
            check()
    for relay in (0, golden_3x2_f17.cfg.U + 1):
        with pytest.raises(ValueError, match="out of range"):
            relay_condition_matrix(golden_3x2_f17, relay, CollusionSet.of([]))


def _block_rows(scheme, tset, relay=None) -> list[tuple]:
    """Per input, in order, its block: the (a, c) pairs of all its source
    draws, in order."""
    return [
        tuple((a, c) for a, _, c in group)
        for _, group in itertools.groupby(
            _observations(scheme, tset, relay), key=lambda obs: obs[1]
        )
    ]


def _most_blocks_in_a_class(rows: list[tuple]) -> int:
    """The most distinct blocks among ``_block_rows``' inputs of one
    conditioning class: two inputs are in one class when their draws reach
    the same conditioning values c, and inputs of two classes reach none in
    common."""
    classes = {}
    for row in rows:
        classes.setdefault(frozenset(c for _, c in row), set()).add(row)
    return max(map(len, classes.values()))


def _random_oracle_scheme(rng: random.Random, limit: int) -> CoefficientScheme:
    """A ``_random_scheme`` over F_2, F_3 or F_5 whose exact sweep counts at
    most ``limit`` tuples, with at most 2*10^4 per check; a zero-sum one is
    read back through ``import_scheme`` as an external file would be."""
    while True:
        scheme = _random_scheme(rng)
        tuples = scheme.field.q ** (scheme.cfg.n_users + scheme.n_source)
        if scheme.field.q <= 5 and tuples <= 2 * 10**4:
            if _planned_checks(scheme.cfg, limit) * tuples <= limit:
                break
    if not any(scheme.H.column_sums()):
        return import_scheme(json.loads(json.dumps(scheme.to_json_obj())))
    return scheme


def test_exact_sweep_matches_reference_oracle():
    # the rank sweep against complete enumeration, witness included
    rng = random.Random(20261018)
    failing = set()
    shared, shared_witnesses = set(), 0  # modes with a block of 2+ inputs; witnesses in one
    single = set()  # verdicts of server checks whose blocks all hold one input
    compared = set()  # (mode, passed) of checks with a class of 2+ distinct blocks
    # checks on each branch of the condition-matrix ranks: server checks
    # with G, H's column sums, outside span(h_C); checks whose colluders'
    # rows h_C are dependent; server checks where every user colludes
    g_outside = dependent = everyone = 0
    for _ in range(60):
        scheme = _random_oracle_scheme(rng, 2 * 10**4)
        expected = [
            _reference_exact_check(scheme, tset, relay).to_json_obj()
            for tset, relay in _checks(scheme.cfg)
        ]
        assert [v.to_json_obj() for v in exact_sweep(scheme)] == expected
        failing.update(
            (v["mode"], bool(v["collusion"])) for v in expected if not v["passed"]
        )
        q, g = scheme.field.q, scheme.H.column_sums()
        for (tset, relay), v in zip(_checks(scheme.cfg), expected):
            basis = _span([scheme.coefficient_row(*t) for t in tset], q)
            dependent += len(basis) < len(tset)
            if relay is None:
                g_outside += any(_reduce(basis, g, q))
                everyone += len(tset) == scheme.cfg.n_users
            rows = _block_rows(scheme, tset, relay)
            sizes = Counter(rows)
            if max(sizes.values()) >= 2:
                shared.add(v["mode"])
            # the witness is the all-zero tuple's cell, in input 0's block
            shared_witnesses += not v["passed"] and sizes[rows[0]] >= 2
            if v["mode"] == "server" and max(sizes.values()) == 1:
                single.add(v["passed"])
            if _most_blocks_in_a_class(rows) >= 2:
                compared.add((v["mode"], v["passed"]))
    # every shape of witness was compared: with and without colluders, both modes
    assert failing == {(mode, t) for mode in ("relay", "server") for t in (False, True)}
    # the sample holds checks where several inputs look alike to the observer
    # (a block of 2+ inputs), in both modes, and witnesses in such a block
    assert shared == {"relay", "server"}
    assert shared_witnesses
    # and checks made of one-input blocks only, passing and failing
    assert single == {True, False}
    # and, in both modes, passing and failing checks whose conditioning
    # classes hold 2+ distinct blocks
    assert compared == {(mode, p) for mode in ("relay", "server") for p in (True, False)}
    assert g_outside and dependent and everyone, (g_outside, dependent, everyone)


def test_exact_witness_counts_recount():
    # every failing verdict names a cell whose four counts a plain recount
    # over all (w, z) reproduces, and where the identity fails
    rng = random.Random(7)
    witnesses = 0
    for _ in range(30):
        scheme = _random_oracle_scheme(rng, 10**4)
        for v in exact_sweep(scheme):
            if v.passed:
                continue
            c, a, b, n_abc, n_c, n_ac, n_bc = v.witness
            counts = [0, 0, 0, 0]
            for x, y, z in _observations(scheme, v.collusion, v.relay):
                if z == c:
                    counts[1] += 1
                    counts[2] += x == a
                    counts[3] += y == b
                    counts[0] += x == a and y == b
            assert counts == [n_abc, n_c, n_ac, n_bc]
            assert n_abc * n_c != n_ac * n_bc
            witnesses += 1
    assert witnesses


def test_exact_sweep_matches_big_space_reference():
    # the ranks read off each condition matrix against the four ranks taken
    # over F_q^(UV + n), verdict for verdict, witness included: on the
    # benchmark's (4,3,4) file at (q, gamma) = (23, 2), 23^19 tuples a check,
    # where no enumerator reaches, and on random schemes, zero-sum or not
    bench = build_scheme(HsaConfig(4, 3, 4))
    assert (bench.field.q, bench.params.gamma) == (23, 2)
    rng = random.Random(20261021)
    schemes = [bench] + [_random_scheme(rng) for _ in range(30)]
    assert {bool(any(s.H.column_sums())) for s in schemes} == {False, True}
    failing = 0
    for scheme in schemes:
        expected = [
            big_space_verdict(scheme, tset, relay) for tset, relay in _checks(scheme.cfg)
        ]
        assert exact_sweep(scheme) == expected
        failing += sum(not v.passed for v in expected)
    assert failing


def test_exact_sweep_equals_single_checks(golden_2x3_f3):
    # a sweep decides each check as a single check does
    built = build_scheme(HsaConfig(2, 2, 1), q_hint=5)
    # V = 1, as in the benchmark's file
    single = build_scheme(HsaConfig(3, 1, 1), q_hint=5)
    for scheme in (built, golden_2x3_f3, single):
        for subject, clean in ((scheme, True), (_zeroed_row(scheme, (1, 1)), False)):
            sweep = exact_sweep(subject)
            assert sweep == [
                exact_independence_check(subject, tset, relay=relay)
                for tset, relay in _checks(subject.cfg)
            ]
            assert all(v.passed for v in sweep) == clean


def test_audit_pass_implies_oracle_pass_small():
    # sufficient conditions must never contradict the definitional oracle
    scheme = build_scheme(HsaConfig(2, 2, 0), q_hint=3)
    assert audit(scheme).passed
    for u in (1, 2):
        assert exact_independence_check(scheme, CollusionSet.of([]), relay=u).passed
    assert exact_independence_check(scheme, CollusionSet.of([])).passed


def test_rank_audit_verdict_is_the_exact_verdict():
    # On zero-sum schemes the audit's pass/fail is the definitional one.  No
    # check fails the exact test only.  A check that fails the rank test only
    # has dependent colluder rows h_C, so some colluder c has h_c in the span
    # of the others' rows: the relay of c's cluster, colluding with C - {c},
    # reads c's message W_c + h_c.N and knows h_c.N, and its exact check fails.
    rng = random.Random(7)
    schemes, both, rank_only = 0, 0, 0
    while schemes < 200:
        scheme = _random_scheme(rng)
        if any(scheme.H.column_sums()):
            continue
        schemes += 1
        report = audit(scheme)
        exact = {(v.relay, v.collusion): v.passed for v in exact_sweep(scheme)}
        assert report.passed == all(exact.values())
        failing = {(v.relay, v.collusion) for v in report.violations}
        assert {check for check, passed in exact.items() if not passed} <= failing
        for relay, tset in failing:
            if not exact[relay, tset]:
                both += 1
                continue
            rank_only += 1
            rows = [scheme.coefficient_row(*c) for c in tset]
            assert len(_span(rows, scheme.field.q)) < len(tset)
            assert any(
                not exact[c[0], CollusionSet(m for m in tset if m != c)] for c in tset
            )
    assert both > 0 and rank_only > 0


def _shannon_conditional_mi(scheme, tset, relay=None):
    """Float-entropy oracle for I(messages; inputs | conditioning); the
    messages are relay ``relay``'s, or the server's when ``relay`` is None.

    Independent route: every tuple goes through run_round and the MI comes
    from the plain Shannon formula, not from the library's integer counting.
    """
    import math
    from collections import Counter

    q = scheme.field.q
    cfg = scheme.cfg
    users = cfg.users()
    samples = []
    for w_flat in itertools.product(range(q), repeat=cfg.n_users):
        W = {user: (w_flat[i],) for i, user in enumerate(users)}
        for source in itertools.product(range(q), repeat=scheme.n_source):
            keys = [derive_keys(scheme, source)]
            t = run_round(scheme, RoundInputs(W, 1), keys)
            cond = tuple((W[u][0], keys[0].individual[u]) for u in tset)
            if relay is not None:
                a = tuple(t.X[(relay, v)][0] for v in range(1, cfg.V + 1))
                c = cond
            else:
                a = tuple(t.Y[u][0] for u in range(1, cfg.U + 1))
                c = (sum(w_flat) % q,) + cond
            samples.append((a, w_flat, c))

    n = len(samples)
    n_abc = Counter(samples)
    n_c = Counter(c for _, _, c in samples)
    n_ac = Counter((a, c) for a, _, c in samples)
    n_bc = Counter((b, c) for _, b, c in samples)
    mi = 0.0
    for (a, b, c), k in n_abc.items():
        mi += (k / n) * math.log2(k * n_c[c] / (n_ac[(a, c)] * n_bc[(b, c)]))
    return mi


def _single_user_clusters_server_leak() -> CoefficientScheme:
    # (3,1,0) over F_5 with masks N1, 2*N1, 2*N1: each relay sees a one-time
    # pad (relay conditions hold) but the relay messages are correlated
    # beyond the total sum, so only the server condition fails.
    cfg = HsaConfig(3, 1, 0)
    field = FieldSpec.for_prime(5)
    H = FqMatrix.from_rows(field, [(1, 0), (2, 0), (2, 0)])
    return CoefficientScheme(
        SchemeParams(cfg, None),
        H,
        {user: i for i, user in enumerate(cfg.users())},
        "external",
    )


def test_server_only_violation_isolated():
    scheme = _single_user_clusters_server_leak()
    assert not any(scheme.H.column_sums())
    report = audit(scheme)
    assert report.relay_ok and not report.server_ok
    assert all(v.kind == "server" for v in report.violations)

    empty = CollusionSet.of([])
    for u in (1, 2, 3):
        assert exact_independence_check(scheme, empty, relay=u).passed
    verdict = exact_independence_check(scheme, empty)
    assert not verdict.passed and verdict.witness is not None


def test_exact_oracle_agrees_with_shannon_mi():
    # passing case: an imported optimal (2,2,0) scheme at q = 5
    rows = [(1, 0), (0, 1), (1, 2), (3, 2)]
    cfg = HsaConfig(2, 2, 0)
    field = FieldSpec.for_prime(5)
    clean = CoefficientScheme(
        SchemeParams(cfg, None),
        FqMatrix.from_rows(field, rows),
        {user: i for i, user in enumerate(cfg.users())},
        "external",
    )
    empty = CollusionSet.of([])
    assert exact_independence_check(clean, empty).passed
    assert abs(_shannon_conditional_mi(clean, empty)) < 1e-9
    assert exact_independence_check(clean, empty, relay=1).passed
    assert abs(_shannon_conditional_mi(clean, empty, relay=1)) < 1e-9

    # failing case: the server-leaking scheme has strictly positive MI
    leaky = _single_user_clusters_server_leak()
    assert not exact_independence_check(leaky, empty).passed
    assert _shannon_conditional_mi(leaky, empty) > 1e-6
    assert exact_independence_check(leaky, empty, relay=1).passed
    assert abs(_shannon_conditional_mi(leaky, empty, relay=1)) < 1e-9


# ---------------------------------------------------------------------------
# infeasibility attack
# ---------------------------------------------------------------------------


def test_attack_succeeds_on_forced_scheme_rounds():
    forced = build_baseline(HsaConfig(2, 2, 2), force_infeasible=True)
    q = forced.field.q
    for seed in range(100):
        inputs, keys = sample_round(forced, 1, seed)
        t = run_round(forced, inputs, keys)
        recovered = infeasibility_attack(forced, t)
        expected = (sum(inputs.W[(1, v)][0] for v in (1, 2)) % q,)
        assert recovered == expected


def test_attack_zero_inputs_recovers_zero():
    forced = build_baseline(HsaConfig(2, 2, 2), force_infeasible=True)
    W = {user: (0,) for user in forced.cfg.users()}
    keys = [derive_keys(forced, (1, 2, 0))]
    t = run_round(forced, RoundInputs(W, 1), keys)
    assert infeasibility_attack(forced, t) == (0,)


def test_attack_breaks_secure_scheme_with_oversized_collusion(golden_2x3_f3):
    # secure at its designed T = 1, but (U-1)V colluders still win
    q = 3
    for seed in range(20):
        inputs, keys = sample_round(golden_2x3_f3, 2, seed)
        t = run_round(golden_2x3_f3, inputs, keys)
        recovered = infeasibility_attack(golden_2x3_f3, t)
        expected = tuple(
            sum(inputs.W[(1, v)][pos] for v in (1, 2, 3)) % q for pos in range(2)
        )
        assert recovered == expected


def test_attack_complete_over_all_realizations():
    # exhaustive over every (input, source) pair at q = 3, U = V = 2
    forced = build_baseline(HsaConfig(2, 2, 2), force_infeasible=True)
    users = forced.cfg.users()
    for w_flat in itertools.product(range(3), repeat=4):
        W = {user: (w_flat[i],) for i, user in enumerate(users)}
        expected = ((w_flat[0] + w_flat[1]) % 3,)
        for source in itertools.product(range(3), repeat=3):
            keys = [derive_keys(forced, source)]
            t = run_round(forced, RoundInputs(W, 1), keys)
            assert infeasibility_attack(forced, t) == expected
