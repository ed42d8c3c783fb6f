"""Scheme construction, key derivation, persistence and import validation."""

import itertools
import json
import random
import sys
from math import comb

import pytest

from hsagg.errors import (
    AuditBudgetExceeded,
    CorrectnessViolation,
    InfeasibleConfiguration,
    SchemeFormatError,
)
from hsagg.fields import FieldSpec, extended_vandermonde, extended_vandermonde_subdet, next_prime
from hsagg.rates import HsaConfig, optimal_source_rate
from hsagg.schemes import (
    _all_minors_nonzero,
    _parity_submatrices_nonsingular,
    _refute,
    build_baseline,
    build_elements,
    build_scheme,
    derive_keys,
    import_scheme,
    scheme_to_json,
    search_gamma,
)

from conftest import elim_det, elim_rank, golden_2x3_f3_obj, golden_3x2_f17_obj


# ---------------------------------------------------------------------------
# node construction and gamma search
# ---------------------------------------------------------------------------


def test_build_elements_partial_geometric_sums():
    f101 = FieldSpec.for_prime(101)
    assert list(build_elements(2, 3, f101)) == [0, 2, 6]


def test_build_elements_gamma_one_is_arithmetic():
    f101 = FieldSpec.for_prime(101)
    assert list(build_elements(1, 5, f101)) == [0, 1, 2, 3, 4]


def test_build_elements_wraparound_stays_distinct():
    f7 = FieldSpec.for_prime(7)
    xs = build_elements(3, 4, f7)
    assert list(xs) == [0, 3, 5, 4]
    assert len(set(xs)) == len(xs)


def test_search_gamma_small_field():
    # (2,2,0) admits no spaced-node construction in F_5: gamma 4 collides the
    # nodes and gammas 2 and 3 each leave one parity submatrix singular.
    # F_7 is the first field that certifies.
    cfg = HsaConfig(2, 2, 0)
    assert search_gamma(cfg, FieldSpec.for_prime(5)) is None
    field = FieldSpec.for_prime(7)
    gamma = search_gamma(cfg, field)
    assert gamma == 2
    xs = build_elements(gamma, 3, field)
    H = extended_vandermonde(field, xs, 2)
    for idx in itertools.combinations(range(4), 2):
        assert elim_det([H.row(i) for i in idx], 7) != 0


def test_search_gamma_pigeonhole():
    # 5 distinct nodes need 5 distinct powers of gamma, and F_3^* and F_5^*
    # have only 2 and 4 elements
    assert search_gamma(HsaConfig(2, 3, 1), FieldSpec.for_prime(3)) is None
    assert search_gamma(HsaConfig(2, 3, 1), FieldSpec.for_prime(5)) is None


def _closed_form_sweep(field, xs, n):
    return all(
        extended_vandermonde_subdet(field, xs, idx) != 0
        for idx in itertools.combinations(range(len(xs)), n - 1)
    )


def test_parity_certificate_matches_closed_form():
    rng = random.Random(20240)
    cases = [
        # n = 1 leaves only the parity row: its entry is -m, zero when m = q
        (5, tuple(range(5)), 1),
        (7, (3, 0, 6, 1, 5, 2, 4), 1),
        (7, (1, 2, 4), 1),
        # n = 2 and n = m
        (11, (0, 1, 3, 7), 2),
        (13, (0, 2, 5, 6, 9), 5),
        (5, (0, 1, 2, 3, 4), 5),
    ]
    for _ in range(2400):
        q = rng.choice((5, 7, 11, 13, 101, 257))
        m = rng.randint(1, min(q, 9))
        cases.append((q, tuple(rng.sample(range(q), m)), rng.randint(1, m)))
    outcomes = []
    for q, xs, n in cases:
        field = FieldSpec.for_prime(q)
        expected = _closed_form_sweep(field, xs, n)
        assert _parity_submatrices_nonsingular(field, xs, n) == expected, (q, xs, n)
        outcomes.append(expected)
    assert outcomes[:2] == [False, False] and outcomes[2]
    assert outcomes.count(True) > 400 and outcomes.count(False) > 400


def _power_sums(q, xs, n):
    return [sum(pow(x, t, q) for x in xs) % q for t in range(n)]


def test_parity_certificate_past_the_refutation_budget():
    # 12-15 nodes: C(m, n - 1) exceeds the 8 q leaves the depth-first refutation
    # may visit, so a passing node set is decided by the level-by-level pass
    rng = random.Random(20241)
    outcomes = []
    while len(outcomes) < 60:
        q = rng.choice((13, 17))
        m = rng.randint(12, min(q, 15))
        n = rng.randint(3, m - 1)
        if comb(m, n - 1) <= 8 * q:
            continue
        field = FieldSpec.for_prime(q)
        xs = tuple(rng.sample(range(q), m))
        expected = _closed_form_sweep(field, xs, n)
        assert _parity_submatrices_nonsingular(field, xs, n) == expected, (q, xs, n)
        sums = _power_sums(q, xs, n)
        assert _all_minors_nonzero(q, xs, sums) == expected, (q, xs, n)
        if expected:
            assert _refute(q, xs, sums, 8 * q) is None
        outcomes.append(expected)
    assert outcomes.count(True) >= 5 and outcomes.count(False) >= 5


def test_batched_pass_and_refutation_on_their_own():
    rng = random.Random(20242)
    outcomes = []
    for _ in range(300):
        q = rng.choice((5, 7, 11, 13, 17, 101))
        m = rng.randint(3, min(q, 12))
        n = rng.randint(3, m)
        xs = tuple(rng.sample(range(q), m))
        expected = _closed_form_sweep(FieldSpec.for_prime(q), xs, n)
        sums = _power_sums(q, xs, n)
        assert _all_minors_nonzero(q, xs, sums) == expected, (q, xs, n)
        # unbounded, the refutation decides alone; with no budget it gives up
        # at the first nonzero block of leaves
        assert _refute(q, xs, sums, comb(m, n - 1)) is (not expected), (q, xs, n)
        assert _refute(q, xs, sums, 0) in (True, None)
        if expected:
            assert _refute(q, xs, sums, 0) is None
        outcomes.append(expected)
    assert outcomes.count(True) > 50 and outcomes.count(False) > 50


def test_certificate_depth_is_not_bounded_by_the_recursion_limit():
    # (150, 1, 0) needs n = 149 = UV - 1: one pick per level, 148 levels deep
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        scheme = build_scheme(HsaConfig(150, 1, 0))
    finally:
        sys.setrecursionlimit(limit)
    assert (scheme.field.q, scheme.params.gamma, scheme.n_source) == (151, 6, 149)
    xs = build_elements(6, 149, scheme.field)
    assert _closed_form_sweep(scheme.field, xs, 149)


def test_build_refuses_certificates_past_the_update_limit():
    # 498,501 minors pass the minor limit, but the moment tree is 997 levels
    # deep: about 4e10 updates per (q, gamma)
    assert comb(999, 997) <= 10**6
    with pytest.raises(AuditBudgetExceeded, match="moment updates"):
        build_scheme(HsaConfig(2, 500, 498))


# (q, gamma) that build_scheme picks, recorded with the closed-form sweep as the
# certifier: every feasible configuration with at most 12 users, default prime.
SEARCH_PINS = {
    (2, 1, 0): (3, 2), (2, 2, 0): (7, 2), (2, 2, 1): (5, 2), (2, 3, 0): (11, 2),
    (2, 3, 1): (11, 3), (2, 3, 2): (7, 3), (2, 4, 0): (29, 7), (2, 4, 1): (19, 4),
    (2, 4, 2): (19, 3), (2, 4, 3): (11, 2), (2, 5, 0): (19, 4), (2, 5, 1): (19, 4),
    (2, 5, 2): (19, 4), (2, 5, 3): (19, 4), (2, 5, 4): (11, 2), (2, 6, 0): (23, 2),
    (2, 6, 1): (23, 2), (2, 6, 2): (23, 2), (2, 6, 3): (23, 2), (2, 6, 4): (23, 2),
    (2, 6, 5): (13, 2), (3, 1, 0): (5, 2), (3, 1, 1): (5, 2), (3, 2, 0): (11, 3),
    (3, 2, 1): (11, 2), (3, 2, 2): (11, 3), (3, 2, 3): (7, 3), (3, 3, 0): (17, 2),
    (3, 3, 1): (17, 2), (3, 3, 2): (17, 2), (3, 3, 3): (17, 2), (3, 3, 4): (17, 2),
    (3, 3, 5): (11, 2), (3, 4, 0): (23, 2), (3, 4, 1): (23, 2), (3, 4, 2): (23, 2),
    (3, 4, 3): (23, 2), (3, 4, 4): (23, 2), (3, 4, 5): (23, 2), (3, 4, 6): (23, 2),
    (3, 4, 7): (13, 2), (4, 1, 0): (5, 2), (4, 1, 1): (5, 2), (4, 1, 2): (5, 2),
    (4, 2, 0): (11, 7), (4, 2, 1): (29, 7), (4, 2, 2): (19, 4), (4, 2, 3): (19, 3),
    (4, 2, 4): (11, 2), (4, 2, 5): (11, 2), (4, 3, 0): (23, 2), (4, 3, 1): (23, 2),
    (4, 3, 2): (23, 2), (4, 3, 3): (23, 2), (4, 3, 4): (23, 2), (4, 3, 5): (23, 2),
    (4, 3, 6): (23, 2), (4, 3, 7): (23, 2), (4, 3, 8): (13, 2), (5, 1, 0): (7, 3),
    (5, 1, 1): (7, 3), (5, 1, 2): (7, 3), (5, 1, 3): (7, 3), (5, 2, 0): (19, 4),
    (5, 2, 1): (19, 4), (5, 2, 2): (19, 4), (5, 2, 3): (19, 4), (5, 2, 4): (19, 4),
    (5, 2, 5): (11, 2), (5, 2, 6): (11, 2), (5, 2, 7): (11, 2), (6, 1, 0): (7, 3),
    (6, 1, 1): (7, 3), (6, 1, 2): (7, 3), (6, 1, 3): (7, 3), (6, 1, 4): (7, 3),
    (6, 2, 0): (23, 2), (6, 2, 1): (23, 2), (6, 2, 2): (23, 2), (6, 2, 3): (23, 2),
    (6, 2, 4): (23, 2), (6, 2, 5): (23, 2), (6, 2, 6): (13, 2), (6, 2, 7): (13, 2),
    (6, 2, 8): (13, 2), (6, 2, 9): (13, 2), (7, 1, 0): (11, 2), (7, 1, 1): (11, 2),
    (7, 1, 2): (11, 2), (7, 1, 3): (11, 2), (7, 1, 4): (11, 2), (7, 1, 5): (11, 2),
    (8, 1, 0): (11, 2), (8, 1, 1): (11, 2), (8, 1, 2): (11, 2), (8, 1, 3): (11, 2),
    (8, 1, 4): (11, 2), (8, 1, 5): (11, 2), (8, 1, 6): (11, 2), (9, 1, 0): (11, 2),
    (9, 1, 1): (11, 2), (9, 1, 2): (11, 2), (9, 1, 3): (11, 2), (9, 1, 4): (11, 2),
    (9, 1, 5): (11, 2), (9, 1, 6): (11, 2), (9, 1, 7): (11, 2), (10, 1, 0): (11, 2),
    (10, 1, 1): (11, 2), (10, 1, 2): (11, 2), (10, 1, 3): (11, 2), (10, 1, 4): (11, 2),
    (10, 1, 5): (11, 2), (10, 1, 6): (11, 2), (10, 1, 7): (11, 2), (10, 1, 8): (11, 2),
    (11, 1, 0): (13, 2), (11, 1, 1): (13, 2), (11, 1, 2): (13, 2), (11, 1, 3): (13, 2),
    (11, 1, 4): (13, 2), (11, 1, 5): (13, 2), (11, 1, 6): (13, 2), (11, 1, 7): (13, 2),
    (11, 1, 8): (13, 2), (11, 1, 9): (13, 2), (12, 1, 0): (13, 2), (12, 1, 1): (13, 2),
    (12, 1, 2): (13, 2), (12, 1, 3): (13, 2), (12, 1, 4): (13, 2), (12, 1, 5): (13, 2),
    (12, 1, 6): (13, 2), (12, 1, 7): (13, 2), (12, 1, 8): (13, 2), (12, 1, 9): (13, 2),
    (12, 1, 10): (13, 2),
}


def test_search_pins_acceptance_sweep():
    built = {cfg: build_scheme(HsaConfig(*cfg)) for cfg in SEARCH_PINS}
    assert {cfg: (s.field.q, s.params.gamma) for cfg, s in built.items()} == SEARCH_PINS


@pytest.mark.parametrize(
    "cfg, q_hint, pinned",
    [((4, 4, 6), None, (31, 7)), ((6, 3, 5), 101, (103, 8)), ((5, 4, 8), None, (191, 5))],
)
def test_search_pins_larger_configurations(cfg, q_hint, pinned):
    scheme = build_scheme(HsaConfig(*cfg), q_hint)
    assert (scheme.field.q, scheme.params.gamma) == pinned


def _certifies(cfg, field, gamma):
    xs = build_elements(gamma, cfg.n_users - 1, field)
    return len(set(xs)) == len(xs) and _parity_submatrices_nonsingular(
        field, xs, optimal_source_rate(cfg)
    )


def _search_grid():
    """(cfg, q) pairs: each sweep configuration at its first three primes from
    UV + 1, and each ladder configuration at every prime its build visits."""
    grid = []
    for shape in SEARCH_PINS:
        cfg = HsaConfig(*shape)
        q = cfg.n_users
        for _ in range(3):
            q = next_prime(q + 1)
            grid.append((cfg, q))
    # (configuration, starting prime, the prime its build picks)
    ladder = [
        ((4, 4, 6), 17, 31), ((6, 3, 5), 101, 103), ((3, 6, 5), 19, 103), ((4, 5, 3), 23, 191),
    ]
    for shape, q, last in ladder:
        while q <= last:
            grid.append((HsaConfig(*shape), q))
            q = next_prime(q + 1)
    return grid


def test_search_skips_only_what_a_full_scan_rejects():
    # the reference certifies every gamma from 2 up, with no inverse-pair skip
    # and no pigeonhole shortcut
    found = 0
    for cfg, q in _search_grid():
        field = FieldSpec.for_prime(q)
        reference = next((g for g in range(2, q) if _certifies(cfg, field, g)), None)
        assert search_gamma(cfg, field) == reference, (cfg, q)
        found += reference is not None
    assert found > 200


def test_gamma_and_its_inverse_get_the_same_verdict():
    verdicts = []
    for cfg, q in _search_grid():
        field = FieldSpec.for_prime(q)
        for gamma in range(2, q):
            inverse = pow(gamma, -1, q)
            if gamma < inverse:
                verdict = _certifies(cfg, field, gamma)
                assert _certifies(cfg, field, inverse) == verdict, (cfg, q, gamma)
                verdicts.append(verdict)
    assert verdicts.count(True) > 500 and verdicts.count(False) > 500


# ---------------------------------------------------------------------------
# build_scheme
# ---------------------------------------------------------------------------


def test_build_2x2_1_all_submatrices_nonsingular():
    scheme = build_scheme(HsaConfig(2, 2, 1))
    assert (scheme.H.rows, scheme.H.cols) == (4, 3)
    assert not any(scheme.H.column_sums())
    for idx in itertools.combinations(range(4), 3):
        assert elim_det([scheme.H.row(i) for i in idx], scheme.field.q) != 0


def test_build_3x2_2_shape_and_mds():
    scheme = build_scheme(HsaConfig(3, 2, 2))
    assert (scheme.H.rows, scheme.H.cols) == (6, 4)
    # any 4 of the 6 masks are mutually independent
    for idx in itertools.combinations(range(6), 4):
        assert elim_rank([scheme.H.row(i) for i in idx], scheme.field.q) == 4


def test_build_rejects_infeasible():
    with pytest.raises(InfeasibleConfiguration) as info:
        build_scheme(HsaConfig(2, 3, 3))
    assert "(U-1)*V" in str(info.value)


def test_build_deterministic_bytes():
    a = build_scheme(HsaConfig(2, 3, 1))
    b = build_scheme(HsaConfig(2, 3, 1))
    assert a == b
    assert scheme_to_json(a) == scheme_to_json(b)


def test_build_respects_q_hint():
    scheme = build_scheme(HsaConfig(2, 2, 1), q_hint=5)
    assert scheme.field.q == 5
    # a hint that is too small to host distinct nodes advances to one that works
    scheme = build_scheme(HsaConfig(2, 3, 1), q_hint=3)
    assert scheme.field.q >= 7


def test_parity_row_belongs_to_last_user():
    scheme = build_scheme(HsaConfig(2, 2, 1))
    cfg = scheme.cfg
    assert scheme.row_index[(cfg.U, cfg.V)] == 0
    others = [u for u in cfg.users() if u != (cfg.U, cfg.V)]
    assert [scheme.row_index[u] for u in others] == [1, 2, 3]


# ---------------------------------------------------------------------------
# key derivation
# ---------------------------------------------------------------------------


def test_derive_keys_golden_source(golden_2x3_f3):
    keys = derive_keys(golden_2x3_f3, (1, 0, 0, 0))
    assert keys.individual[(1, 1)] == 1
    assert keys.individual[(2, 1)] == 2
    for user in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        assert keys.individual[user] == 0


def test_derive_keys_zero_source(golden_2x3_f3):
    keys = derive_keys(golden_2x3_f3, (0, 0, 0, 0))
    assert all(v == 0 for v in keys.individual.values())


def test_derive_keys_masks_cancel():
    rng = random.Random(17)
    scheme = build_scheme(HsaConfig(3, 2, 2))
    q = scheme.field.q
    for _ in range(10):
        source = [rng.randrange(q) for _ in range(scheme.n_source)]
        keys = derive_keys(scheme, source)
        assert sum(keys.individual.values()) % q == 0


def test_derive_keys_is_linear():
    rng = random.Random(29)
    scheme = build_scheme(HsaConfig(2, 2, 1))
    q = scheme.field.q
    for _ in range(10):
        s1 = [rng.randrange(q) for _ in range(scheme.n_source)]
        s2 = [rng.randrange(q) for _ in range(scheme.n_source)]
        combined = derive_keys(scheme, [(a + b) % q for a, b in zip(s1, s2)])
        k1, k2 = derive_keys(scheme, s1), derive_keys(scheme, s2)
        for user in scheme.cfg.users():
            assert combined.individual[user] == (
                k1.individual[user] + k2.individual[user]
            ) % q


def test_derive_keys_length_mismatch():
    scheme = build_scheme(HsaConfig(2, 2, 1))
    with pytest.raises(ValueError):
        derive_keys(scheme, (0, 0))


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------


def test_baseline_2x2_matrix():
    scheme = build_baseline(HsaConfig(2, 2, 1))
    assert scheme.field.q == 3
    assert scheme.H.row_list() == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (2, 2, 2),
    ]
    assert scheme.H.column_sums() == (0, 0, 0)
    assert scheme.kind == "baseline"


def test_baseline_uses_more_source_symbols():
    cfg = HsaConfig(3, 2, 2)
    assert build_baseline(cfg).n_source == 5
    assert build_scheme(cfg).n_source == 4


def test_baseline_rejects_infeasible_unless_forced():
    cfg = HsaConfig(2, 2, 2)
    with pytest.raises(InfeasibleConfiguration):
        build_baseline(cfg)
    forced = build_baseline(cfg, force_infeasible=True)
    assert forced.insecure_by_construction
    assert not any(forced.H.column_sums())


# ---------------------------------------------------------------------------
# import and persistence
# ---------------------------------------------------------------------------


def test_import_golden_f3(golden_2x3_f3):
    assert golden_2x3_f3.kind == "external"
    assert golden_2x3_f3.n_source == 4
    assert not any(golden_2x3_f3.H.column_sums())


def test_import_golden_f17(golden_3x2_f17):
    assert golden_3x2_f17.field.q == 17
    assert golden_3x2_f17.params.gamma == 3
    # trailing parity row is the negated sum of the first five rows
    assert golden_3x2_f17.H.row(5)[0] == 17 - 5


def test_import_rejects_tampered_entry():
    obj = golden_3x2_f17_obj()
    obj["H"]["data"][5] = (obj["H"]["data"][5] + 1) % 17
    with pytest.raises(CorrectnessViolation):
        import_scheme(obj)


def test_import_rejects_malformed_documents():
    obj = golden_2x3_f3_obj()
    del obj["row_index"]
    with pytest.raises(SchemeFormatError):
        import_scheme(obj)

    obj = golden_2x3_f3_obj()
    obj["q"] = 9  # composite modulus
    obj["H"]["q"] = 9
    with pytest.raises(SchemeFormatError):
        import_scheme(obj)

    obj = golden_2x3_f3_obj()
    obj["row_index"][0] = ["1,1", 1]  # duplicate row target
    with pytest.raises(SchemeFormatError):
        import_scheme(obj)

    obj = golden_2x3_f3_obj()
    obj["kind"] = "mystery"
    with pytest.raises(SchemeFormatError):
        import_scheme(obj)


def _built_2x2_1_obj():
    return json.loads(scheme_to_json(build_scheme(HsaConfig(2, 2, 1))))


# (document, path to the value, replacement): each replacement is a JSON
# value of the wrong type, or nodes on an external document, which has none;
# none may be coerced.
NON_INTEGER_VALUES = [
    (golden_2x3_f3_obj, ("U",), 2.9),
    (golden_2x3_f3_obj, ("V",), True),
    (golden_2x3_f3_obj, ("T",), True),
    (golden_2x3_f3_obj, ("q",), "3"),
    (golden_2x3_f3_obj, ("gamma",), "2"),
    (golden_2x3_f3_obj, ("insecure_by_construction",), "no"),
    (golden_2x3_f3_obj, ("row_index", 0, 1), "0"),
    (golden_2x3_f3_obj, ("H", "q"), 3.0),
    (golden_2x3_f3_obj, ("H", "rows"), "6"),
    (golden_2x3_f3_obj, ("H", "cols"), 4.0),
    (golden_2x3_f3_obj, ("H", "data", 0), 1.4),
    (golden_2x3_f3_obj, ("H", "data", 0), None),
    (golden_2x3_f3_obj, ("H", "data", 0), True),
    (golden_2x3_f3_obj, ("H", "data"), "1" * 24),
    (_built_2x2_1_obj, ("gamma",), 2.0),
    (_built_2x2_1_obj, ("elements", 0), "0"),
    (_built_2x2_1_obj, ("elements",), "021"),
    (golden_2x3_f3_obj, ("elements",), "garbage"),
    (golden_2x3_f3_obj, ("elements",), [1, 2, 3]),
    (golden_2x3_f3_obj, ("elements",), {"a": 1}),
    (golden_2x3_f3_obj, ("elements",), None),
]


@pytest.mark.parametrize(
    "make, path, value",
    NON_INTEGER_VALUES,
    ids=[f"{'.'.join(map(str, path))}={value!r}" for _, path, value in NON_INTEGER_VALUES],
)
def test_import_rejects_non_integer_values(make, path, value):
    obj = make()
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(SchemeFormatError):
        import_scheme(obj)


@pytest.mark.parametrize("label", ["+1,1", " 1,1", "01,1", "1, 1", "1,1 ", "1,+1", "0_1,1"])
def test_import_rejects_non_canonical_user_labels(label):
    obj = golden_2x3_f3_obj()
    obj["row_index"][0][0] = label
    with pytest.raises(SchemeFormatError):
        import_scheme(obj)


def test_import_validates_declared_construction():
    scheme = build_scheme(HsaConfig(2, 2, 1))
    obj = json.loads(scheme_to_json(scheme))
    obj["gamma"] = obj["gamma"] + 1
    with pytest.raises(SchemeFormatError):
        import_scheme(obj)


def test_round_trip_all_kinds():
    for scheme in [
        build_scheme(HsaConfig(2, 3, 1)),
        build_baseline(HsaConfig(2, 3, 1)),
        build_baseline(HsaConfig(2, 2, 3), force_infeasible=True),
    ]:
        text = scheme_to_json(scheme)
        again = import_scheme(json.loads(text))
        assert again == scheme
        assert scheme_to_json(again) == text
