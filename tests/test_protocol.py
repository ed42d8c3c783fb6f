"""Round simulation: masking, aggregation, decoding, observed rates."""

import itertools
import json
import math
import random

import pytest

from hsagg.errors import CorrectnessViolation
from hsagg.fields import FqMatrix
from hsagg.protocol import (
    ObservedRates,
    RoundInputs,
    measure_rates,
    run_round,
    sample_round,
)
from hsagg.rates import HsaConfig
from hsagg.schemes import (
    CoefficientScheme,
    build_baseline,
    build_scheme,
    derive_keys,
    import_scheme,
    scheme_to_json,
)
from hsagg.security import infeasibility_attack

from oracles import _random_scheme, _reference_run_round


def test_sample_round_deterministic(golden_2x3_f3):
    a = sample_round(golden_2x3_f3, 2, seed=7)
    b = sample_round(golden_2x3_f3, 2, seed=7)
    assert a == b
    c = sample_round(golden_2x3_f3, 2, seed=8)
    assert a != c


def test_sample_round_fresh_keys_per_symbol(golden_2x3_f3):
    _, keys = sample_round(golden_2x3_f3, 3, seed=1)
    assert len(keys) == 3
    assert len({id(k) for k in keys}) == 3


def test_sample_round_uniform_marginal(golden_2x3_f3):
    # marginal of one input symbol across 10^5 seeded rounds
    n = 100_000
    q = 3
    counts = [0] * q
    for seed in range(n):
        inputs, _ = sample_round(golden_2x3_f3, 1, seed)
        counts[inputs.W[(1, 1)][0]] += 1
    p = 1 / q
    sigma = math.sqrt(n * p * (1 - p))
    for c in counts:
        assert abs(c - n * p) < 5 * sigma


def test_run_round_golden_hand_values(golden_2x3_f3):
    # all-ones inputs with source (1,0,0,0): relay messages 1 and 2, sum 0
    W = {user: (1,) for user in golden_2x3_f3.cfg.users()}
    keys = [derive_keys(golden_2x3_f3, (1, 0, 0, 0))]
    t = run_round(golden_2x3_f3, RoundInputs(W, 1), keys)
    assert t.Y[1] == (1,)
    assert t.Y[2] == (2,)
    assert t.decoded == (0,)


def test_run_round_zero_keys(golden_2x3_f3):
    W = {user: (2, 0) for user in golden_2x3_f3.cfg.users()}
    keys = [derive_keys(golden_2x3_f3, (0, 0, 0, 0)) for _ in range(2)]
    t = run_round(golden_2x3_f3, RoundInputs(W, 2), keys)
    for u in (1, 2):
        expected = tuple(
            sum(W[(u, v)][pos] for v in (1, 2, 3)) % 3 for pos in range(2)
        )
        assert t.Y[u] == expected


def test_run_round_relay_messages_carry_mask_sum(golden_2x3_f3):
    # relay 1 carries +(N1+N2+N3), relay 2 carries the negation
    for seed in range(5):
        inputs, keys = sample_round(golden_2x3_f3, 1, seed)
        t = run_round(golden_2x3_f3, inputs, keys)
        n = keys[0].source
        mask = (n[0] + n[1] + n[2]) % 3
        w1 = sum(inputs.W[(1, v)][0] for v in (1, 2, 3)) % 3
        w2 = sum(inputs.W[(2, v)][0] for v in (1, 2, 3)) % 3
        assert t.Y[1][0] == (w1 + mask) % 3
        assert t.Y[2][0] == (w2 - mask) % 3


def test_run_round_exhaustive_inputs(golden_2x3_f3):
    # decoding is exact for every input realization (single symbol, q = 3)
    sources = [(0, 0, 0, 0), (1, 0, 2, 1), (2, 2, 2, 2)]
    users = golden_2x3_f3.cfg.users()
    for w_flat in itertools.product(range(3), repeat=6):
        W = {user: (w_flat[i],) for i, user in enumerate(users)}
        expected = sum(w_flat) % 3
        for source in sources:
            keys = [derive_keys(golden_2x3_f3, source)]
            t = run_round(golden_2x3_f3, RoundInputs(W, 1), keys)
            assert t.decoded == (expected,)


def test_run_round_dimension_checks(golden_2x3_f3):
    W = {user: (1,) for user in golden_2x3_f3.cfg.users()}
    keys = [derive_keys(golden_2x3_f3, (0, 0, 0, 0))]
    with pytest.raises(ValueError):
        run_round(golden_2x3_f3, RoundInputs(W, 2), keys)
    del W[(1, 1)]
    with pytest.raises(ValueError):
        run_round(golden_2x3_f3, RoundInputs(W, 1), keys)


def test_run_round_detects_corrupt_scheme(golden_2x3_f3):
    # zero out one coefficient row: masks no longer cancel for most sources
    rows = golden_2x3_f3.H.row_list()
    rows[0] = (0, 0, 0, 0)
    corrupt = CoefficientScheme(
        golden_2x3_f3.params,
        FqMatrix.from_rows(golden_2x3_f3.field, rows),
        golden_2x3_f3.row_index,
        "external",
    )
    W = {user: (0,) for user in corrupt.cfg.users()}
    keys = [derive_keys(corrupt, (1, 0, 0, 0))]
    with pytest.raises(CorrectnessViolation):
        run_round(corrupt, RoundInputs(W, 1), keys)


def test_run_round_equals_the_per_position_reference(golden_2x3_f3, golden_3x2_f17):
    # the column-wise round against the per-position one it replaced, on
    # seeded random schemes (about half without zero column sums) and the
    # golden ones: equal transcripts, or the same CorrectnessViolation
    # message from both; the attack, column-wise too, recovers cluster 1's
    # sum from every round that decodes
    rng = random.Random(20261021)
    schemes = [golden_2x3_f3, golden_3x2_f17] + [_random_scheme(rng) for _ in range(60)]
    decoded, refused = 0, 0
    for seed, scheme in enumerate(schemes):
        q, V = scheme.field.q, scheme.cfg.V
        for L in (1, 2, 17):
            inputs, keys = sample_round(scheme, L, seed)
            try:
                expected = _reference_run_round(scheme, inputs, keys)
            except CorrectnessViolation as reference:
                refused += 1
                with pytest.raises(CorrectnessViolation) as raised:
                    run_round(scheme, inputs, keys)
                assert str(raised.value) == str(reference)
                continue
            decoded += 1
            t = run_round(scheme, inputs, keys)
            assert t == expected
            cluster_1 = tuple(
                sum(inputs.W[(1, v)][pos] for v in range(1, V + 1)) % q for pos in range(L)
            )
            assert infeasibility_attack(scheme, t) == cluster_1
    assert decoded > 0 and refused > 0


def test_measure_rates_optimal_and_baseline(golden_2x3_f3):
    inputs, keys = sample_round(golden_2x3_f3, 1, 3)
    t = run_round(golden_2x3_f3, inputs, keys)
    assert measure_rates(golden_2x3_f3, t) == (1, 1, 1, 4)

    baseline = build_baseline(HsaConfig(2, 3, 1))
    inputs, keys = sample_round(baseline, 1, 3)
    t = run_round(baseline, inputs, keys)
    assert measure_rates(baseline, t) == (1, 1, 1, 5)


def test_measure_rates_scale_invariant(golden_2x3_f3):
    inputs, keys = sample_round(golden_2x3_f3, 4, 3)
    t = run_round(golden_2x3_f3, inputs, keys)
    assert measure_rates(golden_2x3_f3, t) == (1, 1, 1, 4)


def test_built_scheme_round(golden_2x3_f3):
    scheme = build_scheme(HsaConfig(3, 2, 2))
    inputs, keys = sample_round(scheme, 2, 11)
    t = run_round(scheme, inputs, keys)
    assert measure_rates(scheme, t) == (1, 1, 1, 4)
    assert all(len(v) == 2 for v in t.X.values())
    assert all(len(v) == 2 for v in t.Y.values())


def test_measure_rates_reads_the_rank_of_h():
    # a zero key column adds a source symbol that no mask uses: the padded
    # (2,2,1), imported as an external scheme, still passes its audit, and
    # its source key rate is rk(H) = 3, the optimum, not its 4 columns
    from hsagg.security import audit

    obj = json.loads(scheme_to_json(build_scheme(HsaConfig(2, 2, 1), q_hint=5)))
    for key in ("kind", "elements", "gamma"):
        del obj[key]
    H = obj["H"]
    rows = [H["data"][i:i + H["cols"]] for i in range(0, len(H["data"]), H["cols"])]
    H["data"] = [x for row in rows for x in [*row, 0]]
    H["cols"] += 1
    padded = import_scheme(obj)
    assert padded.n_source == 4 and audit(padded).passed
    inputs, keys = sample_round(padded, 3, 5)
    assert measure_rates(padded, run_round(padded, inputs, keys)) == (1, 1, 1, 3)


def test_measure_rates_reads_the_rank_of_each_users_row(golden_2x3_f3):
    # R_Z is the largest rk(h_u): an all-zero H masks nothing, so both key
    # rates read 0 while each message still carries one symbol per input symbol
    zero = CoefficientScheme(
        golden_2x3_f3.params,
        FqMatrix(6, 4, (0,) * 24, golden_2x3_f3.field),
        golden_2x3_f3.row_index,
        "external",
    )
    inputs, keys = sample_round(zero, 3, 5)
    assert measure_rates(zero, run_round(zero, inputs, keys)) == ObservedRates(1, 1, 0, 0)
