"""Prime-field arithmetic and exact linear algebra."""

import itertools
import random

import pytest

from hsagg.fields import (
    FieldSpec,
    FqMatrix,
    extended_vandermonde,
    extended_vandermonde_subdet,
    is_prime,
    next_prime,
    vandermonde,
)

from conftest import (
    cofactor_det,
    elementary_symmetric,
    elim_det,
    elim_rank,
    minor_rank,
    vandermonde_product,
)

F5 = FieldSpec.for_prime(5)
F7 = FieldSpec.for_prime(7)
F13 = FieldSpec.for_prime(13)
F17 = FieldSpec.for_prime(17)


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23}
    for n in range(25):
        assert is_prime(n) == (n in primes)
    # psi_12 = 399165290221 * 798330580441 passes the bases 2..37; base 41 catches it
    assert not is_prime(318665857834031151167461)
    assert is_prime(200000000000000363)
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)  # psi_13: beyond the proven witness set


def test_next_prime():
    assert next_prime(2) == 2
    assert next_prime(8) == 11
    assert next_prime(14) == 17


def test_fieldspec_rejects_composite():
    with pytest.raises(ValueError):
        FieldSpec(10)


# ---------------------------------------------------------------------------
# rank, and the tests' elimination determinant
# ---------------------------------------------------------------------------


def test_rank_identity_and_zero():
    assert FqMatrix.from_rows(F7, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rank() == 3
    assert FqMatrix.from_rows(F5, [[0, 0], [0, 0]]).rank() == 0
    assert FqMatrix(0, 0, (), F5).rank() == 0


def test_rank_matches_minor_enumeration_oracle():
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        rows = [[rng.randrange(5) for _ in range(n)] for _ in range(m)]
        assert FqMatrix.from_rows(F5, rows).rank() == minor_rank(rows, 5)


def test_det_vandermonde_product_value():
    # nodes {0,1,2} over F_7: (1-0)(2-0)(2-1) = 2
    m = vandermonde(F7, [0, 1, 2], 3)
    assert elim_det(m.row_list(), 7) == 2
    assert vandermonde_product([0, 1, 2], 7) == 2


def test_det_singular():
    assert elim_det([[1, 1], [1, 1]], 5) == 0


def test_det_empty_matrix_is_one():
    assert elim_det([], 5) == 1


def test_det_matches_cofactor_oracle():
    # the elimination oracle against the cofactor and minor oracles
    rng = random.Random(3)
    for _ in range(25):
        rows = [[rng.randrange(101) for _ in range(4)] for _ in range(4)]
        assert elim_det(rows, 101) == cofactor_det(rows, 101)
        assert elim_rank(rows, 101) == minor_rank(rows, 101)
    # Sparse rows over small fields, most with a zero leading entry: the pivot
    # columns come out of row order, so the permutation sign matters, and
    # many of the matrices are singular.
    for q in (2, 3, 5, 7):
        field = FieldSpec.for_prime(q)
        for n in range(6):
            for _ in range(100):
                rows = [[rng.randrange(q) * (rng.random() < 0.6) for _ in range(n)]
                        for _ in range(n)]
                if n and rng.random() < 0.8:
                    rows[0][0] = 0
                assert elim_det(rows, q) == cofactor_det(rows, q)
                assert elim_rank(rows, q) == minor_rank(rows, q)


def test_det_requires_square():
    with pytest.raises(ValueError):
        elim_det([[1, 2, 3], [4, 0, 1]], 5)


def test_matrix_rejects_non_canonical_entries():
    with pytest.raises(ValueError):
        FqMatrix(1, 2, (1, 7), F5)


# ---------------------------------------------------------------------------
# Vandermonde constructions
# ---------------------------------------------------------------------------


def test_vandermonde_examples():
    assert vandermonde(F5, [0], 1).row_list() == [(1,)]
    g = 3
    m = vandermonde(F17, [g, g * g % 17], 2)
    assert m.row_list() == [(1, 3), (1, 9)]
    m = vandermonde(F7, [0, 1, 2], 3)
    assert m.row_list() == [(1, 0, 0), (1, 1, 1), (1, 2, 4)]


def test_vandermonde_requires_enough_nodes():
    with pytest.raises(ValueError):
        vandermonde(F5, [0, 1], 3)


def test_vandermonde_mds_property_exhaustive():
    # every n x n row-submatrix of a distinct-node Vandermonde is nonsingular
    for q in (11, 13):
        field = FieldSpec.for_prime(q)
        nodes = list(range(8))
        for n in (2, 3, 4):
            m = vandermonde(field, nodes, n)
            for idx in itertools.combinations(range(8), n):
                assert elim_det([m.row(i) for i in idx], q) != 0


def test_extended_vandermonde_example():
    m = extended_vandermonde(F5, [0, 1], 2)
    assert m.row_list() == [(3, 4), (1, 0), (1, 1)]
    assert m.column_sums() == (0, 0)
    pairs = itertools.combinations(range(3), 2)
    dets = [elim_det([m.row(i) for i in idx], 5) for idx in pairs]
    assert dets == [1, 4, 1]


def test_extended_vandermonde_parity_row():
    m = extended_vandermonde(F7, [0, 1, 2], 2)
    assert m.row(0) == (4, 4)


def test_extended_vandermonde_zero_row_sum_many():
    rng = random.Random(23)
    for _ in range(30):
        q = rng.choice([5, 7, 11, 13])
        field = FieldSpec.for_prime(q)
        size = rng.randrange(1, min(q, 6))
        nodes = rng.sample(range(q), size)
        n = rng.randrange(1, size + 1)
        m = extended_vandermonde(field, nodes, n)
        assert m.column_sums() == tuple([0] * n)


# ---------------------------------------------------------------------------
# symmetric polynomials and determinant identities
# ---------------------------------------------------------------------------


def test_elementary_symmetric_examples():
    assert elementary_symmetric([1, 2, 3], 2, 101) == 11
    assert elementary_symmetric([1, 2, 3], 0, 101) == 1
    assert elementary_symmetric([], 0, 101) == 1
    assert elementary_symmetric([1, 2, 3], 3, 101) == 6


def test_generalized_vandermonde_single_missing_power():
    # missing exponent 2 from {0,1,3}: det = V(X) * e_1(X) = 2 * 6 = 12
    assert elim_det([[x**p for p in (0, 1, 3)] for x in (1, 2, 3)], 101) == 12


def test_missing_power_identity_sweep():
    # all node sets of size <= 6 from a small pool, all single-missing exponents
    pool = [1, 4, 7, 9, 12, 15]
    for size in range(1, 7):
        for nodes in itertools.combinations(pool, size):
            for missing in range(size + 1):
                powers = [p for p in range(size + 1) if p != missing]
                lhs = elim_det([[pow(x, p, 101) for p in powers] for x in nodes], 101)
                rhs = (
                    vandermonde_product(nodes, 101)
                    * elementary_symmetric(nodes, size - missing, 101)
                    % 101
                )
                assert lhs == rhs


def test_subdet_closed_form_matches_elimination():
    # primary dual-route property: closed form vs assembled-submatrix det
    rng = random.Random(99)
    for _ in range(100):
        q = rng.choice([11, 13, 17, 101])
        field = FieldSpec.for_prime(q)
        m = rng.randrange(2, 8)
        nodes = rng.sample(range(q), m)
        n = rng.randrange(1, m + 1)
        idx = sorted(rng.sample(range(m), n - 1))
        closed = extended_vandermonde_subdet(field, nodes, idx)
        ev = extended_vandermonde(field, nodes, n)
        assert closed == elim_det([ev.row(0)] + [ev.row(1 + i) for i in idx], q)


def test_subdet_full_selection_single_term():
    # when indices omit exactly one node, the sum collapses to one product
    field = F13
    nodes = [0, 2, 7, 11]
    for omitted in range(4):
        idx = [i for i in range(4) if i != omitted]
        expected = pow(-1, 4, 13) * vandermonde_product([nodes[i] for i in idx], 13)
        for j in idx:
            expected = expected * (nodes[omitted] - nodes[j]) % 13
        assert extended_vandermonde_subdet(field, nodes, idx) == expected % 13


def test_subdet_repeated_node_is_zero():
    assert extended_vandermonde_subdet(F13, [1, 1, 5], [0, 1]) == 0


def test_subdet_rejects_bad_indices():
    with pytest.raises(ValueError):
        extended_vandermonde_subdet(F13, [1, 2, 3], [0, 3])
    with pytest.raises(ValueError):
        extended_vandermonde_subdet(F13, [1, 2, 3], [1, 1])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_matrix_json_round_trip():
    m = extended_vandermonde(F7, [0, 1, 2], 3)
    obj = m.to_json_obj()
    assert obj == {"q": 7, "rows": 4, "cols": 3, "data": list(m.entries)}
    again = FqMatrix.from_json_obj(obj, F7)
    assert again == m


def test_matrix_json_modulus_mismatch():
    m = vandermonde(F7, [0, 1], 2)
    with pytest.raises(ValueError):
        FqMatrix.from_json_obj(m.to_json_obj(), F5)
