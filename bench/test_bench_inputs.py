"""Tests of the benchmark's own inputs and oracle.

    PYTHONPATH=src python -m pytest bench
"""

import itertools
import json
import random

from hsagg.fields import FieldSpec, FqMatrix
from hsagg.rates import HsaConfig
from hsagg.schemes import build_scheme, import_scheme, scheme_to_json
from hsagg.security import audit

from inputs import dumps, external_copy, extended_vandermonde_doc, random_invertible
from oracle import SchemeDoc, rank, source_rate, users
from run import AUDIT_434_VIOLATIONS


def test_generated_files_equal_build_output():
    # (U, V, T), the prime the search starts from, and the (q, gamma) it certifies.
    cases = [((4, 4, 6), None, (31, 7)), ((6, 3, 5), None, (103, 8)),
             ((4, 3, 4), None, (23, 2)), ((3, 1, 1), 5, (5, 2))]
    for (U, V, T), q_hint, (q, gamma) in cases:
        built = build_scheme(HsaConfig(U, V, T), q_hint)
        assert (built.field.q, built.params.gamma) == (q, gamma)
        assert dumps(extended_vandermonde_doc(U, V, T, q, gamma)) == scheme_to_json(built)


def test_external_copy_preserves_audit_report():
    built = build_scheme(HsaConfig(4, 3, 4))
    doc = extended_vandermonde_doc(4, 3, 4, built.field.q, built.params.gamma)
    a = random_invertible(built.field.q, built.n_source, random.Random(0))
    copy = import_scheme(json.loads(dumps(external_copy(doc, a))))
    assert copy.kind == "external"
    assert copy.H != built.H
    original, transformed = audit(built).to_json_obj(), audit(copy).to_json_obj()
    assert original == transformed
    assert len(original["violations"]) == 10


def test_random_invertible_is_seeded_and_invertible():
    a = random_invertible(5, 3, random.Random(7))
    assert a == random_invertible(5, 3, random.Random(7))
    assert FqMatrix.from_rows(FieldSpec.for_prime(5), a).rank() == 3


def test_oracle_rank_matches_library():
    rng = random.Random(1)
    for q in (2, 3, 5, 31):
        field = FieldSpec.for_prime(q)
        for _ in range(200):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            m = [[rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(cols)]
                 for _ in range(rows)]
            assert rank(m, q) == FqMatrix.from_rows(field, m).rank()


def test_pinned_434_violations_by_full_enumeration():
    view = SchemeDoc(extended_vandermonde_doc(4, 3, 4, 23, 2))
    n = source_rate(4, 3, 4)
    # Every relay matrix is at most V + T <= n distinct rows of H, so the
    # MDS property (any n rows independent) rules out relay violations.
    assert all(rank(rows, 23) == n for rows in itertools.combinations(view.rows, n))
    server = [
        ("server", None, tset)
        for t in range(5)
        for tset in itertools.combinations(users(4, 3), t)
        if rank(view.server_rows(tset), 23) < len(view.server_rows(tset))
    ]
    assert server == AUDIT_434_VIOLATIONS
