"""Seeded scheme files for the benchmark, written without ``build_scheme``.

The extended-Vandermonde document for a given (q, gamma) is generated
here, so a later change to the build search cannot change the inputs of
the audit, exact and simulate workloads.  External copies multiply H on
the right by an invertible matrix A: every condition matrix is a set of
rows (or row sums) of H, and right-multiplying by A keeps each one's rank,
so both copies must get the same audit verdict.
"""

from __future__ import annotations

import json

from oracle import rank, source_rate, users


def dumps(doc: dict) -> str:
    """Canonical serialization, as ``hsa build`` writes it."""
    return json.dumps(doc, sort_keys=True) + "\n"


def nodes(q: int, gamma: int, count: int) -> list[int]:
    """x_0 = 0 and x_i = x_{i-1} + gamma^i (mod q)."""
    xs, step = [0], 1
    for _ in range(1, count):
        step = step * gamma % q
        xs.append((xs[-1] + step) % q)
    return xs


def _matrix_doc(q: int, rows: list[list[int]]) -> dict:
    return {"q": q, "rows": len(rows), "cols": len(rows[0]), "data": [x for r in rows for x in r]}


def extended_vandermonde_doc(U: int, V: int, T: int, q: int, gamma: int) -> dict:
    """The ``extended_vandermonde`` scheme document for a fixed (q, gamma).

    Row 0 is the parity row (the negated column sums of the Vandermonde
    rows) and belongs to user (U, V); the other users take the Vandermonde
    rows in lexicographic order.
    """
    n = source_rate(U, V, T)
    xs = nodes(q, gamma, U * V - 1)
    vandermonde = [[pow(x, j, q) for j in range(n)] for x in xs]
    parity = [-sum(col) % q for col in zip(*vandermonde)]
    order = [(U, V)] + [user for user in users(U, V) if user != (U, V)]
    row_of = {user: i for i, user in enumerate(order)}
    return {
        "U": U, "V": V, "T": T, "q": q, "gamma": gamma,
        "kind": "extended_vandermonde",
        "elements": xs,
        "H": _matrix_doc(q, [parity] + vandermonde),
        "row_index": [[f"{u},{v}", row_of[(u, v)]] for (u, v) in users(U, V)],
    }


def random_invertible(q: int, n: int, rng) -> list[list[int]]:
    """A uniform invertible n x n matrix over F_q, by rejection sampling."""
    while True:
        a = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        if rank(a, q) == n:
            return a


def external_copy(doc: dict, a: list[list[int]]) -> dict:
    """The same users and rows with H replaced by H*A, as an ``external`` scheme."""
    h = doc["H"]
    q, cols = h["q"], h["cols"]
    rows = [h["data"][i * cols:(i + 1) * cols] for i in range(h["rows"])]
    product = [
        [sum(x * a[k][j] for k, x in enumerate(r)) % q for j in range(cols)] for r in rows
    ]
    return dict(doc, kind="external", gamma=None, elements=[], H=_matrix_doc(q, product))
