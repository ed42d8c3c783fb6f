"""The benchmark's own view of a scheme document and its own F_q rank.

Output checks use this module instead of the library's elimination code,
so a defect in ``FqMatrix.rank`` cannot confirm itself.  Rank here is
computed by inserting rows one at a time into a reduced basis, not by the
library's column-by-column elimination.
"""

from __future__ import annotations

import math


def source_rate(U: int, V: int, T: int) -> int:
    """Optimal source key size: max(V+T, min(UV-1, U+T-1))."""
    return max(V + T, min(U * V - 1, U + T - 1))


def users(U: int, V: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(1, U + 1) for v in range(1, V + 1)]


def rank(rows, q: int) -> int:
    """Rank over F_q of a list of integer rows."""
    basis: list[tuple[int, list[int]]] = []  # (pivot column, row with 1 there)
    for row in rows:
        v = [x % q for x in row]
        for pivot, b in basis:
            f = v[pivot]
            if f:
                v = [(x - f * y) % q for x, y in zip(v, b)]
        lead = next((c for c, x in enumerate(v) if x), None)
        if lead is not None:
            inv = pow(v[lead], q - 2, q)
            basis.append((lead, [x * inv % q for x in v]))
    return len(basis)


class SchemeDoc:
    """Read-only view of a scheme JSON document (the ``hsa build`` format)."""

    def __init__(self, doc: dict):
        self.U, self.V, self.T = doc["U"], doc["V"], doc["T"]
        h = doc["H"]
        self.q, cols = h["q"], h["cols"]
        data = h["data"]
        self.rows = [data[i * cols:(i + 1) * cols] for i in range(h["rows"])]
        self.row_of = {
            tuple(int(x) for x in label.split(",")): r for label, r in doc["row_index"]
        }

    def row(self, user) -> list[int]:
        return self.rows[self.row_of[tuple(user)]]

    def relay_rows(self, u: int, tset) -> list[list[int]]:
        """Relay u's non-colluding cluster rows, then one row per colluder."""
        colluders = set(tset)
        own = [self.row((u, v)) for v in range(1, self.V + 1) if (u, v) not in colluders]
        return own + [self.row(t) for t in tset]

    def server_rows(self, tset) -> list[list[int]]:
        """Cluster sums of all uncovered clusters but the last, then the colluders."""
        colluders = set(tset)
        uncovered = [
            u for u in range(1, self.U + 1)
            if not all((u, v) in colluders for v in range(1, self.V + 1))
        ]
        sums = [
            [sum(col) % self.q for col in zip(*(self.row((u, v)) for v in range(1, self.V + 1)))]
            for u in uncovered[:-1]
        ]
        return sums + [self.row(t) for t in tset]

    def deficient(self, tset) -> set:
        """Condition matrices that lose rank for this collusion set.

        Returns ("relay", u) and ("server", None) labels, matching the
        ``kind``/``relay`` fields of the audit report.
        """
        out = set()
        for u in range(1, self.U + 1):
            m = self.relay_rows(u, tset)
            if rank(m, self.q) < len(m):
                out.add(("relay", u))
        m = self.server_rows(tset)
        if rank(m, self.q) < len(m):
            out.add(("server", None))
        return out


def sample_collusion_sets(U: int, V: int, T: int, rng, k: int) -> list[tuple]:
    """k collusion sets drawn uniformly (with replacement) from all sets of size <= T."""
    everyone = users(U, V)
    sizes = list(range(T + 1))
    weights = [math.comb(U * V, t) for t in sizes]
    return [
        tuple(sorted(rng.sample(everyone, t)))
        for t in rng.choices(sizes, weights=weights, k=k)
    ]
