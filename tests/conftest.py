"""Shared fixtures: golden schemes and independent test oracles.

The oracles here deliberately avoid the library's elimination code paths
and import nothing from ``hsagg.fields``: determinants expand by cofactors
or come out of a textbook Gauss-Jordan elimination, and rank enumerates
square minors or counts that elimination's pivots.  The cofactor and minor
oracles are slow but share no idea with the library's echelon basis, and
the tests check the elimination against them.
"""

from __future__ import annotations

import itertools

import pytest

from hsagg.schemes import CoefficientScheme, import_scheme

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def cofactor_det(rows: list[list[int]], q: int) -> int:
    """Determinant by recursive cofactor expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0] % q
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor, q)
        total = (total + (-term if j % 2 else term)) % q
    return total


def minor_rank(rows: list[list[int]], q: int) -> int:
    """Rank as the largest size of a nonsingular square minor."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    for k in range(min(m, n), 0, -1):
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                if cofactor_det(sub, q) != 0:
                    return k
    return 0


def _gauss_jordan(rows, q: int) -> tuple[int, int]:
    """(rank, signed product of the pivots) by Gauss-Jordan elimination.

    Column by column, the first row at or below the current pivot row with a
    nonzero entry is swapped into place (negating the sign), scaled to 1 and
    used to clear that column in every other row.
    """
    a = [[x % q for x in r] for r in rows]
    rank, det = 0, 1
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(rank, len(a)) if a[i][c]), None)
        if p is None:
            continue
        if p != rank:
            a[rank], a[p] = a[p], a[rank]
            det = -det
        pivot = a[rank][c]
        det = det * pivot % q
        inv = pow(pivot, q - 2, q)
        a[rank] = [x * inv % q for x in a[rank]]
        for i in range(len(a)):
            f = a[i][c]
            if i != rank and f:
                a[i] = [(x - f * y) % q for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, det


def elim_rank(rows, q: int) -> int:
    """Rank as the number of Gauss-Jordan pivots."""
    return _gauss_jordan(rows, q)[0]


def elim_det(rows, q: int) -> int:
    """Determinant by Gauss-Jordan elimination; the 0x0 matrix gives 1."""
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant of a non-square matrix")
    rank, det = _gauss_jordan(rows, q)
    return det if rank == len(rows) else 0


def vandermonde_product(xs, q: int) -> int:
    """prod_{i<j} (x_j - x_i), the Vandermonde determinant; 1 for |xs| <= 1."""
    out = 1
    for i, a in enumerate(xs):
        for b in xs[i + 1 :]:
            out = out * (b - a) % q
    return out


def elementary_symmetric(xs, k: int, q: int) -> int:
    """Degree-k elementary symmetric polynomial of xs: the coefficient of
    t^k in prod (1 + x t); e_0 is 1."""
    e = [1] + [0] * k
    for x in xs:
        for j in range(k, 0, -1):
            e[j] = (e[j] + e[j - 1] * x) % q
    return e[k]


# ---------------------------------------------------------------------------
# Golden schemes
# ---------------------------------------------------------------------------

# Hand-built keys for the (U, V, T) = (2, 3, 1) network over F_3: three
# direct masks, two difference masks and one closing mask, using 4 source
# symbols.  Row order is user-lexicographic.
GOLDEN_2x3_F3_ROWS = [
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (2, 0, 0, 1),
    (0, 2, 0, 1),
    (0, 0, 2, 1),
]


def golden_2x3_f3_obj() -> dict:
    return {
        "U": 2,
        "V": 3,
        "T": 1,
        "q": 3,
        "gamma": None,
        "kind": "external",
        "elements": [],
        "H": {
            "q": 3,
            "rows": 6,
            "cols": 4,
            "data": [x for row in GOLDEN_2x3_F3_ROWS for x in row],
        },
        "row_index": [
            ["1,1", 0], ["1,2", 1], ["1,3", 2],
            ["2,1", 3], ["2,2", 4], ["2,3", 5],
        ],
    }


def golden_3x2_f17_obj() -> dict:
    """Hand-built 6x4 matrix over F_17 for (3, 2, 2), with primitive gamma = 3.

    Vandermonde rows on the geometric nodes {0, g, g^2, g^3, g^4} plus a
    trailing parity row equal to the negated sum of the others (its first
    entry is -5 mod 17 = 12).
    """
    q, g = 17, 3
    nodes = [0] + [pow(g, i, q) for i in range(1, 5)]
    rows = [[pow(x, j, q) for j in range(4)] for x in nodes]
    parity = [(-sum(r[j] for r in rows)) % q for j in range(4)]
    rows.append(parity)
    return {
        "U": 3,
        "V": 2,
        "T": 2,
        "q": q,
        "gamma": g,
        "kind": "external",
        "elements": [],
        "H": {"q": q, "rows": 6, "cols": 4, "data": [x for r in rows for x in r]},
        "row_index": [
            ["1,1", 0], ["1,2", 1],
            ["2,1", 2], ["2,2", 3],
            ["3,1", 4], ["3,2", 5],
        ],
    }


@pytest.fixture(scope="session")
def golden_2x3_f3() -> CoefficientScheme:
    return import_scheme(golden_2x3_f3_obj())


@pytest.fixture(scope="session")
def golden_3x2_f17() -> CoefficientScheme:
    return import_scheme(golden_3x2_f17_obj())
