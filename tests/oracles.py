"""References that the runtime is held to: two for the exact independence
oracle, and the round as first written.

``hsagg.security`` decides each check from four ranks, by the identity
I(A; B | C) = (rk[A;C] + rk[B;C] - rk[A;B;C] - rk[C]) log q, and reads
the ranks off the check's condition matrix.  ``_reference_exact_check``
shares nothing with it: it walks every (input, source draw) tuple through
the definitions, counts the four marginals in dicts, and tests the
count-product identity N(a,b,c) N(c) == N(a,c) N(b,c) on every cell of
the support.  ``big_space_verdict`` takes the same four ranks over
F_q^(UV + n) itself, from every observation written out as a row, so it
reaches schemes far past the enumerator's.  The tests hold each runtime
verdict, witness included, to the verdicts they give.

``_reference_run_round`` is ``protocol.run_round`` as it was before its
sums went column-wise: every sum one symbol position at a time.  The tests
hold each runtime transcript, and each CorrectnessViolation message, to it.
``_random_scheme`` draws the seeded random schemes that both kinds of
reference are compared on.
"""

from __future__ import annotations

import itertools
import random

from hsagg.errors import CorrectnessViolation
from hsagg.fields import FieldSpec, FqMatrix, _span
from hsagg.protocol import RoundTranscript
from hsagg.rates import HsaConfig
from hsagg.schemes import CoefficientScheme, SchemeParams
from hsagg.security import IndependenceVerdict


def _random_scheme(rng: random.Random) -> CoefficientScheme:
    """A random external scheme: duplicated rows, shuffled row_index, T up to
    UV + 1, and in about half the cases columns that do not sum to zero."""
    U, V = rng.choice([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (2, 4), (4, 2)])
    q = rng.choice([2, 3, 5, 7])
    cfg = HsaConfig(U, V, rng.randrange(U * V + 2))
    n = rng.randint(1, U * V)
    rows = [[rng.randrange(q) for _ in range(n)] for _ in range(U * V)]
    for _ in range(rng.randrange(3)):
        rows[rng.randrange(U * V)] = list(rows[rng.randrange(U * V)])
    if rng.random() < 0.5:
        rows[-1] = [(x - sum(col)) % q for x, col in zip(rows[-1], zip(*rows))]
    order = list(range(U * V))
    rng.shuffle(order)
    field = FieldSpec.for_prime(q)
    return CoefficientScheme(
        SchemeParams(cfg, None),
        FqMatrix.from_rows(field, rows),
        dict(zip(cfg.users(), order)),
        "external",
    )


def _observations(scheme, tset, relay):
    """(a, b, c) for every (input, source draw) tuple, inputs outer: a plain
    loop over the definitions, with no shared tables and no integer codes.
    a is what relay ``relay`` (or the server, for None) receives, b the input
    vector and c the conditioning value."""
    cfg, q = scheme.cfg, scheme.field.q
    users = cfg.users()
    hrows = [scheme.coefficient_row(*user) for user in users]
    masks = [
        [sum(h * x for h, x in zip(row, nvec)) % q for row in hrows]
        for nvec in itertools.product(range(q), repeat=scheme.n_source)
    ]
    pos = [users.index(t) for t in tset]
    for w in itertools.product(range(q), repeat=cfg.n_users):
        for z in masks:
            x = [(wi + zi) % q for wi, zi in zip(w, z)]
            cond = tuple((w[i], z[i]) for i in pos)
            if relay is not None:
                yield tuple(x[(relay - 1) * cfg.V:relay * cfg.V]), w, cond
            else:
                a = tuple(sum(x[u * cfg.V:(u + 1) * cfg.V]) % q for u in range(cfg.U))
                yield a, w, (sum(w) % q,) + cond


def _reference_exact_check(scheme, tset, relay=None) -> IndependenceVerdict:
    """The oracle as first written: four count dicts updated per tuple, then
    the identity on every cell of the full support product, each in
    first-seen order; the first failing cell is the witness."""
    n_abc, n_ac, n_bc, n_c = {}, {}, {}, {}
    total = 0
    for a, b, c in _observations(scheme, tset, relay):
        total += 1
        n_abc[(a, b, c)] = n_abc.get((a, b, c), 0) + 1
        n_ac[(a, c)] = n_ac.get((a, c), 0) + 1
        n_bc[(b, c)] = n_bc.get((b, c), 0) + 1
        n_c[c] = n_c.get(c, 0) + 1
    a_support, b_support = {}, {}
    for (a, c) in n_ac:
        a_support.setdefault(c, []).append(a)
    for (b, c) in n_bc:
        b_support.setdefault(c, []).append(b)
    for c, count_c in n_c.items():
        for a in a_support[c]:
            for b in b_support[c]:
                cell = (c, a, b, n_abc.get((a, b, c), 0), count_c, n_ac[(a, c)], n_bc[(b, c)])
                if cell[3] * count_c != cell[5] * cell[6]:
                    return IndependenceVerdict(relay, tset, total, cell)
    return IndependenceVerdict(relay, tset, total)


def big_space_verdict(scheme, tset, relay=None) -> IndependenceVerdict:
    """The verdict from four ranks of rows over F_q^(UV + n): inputs w
    first, users in order, then the n source symbols N.  User i's input is
    the unit row e_i, its mask z_i = h_i N the row (0, h_i), and what it
    sends the row (e_i, h_i).  A is the members' rows for a relay, each
    cluster's row sum for the server; B the unit rows of w; C the total sum
    of w (server only), then each colluder's input and mask.  The witness
    is the all-zero cell, each count q^(UV + n - r) for its rank r."""
    cfg, q, n = scheme.cfg, scheme.field.q, scheme.n_source
    users, m = cfg.users(), cfg.n_users
    dim = m + n
    w = [[int(j == i) for j in range(m)] + [0] * n for i in range(m)]
    z = [[0] * m + list(scheme.coefficient_row(*user)) for user in users]
    x = [[(a + b) % q for a, b in zip(wi, zi)] for wi, zi in zip(w, z)]

    def total(rows: list) -> list:
        return [sum(col) % q for col in zip(*rows)]

    clusters = [x[u * cfg.V:(u + 1) * cfg.V] for u in range(cfg.U)]
    if relay is None:
        a, c = [total(rows) for rows in clusters], [total(w)]
    else:
        a, c = clusters[relay - 1], []
    for t in tset:
        i = users.index(t)
        c += [w[i], z[i]]

    def rank(*parts: list) -> int:
        return len(_span([row for part in parts for row in part], q))

    ranks = r_abc, r_c, r_ac, r_bc = rank(a, w, c), rank(c), rank(a, c), rank(w, c)
    tuples = q ** dim
    if r_ac + r_bc == r_abc + r_c:
        return IndependenceVerdict(relay, tset, tuples)
    cell = (
        ((0,) if relay is None else ()) + ((0, 0),) * len(tset),
        (0,) * len(a),
        (0,) * m,
    )
    counts = tuple(q ** (dim - r) for r in ranks)  # N_abc, N_c, N_ac, N_bc
    return IndependenceVerdict(relay, tset, tuples, cell + counts)


def _reference_run_round(scheme, inputs, keys):
    """Execute one round and decode; a decode mismatch marks a corrupt scheme."""
    cfg = scheme.cfg
    q = scheme.field.q
    L = inputs.L
    users = cfg.users()
    if set(inputs.W) != set(users):
        raise ValueError("inputs do not cover the U x V user grid")
    if any(len(inputs.W[user]) != L for user in users):
        raise ValueError(f"every input vector must have length L = {L}")
    if len(keys) != L:
        raise ValueError(f"need one KeyMaterial per symbol position: {len(keys)} != {L}")
    if any(len(k.source) != scheme.n_source for k in keys):
        raise ValueError("key material does not match the scheme's source size")

    X = {
        user: tuple((inputs.W[user][pos] + keys[pos].individual[user]) % q for pos in range(L))
        for user in users
    }
    Y = {
        u: tuple(sum(X[(u, v)][pos] for v in range(1, cfg.V + 1)) % q for pos in range(L))
        for u in range(1, cfg.U + 1)
    }
    decoded = tuple(sum(Y[u][pos] for u in Y) % q for pos in range(L))

    truth = tuple(sum(inputs.W[user][pos] for user in users) % q for pos in range(L))
    if decoded != truth:
        raise CorrectnessViolation(
            f"decoded sum {decoded} != true input sum {truth}; scheme is corrupt"
        )
    return RoundTranscript(inputs, tuple(keys), X, Y, decoded)
