"""The exact independence oracle by complete enumeration.

``hsagg.security`` decides each check from four ranks, by the identity
I(A; B | C) = (rk[A;C] + rk[B;C] - rk[A;B;C] - rk[C]) log q.  The
reference here shares nothing with it: it walks every (input, source draw)
tuple through the definitions, counts the four marginals in dicts, and
tests the count-product identity N(a,b,c) N(c) == N(a,c) N(b,c) on every
cell of the support.  The tests hold each runtime verdict, witness
included, to the verdict it gives.
"""

from __future__ import annotations

import itertools

from hsagg.security import IndependenceVerdict


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
                    return IndependenceVerdict(False, relay, tset, total, witness=cell)
    return IndependenceVerdict(True, relay, tset, total)
