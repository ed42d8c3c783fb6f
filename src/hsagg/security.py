"""Security certification and refutation for coefficient schemes.

Two layers of checking:

* Rank audit.  Sufficient conditions for security are full row rank of
  two families of matrices, enumerated exhaustively over every collusion
  set of size at most T.  For a relay u and collusion set C, the matrix
  stacks the coefficient rows of u's non-colluding cluster members on the
  colluders' rows.  For the server, it stacks whole-cluster row sums of
  the non-fully-covered clusters (the last one omitted; the zero row sum
  makes it dependent) on the colluders' rows.  Sampling would silently
  weaken a universally quantified guarantee, so the audit either runs the
  full enumeration or refuses with a budget error.  The audit does not
  eliminate each matrix: one depth-first walk over the collusion sets,
  ``_violations``, carries per node the ranks of U + 1 echelon bases and,
  per basis, every user's row reduced modulo it; adding a colluder is one
  elimination step of those residuals.  Every reduction goes through
  ``fields._reduce``, the package's one row reduction, which
  ``FqMatrix.rank`` also uses; this module defines none of its own.  The condition-matrix builders below stay as the per-check
  oracle the tests compare the walk with.

* Exact independence oracle.  The definitional security statements are
  zero conditional mutual information.  For desk-scale fields they are
  decided by enumerating every (input, source-key) tuple and checking the
  count-product identity N(a,b,c) * N(c) == N(a,c) * N(b,c) in exact
  integers, which is equivalent to zero conditional MI and involves no
  floating point.  The input vectors, the mask vectors and what each
  observer receives per tuple are tabulated as base-q integer codes once
  per sweep; each check codes its conditioning value c per tuple and counts
  all q^(UV + n) tuples into the joint table and its three marginals.  The
  identity is tested on the joint table's nonzero cells only, which decides
  it for the whole support product: fix (a, c) with N(a,c) > 0 and sum the
  identity over the b of its nonzero cells; that gives sum N(b,c) = N(c)
  over those b, so every b with N(b,c) > 0 has a nonzero cell.  Every
  observation is linear in (w, z), so a check that fails anywhere fails at
  the cell of the all-zero tuple; a failing check reports that cell, the
  first of the support product in first-seen order, written from its shape.

The attack below demonstrates the infeasibility boundary: a relay that
colludes with every inter-cluster user reconstructs its own cluster's
input sum from any zero-row-sum linear scheme.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from collections.abc import Iterator

from .errors import AuditBudgetExceeded, CorrectnessViolation
from .fields import FqMatrix, _pivot_row, _reduce, _span
from .protocol import RoundTranscript
from .rates import HsaConfig
from .schemes import CoefficientScheme, _require_zero_row_sum

__all__ = [
    "CollusionSet",
    "RankViolation",
    "AuditReport",
    "IndependenceVerdict",
    "relay_condition_matrix",
    "server_condition_matrix",
    "audit",
    "exact_independence_check",
    "exact_sweep",
    "infeasibility_attack",
    "DEFAULT_RANK_BUDGET",
    "DEFAULT_ENUMERATION_CAP",
]

DEFAULT_RANK_BUDGET = 10**6
DEFAULT_ENUMERATION_CAP = 10**7
# The walk nests one generator per colluder.  Sets of up to d colluders number
# at least 2^d, so a deeper walk could never finish under any budget; it is
# refused instead of running into the interpreter's recursion limit.
_MAX_WALK_DEPTH = 256


class CollusionSet(tuple):
    """A canonical (sorted, duplicate-free) set of colluding user labels.

    The set is the tuple of its (u, v) members, so ``len`` and iteration run
    over them; ``members`` is the same tuple as a plain ``tuple``.
    """

    __slots__ = ()

    def __new__(cls, members) -> "CollusionSet":
        members = tuple(members)
        if list(members) != sorted(set(members)):
            raise ValueError("collusion set must be sorted and duplicate-free")
        return super().__new__(cls, members)

    @classmethod
    def of(cls, users) -> "CollusionSet":
        return cls(sorted(set((int(u), int(v)) for u, v in users)))

    @property
    def members(self) -> tuple[tuple[int, int], ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"CollusionSet(members={tuple(self)!r})"


def _check_labels(
    scheme: CoefficientScheme, tset: CollusionSet, relay: int | None
) -> None:
    """Refuse a check that ``scheme`` does not have; ``relay=None`` names the server."""
    cfg = scheme.cfg
    if any(not (1 <= u <= cfg.U and 1 <= v <= cfg.V) for (u, v) in tset):
        raise ValueError("collusion set contains labels outside the user grid")
    if len(tset) > cfg.T:
        raise ValueError(f"collusion set of size {len(tset)} exceeds budget T = {cfg.T}")
    if relay is not None and not 1 <= relay <= cfg.U:
        raise ValueError(f"relay id {relay} out of range [1, {cfg.U}]")


def relay_condition_matrix(
    scheme: CoefficientScheme, u: int, tset: CollusionSet
) -> FqMatrix:
    """Rows that must stay independent for relay u against collusion tset.

    Stacks the rows of relay u's cluster members that are not colluding,
    then one row per colluder; (V - T_in) + |tset| rows in total.
    """
    _check_labels(scheme, tset, u)
    cfg = scheme.cfg
    colluders = set(tset)
    rows = [
        scheme.coefficient_row(u, v)
        for v in range(1, cfg.V + 1)
        if (u, v) not in colluders
    ]
    rows.extend(scheme.coefficient_row(*t) for t in tset)
    return FqMatrix.from_rows(scheme.field, rows)


def _cluster_sum_row(scheme: CoefficientScheme, u: int) -> tuple[int, ...]:
    rows = [scheme.coefficient_row(u, v) for v in range(1, scheme.cfg.V + 1)]
    return FqMatrix.from_rows(scheme.field, rows).column_sums()


def server_condition_matrix(scheme: CoefficientScheme, tset: CollusionSet) -> FqMatrix:
    """Rows that must stay independent for the server against collusion tset.

    With F clusters fully covered by tset and the others listed ascending,
    stacks the whole-cluster coefficient sums of all but the last uncovered
    cluster, then one row per colluder; (U - F - 1) + |tset| rows.
    """
    _check_labels(scheme, tset, None)
    cfg = scheme.cfg
    colluders = set(tset)
    uncovered = [
        u
        for u in range(1, cfg.U + 1)
        if not all((u, v) in colluders for v in range(1, cfg.V + 1))
    ]
    rows = [_cluster_sum_row(scheme, u) for u in uncovered[:-1]]
    rows.extend(scheme.coefficient_row(*t) for t in tset)
    return FqMatrix.from_rows(scheme.field, rows)


class RankViolation(
    namedtuple("RankViolation", "relay collusion observed_rank required_rank")
):
    """A failing rank check: ``relay`` is the relay id, None for the server."""

    __slots__ = ()

    @property
    def kind(self) -> str:
        return "server" if self.relay is None else "relay"

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "relay": self.relay,
            "collusion": [list(t) for t in self.collusion],
            "observed_rank": self.observed_rank,
            "required_rank": self.required_rank,
        }


class AuditReport(namedtuple("AuditReport", "checks_performed violations")):
    """The checks an audit made and its tuple of RankViolations."""

    __slots__ = ()

    @property
    def relay_ok(self) -> bool:
        return all(v.relay is None for v in self.violations)

    @property
    def server_ok(self) -> bool:
        return all(v.relay is not None for v in self.violations)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {
            "relay_ok": self.relay_ok,
            "server_ok": self.server_ok,
            "checks_performed": self.checks_performed,
            "violations": [v.to_json_obj() for v in self.violations],
        }


def _set_sizes(cfg: HsaConfig) -> range:
    """Collusion set sizes to check: 0..T, capped at UV since no larger set exists."""
    return range(min(cfg.T, cfg.n_users) + 1)


def _checks(cfg: HsaConfig):
    """Yield (collusion set, relay) per check: sets by size, then lexicographic;
    per set, relays 1..U and then the server as ``relay=None``."""
    users = cfg.users()
    for t in _set_sizes(cfg):
        for combo in itertools.combinations(users, t):
            tset = CollusionSet(combo)
            for relay in range(1, cfg.U + 1):
                yield tset, relay
            yield tset, None


def _planned_checks(cfg: HsaConfig, limit: int) -> int:
    """Number of checks ``_checks(cfg)`` yields, U + 1 per collusion set; once
    the running count passes ``limit`` it is returned as it stands, so an
    over-budget plan is refused without summing every binomial."""
    m = cfg.n_users
    total, sets = 0, 1  # sets = C(UV, t)
    for t in _set_sizes(cfg):
        total += (cfg.U + 1) * sets
        if total > limit:
            break
        sets = sets * (m - t) // (t + 1)
    return total


def _stepped(table: list, j: int, q: int) -> list:
    """``table`` after one elimination step by its nonzero entry j, which
    leaves its entries after j reduced modulo one more row."""
    step = (_pivot_row(table[j], q),)
    return table[:j + 1] + [_reduce(step, r, q) for r in table[j + 1:]]


def _violations(scheme: CoefficientScheme) -> Iterator[RankViolation]:
    """Yield a RankViolation for each failing check, in walk order.

    The collusion sets are walked as a prefix tree, users ascending.  The
    ranks are read off U + 1 echelon bases: ``bases[u]`` spans cluster u and
    the colluders, ``bases[U]``, the server's, the sums of clusters 1..U-1
    and the colluders.  The latter spans the rows of
    ``server_condition_matrix`` only because the coefficient rows sum to
    zero: a covered cluster's sum lies in the colluders' span, and the last
    uncovered cluster's sum is minus the others.  Past the setup no basis is
    kept: each node carries, per basis, its rank and a residual table, every
    user's row reduced modulo the basis (only the users after the node's
    last colluder are read).  Adding user j raises a rank exactly when j's residual is
    nonzero, and the child's table is one elimination step of the parent's
    by that residual.  A zero residual leaves the parent's table to the
    child, and so does a child at the maximum depth, which reads no table.
    The depth refusal, the rows and the root's tables are set up on the
    call, but a node is visited only as the caller reads, so a pass/fail
    caller stops at the first item: ``next(_violations(scheme), None) is
    None``.
    """
    cfg = scheme.cfg
    depth = _set_sizes(cfg)[-1]
    if depth > _MAX_WALK_DEPTH:
        raise AuditBudgetExceeded(
            f"audit needs collusion sets of {depth} users, more than {_MAX_WALK_DEPTH}"
        )
    q, U, V, users = scheme.field.q, cfg.U, cfg.V, cfg.users()
    rows = [scheme.coefficient_row(*user) for user in users]
    bases = [_span(rows[u * V:(u + 1) * V], q) for u in range(U)]
    bases.append(_span([_cluster_sum_row(scheme, u) for u in range(1, U)], q))
    covered = [0] * U  # colluders per cluster
    members: list[int] = []

    def visit(ranks: list[int], tables: list) -> Iterator[RankViolation]:
        size = len(members)
        # the server matrix stacks the sums of all uncovered clusters but the last
        kept = max(U - covered.count(V) - 1, 0)
        tset = None
        for u, rank in enumerate(ranks):
            required = (V - covered[u] if u < U else kept) + size
            if rank < required:
                if tset is None:
                    tset = CollusionSet(tuple(users[j] for j in members))
                yield RankViolation(u + 1 if u < U else None, tset, rank, required)
        if size == depth:
            return
        deeper = size + 1 < depth  # whether the children's tables are read
        for j in range(members[-1] + 1 if members else 0, len(users)):
            grows = [any(table[j]) for table in tables]
            child_ranks = [rank + grow for rank, grow in zip(ranks, grows)]
            child_tables = tables
            if deeper:
                child_tables = [
                    _stepped(table, j, q) if grow else table for table, grow in zip(tables, grows)
                ]
            members.append(j)
            covered[j // V] += 1
            yield from visit(child_ranks, child_tables)
            covered[j // V] -= 1
            members.pop()

    return visit([len(b) for b in bases], [[_reduce(b, row, q) for row in rows] for b in bases])


def audit(scheme: CoefficientScheme, budget: int = DEFAULT_RANK_BUDGET) -> AuditReport:
    """Exhaustive rank audit over every collusion set of size at most T.

    Reports every violation ``_violations`` yields in a canonical order:
    relay violations by relay id, then server ones, each group by member
    tuple.  The walk needs rows that sum to zero, so a scheme without that
    raises CorrectnessViolation, and one whose checks exceed ``budget``
    raises AuditBudgetExceeded, before anything is enumerated.
    """
    _require_zero_row_sum(scheme.H)
    checks = _planned_checks(scheme.cfg, budget)
    if checks > budget:
        raise AuditBudgetExceeded(f"audit needs more than the budget of {budget} rank checks")
    violations = sorted(
        _violations(scheme), key=lambda v: (v.kind, v.relay or 0, v.collusion.members)
    )
    return AuditReport(checks, tuple(violations))


class IndependenceVerdict(
    namedtuple(
        "IndependenceVerdict",
        "passed relay collusion tuples_enumerated witness",
        defaults=(None,),
    )
):
    """One exact oracle check: ``relay`` is the relay id, None for the
    server; a failing check's ``witness`` is (c, a, b, N_abc, N_c, N_ac,
    N_bc) for the all-zero cell, and None otherwise."""

    __slots__ = ()

    def to_json_obj(self) -> dict:
        return {
            "passed": self.passed,
            "mode": "server" if self.relay is None else "relay",
            "relay": self.relay,
            "collusion": [list(t) for t in self.collusion],
            "tuples_enumerated": self.tuples_enumerated,
            "witness": None if self.witness is None else repr(self.witness),
        }


def _code(digits, q: int) -> int:
    """The base-q integer whose digits, most significant first, are ``digits``."""
    code = 0
    for d in digits:
        code = code * q + d
    return code


class _Tables:
    """What the exact oracle enumerates, built once for every check it serves.

    Tuple k of the enumeration is (``inputs[k // len(masks)]``,
    ``masks[k % len(masks)]``): every input vector w outer and every mask
    vector z = H N inner, each in ``itertools.product`` order.  ``b[k]`` is
    the index of that tuple's input and ``seen[relay][k]`` the base-q code of
    what the observer (relay u, or the server as ``None``) receives from it.
    """

    def __init__(self, scheme: CoefficientScheme, relays) -> None:
        cfg = self.cfg = scheme.cfg
        q = self.q = scheme.field.q
        self.inputs = list(itertools.product(range(q), repeat=cfg.n_users))
        users = cfg.users()
        self.index = {user: i for i, user in enumerate(users)}
        hrows = [scheme.coefficient_row(*user) for user in users]
        self.masks = [
            tuple(sum(h * x for h, x in zip(row, nvec)) % q for row in hrows)
            for nvec in itertools.product(range(q), repeat=scheme.n_source)
        ]
        per_input = len(self.masks)
        self.b = [i for i in range(len(self.inputs)) for _ in range(per_input)]
        # A relay sees each cluster member's w + z; the server sees each
        # cluster's sum of them.
        clusters = [
            [self.index[(u, v)] for v in range(1, cfg.V + 1)] for u in range(1, cfg.U + 1)
        ]
        self.seen = {}
        for relay in relays:
            groups = clusters if relay is None else [(i,) for i in clusters[relay - 1]]
            self.seen[relay] = self._observed(groups)

    def _observed(self, groups) -> list[int]:
        """Per tuple, the code of the sums of w_i + z_i over i in each group, mod q."""
        q = self.q

        def part(x):
            return tuple(sum(x[i] for i in g) % q for g in groups)

        z_parts = [part(z) for z in self.masks]
        return self._per_tuple(
            [part(w) for w in self.inputs],
            lambda wp: [_code([(x + y) % q for x, y in zip(wp, zp)], q) for zp in z_parts],
        )

    def conditioning(self, tset: CollusionSet, server: bool) -> list[int]:
        """Per tuple, the code of the value c the check conditions on: digits
        for the total input sum (server only), the colluders' inputs and then
        their masks."""
        q, idx = self.q, [self.index[t] for t in tset]
        c_w = [
            _code(([sum(w) % q] if server else []) + [w[i] for i in idx], q)
            for w in self.inputs
        ]
        c_z = [_code([z[i] for i in idx], q) for z in self.masks]
        shift = q ** len(idx)
        return self._per_tuple(c_w, lambda cw: [cw * shift + cz for cz in c_z])

    def _per_tuple(self, w_keys: list, row) -> list[int]:
        """Per tuple, ``row(w_keys[i])[j]`` for the tuple (inputs[i], masks[j]);
        ``row`` is called once per distinct key."""
        rows = {key: row(key) for key in set(w_keys)}
        return list(itertools.chain.from_iterable(map(rows.__getitem__, w_keys)))


def _decide(tables: _Tables, tset: CollusionSet, relay: int | None) -> IndependenceVerdict:
    """Count every tuple of ``tables`` into the check's contingency table and
    test the count-product identity on its nonzero cells."""
    a_codes, b_codes = tables.seen[relay], tables.b
    c_codes = tables.conditioning(tset, relay is None)
    n_abc = Counter(zip(a_codes, b_codes, c_codes))
    n_c = Counter(c_codes)
    n_ac = Counter(zip(a_codes, c_codes))
    n_bc = Counter(zip(b_codes, c_codes))
    total = len(b_codes)
    if all(n * n_c[c] == n_ac[a, c] * n_bc[b, c] for (a, b, c), n in n_abc.items()):
        return IndependenceVerdict(True, relay, tset, total)

    # Some cell fails.  Every observation is linear in (w, z), so the cell of
    # tuple 0, where w = 0 and z = 0, fails too; it is the witness, and its
    # field values are zeros in the shape of c, a and b.
    a, b, c = a_codes[0], b_codes[0], c_codes[0]
    counts = (n_abc[a, b, c], n_c[c], n_ac[a, c], n_bc[b, c])
    if counts[0] * counts[1] == counts[2] * counts[3]:
        raise AssertionError("a failing linear check must fail at the all-zero cell")
    cell = (
        ((0,) if relay is None else ()) + ((0, 0),) * len(tset),  # sum, then (w, z) per colluder
        (0,) * (tables.cfg.U if relay is None else tables.cfg.V),  # one value per message
        tables.inputs[0],
    )
    return IndependenceVerdict(False, relay, tset, total, witness=cell + counts)


def exact_independence_check(
    scheme: CoefficientScheme,
    tset: CollusionSet,
    relay: int | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> IndependenceVerdict:
    """Decide a definitional security statement by complete enumeration (L = 1).

    relay u (``relay=u``): are relay u's received messages independent of
    the full input set, given the colluders' inputs and masks?
    server (``relay=None``): are the relay-to-server messages independent of
    the input set, given the total input sum and the colluders' inputs and
    masks?

    Builds, for this one observer, the integer-coded tables that
    ``exact_sweep`` builds once for all of its checks, and decides the check
    as the sweep does: every one of the q^(UV + n) (W, N) tuples is counted
    into the contingency table, and the count-product identity is tested on
    the nonzero cells, which decides it for every cell of the support
    product (see the module docstring).  A failing check reports the cell of
    the all-zero tuple, where every linear check that fails also fails, as
    its witness, written from its shape.  Exact integers only.
    """
    _check_labels(scheme, tset, relay)
    total = scheme.field.q ** (scheme.cfg.n_users + scheme.n_source)
    if total > cap:
        raise AuditBudgetExceeded(
            f"exact check needs {total} tuples, cap is {cap}; refusing to sample"
        )
    return _decide(_Tables(scheme, [relay]), tset, relay)


def exact_sweep(
    scheme: CoefficientScheme, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[IndependenceVerdict]:
    """The exact oracle on every check the rank audit makes, in the audit's order.

    ``cap`` bounds the whole sweep: when the planned checks times the
    q^(UV + n) tuples of each exceed it, AuditBudgetExceeded is raised before
    anything is enumerated.  The tables are built once and shared by every
    check; each check still counts all q^(UV + n) tuples.
    """
    cfg = scheme.cfg
    tuples = scheme.field.q ** (cfg.n_users + scheme.n_source)
    if _planned_checks(cfg, cap // tuples) * tuples > cap:
        raise AuditBudgetExceeded(
            f"exact sweep needs more than the cap of {cap} tuples; refusing to sample"
        )
    tables = _Tables(scheme, [*range(1, cfg.U + 1), None])
    return [_decide(tables, tset, relay) for tset, relay in _checks(cfg)]


def infeasibility_attack(
    scheme: CoefficientScheme, transcript: RoundTranscript
) -> tuple[int, ...]:
    """Relay 1 plus all inter-cluster colluders recover cluster 1's input sum.

    The colluders' inputs and masks reproduce every other relay's message;
    adding relay 1's own message yields the total input sum, and
    subtracting the colluders' known inputs leaves cluster 1's sum.  The
    result is checked against ground truth before returning: this attack
    is total against any zero-row-sum linear scheme.
    """
    cfg = scheme.cfg
    q = scheme.field.q
    L = transcript.inputs.L
    W = transcript.inputs.W

    recovered = []
    for pos in range(L):
        key = transcript.keys[pos]
        total = transcript.Y[1][pos]
        known_inputs = 0
        for u in range(2, cfg.U + 1):
            for v in range(1, cfg.V + 1):
                total = (total + W[(u, v)][pos] + key.individual[(u, v)]) % q
                known_inputs = (known_inputs + W[(u, v)][pos]) % q
        recovered.append((total - known_inputs) % q)

    truth = tuple(
        sum(W[(1, v)][pos] for v in range(1, cfg.V + 1)) % q for pos in range(L)
    )
    if tuple(recovered) != truth:
        raise CorrectnessViolation(
            "attack reconstruction mismatch; transcript does not come from a "
            "zero-row-sum linear scheme"
        )
    return tuple(recovered)
