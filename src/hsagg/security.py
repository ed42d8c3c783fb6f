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
  eliminate each matrix: ``_violations`` makes one depth-first walk over
  the collusion sets per observer, the server's and then each relay's,
  against one echelon basis (``_walk`` says how).  Own-cluster colluders
  never raise a relay's rank, so relay u walks only the users outside
  cluster u and reports each deficient set with every own-cluster
  extension within T.  Rows are reduced and normalized with
  ``fields._reduce`` and ``fields._pivot_row``, which ``FqMatrix.rank``
  also uses.  Each walk starts from a condition-matrix builder below at
  the empty set, and each exact check reads its rows from one.

* Exact independence oracle.  The definitional security statements are
  zero conditional mutual information I(A; B | C), A what the observer
  receives, B the input vector w and C the value the check conditions on:
  the total input sum (server only), then the colluders' inputs and
  masks.  Each is a linear map of the uniform (w, N) in F_q^(UV + n), N
  the source symbols, and a linear map of rank r takes each of its q^r
  values on exactly q^(UV + n - r) tuples, so its entropy is r log q.
  Hence, exactly, I(A; B | C) = (rk[A;C] + rk[B;C] - rk[A;B;C] - rk[C])
  log q, and a check passes iff rk[A;C] + rk[B;C] == rk[A;B;C] + rk[C].

  As rows over F_q^(UV + n), user i's input is (e_i, 0), its mask
  (0, h_i) and its message (e_i, h_i); the server receives each cluster's
  sum (1_u, g_u).  With "rows" the check's condition matrix, whose last
  |C| rows are the colluders' h_C, and G the column sums of H (zero for
  every scheme that decodes), the four ranks are

      rk[B;C]   = UV + rk(h_C),
      rk[C]     = |C| + rk(h_C)       (+ 1: server, C not every user),
      rk[A;C]   = rk[C] + rows - |C|  (+ 1: server, G not in span(h_C)),
      rk[A;B;C] = UV + rk(rows)       (rows and G for the server).

  B spans every input coordinate, so [B;C] and [A;B;C] have rank UV plus
  that of their mask parts, where a covered cluster's g_u lies in
  span(h_C) and the last uncovered one's is G less the others.  The total
  sum lies in the span of C's inputs only when C is every user.  Each of a
  relay's messages from outside C holds an input coordinate that C lacks;
  the server's k uncovered sums have disjoint supports outside C and add
  up to (0, G) modulo C, so they add k - 1 = rows - |C| ranks, and one
  more iff G lies outside span(h_C).  A check thus takes two
  ``fields._span`` calls, of h_C and of the rows, and no tuple is
  enumerated: ``tuples_enumerated`` is q^(UV + n), the size of the space
  the verdict is exact over.  A failing check reports the all-zero tuple's
  cell, written from its shape, with counts N_abc, N_c, N_ac and N_bc of
  q^(UV + n - r) for r = rk[A;B;C], rk[C], rk[A;C] and rk[B;C], so
  N_abc * N_c != N_ac * N_bc there.  A check's cost does not grow with
  its space, so ``exact_sweep`` counts checks against the budget that the
  walk counts sets against.  ``tests/oracles.py`` keeps the enumerator and
  the four ranks over F_q^(UV + n) itself, which the tests compare this
  oracle with.

* One verdict.  On every scheme the audit accepts, the audit passes iff
  every exact check does; only the violation lists differ.  The audit
  refuses a scheme whose columns do not sum to zero, so G = 0, and the
  total sum's extra rank in rk[C] cancels against rk[A;C].  By the four
  ranks above, a check then passes exactly iff
  rk(rows) - rk(h_C) = rows - |C|, and passes the rank test iff
  rk(rows) = rows.

  - Every exact failure is a rank failure.  When h_C is independent,
    rk(h_C) = |C| and the two conditions are the same equation.  When h_C
    is dependent, rk(rows) <= rows - (|C| - rk(h_C)) < rows, and the
    rank check fails anyway.
  - A check that fails the rank test only therefore has dependent h_C:
    some colluder c has h_c in span(h_{C - {c}}).  The relay of c's
    cluster, colluding with C - {c}, reads c's message W_c + h_c N, and
    its colluders' masks give h_c N, so it learns W_c, uniform and
    independent of what they hold.  That relay's exact check at C - {c},
    a smaller set the audit also makes, fails.

  So the scheme fails the rank audit iff some exact check fails.
  ``test_rank_audit_verdict_is_the_exact_verdict`` checks both parts on
  seeded random zero-sum schemes.

The attack below demonstrates the infeasibility boundary: a relay that
colludes with every inter-cluster user reconstructs its own cluster's
input sum from any zero-row-sum linear scheme.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterator

from .errors import DEFAULT_RANK_BUDGET, AuditBudgetExceeded, CorrectnessViolation
from .fields import FqMatrix, _pivot_row, _reduce, _span
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
]

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
    rows = (scheme.coefficient_row(u, v) for v in range(1, scheme.cfg.V + 1))
    return tuple(sum(column) % scheme.field.q for column in zip(*rows))


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


def _depth(cfg: HsaConfig) -> int:
    """The largest collusion set to check: T, capped at UV since no larger set exists."""
    return min(cfg.T, cfg.n_users)


def _checks(cfg: HsaConfig):
    """Yield (collusion set, relay) per check: sets by size, then lexicographic;
    per set, relays 1..U and then the server as ``relay=None``."""
    users = cfg.users()
    for t in range(_depth(cfg) + 1):
        for combo in itertools.combinations(users, t):
            tset = CollusionSet(combo)
            for relay in range(1, cfg.U + 1):
                yield tset, relay
            yield tset, None


def _sets(users: int, depth: int, limit: int) -> int:
    """Number of sets of at most ``depth`` of ``users`` users, the sum of
    C(users, t) for t <= depth; once the running sum passes ``limit`` it is
    returned as it stands, so an over-budget plan is refused without
    summing every binomial."""
    total, sets = 0, 1  # sets = C(users, t)
    for t in range(depth + 1):
        total += sets
        if total > limit:
            break
        sets = sets * (users - t) // (t + 1)
    return total


def _planned_checks(cfg: HsaConfig, limit: int) -> int:
    """Number of checks ``_checks(cfg)`` yields, U + 1 per collusion set,
    returned as it stands once it passes ``limit``."""
    return (cfg.U + 1) * _sets(cfg.n_users, _depth(cfg), limit // (cfg.U + 1))


def _planned_nodes(cfg: HsaConfig, limit: int) -> int:
    """Number of sets the walks of ``_violations`` visit, returned as it
    stands once it passes ``limit``: the server's over all UV users, then
    each relay's over the UV - V users outside its cluster."""
    depth, outside = _depth(cfg), cfg.n_users - cfg.V
    server = _sets(cfg.n_users, depth, limit)
    if server > limit:
        return server
    return server + cfg.U * _sets(outside, min(depth, outside), (limit - server) // cfg.U)


def _stepped(table: list, j: int, q: int) -> list:
    """The rows of ``table`` after its nonzero row j, each reduced modulo
    row j and without the step's pivot column, which is zero in each now."""
    step = (_pivot_row(table[j], q),)
    p = step[0][0]
    rows = []
    for r in table[j + 1:]:
        row = _reduce(step, r, q)
        if row is r:  # unchanged: the parent's row, which stays as it is
            row = r[:p] + r[p + 1:]
        else:
            del row[p]
        rows.append(row)
    return rows


def _walk(
    table: list, rank: int, floor: int, depth: int, q: int, cluster: int = 0
) -> Iterator[tuple]:
    """Yield (members, observed rank, required rank) for each deficient set of
    at most ``depth`` of ``table``'s users, in walk order.

    The sets are walked as a prefix tree, users ascending, against one
    echelon basis of ``rank`` rows; ``table`` holds every user's row reduced
    modulo it, and ``members`` are indices into ``table``.  No basis is
    kept: each node carries its rank and the residuals of the users after
    its last member.  A residual is zero at every pivot, so a table keeps
    only the free columns, and a row of no columns is zero.  Adding user j
    raises the rank exactly when j's residual is nonzero.  A set's required
    rank is ``floor`` plus its size; with ``cluster`` set, the users fall in
    clusters of that many in order, and each cluster the set covers whole
    takes one off ``floor``, down to 0.

    Each set is decided in its parent's loop, the root before the walk
    starts.  A node with three or more levels below it tests each child j's
    residual with one ``any`` and descends into j when users follow it; j's
    table is one elimination step (``_stepped``) of the rows after j by that
    residual, which drops its pivot column, when the residual is nonzero.
    A node with one or two levels below it decides them with no step, from
    its rows each normalized once by ``_pivot_row`` (with one level left,
    or one row, a row has none to be compared with and is only tested for
    zero by one ``any``).  Child j raises the rank iff row j is nonzero,
    and its child k iff row k is nonzero and not parallel to row j, that
    is, iff their normalized rows differ.  So if the node is not deficient
    and its rows are nonzero and pairwise distinct, no set below it is;
    otherwise, under a child that is not deficient, only the leaves whose
    row is zero or parallel to the child's can be.  A set is decided only
    as the caller reads.
    """
    members: list[int] = []
    covered = [0] * (len(table) // cluster if cluster else 0)  # members per cluster

    def visit(rank: int, table: list, full: int, need: int) -> Iterator[tuple]:
        levels = depth - len(members)  # of sets below this node
        if levels < 3:
            if levels == 2 and len(table) > 1:
                pairs = map(_pivot_row, table, itertools.repeat(q))
                norms = [pair and tuple(pair[1]) for pair in pairs]
            else:
                norms = [tuple(row) if any(row) else None for row in table]
            if rank >= need and None not in norms and len(set(norms)) == len(norms):
                return
        size, first = len(members), members[-1] + 1 if members else 0
        for i, row in enumerate(table if levels >= 3 else norms):
            j = first + i
            child_full = full
            if cluster:
                c = j // cluster
                covered[c] += 1
                child_full += covered[c] == cluster
            child_need = max(floor - child_full, 0) + size + 1
            child_rank = rank + (any(row) if levels >= 3 else row is not None)
            if child_rank < child_need:
                yield (*members, j), child_rank, child_need
            if levels >= 3 and i + 1 < len(table):  # the child has users after it
                members.append(j)
                child_table = _stepped(table, i, q) if child_rank > rank else table[i + 1:]
                yield from visit(child_rank, child_table, child_full, child_need)
                members.pop()
            elif levels == 2:
                leaves = range(i + 1, len(norms))
                if child_rank >= child_need:  # a leaf raises the rank unless zero or parallel
                    leaves = [x for x in leaves if norms[x] in (None, row)]
                for x in leaves:
                    k = first + x
                    leaf_full = child_full + bool(cluster and covered[k // cluster] + 1 == cluster)
                    leaf_need = max(floor - leaf_full, 0) + size + 2
                    leaf_rank = child_rank + (norms[x] is not None and norms[x] != row)
                    if leaf_rank < leaf_need:
                        yield (*members, j, k), leaf_rank, leaf_need
            if cluster:
                covered[c] -= 1

    if rank < floor:
        yield (), rank, floor
    if depth:  # at depth 0 the root is the only set
        yield from visit(rank, table, 0, floor)


def _violations(scheme: CoefficientScheme) -> Iterator[RankViolation]:
    """Yield a RankViolation for each failing check: the server's walk, then
    relay 1's to relay U's.

    Each observer's checks are one ``_walk`` against one basis.  The
    server's basis spans the sums of clusters 1..U-1, and it walks all UV
    users with required rank kept + |C|, the full clusters counted as they
    are added.  That basis and the colluders span the rows of
    ``server_condition_matrix`` only because the coefficient rows sum to
    zero: a covered cluster's sum lies in the colluders' span, and the last
    uncovered cluster's sum is minus the others.  Relay u's basis spans
    cluster u, whose members never raise its rank when they collude, so its
    check at C gives the same result as at C less cluster u: it walks only
    the UV - V users outside cluster u, with required rank V + |D|, which is
    not the basis's size when cluster u's rows are dependent.  Each
    deficient D yields one violation for every C = D + S with S a subset of
    cluster u and |C| <= T, all with D's ranks.  The server goes first, so
    a walk that reaches the largest sets gets there before a relay lists
    the own-cluster supersets of a small one.  Each walk starts from its
    users' rows reduced modulo its basis, the span of its condition matrix
    at the empty set, without the basis's pivot columns, where every
    residual is zero.  The depth refusal, the rows and every walk's
    starting table are set up on the call, but a set is visited only as
    the caller reads, so a pass/fail caller stops at the
    first item: ``next(_violations(scheme), None) is None``.
    """
    cfg = scheme.cfg
    depth = _depth(cfg)
    if depth > _MAX_WALK_DEPTH:
        raise AuditBudgetExceeded(
            f"audit needs collusion sets of {depth} users, more than {_MAX_WALK_DEPTH}"
        )
    q, U, V, users = scheme.field.q, cfg.U, cfg.V, cfg.users()
    rows = [scheme.coefficient_row(*user) for user in users]
    empty = CollusionSet(())

    def start(spanned: FqMatrix, walked: list) -> tuple[list, int]:
        basis = _span(spanned.row_list(), q)
        pivots = {p for p, _ in basis}
        free = [i for i in range(scheme.H.cols) if i not in pivots]  # the residuals' columns
        residuals = (_reduce(basis, row, q) for row in walked)
        return [[r[i] for i in free] for r in residuals], len(basis)

    server = _walk(*start(server_condition_matrix(scheme, empty), rows), U - 1, depth, q, V)
    relays = []
    for u in range(1, U + 1):
        lo, hi = (u - 1) * V, u * V
        table, rank = start(relay_condition_matrix(scheme, u, empty), rows[:lo] + rows[hi:])
        relays.append((u, lo, _walk(table, rank, V, min(depth, len(table)), q)))

    def violations() -> Iterator[RankViolation]:
        for members, observed, required in server:
            yield RankViolation(None, CollusionSet(users[j] for j in members), observed, required)
        for u, lo, walk in relays:
            own, outside = users[lo:lo + V], users[:lo] + users[lo + V:]
            for members, observed, required in walk:
                split = sum(j < lo for j in members)
                before = tuple(outside[j] for j in members[:split])
                after = tuple(outside[j] for j in members[split:])
                for t in range(min(V, depth - len(members)) + 1):
                    for extra in itertools.combinations(own, t):
                        tset = CollusionSet(before + extra + after)
                        yield RankViolation(u, tset, observed, required)

    return violations()


def audit(scheme: CoefficientScheme, budget: int = DEFAULT_RANK_BUDGET) -> AuditReport:
    """Exhaustive rank audit over every collusion set of size at most T.

    Reports every violation ``_violations`` yields in a canonical order:
    relay violations by relay id, then server ones, each group by member
    tuple, and counts the (U + 1) checks of every collusion set as
    ``checks_performed``.  The walk needs rows that sum to zero, so a
    scheme without that raises CorrectnessViolation, and one whose walks
    would visit more than ``budget`` sets raises AuditBudgetExceeded,
    before anything is enumerated.
    """
    _require_zero_row_sum(scheme.H)
    cfg = scheme.cfg
    if _planned_nodes(cfg, budget) > budget:
        raise AuditBudgetExceeded(f"audit needs more than the budget of {budget} walk nodes")
    # the server walks every collusion set, so there are at most budget of them
    checks = _planned_checks(cfg, (cfg.U + 1) * budget)
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
    server; ``tuples_enumerated`` is q^(UV + n), the number of (w, N) tuples
    the verdict is exact over.  A failing check's ``witness`` is (c, a, b,
    N_abc, N_c, N_ac, N_bc) for the all-zero cell, each count q^(UV + n - r)
    for its rank r (see the module docstring), and None otherwise."""

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


def exact_independence_check(
    scheme: CoefficientScheme, tset: CollusionSet, relay: int | None = None
) -> IndependenceVerdict:
    """Decide a definitional security statement exactly (L = 1).

    relay u (``relay=u``): are relay u's received messages independent of
    the full input set, given the colluders' inputs and masks?
    server (``relay=None``): are the relay-to-server messages independent of
    the input set, given the total input sum and the colluders' inputs and
    masks?

    The check holds iff its four ranks, read off its condition matrix by
    the formulas of the module docstring, give zero conditional mutual
    information: two ``fields._span`` calls, however large q^(UV + n).  A
    failing check's witness is the all-zero cell.  Exact integers only.
    """
    q, m, k = scheme.field.q, scheme.cfg.n_users, len(tset)
    if relay is None:
        rows = server_condition_matrix(scheme, tset).row_list()
    else:
        rows = relay_condition_matrix(scheme, relay, tset).row_list()
    colluders = _span(rows[len(rows) - k:], q)  # a basis of h_C
    r_c, added = k + len(colluders), len(rows) - k  # rk[C], rk[A;C] - rk[C]
    if relay is None:
        g = scheme.H.column_sums()
        r_c += k < m
        added += any(_reduce(colluders, g, q))
        rows.append(g)
    r_abc, r_ac, r_bc = m + len(_span(rows, q)), r_c + added, m + len(colluders)
    tuples = q ** (m + scheme.n_source)
    if r_ac + r_bc == r_abc + r_c:
        return IndependenceVerdict(True, relay, tset, tuples)
    cell = (
        ((0,) if relay is None else ()) + ((0, 0),) * k,  # sum, then (w, z) per colluder
        (0,) * (scheme.cfg.U if relay is None else scheme.cfg.V),  # one value per message
        (0,) * m,
    )
    counts = tuple(tuples // q ** r for r in (r_abc, r_c, r_ac, r_bc))  # N_abc, N_c, N_ac, N_bc
    return IndependenceVerdict(False, relay, tset, tuples, witness=cell + counts)


# Each verdict writes q^(UV + n) out in full, and Python 3.11 and later write
# no integer of more than 4,300 digits, so the sweep refuses a larger space.
_MAX_TUPLES = 10**4300


def exact_sweep(
    scheme: CoefficientScheme, budget: int = DEFAULT_RANK_BUDGET
) -> list[IndependenceVerdict]:
    """The exact oracle on every check the rank audit makes, in the audit's order.

    Before any check is decided, AuditBudgetExceeded is raised when the
    checks number more than ``budget``, or when q^(UV + n), each verdict's
    ``tuples_enumerated``, reaches 10^4300.
    """
    cfg, q = scheme.cfg, scheme.field.q
    if _planned_checks(cfg, budget) > budget:
        raise AuditBudgetExceeded(f"exact sweep needs more than the budget of {budget} checks")
    e = cfg.n_users + scheme.n_source
    # q^e >= 2^((b - 1) e) for q of b bits: a power too large to take is refused unevaluated
    if e * (q.bit_length() - 1) >= _MAX_TUPLES.bit_length() or q**e >= _MAX_TUPLES:
        raise AuditBudgetExceeded(
            f"exact sweep verdicts would count {q}^{e} tuples, more than 4300 digits"
        )
    return [exact_independence_check(scheme, tset, relay) for tset, relay in _checks(cfg)]


def infeasibility_attack(scheme: CoefficientScheme, transcript) -> tuple[int, ...]:
    """Relay 1 plus all inter-cluster colluders recover cluster 1's input sum
    from ``transcript``, a ``protocol.RoundTranscript`` of ``scheme``.

    The colluders' inputs and masks reproduce every other relay's message;
    adding relay 1's own message yields the total input sum, and
    subtracting the colluders' known inputs leaves cluster 1's sum.  The
    result is checked against ground truth before returning: this attack
    is total against any zero-row-sum linear scheme.
    """
    cfg = scheme.cfg
    q = scheme.field.q
    W = transcript.inputs.W
    colluders = [user for user in cfg.users() if user[0] != 1]
    masks = [k.individual for k in transcript.keys]

    # column-wise, as in run_round: per symbol position, relay 1's message
    # plus the colluders' messages W + Z, less their known inputs W
    messages = [tuple(w + z[c] for w, z in zip(W[c], masks)) for c in colluders]
    recovered = tuple(
        (y + sum(sent) - sum(known)) % q
        for y, sent, known in zip(
            transcript.Y[1], zip(*messages), zip(*(W[c] for c in colluders))
        )
    )

    truth = tuple(sum(col) % q for col in zip(*(W[(1, v)] for v in range(1, cfg.V + 1))))
    if recovered != truth:
        raise CorrectnessViolation(
            "attack reconstruction mismatch; transcript does not come from a "
            "zero-row-sum linear scheme"
        )
    return tuple(recovered)
