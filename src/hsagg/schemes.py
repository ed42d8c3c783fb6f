"""Construction, persistence and validation of key-coefficient schemes.

A scheme is a UV x n coefficient matrix H over a prime field together with
an assignment of matrix rows to users; the field and n are read from H.
Every user's mask is the inner product of its row with the pool of n
i.i.d. source symbols; the rows sum to the zero vector so the masks cancel
during aggregation.

The optimal construction takes H as a Vandermonde matrix on UV - 1
geometrically spaced nodes (x_0 = 0, x_{i+1} - x_i = gamma^{i+1}) plus a
parity row, searched over (q, gamma) until every n x n submatrix is
certifiably nonsingular.  The search is deterministic: smallest valid q
first, then smallest valid gamma; the nodes are recomputed from gamma.
A gamma and its inverse get the same verdict, so the search certifies one
of each pair, and it skips fields too small for UV - 1 distinct nodes.
Each candidate's certificate evaluates the C(UV - 1, n - 1) parity-row
minors from the nodes' power sums: a depth-first walk under a leaf budget
refutes most failing candidates early, and a level-by-level pass over the
same recurrence decides the rest.  Configurations whose certificate needs
too many minors or moment updates are refused before the search.
"""

from __future__ import annotations

import json
from collections import namedtuple
from itertools import accumulate
from math import comb

from .errors import (
    AuditBudgetExceeded,
    ConfigurationError,
    CorrectnessViolation,
    InfeasibleConfiguration,
    SchemeFormatError,
)
from .fields import (
    FieldSpec,
    FqMatrix,
    extended_vandermonde,
    extended_vandermonde_subdet,  # noqa: F401  bench/tracer.py wraps this name here
    json_int,
    next_prime,
)
from .rates import HsaConfig, optimal_source_rate

__all__ = [
    "KIND_EXTENDED_VANDERMONDE",
    "KIND_BASELINE",
    "KIND_EXTERNAL",
    "SchemeParams",
    "CoefficientScheme",
    "KeyMaterial",
    "build_elements",
    "search_gamma",
    "build_scheme",
    "build_baseline",
    "derive_keys",
    "import_scheme",
    "scheme_to_json",
]

KIND_EXTENDED_VANDERMONDE = "extended_vandermonde"
KIND_BASELINE = "baseline"
KIND_EXTERNAL = "external"
_KINDS = (KIND_EXTENDED_VANDERMONDE, KIND_BASELINE, KIND_EXTERNAL)

# The gamma search provably succeeds for large enough q; this cap bounds
# the prime search, and a search that reaches it is refused as over budget.
_PRIME_SEARCH_LIMIT = 10**6
# Each (q, gamma) candidate certifies C(UV - 1, n - 1) parity-row minors; a
# configuration needing more is refused before the search starts.
_MINOR_LIMIT = 10**6
# The minors are the leaves of a tree whose nodes each update a vector of
# moments; a passing candidate visits every node.  A configuration whose
# tree needs more moment updates than this is refused as well: at about
# 30 ns per update, one such candidate takes over a minute.
_UPDATE_LIMIT = 2 * 10**9


class SchemeParams(namedtuple("SchemeParams", "cfg gamma")):
    """What H cannot say about a scheme: its HsaConfig and node spacing.

    gamma spaces the extended-Vandermonde nodes, which ``build_elements``
    recomputes from it; other kinds keep what their documents declare, an
    int or None.  The field and the width n live in H.
    """

    __slots__ = ()


class CoefficientScheme(
    namedtuple(
        "CoefficientScheme",
        "params H row_index kind insecure_by_construction",
        defaults=(False,),
    )
):
    """A coefficient matrix H (an FqMatrix) plus the user -> row assignment
    ``row_index``, a dict from (u, v) to a row of H."""

    __slots__ = ()

    @property
    def cfg(self) -> HsaConfig:
        return self.params.cfg

    @property
    def field(self) -> FieldSpec:
        return self.H.field

    @property
    def n_source(self) -> int:
        return self.H.cols

    def coefficient_row(self, u: int, v: int) -> tuple[int, ...]:
        return self.H.row(self.row_index[(u, v)])

    def to_json_obj(self) -> dict:
        cfg, gamma = self.cfg, self.params.gamma
        vandermonde = self.kind == KIND_EXTENDED_VANDERMONDE
        nodes = build_elements(gamma, cfg.n_users - 1, self.field) if vandermonde else ()
        obj = {
            "U": cfg.U,
            "V": cfg.V,
            "T": cfg.T,
            "q": self.field.q,
            "gamma": gamma,
            "kind": self.kind,
            "elements": list(nodes),
            "H": self.H.to_json_obj(),
            "row_index": [
                [f"{u},{v}", self.row_index[(u, v)]] for (u, v) in cfg.users()
            ],
        }
        if self.insecure_by_construction:
            obj["insecure_by_construction"] = True
        return obj


class KeyMaterial(namedtuple("KeyMaterial", "source individual")):
    """One source key vector and the per-user masks derived from it:
    ``individual`` maps each user (u, v) to its mask."""

    __slots__ = ()


def build_elements(gamma: int, count: int, field: FieldSpec) -> tuple[int, ...]:
    """Nodes x_0 = 0, x_i = gamma + gamma^2 + ... + gamma^i reduced mod q.

    Modular wraparound can collide nodes; callers reject such gammas.
    """
    if count < 1:
        raise ValueError(f"need at least one node, got {count}")
    q = field.q
    xs = [0]
    step = 1
    for i in range(1, count):
        step = step * gamma % q
        xs.append((xs[-1] + step) % q)
    return tuple(xs)


def _parity_submatrices_nonsingular(field: FieldSpec, xs: tuple[int, ...], n: int) -> bool:
    """Whether every n x n parity-row submatrix of extended_vandermonde(xs, n)
    is nonsingular; the nodes xs must be distinct.

    Submatrices avoiding the parity row are Vandermonde minors, nonsingular
    whenever the nodes are distinct, so only parity-row submatrices need
    work.  The one on the nodes I (|I| = n - 1) is +-V(x_I) * S(I) with
    V(x_I) != 0 and S(I) = sum_i P_I(x_i), P_I(x) = prod_{j in I} (x - x_j);
    terms with i in I vanish, so the sum may run over all nodes.  I is
    chosen in ascending order, one pick per level of a tree whose nodes
    carry the moments M_t(P) = sum_i x_i^t * P(x_i) of the chosen prefix's
    polynomial P.  Appending node j maps them to
    M_t(P * (x - x_j)) = M_{t+1}(P) - x_j * M_t(P), so the root holds the
    power sums p_t = M_t(1) for t < n, each level drops one moment, and a
    leaf S(I) = M_0(P_I) costs one multiply.

    Two walks share that tree.  A depth-first one (``_refute``) looks for a
    zero leaf, which a failing node set shows after about q leaves; a set
    that survives 8 q leaves, or half the tree if that is fewer, is decided
    by ``_all_minors_nonzero``, which evaluates every leaf level by level.
    With n = 2 the tree is the root and one level of leaves, which
    ``_all_minors_nonzero`` evaluates at once, with no refutation first.
    """
    q, m = field.q, len(xs)
    sums, powers = [], [1] * m
    for _ in range(n):
        sums.append(sum(powers) % q)
        powers = [p * x % q for p, x in zip(powers, xs)]
    if n == 1:
        return sums[0] != 0
    zero = _refute(q, xs, sums, min(8 * q, comb(m, n - 1) // 2)) if n > 2 else None
    return not zero if zero is not None else _all_minors_nonzero(q, xs, sums)


def _refute(q: int, xs: tuple[int, ...], sums: list[int], budget: int) -> bool | None:
    """Depth-first search of the moment tree for a zero leaf (n >= 3).

    True when one turns up, False when the tree holds none, and None once
    more than ``budget`` leaves have passed.  The walk keeps one frame per
    level on a stack, so its depth is bounded by memory, not by the
    recursion limit.  A frame with three moments makes the last two picks
    itself, on scalars, stopping at the first zero leaf.
    """
    m = len(xs)
    stack = [(sums, iter(range(m - len(sums) + 2)))]
    while stack:
        moments, picks = stack[-1]
        if len(moments) > 3:
            for j in picks:
                x = xs[j]
                child = [(moments[t + 1] - x * moments[t]) % q for t in range(len(moments) - 1)]
                stack.append((child, iter(range(j + 1, m - len(child) + 2))))
                break
            else:
                stack.pop()
            continue
        stack.pop()
        a0, a1, a2 = moments
        for j in picks:
            x = xs[j]
            m0, m1 = (a1 - x * a0) % q, (a2 - x * a1) % q
            for y in xs[j + 1 :]:
                if (m1 - y * m0) % q == 0:
                    return True
            budget -= m - 1 - j
            if budget < 0:
                return None
    return False


def _all_minors_nonzero(q: int, xs: tuple[int, ...], sums: list[int]) -> bool:
    """Whether every leaf of the moment tree is nonzero (n >= 2), level by level.

    The tree is split by its first pick i, and each subtree is evaluated
    one level at a time.  A level stores its moments as columns, with its
    nodes ordered by their last pick.  The next pick j may follow exactly
    the nodes whose last pick is below j, a prefix of the level, so each
    column of the next level is one list comprehension over the picks and
    their prefixes, and laid out pick after pick its nodes are again
    ordered by last pick.  ``counts`` holds the length of that prefix for
    each allowed pick.  The last level holds one column, the subtree's
    leaves, and a zero among them ends the pass.
    """
    m, depth = len(xs), len(sums) - 1
    for i in range(m - depth + 1):
        x = xs[i]
        columns = [[(sums[t + 1] - x * sums[t]) % q] for t in range(depth)]
        picks = range(i + 1, m - depth + 2)
        counts = [1] * len(picks)
        while len(columns) > 1:
            steps = [(xs[j], k) for j, k in zip(picks, counts)]
            columns = [
                [(b - x * a) % q for x, k in steps for a, b in zip(low[:k], high)]
                for low, high in zip(columns, columns[1:])
            ]
            picks = range(picks.start + 1, picks.stop + 1)
            counts = list(accumulate(counts))
        if 0 in columns[0]:
            return False
    return True


def search_gamma(cfg: HsaConfig, field: FieldSpec) -> int | None:
    """Smallest gamma in [2, q-1] giving distinct nodes and a fully MDS matrix.

    Returns None when no gamma works in this field, including the
    pigeonhole case UV - 1 >= q: the nodes are distinct exactly when
    gamma^1..gamma^(UV-1) are, and F_q^* has only q - 1 elements.

    gamma and its inverse get the same verdict, so each inverse pair is
    certified once.  The nodes x_i = gamma (gamma^i - 1) / (gamma - 1) of
    1/gamma are x'_i = gamma^-m (x_(m-1) - x_(m-1-i)) with m = UV - 1, an
    affine image of gamma's nodes in reverse order.  An affine map of the
    nodes multiplies every row of H, the parity row included, by one
    invertible matrix on the right, and the reversal permutes the
    Vandermonde rows; neither changes which nodes collide or whether every
    n x n submatrix is nonsingular.  So a gamma whose inverse lies in
    [2, gamma) is skipped: that inverse was certified first and failed.
    The skip rests on the MDS verdict alone.  A predicate that also checks
    the audit's conditions may reuse the inverse's MDS verdict but must run
    its own walk, which the inverse's nodes need not pass.
    """
    n = optimal_source_rate(cfg)
    m = cfg.n_users - 1
    q = field.q
    if m >= q:
        return None
    for gamma in range(2, q):
        if pow(gamma, -1, q) < gamma:
            continue
        xs = build_elements(gamma, m, field)
        if len(set(xs)) != len(xs):
            continue
        if _parity_submatrices_nonsingular(field, xs, n):
            return gamma
    return None


def _first_prime(q_hint: int | None, default: int) -> int:
    """Smallest prime >= q_hint, or >= default without a hint."""
    if q_hint is not None and q_hint < 2:
        raise ConfigurationError(f"q must be at least 2, got {q_hint}")
    try:
        return next_prime(q_hint if q_hint is not None else default)
    except ValueError as exc:  # the hint lies beyond the primality test's bound
        raise ConfigurationError(str(exc)) from exc


def _extended_row_index(cfg: HsaConfig) -> dict[tuple[int, int], int]:
    # Parity row 0 goes to the last user (U, V), which cfg.users() lists
    # last; everyone else takes the Vandermonde rows 1..UV-1 in that order.
    return {user: (i + 1) % cfg.n_users for i, user in enumerate(cfg.users())}


def build_scheme(cfg: HsaConfig, q_hint: int | None = None) -> CoefficientScheme:
    """Deterministically build the optimal scheme for a feasible configuration.

    The prime search starts at q_hint (rounded up to a prime) or at the
    smallest prime >= UV + 1, advancing to the next prime whenever no gamma
    certifies in the current field.  Raises AuditBudgetExceeded when one
    certificate needs more than _MINOR_LIMIT minors or _UPDATE_LIMIT moment
    updates, or no (q, gamma) with q <= _PRIME_SEARCH_LIMIT certifies;
    ``optimal_source_rate`` raises InfeasibleConfiguration outside the region.
    """
    n = optimal_source_rate(cfg)
    m, r = cfg.n_users - 1, n - 1
    minors = 1  # C(m, i) grows with i up to min(r, m - r): stop once past the limit
    for i in range(min(r, m - r)):
        minors = minors * (m - i) // (i + 1)
        if minors > _MINOR_LIMIT:
            raise AuditBudgetExceeded(
                f"the MDS certificate needs C({m}, {r}) > {_MINOR_LIMIT} minors per (q, gamma)"
            )
    # The tree has C(m - r + d, d) nodes of n - d moments at each depth d = 1..r.
    nodes, updates = 1, 0
    for d in range(1, r + 1):
        nodes = nodes * (m - r + d) // d
        updates += nodes * (n - d)
        if updates > _UPDATE_LIMIT:
            raise AuditBudgetExceeded(
                f"the MDS certificate needs more than {_UPDATE_LIMIT} moment updates per (q, gamma)"
            )
    q = _first_prime(q_hint, cfg.n_users + 1)
    if q > _PRIME_SEARCH_LIMIT:
        raise AuditBudgetExceeded(
            f"the starting prime {q} lies above the prime search limit {_PRIME_SEARCH_LIMIT}"
        )
    while q <= _PRIME_SEARCH_LIMIT:
        field = FieldSpec.for_prime(q)
        gamma = search_gamma(cfg, field)
        if gamma is not None:
            H = extended_vandermonde(field, build_elements(gamma, cfg.n_users - 1, field), n)
            params = SchemeParams(cfg, gamma)
            return CoefficientScheme(params, H, _extended_row_index(cfg), KIND_EXTENDED_VANDERMONDE)
        q = next_prime(q + 1)
    raise AuditBudgetExceeded(
        f"no certifying (q, gamma) with q up to the prime search limit {_PRIME_SEARCH_LIMIT}"
    )


def _baseline_matrix(field: FieldSpec, n_users: int) -> FqMatrix:
    rows = [[1 if i == j else 0 for j in range(n_users - 1)] for i in range(n_users - 1)]
    rows.append([-1] * (n_users - 1))
    return FqMatrix.from_rows(field, rows)


def build_baseline(
    cfg: HsaConfig, q_hint: int | None = None, force_infeasible: bool = False
) -> CoefficientScheme:
    """Naive per-user keying: identity block plus an all-(-1) parity row.

    Uses UV - 1 source symbols.  With force_infeasible an out-of-region
    configuration is still materialized (for attack demos) and the scheme is
    labelled insecure_by_construction.
    """
    infeasible = not cfg.feasible
    if infeasible and not force_infeasible:
        raise InfeasibleConfiguration(cfg.U, cfg.V, cfg.T)
    # Any prime works for this construction; default to the smallest odd one.
    field = FieldSpec.for_prime(_first_prime(q_hint, 3))
    H = _baseline_matrix(field, cfg.n_users)
    row_index = {user: i for i, user in enumerate(cfg.users())}
    return CoefficientScheme(
        SchemeParams(cfg, None), H, row_index, KIND_BASELINE, insecure_by_construction=infeasible
    )


def derive_keys(scheme: CoefficientScheme, source) -> KeyMaterial:
    """Per-user masks as exact inner products of coefficient rows with source."""
    source = tuple(int(x) % scheme.field.q for x in source)
    if len(source) != scheme.n_source:
        raise ValueError(
            f"source vector has length {len(source)}, scheme needs {scheme.n_source}"
        )
    field = scheme.field
    individual = {
        user: field.dot(scheme.coefficient_row(*user), source) for user in scheme.cfg.users()
    }
    return KeyMaterial(source, individual)


def _parse_user_label(label: str) -> tuple[int, int]:
    """(u, v) from the canonical label "u,v"; signs, spaces and leading zeros are rejected."""
    try:
        u, v = label.split(",")
        user = int(u), int(v)
    except (ValueError, AttributeError) as exc:
        raise SchemeFormatError(f"bad user label {label!r}, expected 'u,v'") from exc
    if label != f"{user[0]},{user[1]}":
        raise SchemeFormatError(f"bad user label {label!r}, expected 'u,v'")
    return user


def _require_zero_row_sum(H: FqMatrix) -> None:
    """Raise CorrectnessViolation unless every column of H sums to zero."""
    if any(H.column_sums()):
        raise CorrectnessViolation(
            "coefficient rows do not sum to zero; the masks cannot cancel"
        )


def import_scheme(obj: dict) -> CoefficientScheme:
    """Validate a scheme document and return the in-memory scheme.

    Structural problems raise SchemeFormatError; a matrix whose rows do not
    sum to zero can never reproduce the input sum and raises
    CorrectnessViolation.
    """
    if not isinstance(obj, dict):
        raise SchemeFormatError("scheme document must be a JSON object")
    try:
        U, V, T, q = (json_int(obj[key], key) for key in ("U", "V", "T", "q"))
        h_obj = obj["H"]
        row_entries = obj["row_index"]
    except (KeyError, ValueError) as exc:
        raise SchemeFormatError(f"scheme document missing or malformed field: {exc}") from exc

    try:
        cfg = HsaConfig(U, V, T)
        field = FieldSpec.for_prime(q)
        H = FqMatrix.from_json_obj(h_obj, field)
    except ValueError as exc:
        raise SchemeFormatError(str(exc)) from exc

    if H.rows != cfg.n_users:
        raise SchemeFormatError(f"H has {H.rows} rows, expected UV = {cfg.n_users}")
    if H.cols < 1:
        raise SchemeFormatError("H must have at least one column")

    if not isinstance(row_entries, list) or len(row_entries) != cfg.n_users:
        raise SchemeFormatError(f"row_index must list all {cfg.n_users} users")
    row_index: dict[tuple[int, int], int] = {}
    for entry in row_entries:
        try:
            label, row = entry
            row = json_int(row, "row")
        except (TypeError, ValueError) as exc:
            raise SchemeFormatError(f"bad row_index entry {entry!r}") from exc
        user = _parse_user_label(label)
        if user in row_index:
            raise SchemeFormatError(f"duplicate row_index entry for user {user}")
        row_index[user] = row
    if set(row_index) != set(cfg.users()):
        raise SchemeFormatError("row_index users do not match the U x V grid")
    if sorted(row_index.values()) != list(range(cfg.n_users)):
        raise SchemeFormatError("row_index rows must be a permutation of 0..UV-1")

    _require_zero_row_sum(H)

    kind = obj.get("kind", KIND_EXTERNAL)
    if kind not in _KINDS:
        raise SchemeFormatError(f"unknown scheme kind {kind!r}")

    gamma = obj.get("gamma")
    if gamma is not None and type(gamma) is not int:
        raise SchemeFormatError(f"bad gamma value {gamma!r}")
    if kind != KIND_EXTENDED_VANDERMONDE and obj.get("elements", []) != []:
        raise SchemeFormatError(f"{kind} schemes carry no elements")

    if kind == KIND_EXTENDED_VANDERMONDE:
        if gamma is None:
            raise SchemeFormatError("extended_vandermonde schemes must declare gamma")
        elements_raw = obj.get("elements") or []
        if not isinstance(elements_raw, list) or any(type(x) is not int for x in elements_raw):
            raise SchemeFormatError("elements must be a JSON array of integers")
        elements = tuple(elements_raw)
        if len(elements) != cfg.n_users - 1 or len(set(elements)) != len(elements):
            raise SchemeFormatError("extended_vandermonde schemes need UV-1 distinct nodes")
        if elements != build_elements(gamma, cfg.n_users - 1, field):
            raise SchemeFormatError("nodes do not follow the declared gamma spacing")
        if H.cols > len(elements):
            raise SchemeFormatError(
                f"H has {H.cols} columns, more than the UV-1 = {len(elements)} nodes"
            )
        if H != extended_vandermonde(field, elements, H.cols):
            raise SchemeFormatError("H does not match the declared node construction")
        if row_index != _extended_row_index(cfg):
            raise SchemeFormatError("extended_vandermonde schemes use the canonical row order")
    elif kind == KIND_BASELINE:
        if gamma is not None:
            raise SchemeFormatError("baseline schemes carry no gamma")
        if H != _baseline_matrix(field, cfg.n_users):
            raise SchemeFormatError("H does not match the baseline construction")
        if row_index != {user: i for i, user in enumerate(cfg.users())}:
            raise SchemeFormatError("baseline schemes use the natural row order")

    insecure = obj.get("insecure_by_construction", False)
    if type(insecure) is not bool:
        raise SchemeFormatError("insecure_by_construction must be a JSON boolean")
    return CoefficientScheme(
        SchemeParams(cfg, gamma), H, row_index, kind, insecure_by_construction=insecure
    )


def scheme_to_json(scheme: CoefficientScheme, pretty: bool = False) -> str:
    """Canonical serialization; identical schemes yield identical bytes."""
    return json.dumps(scheme.to_json_obj(), sort_keys=True, indent=2 if pretty else None) + "\n"
