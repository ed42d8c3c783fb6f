"""Exact linear algebra over prime fields.

Residues are canonical integers in ``[0, q)``, matrices are immutable, and
arithmetic is exact, so there are no tolerance questions anywhere.
``_reduce`` is the package's one row reduction: it reduces a row modulo an
echelon basis.  ``_extend`` grows such a basis by the residue, and
``FqMatrix.rank`` and ``FqMatrix.det`` read the rank and the determinant off
one.  The security audit's walk over collusion sets reduces every row modulo
its starting bases with it, and adds each colluder as one more reduction
step of those residuals.  Apart from ``_extend``, which appends to the basis
it is given, everything here is a pure function of its arguments.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

__all__ = [
    "FieldSpec",
    "FqMatrix",
    "is_prime",
    "next_prime",
    "json_int",
    "vandermonde",
    "extended_vandermonde",
    "vandermonde_det",
    "elementary_symmetric",
    "generalized_vandermonde_det",
    "extended_vandermonde_subdet",
]

# The first 13 primes are a deterministic Miller-Rabin witness set below
# psi_13, the smallest strong pseudoprime to all of them (Sorenson and
# Webster, 2015).  The first 12 alone are fooled by psi_12 =
# 318665857834031151167461 = 399165290221 * 798330580441.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; ValueError at n >= psi_13."""
    if n >= _MR_LIMIT:
        raise ValueError(f"primality is decided only below {_MR_LIMIT}, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    k = max(2, n)
    while not is_prime(k):
        k += 1
    return k


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer (booleans are not); ValueError otherwise."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {type(value).__name__}")
    return value


class FieldSpec(namedtuple("FieldSpec", "q")):
    """The prime field F_q."""

    __slots__ = ()

    def __new__(cls, q: int) -> "FieldSpec":
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        return super().__new__(cls, q)

    @classmethod
    def for_prime(cls, q: int) -> "FieldSpec":
        return cls(q)

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        if len(xs) != len(ys):
            raise ValueError(f"dot product length mismatch: {len(xs)} vs {len(ys)}")
        return sum(x * y for x, y in zip(xs, ys)) % self.q


class FqMatrix(namedtuple("FqMatrix", "rows cols entries field")):
    """Immutable dense matrix over F_q with row-major entries.

    ``entries`` is a tuple of ints and ``field`` a FieldSpec.  Instances keep
    a ``__dict__`` (no ``__slots__``) so that callers can tag a matrix with an
    attribute of their own; the fields themselves cannot be assigned.
    """

    def __new__(
        cls, rows: int, cols: int, entries: tuple[int, ...], field: FieldSpec
    ) -> "FqMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        q = field.q
        if any(not 0 <= e < q for e in entries):
            raise ValueError(f"entries must be canonical residues in [0, {q})")
        return super().__new__(cls, rows, cols, entries, field)

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: Sequence[Sequence[int]]) -> "FqMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(int(x) % field.q for r in rows for x in r)
        return cls(nrows, ncols, flat, field)

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def row_list(self) -> list[tuple[int, ...]]:
        return [self.row(i) for i in range(self.rows)]

    def take_rows(self, indices: Sequence[int]) -> "FqMatrix":
        """Submatrix of the given rows, in the given order (all columns)."""
        return FqMatrix.from_rows(self.field, [self.row(i) for i in indices])

    def column_sums(self) -> tuple[int, ...]:
        q = self.field.q
        return tuple(
            sum(self.entry(i, j) for i in range(self.rows)) % q for j in range(self.cols)
        )

    def rank(self) -> int:
        """Row rank: the size of an echelon basis of the rows."""
        return len(_span(self.row_list(), self.field.q))

    def det(self) -> int:
        """Exact determinant; the empty 0x0 matrix has determinant 1.

        The product of the pivots of an echelon basis of the rows, signed by
        the parity of the permutation taking each row to its pivot column.
        """
        if self.rows != self.cols:
            raise ValueError(f"determinant of non-square {self.rows}x{self.cols} matrix")
        q = self.field.q
        basis: list = []
        product = 1
        for row in self.row_list():
            pivot = _extend(basis, row, q)
            if not pivot:
                return 0
            product = product * pivot % q
        cols = [p for p, _ in basis]
        inversions = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
        return -product % q if inversions % 2 else product

    def to_json_obj(self) -> dict:
        return {
            "q": self.field.q,
            "rows": self.rows,
            "cols": self.cols,
            "data": list(self.entries),
        }

    @classmethod
    def from_json_obj(cls, obj: dict, field: FieldSpec | None = None) -> "FqMatrix":
        try:
            q, rows, cols, data = obj["q"], obj["rows"], obj["cols"], obj["data"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"matrix document missing field: {exc}") from exc
        q, rows, cols = json_int(q, "q"), json_int(rows, "rows"), json_int(cols, "cols")
        if not isinstance(data, list):
            raise ValueError(f"matrix data must be a JSON array, got {type(data).__name__}")
        entries = tuple(json_int(x, "matrix entry") for x in data)
        if field is None:
            field = FieldSpec.for_prime(q)
        elif field.q != q:
            raise ValueError(f"matrix modulus {q} does not match field modulus {field.q}")
        return cls(rows, cols, entries, field)


def _reduce(basis, row, q: int):
    """``row`` less its components along the echelon ``basis``.

    ``basis`` holds (pivot, row) pairs in insertion order, each row 1 at its
    pivot and 0 at every earlier pivot, so reducing in that order leaves a
    residue that is 0 at every pivot, and 0 throughout exactly when ``row``
    lies in the span.  ``row`` itself is returned when no step changes it.
    """
    for p, b in basis:
        f = row[p]
        if f:
            row = [(x - f * y) % q for x, y in zip(row, b)]
    return row


def _pivot_row(row, q: int):
    """(p, ``row`` scaled to 1 at p) for its first nonzero entry p, or None
    when ``row`` is zero: the pair an echelon basis holds."""
    lead = next(filter(None, row), 0)
    if not lead:
        return None
    inv = pow(lead, -1, q)
    return row.index(lead), [x * inv % q for x in row]


def _extend(basis: list, row, q: int) -> int:
    """Append ``row``'s residue modulo the echelon ``basis`` to it, as a
    ``_pivot_row``, unless that residue is zero.  Returns the pivot value the
    residue was scaled by, or 0 when ``row`` is dependent and left out.
    """
    if len(basis) == len(row):
        return 0
    r = _reduce(basis, row, q)
    pair = _pivot_row(r, q)
    if pair is None:
        return 0
    basis.append(pair)
    return r[pair[0]]


def _span(rows, q: int) -> list:
    """An echelon basis of the span of ``rows``."""
    basis: list = []
    for row in rows:
        _extend(basis, row, q)
    return basis


def vandermonde(field: FieldSpec, xs: Sequence[int], n: int) -> FqMatrix:
    """|xs| x n matrix whose i-th row is (1, x_i, x_i^2, ..., x_i^(n-1))."""
    if len(xs) < n:
        raise ValueError(f"need at least {n} nodes, got {len(xs)}")
    q = field.q
    return FqMatrix.from_rows(field, [[pow(x % q, j, q) for j in range(n)] for x in xs])


def extended_vandermonde(field: FieldSpec, xs: Sequence[int], n: int) -> FqMatrix:
    """Vandermonde matrix on xs prefixed with a parity row.

    Row 0 is the negated sum of the Vandermonde rows, so all rows of the
    result sum to the zero vector by construction.
    """
    vm = vandermonde(field, xs, n)
    parity = [-s for s in vm.column_sums()]
    return FqMatrix.from_rows(field, [parity, *vm.row_list()])


def vandermonde_det(field: FieldSpec, xs: Sequence[int]) -> int:
    """Product formula: prod_{i<j} (x_j - x_i), so 1 for |xs| <= 1."""
    q = field.q
    out = 1
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            out = out * (xs[j] - xs[i]) % q
    return out


def elementary_symmetric(field: FieldSpec, xs: Sequence[int], k: int) -> int:
    """Degree-k elementary symmetric polynomial of xs; e_0 is the empty product 1."""
    if not 0 <= k <= len(xs):
        raise ValueError(f"degree {k} out of range for {len(xs)} elements")
    q = field.q
    e = [1] + [0] * k
    for x in xs:
        for j in range(min(k, len(e) - 1), 0, -1):
            e[j] = (e[j] + e[j - 1] * x) % q
    return e[k]


def generalized_vandermonde_det(field: FieldSpec, xs: Sequence[int], powers: Sequence[int]) -> int:
    """Determinant of [x_i^p_j] for a strictly increasing exponent set."""
    if len(powers) != len(xs):
        raise ValueError(f"need {len(xs)} exponents, got {len(powers)}")
    if any(p < 0 for p in powers) or any(a >= b for a, b in zip(powers, powers[1:])):
        raise ValueError("exponents must be nonnegative and strictly increasing")
    q = field.q
    mat = FqMatrix.from_rows(field, [[pow(x % q, p, q) for p in powers] for x in xs])
    return mat.det()


def extended_vandermonde_subdet(field: FieldSpec, xs: Sequence[int], indices: Sequence[int]) -> int:
    """Closed-form determinant of a parity-row submatrix of extended_vandermonde.

    With n = |indices| + 1, this is the determinant of the n x n submatrix
    formed by row 0 of ``extended_vandermonde(xs, n)`` together with the
    Vandermonde rows of the nodes selected by ``indices`` (ascending):

        (-1)^n * V(xs[I]) * sum_{i not in I} prod_{j in I} (x_i - x_j)

    evaluated without any elimination, so it can serve as one side of a
    dual-route check against :meth:`FqMatrix.det`.  The build search does
    not call it: it certifies by the power-sum walk in ``hsagg.schemes``,
    and the tests check that walk against this closed form.
    """
    m = len(xs)
    idx = sorted(indices)
    if len(set(idx)) != len(idx):
        raise ValueError("row indices must be distinct")
    if idx and (idx[0] < 0 or idx[-1] >= m):
        raise ValueError(f"row indices must lie in [0, {m})")
    n = len(idx) + 1
    q = field.q
    chosen = [xs[i] for i in idx]
    total = 0
    excluded = set(idx)
    for i in range(m):
        if i in excluded:
            continue
        p = 1
        for j in idx:
            p = p * (xs[i] - xs[j]) % q
        total = (total + p) % q
    sign = pow(-1, n, q)
    return sign * vandermonde_det(field, chosen) % q * total % q
