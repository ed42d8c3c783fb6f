"""Closed-form rate region for hierarchical secure aggregation.

The network has U relay clusters of V users each and tolerates collusion
with up to T users.  A configuration is feasible exactly when
T < (U-1)*V; inside that region the per-symbol optimum is

    R_X = R_Y = R_Z = 1,
    R_Zsigma = max(V + T, min(U*V - 1, U + T - 1)).

The naive comparator keys every user independently and needs U*V - 1
source symbols regardless of T.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .errors import ConfigurationError, InfeasibleConfiguration

__all__ = [
    "HsaConfig",
    "RateRow",
    "optimal_rates",
    "optimal_source_rate",
    "baseline_source_rate",
    "active_branch",
    "rate_table",
    "rate_table_csv",
    "RATE_TABLE_HEADER",
]


class HsaConfig(namedtuple("HsaConfig", "U V T")):
    """Network shape: U relays, V users per cluster, collusion budget T."""

    __slots__ = ()

    def __new__(cls, U: int, V: int, T: int) -> "HsaConfig":
        # A single relay sees the full input sum, so U = 1 is undefined.
        if U < 2:
            raise ConfigurationError(f"need at least 2 relays, got U={U}")
        if V < 1:
            raise ConfigurationError(f"need at least 1 user per cluster, got V={V}")
        if T < 0:
            raise ConfigurationError(f"collusion budget must be nonnegative, got T={T}")
        return super().__new__(cls, U, V, T)

    @property
    def n_users(self) -> int:
        return self.U * self.V

    @property
    def feasible(self) -> bool:
        return self.T < (self.U - 1) * self.V

    def users(self) -> list[tuple[int, int]]:
        """All user labels (u, v) in lexicographic order."""
        return [(u, v) for u in range(1, self.U + 1) for v in range(1, self.V + 1)]


class RateRow(
    namedtuple(
        "RateRow",
        "U V T feasible R_X R_Y R_Z R_Z_sigma baseline active_branch",
        defaults=(None,) * 6,
    )
):
    """One rate-table row; every field after ``feasible`` is None when infeasible."""

    __slots__ = ()

    def to_json_obj(self) -> dict:
        """Fields in declaration order (the CSV columns); R_Z_sigma is keyed "R_Zsigma"."""
        return {("R_Zsigma" if k == "R_Z_sigma" else k): v for k, v in self._asdict().items()}


def optimal_source_rate(cfg: HsaConfig) -> int:
    """Minimum source key symbols per input symbol; raises when infeasible."""
    if not cfg.feasible:
        raise InfeasibleConfiguration(cfg.U, cfg.V, cfg.T)
    return max(cfg.V + cfg.T, min(cfg.n_users - 1, cfg.U + cfg.T - 1))


def optimal_rates(cfg: HsaConfig) -> RateRow:
    """The rate-table row of one configuration; infeasibility is flagged, not raised."""
    if not cfg.feasible:
        return RateRow(cfg.U, cfg.V, cfg.T, False)
    return RateRow(
        cfg.U, cfg.V, cfg.T, True, 1, 1, 1,
        optimal_source_rate(cfg), baseline_source_rate(cfg), active_branch(cfg),
    )


def baseline_source_rate(cfg: HsaConfig) -> int:
    """Source key rate of the naive per-user keying comparator: U*V - 1."""
    if not cfg.feasible:
        raise InfeasibleConfiguration(cfg.U, cfg.V, cfg.T)
    return cfg.n_users - 1


def active_branch(cfg: HsaConfig) -> str:
    """Which term of max(V+T, min(UV-1, U+T-1)) decides the optimum.

    Ties go to "V+T" (the outer max prefers its first argument); inside the
    min, "U+T-1" wins up to T = U*(V-1) and "UV-1" beyond.
    """
    first = cfg.V + cfg.T
    second = min(cfg.n_users - 1, cfg.U + cfg.T - 1)
    if first >= second:
        return "V+T"
    return "U+T-1" if cfg.T <= cfg.U * (cfg.V - 1) else "UV-1"


def rate_table(
    U_range: Iterable[int], V_range: Iterable[int], T_range: Iterable[int]
) -> list[RateRow]:
    """One row per (U, V, T); infeasible combinations are flagged, not errors."""
    us, vs, ts = list(U_range), list(V_range), list(T_range)
    if not us or not vs or not ts:
        raise ConfigurationError("rate table ranges must be nonempty")
    return [optimal_rates(HsaConfig(u, v, t)) for u in us for v in vs for t in ts]


RATE_TABLE_HEADER = "U,V,T,feasible,R_X,R_Y,R_Z,R_Zsigma,baseline,active_branch"


def rate_table_csv(rows: Iterable[RateRow]) -> str:
    def cell(x) -> str:
        if isinstance(x, bool):
            return "true" if x else "false"
        return "" if x is None else str(x)

    lines = [RATE_TABLE_HEADER]
    lines.extend(",".join(cell(x) for x in r) for r in rows)
    return "\n".join(lines) + "\n"
