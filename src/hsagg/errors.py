"""Exception types shared across the toolkit.

``hsagg.cli._FAILURES`` maps each class to the exit code ``hsa`` returns.
Codes are shared: SchemeFormatError and CorrectnessViolation both exit 4,
and OSError exits 2 with ConfigurationError.
"""


class ConfigurationError(ValueError):
    """A network configuration outside the problem domain (e.g. U < 2)."""


class InfeasibleConfiguration(ValueError):
    """No secure scheme exists: the collusion level hits T >= (U-1)*V."""

    def __init__(self, U: int, V: int, T: int):
        self.U, self.V, self.T = U, V, T
        super().__init__(
            f"no scheme exists for U={U} V={V} T={T}: "
            f"T >= (U-1)*V = {(U - 1) * V}"
        )


class SchemeFormatError(ValueError):
    """A scheme document that does not match the interchange schema."""


class CorrectnessViolation(ValueError):
    """A scheme or transcript that cannot reproduce the input sum."""


class AuditBudgetExceeded(RuntimeError):
    """An exhaustive check would exceed its configured enumeration cap."""


# The default caps of ``hsa audit``, defined here so that the CLI can read
# them without importing ``security``, which exports them too: the rank
# audit's walk nodes (``--budget``), and for the exact oracle (``--q-cap``)
# its checks times the q^(UV + n) tuples each is exact over.  The oracle
# enumerates no tuple, so this bounds the size of the spaces its verdicts
# cover, not its work.
DEFAULT_RANK_BUDGET = 10**6
DEFAULT_ENUMERATION_CAP = 10**7
