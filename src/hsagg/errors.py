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
    """An exhaustive check would exceed its budget, or a limit that no budget lifts."""


# The default budget of ``hsa audit --budget``, defined here so that the CLI
# can read it without importing ``security``, which exports it too: the
# collusion sets the rank audit's walk visits, and with --exact the checks
# the exact oracle decides.
DEFAULT_RANK_BUDGET = 10**6
