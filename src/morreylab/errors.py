"""Exception hierarchy.

ValueError subclasses are used for mathematical precondition failures so the
functions stay pythonic; ValidationError aggregates config/exponent-set
violations (CLI exit code 2).  A verified invariant that does not hold is
not an exception: runs and `decompose` count the violations and exit 3.
"""


class MorreyLabError(Exception):
    """Base class for package errors."""


class ValidationError(MorreyLabError):
    """Configuration or exponent-set validation failed.

    Carries the list of human-readable violations.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
