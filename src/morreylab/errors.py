"""ValidationError: the exception for input outside its domain.

ValueError subclasses are used for mathematical precondition failures so the
functions stay pythonic; ValidationError aggregates input outside its domain
(config keys, exponent sets, command arguments).  The CLI exits 2 on it or an
OSError only: any other exception, a plain ValueError too, is a bug and ends
in a traceback, exit 1.  A verified invariant that does not hold is not an
exception: runs and `decompose` count the violations and exit 3.
"""


class ValidationError(Exception):
    """Configuration or exponent-set validation failed.

    Carries the list of human-readable violations.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
