"""Exception taxonomy shared across the toolkit.

The CLI maps these onto exit codes: ContractError / FieldFormatError -> 2,
NumericsError -> 3; an OSError from file I/O also maps to 2. Anything else
is a bug.
"""


class ContractError(ValueError):
    """Input violates a documented precondition (shape, channel count, range)."""


class FieldFormatError(ContractError):
    """Malformed FLD1 / model container bytes (bad magic, dtype, truncation)."""


class NumericsError(RuntimeError):
    """Numerical failure at runtime: blow-up, CFL violation, dt underflow."""
