"""The two exceptions that set the CLI exit codes, and the bounds rule.

``InputError`` maps to exit code 2 (the caller handed us something
unusable) and ``VerificationError`` maps to exit code 1 (a consistency
check between two independent computations failed).  Every refusal
raises one of the two from the function that reads or sizes the input,
with a one-line message naming the parameter.  An integer outside a
fixed bound is refused by ``check_range`` as ``NAME must be >= LOW, got
V`` or ``NAME must be <= HIGH, got V``.  ``InputError`` is a
``ValueError``, so library callers that catch ``ValueError`` see every
refusal.
"""


class InputError(ValueError):
    pass


class VerificationError(Exception):
    pass


def check_range(value: int, name: str, low: int | None = None, high: int | None = None) -> None:
    """Refuse ``value`` below ``low`` or above ``high``; ``name`` is what
    the refusal calls it, a flag or a parameter."""
    if low is not None and value < low:
        raise InputError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise InputError(f"{name} must be <= {high}, got {value}")
