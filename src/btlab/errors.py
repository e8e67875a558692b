"""The two exceptions that set the CLI exit codes.

``InputError`` maps to exit code 2 (the caller handed us something
unusable) and ``VerificationError`` maps to exit code 1 (a consistency
check between two independent computations failed).  Every refusal
raises one of the two from the function that reads or sizes the input,
with a one-line message naming the parameter.  ``InputError`` is a
``ValueError``, so library callers that catch ``ValueError`` see every
refusal.
"""


class InputError(ValueError):
    pass


class VerificationError(Exception):
    pass
