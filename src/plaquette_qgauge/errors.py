"""The numerical failures the command line reports with exit code 3.

They live apart from the layers that raise them, so the command line can
catch them without importing the Mathieu layer.  ``mathieu`` and
``costratified`` re-export the names they raise.
"""


class ConvergenceError(RuntimeError):
    """Eigensolver residual exceeded the accepted tolerance."""


class TruncationError(ValueError):
    """Requested truncation cannot represent the state to the target accuracy."""


class ConsistencyError(AssertionError):
    """The independent direct and dual routes disagree."""
