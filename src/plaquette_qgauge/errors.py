"""The numerical failures the command line reports with exit code 3.

They live apart from the layers that raise them, so the command line can
catch them without importing the Mathieu layer.  ``mathieu`` and
``costratified`` re-export the names they raise.  The row cap both layers
refuse past lives here for the same reason: ``costratified`` reads it
without loading ``mathieu``.
"""

#: no Mathieu truncation and no vertex state past this many rows is built
MAX_ROWS = 2**19


class ConvergenceError(RuntimeError):
    """Eigensolver residual exceeded the accepted tolerance."""


class TruncationError(ValueError):
    """Requested truncation cannot represent the state to the target accuracy."""


class ConsistencyError(AssertionError):
    """The independent direct and dual routes disagree."""
