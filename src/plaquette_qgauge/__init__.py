"""Costratified quantum theory of the SU(2) single-plaquette lattice gauge model.

Numerics for the reduced quantum model (character basis, vertex states,
Mathieu spectra, projector expectations) together with computational
verifiers for the stratified-symplectic structures it is reduced from.
"""

__version__ = "0.1.0"

from .strata import Stratum

__all__ = ["Stratum", "__version__"]
