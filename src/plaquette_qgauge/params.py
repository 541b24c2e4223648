"""Physical parameters of the single-plaquette SU(2) model: the command line's units adapter.

The model is controlled by three positive constants: hbar, the inner-product
scale beta2 (the square of the metric scaling factor), and the gauge coupling
coupling_g.  Every physical output depends on them only through the two
dimensionless combinations

    t        = hbar * beta2            (quantum-fluctuation scale)
    nu_tilde = 1 / (coupling_g**2 * hbar**2 * beta2)

and the numerical layers take (t, nu_tilde) as plain floats, with energies
in units of hbar^2 beta2.  ``ModelParams`` checks ``--hbar``, ``--beta2`` and
``--coupling-g`` and turns them into (t, nu_tilde) for the command line; the
two hbar-dependent constants, ``characters.peter_weyl_constant`` and
``costratified.vertex_evaluation``, are its only other readers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


#: the derived combinations, each with its formula, in the order they are checked
_DERIVED = {
    "t": "hbar * beta2",
    "hbar2_beta2": "hbar^2 * beta2",
    "nu": "1 / coupling_g^2",
    "nu_tilde": "nu / (hbar^2 * beta2)",
}


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter set; derived combinations are exposed as properties.

    coupling_g = math.inf is allowed and encodes the free theory (nu =
    nu_tilde = 0 exactly).  A set is refused with ``ValueError`` when t, or at
    a finite coupling_g hbar2_beta2, nu or nu_tilde, underflows to 0 or
    overflows in double precision.
    """

    hbar: float
    beta2: float
    coupling_g: float

    def __post_init__(self):
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        if not (self.beta2 > 0 and math.isfinite(self.beta2)):
            raise ValueError(f"beta2 must be positive and finite, got {self.beta2}")
        if not self.coupling_g > 0:
            raise ValueError(f"coupling_g must be positive, got {self.coupling_g}")
        # every derived combination must be a positive finite double; at
        # coupling_g = inf nu_tilde is 0 whatever hbar2_beta2 is
        derived = ("t",) if self.coupling_g == math.inf else _DERIVED
        for name in derived:
            try:
                value = getattr(self, name)
            except ZeroDivisionError:  # coupling_g**2 underflows to 0
                value = math.inf
            if not 0.0 < value < math.inf:
                raise ValueError(
                    f"hbar={self.hbar!r}, beta2={self.beta2!r}, coupling_g={self.coupling_g!r}: "
                    f"{name} = {_DERIVED[name]} {'overflows' if value else 'underflows to 0'} "
                    "in double precision"
                )

    @property
    def nu(self) -> float:
        """Inverse squared coupling, the strength of the potential term."""
        return 1.0 / (self.coupling_g * self.coupling_g)

    @property
    def nu_tilde(self) -> float:
        """Dimensionless coupling nu / (hbar^2 beta2)."""
        nu = self.nu
        return nu / self.hbar2_beta2 if nu else 0.0

    @property
    def t(self) -> float:
        """The combination hbar * beta2 entering all state overlaps."""
        return self.hbar * self.beta2

    @property
    def hbar2_beta2(self) -> float:
        """Energy unit hbar^2 * beta2 of the spectrum."""
        return self.hbar * self.hbar * self.beta2
