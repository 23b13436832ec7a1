"""hermlab: spectral inequalities and control for Hermite expansions.

Subpackages cover the shared multi-index enumeration, Hermite ladder
calculus, thick control-set geometry, quadratic-symbol analysis, spectral
constants on sensor sets, coefficient-space operator bounds, fractional
oscillator semigroups, and minimum-energy control synthesis. The hot
kernels are plain numpy; BACKEND names them ("python").
"""

from .kernels import BACKEND

__version__ = "0.1.0"
__all__ = ["BACKEND", "__version__"]
