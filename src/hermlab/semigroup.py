"""Diagonal fractional-oscillator semigroups on Hermite coefficients.

The flow e^{-t H^s} acts diagonally: the coefficient of a level-k mode is
multiplied by exp(-t (2k + n)^s), with s in (1/2, 1]. The evolved state and
its dissipation tail above a level are weighted coefficient sums, so both are
exact up to float rounding; there is no time stepping.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import indexing
from .hermite import HermiteExpansion

__all__ = [
    "EvolutionSpec",
    "evolve",
    "DissipationReport",
    "dissipation_tail",
]


@dataclass(frozen=True)
class EvolutionSpec:
    """Fractional power s in (1/2, 1] and space dimension."""

    s: float
    dim: int

    def __post_init__(self):
        if not self.s > 0.5:
            raise ValueError("s must exceed 1/2")
        if self.s > 1.0:
            raise ValueError("s must not exceed 1")
        if self.dim < 1:
            raise ValueError("dimension must be positive")

    def eigenvalues(self, degree: int) -> np.ndarray:
        """(2 |alpha| + n)^s over the shared enumeration of the degree-N span."""
        levels = indexing.level_of(self.dim, degree)
        return (2.0 * levels + self.dim) ** self.s

    def decay_factors(self, degree: int, t: float) -> np.ndarray:
        return np.exp(-t * self.eigenvalues(degree))


def _check_time(t: float) -> float:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("time must be finite and non-negative")
    return t


def evolve(f: HermiteExpansion, t: float, spec: EvolutionSpec) -> HermiteExpansion:
    """e^{-t H^s} f by diagonal scaling; a contraction for every finite t >= 0."""
    _check_time(t)
    if spec.dim != f.dim:
        raise ValueError("dimension mismatch between expansion and evolution")
    return HermiteExpansion(f.dim, f.degree, spec.decay_factors(f.degree, t) * f.coeffs)


@dataclass(frozen=True)
class DissipationReport:
    """Exact tail above the caller's level k of the state evolved to time t, with its two rates.

    bound uses the first excluded eigenvalue, exp(-t (2(k+1)+n)^s) ||f||,
    and is attained with equality by a pure level-(k+1) mode; weak_bound is
    the cruder exp(-t k^s) ||f|| rate, implied by the sharp one.
    """

    tail_norm: float
    bound: float
    weak_bound: float


def dissipation_tail(f: HermiteExpansion, k: int, t: float, spec: EvolutionSpec) -> DissipationReport:
    """Norm of (1 - pi_k) e^{-t H^s} f against the sharp exclusion rate."""
    _check_time(t)
    evolved = evolve(f, t, spec)
    levels = indexing.level_of(f.dim, f.degree)
    tail = float(np.linalg.norm(np.where(levels > k, evolved.coeffs, 0.0)))
    fnorm = f.norm()
    sharp = math.exp(-t * (2.0 * (k + 1) + spec.dim) ** spec.s) * fnorm
    weak = math.exp(-t * float(k) ** spec.s) * fnorm
    return DissipationReport(tail_norm=tail, bound=sharp, weak_bound=weak)
