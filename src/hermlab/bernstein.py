"""Coefficient-space operator bounds on finite Hermite spans.

Two layers: the explicit factorial bound on ||x^alpha d^beta f|| over the
degree-N span, checked against the exact operator norm of x^alpha d^beta on
that span (ratio <= 1), and the exact expansion of powers of the shifted
oscillator (H + n)^k into x^alpha d^beta terms with per-coefficient growth
bounds.

Everything here works on coefficients through the ladder calculus; no
quadrature enters.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

import numpy as np

from .hermite import (
    HermiteExpansion,
    apply_harmonic_oscillator,
    apply_position_derivative,
)
from .indexing import _compositions, multi_indices, span_dim

__all__ = [
    "BernsteinCheck",
    "crude_bernstein_check",
    "OperatorExpansion",
    "harmonic_power_expand",
]

_MAX_POWER = 12


# -- exact factorial bound ----------------------------------------------------


@dataclass(frozen=True)
class BernsteinCheck:
    """The factorial bound at the caller's degree and orders; ratio = lhs / rhs <= 1 up to 1e-10 slack."""

    lhs: float
    rhs: float
    ratio: float


def _operator_matrix(dim: int, N: int, alpha, beta) -> np.ndarray:
    """Matrix of x^alpha d^beta from the degree-N span to the degree N+|alpha|+|beta| span.

    Column i is the image of the i-th basis state under the ladder calculus.
    """
    if N < 0:
        raise ValueError("degree must be non-negative")
    basis = np.eye(span_dim(dim, N))
    return np.column_stack(
        [apply_position_derivative(HermiteExpansion(dim, N, e), alpha, beta).coeffs for e in basis]
    )


def crude_bernstein_check(dim: int, N: int, alpha, beta) -> BernsteinCheck:
    """Check ||x^a d^b f|| <= 2^{(|a|+|b|)/2} sqrt((N+|a|+|b|)!/N!) ||f|| on the degree-N span.

    The left side is the exact operator norm on the span: the largest
    singular value of the dense matrix of x^a d^b, whose SVD costs O(m^3)
    in the span dimension m. The right side is evaluated in log space so the
    factorial quotient never overflows. The inequality is mathematically
    exact on the span, so a ratio above 1 + 1e-10 indicates an
    implementation bug, not a sharpness failure.
    """
    alpha = tuple(int(a) for a in np.atleast_1d(alpha))
    beta = tuple(int(b) for b in np.atleast_1d(beta))
    order = sum(alpha) + sum(beta)
    lhs = float(np.linalg.norm(_operator_matrix(dim, N, alpha, beta), 2))
    rhs = math.exp(0.5 * order * math.log(2.0) + 0.5 * (math.lgamma(N + order + 1) - math.lgamma(N + 1)))
    return BernsteinCheck(lhs, rhs, lhs / rhs)


@lru_cache(maxsize=64)
def _index_pairs(dim: int, max_order: int):
    """All (alpha, beta) multi-index pairs with |alpha|+|beta| <= max_order."""
    singles = [tuple(row) for row in multi_indices(dim, max_order).tolist()]
    pairs = [
        (a, b) for a in singles for b in singles if sum(a) + sum(b) <= max_order
    ]
    pairs.sort(key=lambda ab: (sum(ab[0]) + sum(ab[1]), ab))
    return tuple(pairs)


# -- powers of the shifted oscillator ------------------------------------------


def _ladder_chain_1d(m: int) -> dict:
    """Coefficients of the alternating chain (x+d)(x-d)(x+d)... with m+1 factors.

    Stage m maps (l1, l2) -> coefficient of x^{l1} d^{l2}; appending the next
    factor on the right multiplies by (x + (-1)^{m+1} d). Each stage obeys
    |coef| <= 3^m (m+1)^{(m+1-l1-l2)/2}, which is asserted as it is built.
    """
    terms = {(1, 0): 1.0, (0, 1): 1.0}
    _assert_chain_bound(terms, 0)
    for m_prev in range(m):
        sign = float((-1) ** (m_prev + 1))
        new: dict = {}
        for (l1, l2), c in terms.items():
            # right-multiply by x: x^{l1} d^{l2} x = x^{l1+1} d^{l2} + l2 x^{l1} d^{l2-1}
            new[(l1 + 1, l2)] = new.get((l1 + 1, l2), 0.0) + c
            if l2 >= 1:
                new[(l1, l2 - 1)] = new.get((l1, l2 - 1), 0.0) + c * l2
            # right-multiply by the signed derivative
            new[(l1, l2 + 1)] = new.get((l1, l2 + 1), 0.0) + sign * c
        terms = {k: v for k, v in new.items() if v != 0.0}
        _assert_chain_bound(terms, m_prev + 1)
    return terms


def _assert_chain_bound(terms: dict, m: int) -> None:
    for (l1, l2), c in terms.items():
        bound = 3.0**m * (m + 1.0) ** ((m + 1 - l1 - l2) / 2.0)
        if abs(c) > bound * (1.0 + 1e-12):
            raise AssertionError(
                f"chain coefficient bound violated at stage {m}: {(l1, l2)} -> {c}"
            )


@lru_cache(maxsize=32)
def _oscillator_power_1d(k: int) -> tuple:
    """1-D terms of (x^2 - d^2 + 1)^k as ((l1, l2), coef) pairs."""
    if k == 0:
        return (((0, 0), 1.0),)
    chain = _ladder_chain_1d(2 * k - 1)
    return tuple(sorted(chain.items()))


@dataclass(frozen=True)
class OperatorExpansion:
    """(H + n)^k written as a combination of x^alpha d^beta terms.

    H is the harmonic oscillator -Laplacian + |x|^2 on R^n. terms maps
    (alpha, beta) pairs of multi-indices to real coefficients; only orders
    |alpha + beta| <= 2k occur.
    """

    k: int
    dim: int
    terms: dict = field(repr=False)

    def coefficient_bound(self, alpha, beta) -> float:
        """A-priori bound 3^{2k-n} n^k (2k)^{(2k-|a+b|)/2} on the coefficient."""
        order = sum(alpha) + sum(beta)
        if self.k == 0:
            return 1.0
        return (
            3.0 ** (2 * self.k - self.dim)
            * self.dim**self.k
            * (2.0 * self.k) ** ((2 * self.k - order) / 2.0)
        )

    def apply(self, f: HermiteExpansion) -> HermiteExpansion:
        """Termwise action; the result has degree f.degree + 2k."""
        target = f.degree + 2 * self.k
        acc = None
        for (alpha, beta), c in sorted(self.terms.items()):
            piece = apply_position_derivative(f, alpha, beta).with_degree(target)
            acc = piece.coeffs * c if acc is None else acc + c * piece.coeffs
        if acc is None:
            acc = np.zeros(span_dim(f.dim, target), dtype=f.coeffs.dtype)
        return HermiteExpansion(f.dim, target, acc)


def harmonic_power_expand(k: int, dim: int) -> OperatorExpansion:
    """Exact x^alpha d^beta expansion of (H + n)^k on R^n.

    Built from the 1-D alternating ladder chain, whose stagewise coefficient
    bound is asserted during construction, and tensored across axes with
    multinomial weights: (H+n)^k = sum_{|m|=k} k!/m! prod_j (H_j+1)^{m_j}.
    """
    if k < 0:
        raise ValueError("power must be non-negative")
    if k > _MAX_POWER:
        raise ValueError(f"power {k} exceeds cap {_MAX_POWER}")
    if dim < 1:
        raise ValueError("dimension must be positive")
    terms: dict = {}
    for m in _compositions(k, dim):
        weight = math.factorial(k)
        for mj in m:
            weight //= math.factorial(mj)
        for combo in product(*(_oscillator_power_1d(mj) for mj in m)):
            alpha = tuple(l1 for (l1, _), _ in combo)
            beta = tuple(l2 for (_, l2), _ in combo)
            coef = float(weight)
            for _, c in combo:
                coef *= c
            key = (alpha, beta)
            terms[key] = terms.get(key, 0.0) + coef
    terms = {kk: v for kk, v in terms.items() if v != 0.0}
    return OperatorExpansion(k=k, dim=dim, terms=terms)


def iterated_oscillator_apply(f: HermiteExpansion, k: int) -> HermiteExpansion:
    """Reference action: apply (H + n) k times through the diagonal calculus."""
    out = f
    for _ in range(k):
        shifted = apply_harmonic_oscillator(out).coeffs + out.dim * out.coeffs
        out = HermiteExpansion(out.dim, out.degree, shifted)
    return out.with_degree(f.degree + 2 * k)
