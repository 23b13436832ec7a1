"""Restriction Gram matrices, spectral constants, and growth-law fits.

For the span E_N of Hermite functions of total degree <= N and a sensor set
omega, the Gram matrix G collects the pairings of basis functions over
omega. Its smallest eigenvalue gives the sharpest constant C with
||f|| <= C ||f||_{L2(omega)} on E_N, namely C = lambda_min^{-1/2}, and the
bottom eigenvector is the extremal expansion.

Assembly evaluates the basis on composite 16-node Gauss-Legendre panels
restricted to omega, of length L = min(0.5, 6 / sqrt(2N + 1)); a check rule
on panels of 2L bounds the quadrature error as quad_tol. Against an order-20
rule on panels of L/4 the returned entries are off by at most 4e-15 on the
graded, periodic and control sets at N <= 400. In 1-D the panels cover the
exact interval decomposition; one recursive-panel QR of the weighted
evaluation factor B leaves the m x m triangle R, G = R^T R, and only R is
kept. A set equal to its mirror image (graded cells, their complement, the
whole line) splits by parity, since h_k(-x) = (-1)^k h_k(x): the entries
pairing even with odd degrees are exactly zero, the even and the odd
columns are integrated on x >= 0 with doubled weights and factored apart,
and each half-size triangle sits on its own rows and columns of R. The
nodes of both rules of a 1-D Gram go through one Hermite table. lambda_min
is the square of the smallest singular value of R (equal to that of B),
from the singular values of R alone, taken block by block when R splits
by parity, which stays accurate far below the eps*||G|| floor of a direct
eigensolve; the bottom vector comes from inverse iteration on R, two
triangular solves per step. A 2-D set must have piecewise slices (the
full plane, boxes, periodic patterns): it is sliced once per piece between
first-axis breakpoints, the pieces that share one slice are pooled, and
each distinct slice adds one separable block Px[a1, a1] * My[a2, a2] of
its x- and y-pairings to each rule, with one Hermite table per axis over
both rules' nodes. Each block is the Hadamard product of two PSD
matrices, so the 2-D Gram is PSD to rounding (Schur product theorem). Its
lambda_min is the bottom eigenvalue of the tridiagonal matrix left by one
Householder reduction, found by bisection with the top one, and the bottom
vector comes from inverse iteration mapped back through the reflectors.

Every lambda_min carries lambda_err, the rounding error bound of its solve,
and a floor flag set when lambda_min does not exceed that bound: such a
value is rounding noise and its C_N only a lower bound on the constant.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import indexing
from .geometry import ControlSet, QuadratureError, slice_pieces
from .kernels import hermite_function_table
from .quadrature import panel_nodes

__all__ = [
    "DegenerateRestrictionError",
    "GramMatrix",
    "gram_matrix",
    "truncation_radius",
    "SpectralResult",
    "spectral_constant",
    "GrowthFitReport",
    "growth_fit",
]

_MAX_DEGREE_2D = 24
_ORDER = 16  # Gauss nodes per panel, in both rules


class DegenerateRestrictionError(RuntimeError):
    """The sensor set annihilates part of the span at quadrature resolution."""


def truncation_radius(degree: int) -> float:
    """Radius beyond which every basis function of the span is < 1e-14."""
    return math.sqrt(4.0 * degree + 20.0)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric PSD pairing matrix of the degree-N span over a sensor set.

    factor holds, when the assembly is one-dimensional, the m x m upper
    triangle R with R^T R = entries: the QR triangle of the weighted
    evaluation matrix, zero below its rank when the set has fewer nodes than
    basis functions. quad_tol is the observed change under halving the
    quadrature panels. nodes counts the quadrature points of the returned
    rule: in 2-D the sum over distinct slices of x-nodes times y-nodes.
    """

    degree: int
    dim: int
    entries: np.ndarray = field(repr=False)
    factor: np.ndarray | None = field(repr=False)
    quad_tol: float
    radius: float
    nodes: int

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _panel_length(degree: int) -> float:
    """Panel length of the returned rule; the check rule's panels are twice as long.

    Panels shrink with degree so each holds a bounded number of oscillations.
    """
    return min(1.0, 12.0 / math.sqrt(2.0 * degree + 1.0)) / 2.0


def _gram_1d(omega: ControlSet, degree: int, panel_len: float):
    """(G, G_check, R, node count) of a 1-D set on panels of panel_len and 2 * panel_len.

    h_k(-x) = (-1)^k h_k(x), so on a set equal to its mirror image every
    entry pairing an even with an odd degree vanishes and the rest are twice
    their integral over x >= 0. Such a set is integrated on its half-line
    intervals with doubled weights, one parity class of columns at a time,
    and each class's triangle sits on its own rows and columns of R, which
    keeps R upper triangular. Any other set is one class on the whole line.
    Both rules' nodes go through one Hermite table.
    """
    R = truncation_radius(degree)
    iv = omega.intervals_1d(-R, R)
    if np.array_equal(iv, -iv[::-1, ::-1]):
        iv = np.clip(iv, 0.0, None)
        iv = iv[iv[:, 1] > iv[:, 0]]
        classes, weight = (slice(0, None, 2), slice(1, None, 2)), 2.0
    else:
        classes, weight = (slice(None),), 1.0
    x_check, w_check = panel_nodes(iv, 2.0 * panel_len, _ORDER)
    x, w = panel_nodes(iv, panel_len, _ORDER)
    table = hermite_function_table(degree, np.concatenate([x_check, x]))
    n = x_check.size
    check = table[:, :n]
    check *= np.sqrt(weight * w_check)
    sqrt_w = np.sqrt(weight * w)
    m = degree + 1
    G_check = np.zeros((m, m))
    F = np.zeros((m, m))
    for p in classes:
        B = check[p]
        G_check[p, p] = B @ B.T
        # the weighted product is the one contiguous block dgeqrt overwrites
        F[p, p] = _triangle((table[p, n:] * sqrt_w).T)
    return F.T @ F, G_check, F, int(weight) * x.size


def _triangle(B: np.ndarray) -> np.ndarray:
    """The m x m upper triangle R of a QR of B (nodes x m), so R^T R = B^T B.

    One recursive-panel Householder QR (LAPACK dgeqrt) overwrites B. When B
    has k < m rows, R keeps zero rows below its first k, so the missing
    singular values stay zero.
    """
    from scipy.linalg.lapack import dgeqrt

    m = B.shape[1]
    k = min(B.shape)
    R = np.zeros((m, m))
    if k:
        qr, _, info = dgeqrt(min(64, k), B, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dgeqrt failed with info={info}")
        R[:k] = np.triu(qr[:k])
    return R


def _gram_2d(omega: ControlSet, degree: int, panel_len: float):
    """(G, G_check, node count): one separable block per distinct slice and rule.

    The x-pieces between omega's first-axis breakpoints, on which omega has
    piecewise slices, are pooled by their slice intervals. Each distinct
    non-empty slice adds Px[a1, a1] * My[a2, a2] of its x- and y-pairings to
    G, on panels of panel_len, and to G_check, on panels of 2 * panel_len,
    with one Hermite table per axis over both rules' nodes.
    """
    R = truncation_radius(degree)
    a1, a2 = indexing.multi_indices(2, degree).T
    lens = (panel_len, 2.0 * panel_len)
    # the slice of a piece holds at every one of its nodes
    spans = {}
    for a, b, sub in slice_pieces(omega, -R, R):
        if b - a > 1e-14:
            iv = sub.intervals_1d(-R, R)
            spans.setdefault(iv.tobytes(), (iv, []))[1].append((a, b))
    m = a1.size
    G = (np.zeros((m, m)), np.zeros((m, m)))
    nodes = 0
    for iv, ab in spans.values():
        if iv.shape[0] == 0:
            continue
        xs = [panel_nodes(np.array(ab), L, _ORDER) for L in lens]
        ys = [panel_nodes(iv, L, _ORDER) for L in lens]
        for g, px, my in zip(G, _pairings(degree, xs), _pairings(degree, ys)):
            block = px[a1][:, a1]
            block *= my[a2][:, a2]
            g += block
        nodes += xs[0][0].size * ys[0][0].size
    return G[0], G[1], nodes


def _pairings(degree: int, parts: list) -> list:
    """B B^T of each (nodes, weights) part's weighted Hermite table, from one table over all parts."""
    B = hermite_function_table(degree, np.concatenate([x for x, _ in parts]))
    B *= np.sqrt(np.concatenate([w for _, w in parts]))
    out = []
    start = 0
    for x, _ in parts:
        b = B[:, start : start + x.size]
        out.append(b @ b.T)
        start += x.size
    return out


def gram_matrix(
    omega: ControlSet,
    degree: int,
    fail_tol: float = 1e-7,
) -> GramMatrix:
    """Assemble the pairing matrix of the degree-N span over omega.

    The quadrature domain is truncated where the span's Gaussian envelope
    drops below 1e-14. Two rules of 16-node Gauss panels are assembled:
    the returned one, with panels of length L = min(0.5, 6 / sqrt(2N + 1)),
    and a check rule with panels of 2L. Their entrywise difference is
    reported as quad_tol; it reads at most 1.1e-13 on the benchmark sets,
    while the returned entries are within 4e-15 of an order-20 rule on
    panels of L/4. Raises QuadratureError when quad_tol exceeds fail_tol.
    In 1-D the returned entries are R^T R for the QR triangle R of the
    weighted evaluation factor, and R is kept as the factor; on a set that
    is its own mirror image R splits by parity (see _gram_1d) and nodes
    counts each half-line node twice. A 2-D set without piecewise slices (a
    ball union) raises ValueError before any table is built.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if omega.dim not in (1, 2):
        raise ValueError(f"dimension {omega.dim} unsupported for Gram assembly")
    if omega.dim == 2 and degree > _MAX_DEGREE_2D:
        raise ValueError(f"2-D Gram assembly capped at degree {_MAX_DEGREE_2D}")
    if omega.dim == 2 and not omega.piecewise_slices:
        raise ValueError("2-D Gram assembly needs piecewise slices: full, boxes or periodic")
    panel_len = _panel_length(degree)

    if omega.dim == 1:
        G, G_check, R, nodes = _gram_1d(omega, degree, panel_len)
    else:
        G, G_check, nodes = _gram_2d(omega, degree, panel_len)
        R = None
    quad_tol = float(np.max(np.abs(G - G_check)))
    if quad_tol > fail_tol:
        raise QuadratureError(f"Gram quadrature unstable: refinement moved entries by {quad_tol:.3e}")

    if R is not None:
        R.setflags(write=False)
    G.setflags(write=False)
    return GramMatrix(
        degree=degree,
        dim=omega.dim,
        entries=G,
        factor=R,
        quad_tol=quad_tol,
        radius=truncation_radius(degree),
        nodes=nodes,
    )


@dataclass(frozen=True)
class SpectralResult:
    """Sharp restriction constant with its eigen-certificate.

    lambda_err bounds the rounding error of the solve on lambda_min; floor
    is set when lambda_min <= lambda_err.
    """

    constant: float
    lambda_min: float
    extremizer: np.ndarray = field(repr=False)
    condition: float
    lambda_err: float
    floor: bool


_MAX_STEPS = 100  # inverse-iteration steps before the bottom vector falls back to a full SVD


def _bottom_vector(T: np.ndarray, lam: float, lam_err: float) -> np.ndarray:
    """Unit x with | ||T x||^2 - lam | <= lam_err / 2, for the upper triangle T with s_min(T)^2 = lam > 0.

    Inverse iteration x <- T^-1 T^-T x from the all-ones vector, two
    triangular solves (LAPACK dtrtrs) per step, stops at the first certified
    x. It converges like (s_min / s_next)^2 per step, so a bottom pair too
    close for _MAX_STEPS steps, or a triangle with an exact zero on its
    diagonal, takes the bottom right singular vector of a full SVD instead.
    """
    from scipy.linalg.lapack import dtrtrs

    x = np.full(T.shape[0], T.shape[0] ** -0.5)
    for _ in range(_MAX_STEPS):
        y, info = dtrtrs(T, x, trans=1)
        if info == 0:
            x, info = dtrtrs(T, y)
        if info != 0:
            break
        x /= np.linalg.norm(x)
        Tx = T @ x
        if abs(float(Tx @ Tx) - lam) <= lam_err / 2.0:
            return x
    return np.linalg.svd(T)[2][-1]


def spectral_constant(G: GramMatrix) -> SpectralResult:
    """C_N(omega) = lambda_min(G)^{-1/2} with the extremal coefficient vector.

    When the triangular factor R is available (1-D), lambda_min is the
    squared smallest singular value of R, from R's singular values alone
    (LAPACK dgesdd without vectors), and the extremizer is R's bottom right
    singular vector by inverse iteration on R, stopped once
    | ||R v||^2 - lambda_min | <= lambda_err / 2. When R's blocks between
    even and odd indices are exactly zero, as gram_matrix leaves them on a
    mirror-symmetric set, the singular values of the even and the odd
    diagonal block are taken apart: s_min and s_max are taken over both, the
    iteration runs on the block holding s_min, and the extremizer is zero on
    the other parity. Each singular value is then good to m * eps * s_max,
    so lambda_err = (s_min + m eps s_max)^2 - s_min^2, which for small s_min
    is far below machine epsilon times ||G||. A set with fewer nodes than
    the m basis functions leaves zero rows in R, whose singular values are
    zero. Otherwise (2-D) the entries are reduced to a tridiagonal
    T = Q^T G Q by one Householder reduction (LAPACK dsytrd); bisection finds
    T's bottom and top eigenvalues to relative accuracy, inverse iteration
    T's bottom vector, and the reflectors map it back to the extremizer
    (dormqr). Only these two of the m eigenvalues are computed. The
    reduction's backward error gives lambda_err = m * eps * lambda_top.
    Raises DegenerateRestrictionError when lambda_min <= 0; floor is set
    when lambda_min <= lambda_err.
    """
    m = G.size
    eps = float(np.finfo(np.float64).eps)
    if G.factor is not None:
        from scipy.linalg.lapack import dgesdd

        F = G.factor
        if F[0::2, 1::2].any() or F[1::2, 0::2].any():
            classes = (slice(None),)
        else:
            classes = (slice(0, None, 2), slice(1, None, 2))
        s_min, s_max, bottom = math.inf, 0.0, None
        for p in classes:
            if F[p, p].size == 0:
                continue
            _, s, _, info = dgesdd(F[p, p], compute_uv=0)
            if info != 0:
                raise np.linalg.LinAlgError(f"dgesdd failed with info={info}")
            s_max = max(s_max, float(s[0]))
            if s[-1] < s_min:
                s_min, bottom = float(s[-1]), p
        lam = s_min**2
        top = s_max**2
        lam_err = (s_min + m * eps * s_max) ** 2 - s_min**2
        vec = np.zeros(m)
        if lam > 0.0:
            vec[bottom] = _bottom_vector(np.asfortranarray(F[bottom, bottom]), lam, lam_err)
    else:
        from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal
        from scipy.linalg.lapack import dormqr, dsytrd, dsytrd_lwork

        lwork, _ = dsytrd_lwork(m, lower=1)
        qt, d, e, tau, _ = dsytrd(G.entries, lower=1, lwork=int(lwork))
        tol = 2.0 * np.finfo(np.float64).tiny  # bisect to relative accuracy, not eps * ||T||
        w, V = eigh_tridiagonal(d, e, select="i", select_range=(0, 0), tol=tol)
        lam = float(w[0])
        top = float(eigvalsh_tridiagonal(d, e, select="i", select_range=(m - 1, m - 1), tol=tol)[0])
        if m > 1:
            V[1:] = dormqr("L", "N", qt[1:, :-1], tau, V[1:], 1)[0]
        vec = V[:, 0]
        lam_err = m * eps * top
    if lam <= 0.0:
        raise DegenerateRestrictionError(
            f"restriction form degenerate at quadrature resolution (lambda_min={lam:.3e})"
        )
    return SpectralResult(
        constant=lam ** (-0.5),
        lambda_min=lam,
        extremizer=vec,
        condition=top / lam,
        lambda_err=lam_err,
        floor=lam <= lam_err,
    )


@dataclass(frozen=True)
class GrowthFitReport:
    """Least-squares fit of log C_N against N^{1-eps/2}."""

    pairs: tuple
    epsilon: float
    intercept: float
    slope: float
    r2: float


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon <= 1:
        raise ValueError("ε must lie in (0,1]")


def growth_fit(pairs, epsilon: float) -> GrowthFitReport:
    """Fit log C_N = A + B N^{1-eps/2} over (N, C_N) pairs.

    Needs at least five pairs with strictly increasing N. The slope is the
    empirical aggregate of the growth law; r2 is clipped to [0, 1] and a
    constant sequence fits perfectly with slope 0.
    """
    pts = [(int(N), float(C)) for N, C in pairs]
    if len(pts) < 5:
        raise ValueError("at least 5 (N, C_N) pairs required")
    Ns = np.array([p[0] for p in pts], dtype=np.float64)
    Cs = np.array([p[1] for p in pts], dtype=np.float64)
    if np.any(np.diff(Ns) <= 0):
        raise ValueError("N values must be strictly increasing")
    if np.any(Cs <= 0):
        raise ValueError("C_N values must be positive")
    _check_epsilon(epsilon)
    x = Ns ** (1.0 - epsilon / 2.0)
    y = np.log(Cs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot <= 1e-30:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    return GrowthFitReport(
        pairs=tuple(pts),
        epsilon=float(epsilon),
        intercept=float(intercept),
        slope=float(slope),
        r2=float(r2),
    )
