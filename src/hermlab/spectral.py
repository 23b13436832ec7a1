"""Restriction Gram matrices, spectral constants, and growth-law fits.

For the span E_N of Hermite functions of total degree <= N and a sensor set
omega, the Gram matrix G collects the pairings of basis functions over
omega. Its smallest eigenvalue gives the sharpest constant C with
||f|| <= C ||f||_{L2(omega)} on E_N, namely C = lambda_min^{-1/2}, and the
bottom eigenvector is the extremal expansion.

Assembly evaluates the basis on composite Gauss-Legendre panels restricted
to omega. In 1-D the panels cover the exact interval decomposition and
G = B^T B comes from the weighted evaluation factor B; lambda_min is the
square of the smallest singular value of B, which stays accurate far below
the eps*||G|| floor of a direct eigensolve. In 2-D the x-nodes are grouped
into runs over which the slice of omega does not change; each run adds the
separable block Px[a1, a1] * My[a2, a2] of its x- and y-pairings, and
lambda_min is the bottom eigenvalue of a dense symmetric eigensolve. Sets
with piecewise slices (boxes, periodic patterns) are sliced once per piece
between first-axis breakpoints; ball unions once per x-node.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import indexing
from .geometry import ControlSet, QuadratureError, slice_pieces
from .kernels import hermite_function_table
from .quadrature import gauss_legendre

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


class DegenerateRestrictionError(RuntimeError):
    """The sensor set annihilates part of the span at quadrature resolution."""


def truncation_radius(degree: int) -> float:
    """Radius beyond which every basis function of the span is < 1e-14."""
    return math.sqrt(4.0 * degree + 20.0)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric PSD pairing matrix of the degree-N span over a sensor set.

    factor holds the weighted evaluation matrix B with B^T B = entries when
    the assembly is one-dimensional; quad_tol is the observed change under
    halving the quadrature panels.
    """

    degree: int
    dim: int
    entries: np.ndarray = field(repr=False)
    factor: np.ndarray | None = field(repr=False)
    omega_ref: str
    quad_tol: float
    radius: float

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _panel_nodes(intervals: np.ndarray, panel_len: float, order: int):
    """Composite Gauss-Legendre nodes/weights over an interval union."""
    base_x, base_w = gauss_legendre(order)
    xs, ws = [], []
    for a, b in intervals:
        k = max(int(math.ceil((b - a) / panel_len)), 1)
        edges = np.linspace(a, b, k + 1)
        lo = edges[:-1, None]
        hi = edges[1:, None]
        xs.append(((hi + lo) / 2 + (hi - lo) / 2 * base_x[None, :]).ravel())
        ws.append(((hi - lo) / 2 * base_w[None, :]).ravel())
    if not xs:
        return np.empty(0), np.empty(0)
    return np.concatenate(xs), np.concatenate(ws)


def _factor_1d(omega: ControlSet, degree: int, panel_len: float, order: int) -> np.ndarray:
    R = truncation_radius(degree)
    iv = omega.intervals_1d(-R, R)
    x, w = _panel_nodes(iv, panel_len, order)
    if x.size == 0:
        return np.zeros((0, degree + 1))
    table = hermite_function_table(degree, np.ascontiguousarray(x))
    return (table * np.sqrt(w)).T


def _gram_2d(omega: ControlSet, degree: int, panel_len: float, order: int) -> np.ndarray:
    R = truncation_radius(degree)
    alphas = indexing.multi_indices(2, degree)
    a1 = alphas[:, 0]
    a2 = alphas[:, 1]
    pieces = [(a, b, sub) for a, b, sub in slice_pieces(omega, -R, R) if b - a > 1e-14]
    parts = [_panel_nodes(np.array([[a, b]]), panel_len, order) for a, b, _ in pieces]
    x = np.concatenate([p[0] for p in parts])
    wx = np.concatenate([p[1] for p in parts])
    if omega.piecewise_slices:
        # the slice of a piece holds at every one of its nodes
        sizes = [p[0].size for p in parts]
        slices = [sub for _, _, sub in pieces]
    else:
        sizes = [1] * x.size
        slices = [omega.slice_first(float(xi)) for xi in x]
    # runs of consecutive x-nodes sharing one slice: [start, stop, slice intervals]
    runs = []
    start = 0
    for size, sub in zip(sizes, slices):
        iv = sub.intervals_1d(-R, R)
        if runs and np.array_equal(iv, runs[-1][2]):
            runs[-1][1] = start + size
        else:
            runs.append([start, start + size, iv])
        start += size
    Bx = hermite_function_table(degree, x) * np.sqrt(wx)
    G = np.zeros((alphas.shape[0],) * 2)
    for start, stop, iv in runs:
        y, wy = _panel_nodes(iv, panel_len, order)
        if y.size == 0:
            continue
        By = hermite_function_table(degree, y) * np.sqrt(wy)
        Px = Bx[:, start:stop] @ Bx[:, start:stop].T
        My = By @ By.T
        G += Px[a1[:, None], a1[None, :]] * My[a2[:, None], a2[None, :]]
    return G


def gram_matrix(
    omega: ControlSet,
    degree: int,
    order: int = 16,
    fail_tol: float = 1e-7,
    verify: bool = True,
) -> GramMatrix:
    """Assemble the pairing matrix of the degree-N span over omega.

    The quadrature domain is truncated where the span's Gaussian envelope
    drops below 1e-14; panels shrink with degree so each holds a bounded
    number of oscillations. When verify is set, the assembly is repeated at
    half the panel length; the entrywise change is reported as quad_tol and
    the finer result returned. Raises QuadratureError when that change
    exceeds fail_tol.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if omega.dim not in (1, 2):
        raise ValueError(f"dimension {omega.dim} unsupported for Gram assembly")
    if omega.dim == 2 and degree > _MAX_DEGREE_2D:
        raise ValueError(f"2-D Gram assembly capped at degree {_MAX_DEGREE_2D}")
    panel_len = min(0.5, 6.0 / math.sqrt(2.0 * degree + 1.0))

    if omega.dim == 1:
        B = _factor_1d(omega, degree, panel_len, order)
        G = B.T @ B
        quad_tol = 0.0
        if verify:
            B2 = _factor_1d(omega, degree, panel_len / 2.0, order)
            G2 = B2.T @ B2
            quad_tol = float(np.max(np.abs(G - G2))) if G.size else 0.0
            G, B = G2, B2
    else:
        G = _gram_2d(omega, degree, panel_len, order)
        B = None
        quad_tol = 0.0
        if verify:
            G2 = _gram_2d(omega, degree, panel_len / 2.0, order)
            quad_tol = float(np.max(np.abs(G - G2))) if G.size else 0.0
            G = G2
    if verify and quad_tol > fail_tol:
        raise QuadratureError(f"Gram quadrature unstable: refinement moved entries by {quad_tol:.3e}")

    G = (G + G.T) / 2.0
    floor = float(np.min(np.linalg.eigvalsh(G))) if G.size else 0.0
    if floor < -1e-10:
        raise QuadratureError(f"Gram matrix not PSD: min eigenvalue {floor:.3e}")
    G.setflags(write=False)
    if B is not None:
        B.setflags(write=False)
    return GramMatrix(
        degree=degree,
        dim=omega.dim,
        entries=G,
        factor=B,
        omega_ref=repr(omega),
        quad_tol=quad_tol,
        radius=truncation_radius(degree),
    )


@dataclass(frozen=True)
class SpectralResult:
    """Sharp restriction constant with its eigen-certificate."""

    constant: float
    lambda_min: float
    extremizer: np.ndarray = field(repr=False)
    condition: float
    method: str


def spectral_constant(G: GramMatrix) -> SpectralResult:
    """C_N(omega) = lambda_min(G)^{-1/2} with the extremal coefficient vector.

    When the weighted evaluation factor is available (1-D), lambda_min is
    the squared smallest singular value of the factor, accurate even when it
    sits far below machine epsilon times ||G|| (method "factor-svd").
    Otherwise (2-D) it is the bottom eigenvalue of a dense symmetric
    eigensolve of the entries, accurate to about m * eps * ||G|| (method
    "dense-eigh").
    """
    if G.factor is not None and G.factor.size:
        _, s, Vt = np.linalg.svd(G.factor, full_matrices=False)
        lam = float(s[-1] ** 2)
        vec = Vt[-1]
        top = float(s[0] ** 2)
        method = "factor-svd"
    else:
        w, V = np.linalg.eigh(G.entries)
        lam, vec, top = float(w[0]), V[:, 0], float(w[-1])
        method = "dense-eigh"
    if lam <= 0.0:
        raise DegenerateRestrictionError(
            f"restriction form degenerate at quadrature resolution (lambda_min={lam:.3e})"
        )
    return SpectralResult(
        constant=lam ** (-0.5),
        lambda_min=lam,
        extremizer=vec,
        condition=top / lam if lam > 0 else math.inf,
        method=method,
    )


@dataclass(frozen=True)
class GrowthFitReport:
    """Least-squares fit of log C_N against N^{1-eps/2}."""

    pairs: tuple
    epsilon: float
    intercept: float
    slope: float
    r2: float


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
    if not 0 < epsilon <= 1:
        raise ValueError("ε must lie in (0,1]")
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
