"""Restriction Gram matrices, spectral constants, and growth-law fits.

For the span E_N of Hermite functions of total degree <= N and a sensor set
omega, the Gram matrix G collects the pairings of basis functions over
omega. Its smallest eigenvalue gives the sharpest constant C with
||f|| <= C ||f||_{L2(omega)} on E_N, namely C = lambda_min^{-1/2}, and the
bottom eigenvector is the extremal expansion.

Assembly evaluates the basis on composite 16-node Gauss-Legendre panels
restricted to omega, of length L = min(0.5, 6 / sqrt(2N + 1)); a check rule
on panels of 2L bounds the quadrature error as quad_tol, the largest change
of an entry between the rules. Against an order-20 rule on panels of L/4
the returned entries are off by at most 4e-15 on the graded, periodic and
control sets at N <= 400. In both dimensions the intervals take one
panel_nodes call per rule and both rules' nodes one Hermite table, which
applies the weights sqrt(w) inside its recurrence (the kernel's per-point
factor), so no pass over the finished table weights it; no check Gram is
kept. In 1-D one recursive-panel QR of the weighted evaluation factor B
leaves the m x m triangle R, G = R^T R, and only R is kept. A set equal to
its mirror image (graded cells, their complement, the whole line) splits by
parity, since h_k(-x) = (-1)^k h_k(x): the entries pairing even with odd
degrees are exactly zero, the even and the odd columns are integrated on
x >= 0 with doubled weights and factored apart, and each half-size
triangle is written straight onto its own rows and columns of R.
lambda_min is the square of the smallest singular value of R (equal to
that of B), from the singular values of R alone, taken block by block when
R splits by parity, which stays accurate far below the eps*||G|| floor of
a direct eigensolve; the bottom vector comes from inverse iteration on R,
two triangular solves per step. A 2-D set (the full plane, boxes, periodic
patterns) is cut to the truncation square as cells, rectangles swept along
the first axis; the first-axis pieces whose cells have the same y-intervals
are pooled, and each distinct set of y-intervals adds one separable block
Px[a1, a1] * My[a2, a2] of its x- and y-pairings to each rule. Each block
is the Hadamard product of two PSD matrices, so the 2-D Gram is PSD to
rounding (Schur product theorem). Its lambda_min is the bottom eigenvalue
of the tridiagonal matrix left by a Householder reduction, found by
bisection (LAPACK dstebz) with the top one, and the bottom vector comes
from inverse iteration (dstein) mapped back through the reflectors. A Gram
exactly invariant under the axis exchange (a1, a2) -> (a2, a1), as on the
full plane and every periodic pattern, splits into an exchange-even and an
exchange-odd block of about half the size, and each is reduced on its own
at about a quarter of the flops of the whole; any other Gram is reduced
whole.

Every lambda_min carries lambda_err, the rounding error bound of its solve,
and a floor flag set when lambda_min does not exceed that bound: such a
value is rounding noise and its C_N only a lower bound on the constant.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import indexing
from .geometry import ControlSet, QuadratureError, cell_runs
from .hermite import DEGREE_CAP
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
_BLOCK_ROWS = 64  # rows of the 2-D Gram assembled at a time


class DegenerateRestrictionError(RuntimeError):
    """The sensor set annihilates part of the span at quadrature resolution."""


def truncation_radius(degree: int) -> float:
    """Radius outside which each h_k^2 of the span keeps at most 3.1e-17 of its unit mass.

    That bound is the two-sided tail integral, measured for N = 0..40, 60,
    100, 200 and 400; it is largest at low degree, where the 36 dominates.
    """
    return math.sqrt(4.0 * degree + 36.0)


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric PSD pairing matrix of the degree-N span over a sensor set.

    factor holds, when the assembly is one-dimensional, the m x m upper
    triangle R with R^T R = entries: the QR triangle of the weighted
    evaluation matrix, zero below its rank when the set has fewer nodes than
    basis functions. quad_tol is the largest entrywise change under doubling
    the quadrature panels. nodes counts the quadrature points of the
    returned rule: in 2-D the sum over distinct slices of x-nodes times
    y-nodes.
    """

    entries: np.ndarray = field(repr=False)
    factor: np.ndarray | None = field(repr=False)
    quad_tol: float
    nodes: int

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def _panel_length(degree: int) -> float:
    """Panel length of the returned rule; the check rule's panels are twice as long.

    Panels shrink with degree so each holds a bounded number of oscillations.
    """
    return min(1.0, 12.0 / math.sqrt(2.0 * degree + 1.0)) / 2.0


def _weighted_tables(parts, degree: int, panel_len: float, weight: float = 1.0):
    """Per rule, each part's (degree + 1) x nodes columns of sqrt(weight * w) h_k(x).

    parts are arrays of intervals, all integrated by one panel_nodes call per
    rule, the returned one on panels of panel_len and the check rule on
    2 * panel_len; both rules' nodes go through one Hermite table, which
    takes sqrt(weight * w) as its per-point factor.
    """
    intervals = np.concatenate(parts) if parts else np.empty((0, 2))
    bounds = np.cumsum([0] + [p.shape[0] for p in parts])  # each part's first interval, then the end
    rules = [panel_nodes(intervals, L, _ORDER) for L in (panel_len, 2.0 * panel_len)]
    weights = np.sqrt(weight * np.concatenate([w for _, w, _ in rules]))
    table = hermite_function_table(degree, np.concatenate([x for x, _, _ in rules]), weights)
    # each rule's node count per part, then every part's columns in table order
    sizes = [np.diff(np.concatenate([[0], np.cumsum(counts)])[bounds]) for _, _, counts in rules]
    cuts = np.cumsum(np.concatenate([[0], *sizes]))
    columns = [table[:, i:j] for i, j in zip(cuts[:-1], cuts[1:])]
    return columns[: len(parts)], columns[len(parts) :]


def _gram_1d(omega: ControlSet, degree: int, panel_len: float):
    """(G, R, quad_tol, node count) of a 1-D set on panels of panel_len, checked on 2 * panel_len.

    h_k(-x) = (-1)^k h_k(x), so on a set equal to its mirror image every
    entry pairing an even with an odd degree vanishes and the rest are twice
    their integral over x >= 0. Such a set is integrated on its half-line
    intervals with doubled weights, one parity class of columns at a time,
    and each class's triangle sits on its own rows and columns of R, which
    keeps R upper triangular. Any other set is one class on the whole line.
    Each class's block of G is F_c^T F_c of a contiguous copy F_c of its
    triangle, so no product runs over the zero blocks between the classes.
    quad_tol compares each class's check pairing B_c B_c^T with that block,
    the only entries the check rule does not leave zero, the difference
    formed in place in the pairing.
    """
    R = truncation_radius(degree)
    iv = omega.cells([[-R, R]])[:, 0]
    if np.array_equal(iv, -iv[::-1, ::-1]):
        iv = np.clip(iv, 0.0, None)
        iv = iv[iv[:, 1] > iv[:, 0]]
        classes, weight = (slice(0, None, 2), slice(1, None, 2)), 2.0
    else:
        classes, weight = (slice(None),), 1.0
    (B,), (B_check,) = _weighted_tables([iv], degree, panel_len, weight)
    m = degree + 1
    F = np.zeros((m, m))
    G = np.zeros((m, m))
    quad_tol = 0.0
    for p in classes:
        _triangle(B[p].T, F[p, p])
        F_p = np.ascontiguousarray(F[p, p])
        G_p = F_p.T @ F_p
        G[p, p] = G_p
        gap = B_check[p] @ B_check[p].T
        gap -= G_p
        # initial=0.0: a degree-0 symmetric set leaves the odd class empty
        quad_tol = max(quad_tol, float(np.max(np.abs(gap, out=gap), initial=0.0)))
    return G, F, quad_tol, int(weight) * B.shape[1]


def _triangle(B: np.ndarray, R: np.ndarray) -> None:
    """Write into the zero m x m view R the upper triangle of a QR of B (nodes x m), so R^T R = B^T B.

    One recursive-panel Householder QR (LAPACK dgeqrt) of a copy of B. When
    B has k < m rows, R keeps zero rows below its first k, so the missing
    singular values stay zero.
    """
    from scipy.linalg.lapack import dgeqrt

    m = B.shape[1]
    k = min(B.shape)
    if k:
        qr, _, info = dgeqrt(min(64, k), B)
        if info != 0:
            raise np.linalg.LinAlgError(f"dgeqrt failed with info={info}")
        np.copyto(R[:k], qr[:k], where=~np.tri(k, m, -1, dtype=bool))


def _gram_2d(omega: ControlSet, degree: int, panel_len: float):
    """(G, None, quad_tol, node count): one separable block per distinct slice and rule.

    omega's cells in the truncation square come in runs over first-axis
    pieces (see cell_runs); the pieces are pooled by the y-intervals of
    their cells, their slice. Each distinct slice adds Px[a1, a1] *
    My[a2, a2] of its x- and y-pairings to G, on panels of panel_len; each
    pairing is B B^T of its part's columns (see _weighted_tables). G and the
    check rule's sum, on panels of 2 * panel_len, are built 64 rows at a
    time, and quad_tol is their largest difference over every row.
    """
    R = truncation_radius(degree)
    a1, a2 = indexing.multi_indices(2, degree).T
    # the y-intervals of a piece hold at every one of its nodes
    spans = {}
    for a, b, rest in cell_runs(omega.cells([[-R, R], [-R, R]])):
        if b - a > 1e-14:
            iv = rest[:, 0]
            spans.setdefault(iv.tobytes(), (iv, []))[1].append((a, b))
    # parts alternate each distinct slice's x-pieces and y-intervals
    parts = [p for iv, ab in spans.values() for p in (np.array(ab), iv)]
    columns = _weighted_tables(parts, degree, panel_len)
    pairings = [[b @ b.T for b in rule] for rule in columns]
    m = a1.size
    G = np.zeros((m, m))
    check = np.empty((min(m, _BLOCK_ROWS), m))  # the check rule's rows, one block at a time
    gaps = []
    # blocks of rows keep each product's temporaries small; every entry still
    # adds its slices' products in slice order
    for lo in range(0, m, _BLOCK_ROWS):
        r = slice(lo, lo + _BLOCK_ROWS)
        rows, rows_check = G[r], check[: a1[r].size]
        rows_check.fill(0.0)
        for g, rule in zip((rows, rows_check), pairings):
            for px, my in zip(rule[0::2], rule[1::2]):
                block = px.take(a1[r], axis=0).take(a1, axis=1)
                block *= my.take(a2[r], axis=0).take(a2, axis=1)
                g += block
        rows_check -= rows
        gaps.append(np.max(np.abs(rows_check, out=rows_check)))
    nodes = sum(bx.shape[1] * by.shape[1] for bx, by in zip(columns[0][0::2], columns[0][1::2]))
    return G, None, float(np.max(gaps)), nodes


def gram_matrix(
    omega: ControlSet,
    degree: int,
    fail_tol: float = 1e-7,
) -> GramMatrix:
    """Assemble the pairing matrix of the degree-N span over omega.

    The quadrature domain is truncated at truncation_radius(N), outside
    which each basis function keeps at most 3.1e-17 of its squared mass,
    so the full-space Gram is the identity to rounding. Two rules of 16-node
    Gauss panels share one Hermite table (see _weighted_tables): the
    returned one, with panels of length L = min(0.5, 6 / sqrt(2N + 1)), and
    a check rule with panels of 2L. Their largest entrywise difference is
    reported as quad_tol; it reads at most 1.1e-13 on the benchmark sets,
    while the returned entries are within 4e-15 of an order-20 rule on
    panels of L/4. Raises QuadratureError when quad_tol exceeds fail_tol.
    In 1-D the returned entries are R^T R for the QR triangle R of the
    weighted evaluation factor, and R is kept as the factor; on a set that
    is its own mirror image R splits by parity (see _gram_1d) and nodes
    counts each half-line node twice. In 2-D the entries sum one separable
    block per distinct slice of omega's cells in the truncation square (see
    _gram_2d).
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if omega.dim == 1 and degree > DEGREE_CAP:
        raise ValueError(f"1-D Gram assembly capped at degree {DEGREE_CAP}")
    if omega.dim not in (1, 2):
        raise ValueError(f"dimension {omega.dim} unsupported for Gram assembly")
    if omega.dim == 2 and degree > _MAX_DEGREE_2D:
        raise ValueError(f"2-D Gram assembly capped at degree {_MAX_DEGREE_2D}")
    assemble = _gram_1d if omega.dim == 1 else _gram_2d
    G, R, quad_tol, nodes = assemble(omega, degree, _panel_length(degree))
    if quad_tol > fail_tol:
        raise QuadratureError(f"Gram quadrature unstable: refinement moved entries by {quad_tol:.3e}")

    if R is not None:
        R.setflags(write=False)
    G.setflags(write=False)
    return GramMatrix(entries=G, factor=R, quad_tol=quad_tol, nodes=nodes)


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


def _tridiagonal_eigenvalue(d: np.ndarray, e: np.ndarray, i: int) -> tuple:
    """(w, iblock, isplit) of eigenvalue i (0 the bottom) of the symmetric tridiagonal (d, e), for dstein.

    Bisection (LAPACK dstebz) to relative accuracy, not eps * ||T||, over
    the index range [i, i]. Where rounding makes its Sturm counts
    non-monotonic, as on a tridiagonal within a few eps of the identity, that
    range fails with info 2 or 3; LAPACK's documented cure then runs: every
    eigenvalue is bisected in ascending order and the i-th is kept.
    """
    from scipy.linalg.lapack import dstebz

    tol = 2.0 * np.finfo(np.float64).tiny
    found, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, i + 1, i + 1, tol, "E")
    if info in (2, 3):
        found, w, iblock, isplit, info = dstebz(d, e, 0, 0.0, 1.0, 1, 1, tol, "E")
        # the i-th goes first, where dstein reads it
        found, w, iblock = found - i, w[i:], np.roll(iblock, -i)
    if info != 0 or found < 1:
        raise np.linalg.LinAlgError(f"dstebz failed with info={info}")
    return w[:1], iblock, isplit


def _reduce(a: np.ndarray) -> tuple:
    """(bottom, top, state) of the symmetric Fortran block a, reduced to a tridiagonal in place.

    One Householder reduction (LAPACK dsytrd, lower triangle) leaves T =
    Q^T a Q; bisection (see _tridiagonal_eigenvalue) finds T's bottom and
    top eigenvalues. state holds what _reduced_bottom_vector needs to map T's
    bottom vector back through the reflectors.
    """
    from scipy.linalg.lapack import dsytrd, dsytrd_lwork

    n = a.shape[0]
    lwork, _ = dsytrd_lwork(n, lower=1)
    qt, d, e, tau, _ = dsytrd(a, lower=1, lwork=int(lwork), overwrite_a=1)
    e = e if n > 1 else np.zeros(1)  # the wrappers want max(n - 1, 1) off-diagonal entries
    w, iblock, isplit = _tridiagonal_eigenvalue(d, e, 0)
    top = float(_tridiagonal_eigenvalue(d, e, n - 1)[0][0])
    return float(w[0]), top, (qt, tau, d, e, w, iblock, isplit)


def _reduced_bottom_vector(qt, tau, d, e, w, iblock, isplit) -> np.ndarray:
    """Unit bottom eigenvector of a block reduced by _reduce: inverse iteration (dstein), then dormqr."""
    from scipy.linalg.lapack import dormqr, dstein

    V, info = dstein(d, e, w, iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein failed with info={info}")
    if d.size > 1:
        V[1:] = dormqr("L", "N", qt[1:, :-1], tau, V[1:], 1)[0]
    return V[:, 0]


@lru_cache(maxsize=32)
def _swap_classes(m: int):
    """(sigma, d, p, q) for the axis exchange of the 2-D span of size m, None when m is no such size.

    sigma(a1, a2) = (a2, a1) permutes the multi-indices of total degree
    <= N; d lists its fixed points (a1 = a2), p the indices with a1 < a2,
    and q = sigma(p).
    """
    N = (math.isqrt(8 * m + 1) - 3) // 2
    if indexing.span_dim(2, N) != m:
        return None
    alpha = indexing.multi_indices(2, N)
    sigma = np.empty(m, dtype=np.intp)
    # the k-th smallest swapped pair is the k-th smallest pair
    sigma[np.lexsort(alpha.T)] = np.lexsort(alpha.T[::-1])
    assert np.array_equal(sigma[sigma], np.arange(m)), "the axis exchange is not an involution"
    d = np.flatnonzero(alpha[:, 0] == alpha[:, 1])
    p = np.flatnonzero(alpha[:, 0] < alpha[:, 1])
    out = (sigma, d, p, sigma[p])
    for a in out:
        a.setflags(write=False)
    return out


def _swap_blocks(E: np.ndarray):
    """(S, A, d, p, q): E's two blocks under the axis exchange when E is exactly invariant under it, else None.

    With sigma, d, p and q from _swap_classes, E[sigma][:, sigma] is compared
    with E bitwise, on the diagonal first, then row class by row class. When
    they agree, the orthogonal basis e_d, (e_p + e_q) / sqrt(2),
    (e_p - e_q) / sqrt(2) splits E into the sigma-even block
    S = [[E_dd, sqrt(2) E_dp], [sqrt(2) E_pd, E_pp + E_pq]] and the
    sigma-odd block A = E_pp - E_pq, both Fortran-ordered.
    """
    swap = _swap_classes(E.shape[0])
    if swap is None:
        return None
    sigma, d, p, q = swap
    diag = np.diagonal(E)
    if not np.array_equal(diag[p], diag[q]):
        return None
    E_d, E_p = E[d], E[p]
    # sigma maps the rows q onto the rows p and each row of d onto itself
    if not (np.array_equal(E[q][:, sigma], E_p) and np.array_equal(E_d[:, sigma], E_d)):
        return None
    k, n = d.size, p.size
    E_pp, E_pq = E_p[:, p], E_p[:, q]
    S = np.empty((k + n,) * 2, order="F")
    S[:k, :k] = E_d[:, d]
    np.multiply(E_p[:, d], math.sqrt(2.0), out=S[k:, :k])
    S[:k, k:] = S[k:, :k].T
    np.add(E_pp, E_pq, out=S[k:, k:])
    A = np.subtract(E_pp, E_pq, out=np.empty((n, n), order="F"))
    return S, A, d, p, q


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
    T = Q^T G Q by a Householder reduction (LAPACK dsytrd, see _reduce);
    bisection (dstebz) finds T's bottom and top eigenvalues to relative
    accuracy, inverse iteration (dstein) T's bottom vector, and the
    reflectors map it back (dormqr). Only these two eigenvalues are
    computed, unless bisection over one index fails (see
    _tridiagonal_eigenvalue). When the entries are exactly invariant under
    the axis exchange sigma(a1, a2) = (a2, a1), they are not reduced whole:
    the exchange-even block S and the exchange-odd block A (see
    _swap_blocks) are reduced apart, lambda_min and lambda_top are the
    least and the greatest over both, dstein and dormqr run only on the
    block holding the bottom, and its vector s maps back through the
    orthogonal change of basis, v[d] = s_d, v[p] = s_p / sqrt(2) and
    v[q] = +-v[p], so the extremizer is exchange-even or exchange-odd. Any
    other Gram (a box union not symmetric in the diagonal) is reduced whole.
    Either way the reductions' backward error gives lambda_err =
    m * eps * lambda_top with the full size m. Raises
    DegenerateRestrictionError when lambda_min <= 0; floor is set when
    lambda_min <= lambda_err.
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
        split = _swap_blocks(G.entries)
        if split is None:
            blocks = [np.array(G.entries, order="F")]
        else:
            S, A, d, p, q = split
            blocks = [S, A] if A.size else [S]  # degree 0 has no sigma-odd block
        reduced = [_reduce(b) for b in blocks]
        bottom = min(range(len(reduced)), key=lambda i: reduced[i][0])
        lam = reduced[bottom][0]
        top = max(r[1] for r in reduced)
        s = _reduced_bottom_vector(*reduced[bottom][2])
        if split is None:
            vec = s
        else:
            # back through the basis: v[d] = s_d, v[p] = s_p / sqrt(2), v[q] = +-v[p]
            vec = np.zeros(m)
            if bottom == 0:  # sigma-even
                vec[d], vec[p] = s[: d.size], s[d.size :] / math.sqrt(2.0)
                vec[q] = vec[p]
            else:  # sigma-odd
                vec[p] = s / math.sqrt(2.0)
                vec[q] = -vec[p]
        # the full size m, so floor means the same with and without the split
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

    intercept: float
    slope: float
    r2: float
    slope_err: float


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon <= 1:
        raise ValueError("ε must lie in (0,1]")


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple:
    """(slope, intercept, r2, slope_err) of the least-squares line y = intercept + slope x.

    r2 is clipped to [0, 1], and flat y has r2 = 1 only on an exact fit. slope_err
    is the standard error sqrt(SS_res / (n - 2) / sum (x - mean x)^2), None on two points.
    """
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(np.sum((y - (intercept + slope * x)) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = float(ss_res <= 1e-24) if ss_tot <= 1e-30 else min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    dof = x.size - 2
    slope_err = float(np.sqrt(ss_res / dof / np.sum((x - np.mean(x)) ** 2))) if dof else None
    return float(slope), float(intercept), float(r2), slope_err


def growth_fit(pairs, epsilon: float) -> GrowthFitReport:
    """Fit log C_N = A + B N^{1-eps/2} over (N, C_N) pairs (see _line_fit).

    Needs at least five pairs with strictly increasing N. The slope is the
    empirical aggregate of the growth law, slope_err its standard error; a
    constant sequence fits perfectly with slope 0.
    """
    pts = [(int(N), float(C)) for N, C in pairs]
    if len(pts) < 5:
        raise ValueError("at least 5 (N, C_N) pairs required")
    Ns, Cs = np.array(pts, dtype=np.float64).T
    if np.any(np.diff(Ns) <= 0):
        raise ValueError("N values must be strictly increasing")
    if np.any(Cs <= 0):
        raise ValueError("C_N values must be positive")
    _check_epsilon(epsilon)
    slope, intercept, r2, slope_err = _line_fit(Ns ** (1.0 - epsilon / 2.0), np.log(Cs))
    return GrowthFitReport(intercept=intercept, slope=slope, r2=r2, slope_err=slope_err)
