"""Densities, thick control sets, intersection measures, and ball coverings.

A density is a positive radius field rho on R^n: the power law R<x>^{1-eps},
whose eps = 1 is the constant density, or a 1-D table, taking points of any
shape. A covering needs it slowly varying (1/2-Lipschitz), and
covering_generate checks that from its exact Lipschitz constant.
A control set omega is a union of boxes, a periodic pattern, or the full
space; thickness of omega with respect to rho is the worst-case volume
fraction |omega cap B(x, rho(x))| / |B(x, rho(x))| over ball centers x.

Every 1-D and 2-D measure is exact. Each control set cuts itself to a
window as disjoint cells, boxes swept along the first axis (see
ControlSet.cells); in 2-D the cells in the disk's bounding square are
rectangles, and the disk's area inside each has a closed form. Only 3-D
uses panel halving: the exact 2-D measure of the cells over each
first-axis piece is integrated along the first axis by Gauss panels,
halved until two sums agree, under the substitution x = c + r sin(theta),
which absorbs the square-root behaviour at the ball's rim. Panels split at
the pieces' ends and where the slice measure stops being analytic: where
the slice disk becomes tangent to an edge line or passes through a corner
of the piece's rectangles. A cubic substitution that flattens each panel's
ends makes the integrand smooth there.

The covering generator picks centers greedily from a fine grid, keeping a
candidate only when it is at least a third of the summed radii away from
every kept center; that makes the third-radius balls interior-disjoint by
construction while the full balls still cover the box. Selection walks the
grid line by line: a line's balls are chosen by a 1-D test, then mark every
later candidate they exclude through one stencil of grid offsets, built per
covering and cut per line to the line's reach, so its work follows the balls
kept and their reach; the coverage count takes each ball's run of covered
points on every grid line it reaches, so its work follows the lines each
ball reaches.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .kernels import greedy_ball_select
from .quadrature import panel_nodes

__all__ = [
    "InvalidDensityError",
    "QuadratureError",
    "CoverageError",
    "DensityFn",
    "ControlSet",
    "FullSpace",
    "BoxUnion",
    "interval_union",
    "PeriodicPattern",
    "graded_cells",
    "cell_runs",
    "intersection_measure",
    "ball_volume",
    "thickness_estimate",
    "Covering",
    "covering_generate",
    "TransferReport",
    "thickness_transfer_check",
]


class InvalidDensityError(ValueError):
    """Density is not positive, not defined where it is used, or too steep for a covering."""


class QuadratureError(RuntimeError):
    """Measure quadrature failed to reach the requested tolerance."""


class CoverageError(RuntimeError):
    """Generated balls fail to cover the box; holds the diagnostics."""

    def __init__(self, message, uncovered=None):
        super().__init__(message)
        self.uncovered = uncovered


# -- interval helpers (1-D exact arithmetic) ---------------------------------


def _merge_intervals(iv: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """The (k, 2) intervals iv clipped to [lo, hi], sorted and merged into disjoint intervals.

    A start at most the running maximum of the ends joins the interval before.
    """
    a = np.maximum(iv[:, 0], lo)
    b = np.minimum(iv[:, 1], hi)
    order = np.flatnonzero(b > a)
    order = order[np.argsort(a[order], kind="stable")]
    a, b = a[order], np.maximum.accumulate(b[order])
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] > b[:-1]
    return np.column_stack([a[first], np.append(b[:-1][first[1:]], b[-1:])])


def _as_box(box) -> np.ndarray:
    """Normalize box bounds to an (n, 2) array."""
    arr = np.asarray(box, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2 or not np.all(arr[:, 0] < arr[:, 1]):
        raise ValueError("box must be ((lo, hi), ...) with lo < hi per axis")
    return arr


# -- densities ---------------------------------------------------------------


def _finite(name: str, x) -> float:
    """x as a float if it is a finite real number; a bool is not one."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
        raise InvalidDensityError(f"{name} must be a finite number, not {x!r}")
    return float(x)


@dataclass(frozen=True)
class DensityFn:
    """Positive radius field rho on R^n, of finite parameters.

    kind 'power': rho(x) = R <x>^{1-eps} with <x> = sqrt(1 + |x|^2) and eps
    in (0, 1]; the constant m is the law at R = m, eps = 1. kind 'tabulated':
    1-D linear interpolation of (grid, values), clamped outside the grid,
    with m and R its smallest and largest value. rho takes a scalar, (k,)
    1-D points or (k, n) points, and a table also takes (k, 1).
    """

    kind: str
    m: float
    R: float
    eps: float
    grid: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("power", "tabulated"):
            raise InvalidDensityError(f"unknown density kind {self.kind!r}")

    @staticmethod
    def constant(m: float) -> "DensityFn":
        if not _finite("m", m) > 0:
            raise InvalidDensityError("constant density requires m > 0")
        return DensityFn.power(m, 1.0)

    @staticmethod
    def power(R: float, eps: float) -> "DensityFn":
        R, eps = _finite("R", R), _finite("eps", eps)
        if not R > 0:
            raise InvalidDensityError("power density requires R > 0")
        if not 0 < eps <= 1:
            raise InvalidDensityError("ε must lie in (0,1]")
        # <x> >= 1, so R is also the infimum of rho
        return DensityFn("power", R, R, eps)

    @staticmethod
    def tabulated(grid, values) -> "DensityFn":
        g = np.asarray(grid, dtype=np.float64)
        v = np.asarray(values, dtype=np.float64)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2 or not np.isfinite([g, v]).all():
            raise InvalidDensityError("tabulated density needs matching finite 1-D grid/values")
        if np.any(np.diff(g) <= 0):
            raise InvalidDensityError("tabulated grid must be strictly increasing")
        if np.any(v <= 0):
            raise InvalidDensityError("tabulated density must be positive")
        g = g.copy()
        v = v.copy()
        g.setflags(write=False)
        v.setflags(write=False)
        return DensityFn("tabulated", float(v.min()), float(v.max()), 1.0, g, v)

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        # a scalar goes through numpy's array pow too, which may round unlike its scalar pow
        x = pts[:, 0] if pts.ndim == 2 and pts.shape[1] == 1 else np.atleast_1d(pts)
        if self.kind == "power":
            with np.errstate(over="ignore"):
                r = np.abs(x) if x.ndim == 1 else np.linalg.norm(x, axis=-1)
                rr = r * r
            out = self.R * (1.0 + rr) ** ((1.0 - self.eps) / 2.0)
            # past |x| ~ 1.3e154 r * r overflows, and <x>^{1-eps} is r^{1-eps} to rounding
            far = np.isinf(rr)
            if far.any():
                r[far] = np.abs(x[far]) if x.ndim == 1 else np.hypot.reduce(x[far], axis=-1)
                out[far] = self.R * r[far] ** (1.0 - self.eps)
        elif x.ndim > 1:
            raise InvalidDensityError(f"tabulated density is 1-D only, got {x.shape[-1]}-D points")
        else:
            out = np.interp(x, self.grid, self.values)
        return float(out[0]) if pts.ndim == 0 else out

    def min_on_box(self, box) -> float:
        """Infimum of rho over the box, exact for every kind.

        A tabulated rho is piecewise linear, so its infimum is the smallest of
        its values at the two box ends and at the grid points inside the box.
        It is 1-D only, so it rejects a box of more axes.
        """
        b = _as_box(box)
        if self.kind == "power":
            return float(self(np.clip(0.0, b[:, 0], b[:, 1])[None, :])[0])
        ends = self(b.T)
        inside = self.values[(self.grid > b[0, 0]) & (self.grid < b[0, 1])]
        return float(min(np.min(ends), np.min(inside, initial=np.inf)))

    @property
    def lipschitz(self) -> float:
        """Global Lipschitz constant of rho, exact for every kind.

        A power rho is radial with slope R (1-eps) t (1 + t^2)^{-(1+eps)/2}
        at |x| = t, largest at t^2 = 1/eps. A tabulated rho is clamped flat
        outside its grid, so its steepest piece sets the constant.
        """
        if self.kind == "power":
            e = self.eps
            return self.R * (1.0 - e) * e ** (e / 2.0) * (1.0 + e) ** (-(1.0 + e) / 2.0)
        return float(np.max(np.abs(np.diff(self.values) / np.diff(self.grid))))


# -- control sets ------------------------------------------------------------


class ControlSet:
    """A measurable sensor region, described by its cells.

    Subclasses implement `cells(window)`: omega cut to the window, an
    (n, 2) array of per-axis bounds, as disjoint boxes in a (k, n, 2) array.
    The boxes are swept along the first axis: the first-axis pieces ascend
    without overlap, and the boxes over one piece are adjacent rows that
    carry its bounds exactly (see `cell_runs`). Every set has dim >= 1.
    """

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")

    def cells(self, window) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class FullSpace(ControlSet):
    """All of R^n."""

    dim: int = 1

    def cells(self, window):
        return np.asarray(window, dtype=np.float64).reshape(1, self.dim, 2)


def _box_cells(boxes: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Cells of the union of boxes (k, n, 2) inside window (n, 2).

    The window's first axis is cut at every box edge inside it; a piece
    holds the boxes that contain its midpoint, whose cells in the remaining
    axes come from the same sweep. On the last axis the boxes' intervals
    are clipped and merged.
    """
    lo, hi = window[0]
    if window.shape[0] == 1:
        return _merge_intervals(boxes[:, 0, :], lo, hi)[:, None, :]
    edges = boxes[:, 0, :].ravel()
    edges = np.unique(np.concatenate([[lo, hi], edges[(edges > lo) & (edges < hi)]]))
    mid = 0.5 * (edges[:-1, None] + edges[1:, None])
    holds = (boxes[:, 0, 0] <= mid) & (mid <= boxes[:, 0, 1])  # piece by box
    rests = [_box_cells(boxes[keep, 1:, :], window[1:]) for keep in holds]
    pieces = np.repeat(np.column_stack([edges[:-1], edges[1:]]), [r.shape[0] for r in rests], axis=0)
    rest = np.concatenate([np.empty((0, window.shape[0] - 1, 2)), *rests])
    return np.concatenate([pieces[:, None, :], rest], axis=1)


@dataclass(frozen=True)
class BoxUnion(ControlSet):
    """Union of axis-aligned boxes; boxes has shape (k, n, 2)."""

    dim: int
    boxes: np.ndarray = field(repr=False)

    def __post_init__(self):
        super().__post_init__()
        b = np.asarray(self.boxes, dtype=np.float64).reshape(-1, self.dim, 2)
        if not np.all(b[:, :, 0] <= b[:, :, 1]):
            raise ValueError("each box needs lo <= hi per axis, neither NaN")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "boxes", b)

    def cells(self, window):
        return _box_cells(self.boxes, np.asarray(window, dtype=np.float64).reshape(self.dim, 2))


def interval_union(intervals) -> BoxUnion:
    """1-D control set from a list of (a, b) pairs; infinite ends allowed."""
    iv = np.asarray(intervals, dtype=np.float64).reshape(-1, 2)
    return BoxUnion(1, iv[:, None, :])


@dataclass(frozen=True)
class PeriodicPattern(ControlSet):
    """Product of per-axis periodic stripes.

    Axis j keeps [offset + k L, offset + k L + kept * L) for every integer k.
    In one dimension the kept fraction per cell is `kept`; in n dimensions
    the product construction keeps kept^n of each period cell.
    """

    dim: int
    period: float
    kept: float
    offset: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.period) and self.period > 0):
            raise ValueError("period must be finite and positive")
        if not 0 < self.kept <= 1:
            raise ValueError("kept fraction must lie in (0, 1]")
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")

    def _axis_intervals(self, lo, hi):
        k0 = math.floor((lo - self.offset) / self.period) - 1
        k1 = math.ceil((hi - self.offset) / self.period) + 1
        ks = np.arange(k0, k1 + 1, dtype=np.float64)
        starts = self.offset + ks * self.period
        return _merge_intervals(np.column_stack([starts, starts + self.kept * self.period]), lo, hi)

    def cells(self, window):
        window = np.asarray(window, dtype=np.float64).reshape(self.dim, 2)
        axes = [self._axis_intervals(lo, hi) for lo, hi in window]
        index = np.meshgrid(*[np.arange(iv.shape[0]) for iv in axes], indexing="ij")
        return np.stack([iv[i.ravel()] for iv, i in zip(axes, index)], axis=1)


_MAX_CELLS = 100_000  # per side; the marching loop is pure Python


def graded_cells(rho: DensityFn, gamma: float, extent: float) -> BoxUnion:
    """1-D thick set tailored to a density: graded cells of width rho.

    Marching from the origin in both directions, each cell [a, a + rho(a))
    keeps its leading gamma fraction, so every ball B(x, rho(x)) meets the
    kept part in roughly a gamma fraction of its length. Each side has at
    most extent / rho.m cells, which must not exceed _MAX_CELLS.
    """
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    if not extent > 0:
        raise ValueError("extent must be positive")
    if extent / rho.m > _MAX_CELLS:
        raise ValueError(f"extent / rho.m = {extent / rho.m:.3g} exceeds the cell cap {_MAX_CELLS}")
    kept = []
    a = 0.0
    while a < extent:
        w = rho(a)
        kept.append((a, min(a + gamma * w, extent)))
        a += w
    a = 0.0
    while a > -extent:
        w = rho(a)
        kept.append((max(a - gamma * w, -extent), a))
        a -= w
    return interval_union(kept)


def cell_runs(cells: np.ndarray):
    """Yield (a, b, rest) per first-axis piece of cells: its bounds and the (j, n - 1, 2) cells over it."""
    first = cells[:, 0, :]
    new = np.ones(cells.shape[0], dtype=bool)
    new[1:] = np.any(first[1:] != first[:-1], axis=1)
    starts = np.flatnonzero(new).tolist()
    for i, j in zip(starts, starts[1:] + [cells.shape[0]]):
        yield first[i, 0], first[i, 1], cells[i:j, 1:]


# -- intersection measure ----------------------------------------------------

_UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def ball_volume(dim: int, radius: float) -> float:
    if dim not in _UNIT_BALL_VOLUME:
        raise ValueError(f"dimension {dim} unsupported (1, 2, or 3)")
    return _UNIT_BALL_VOLUME[dim] * radius**dim


def _relative(cells: np.ndarray, center, radius: float) -> np.ndarray:
    """2-D cells inside the square center +- radius, as rows (x0, x1, y0, y1) relative to the center.

    Each bound is clipped to [-radius, radius]; the square's own sides land
    on exactly +-radius.
    """
    rect = cells.reshape(-1, 4)
    c = np.repeat(np.asarray(center, dtype=np.float64), 2)
    rel = np.clip(rect - c, -radius, radius)
    rel[rect <= c - radius] = -radius
    rel[rect >= c + radius] = radius
    return rel


def _rim(r, x):
    """sqrt(r^2 - x^2) for |x| <= r, without the cancellation of r*r - x*x."""
    return np.sqrt((r - x) * (r + x))


def _disk_rect_area(rects: np.ndarray, radius) -> np.ndarray:
    """Summed area of the disk B(0, radius) inside each rectangle of rects.

    rects holds rows (x0, x1, y0, y1) relative to the disk's center; radius
    is a scalar or an (m,) array, giving a scalar or (m,) result. Each
    rectangle's x-range is split where the rim s(x) = sqrt(r^2 - x^2)
    crosses its y-edges; on each part the column length is a constant plus
    0, 1 or 2 copies of s, integrated with the antiderivative
    (x s + r^2 atan2(x, s)) / 2.
    """
    r = np.asarray(radius, dtype=np.float64)[..., None]
    x0, x1, y0, y1 = (np.clip(rects[:, j], -r, r) for j in range(4))
    cuts = np.stack([x0, x1, -_rim(r, y0), _rim(r, y0), -_rim(r, y1), _rim(r, y1)], axis=-1)
    pts = np.sort(np.clip(cuts, x0[..., None], x1[..., None]), axis=-1)
    a, b = pts[..., :-1], pts[..., 1:]
    rr = r[..., None]
    s_mid = _rim(rr, (a + b) / 2.0)
    top = y1[..., None] >= s_mid  # column top on the rim, else at y1
    bottom = y0[..., None] <= -s_mid  # column bottom on the rim, else at y0
    const = np.where(top, 0.0, y1[..., None]) - np.where(bottom, 0.0, y0[..., None])
    rims = top.astype(np.float64) + bottom

    def F(x):
        s = _rim(rr, x)
        return (x * s + rr * rr * np.arctan2(x, s)) / 2.0

    part = const * (b - a) + rims * (F(b) - F(a))
    # the column length keeps its sign on each part; an empty column adds 0
    return np.sum(np.where(const + rims * s_mid > 0.0, part, 0.0), axis=(-2, -1))


def _kink_radii(rects: np.ndarray, radius: float) -> np.ndarray:
    """Disk radii in (0, radius) where the disk's area inside rects is not analytic.

    These are the distances from the center to each edge line (tangency)
    and to each corner of the rectangles.
    """
    ax = np.abs(rects[:, :2])
    ay = np.abs(rects[:, 2:])
    d = np.concatenate([ax.ravel(), ay.ravel(), np.hypot(ax[:, :, None], ay[:, None, :]).ravel()])
    return np.unique(d[(d > 0.0) & (d < radius)])


_MAX_PANELS = 1 << 11  # of 16 nodes each


def _panel_halving(f, t0: float, t1: float, atol: float):
    """(sum, converged) of the integral of f over [t0, t1], by 16-node Gauss rules on k = 1, 2, 4, ... equal panels.

    Each node s is mapped to theta = t0 + (t1 - t0) (3u^2 - 2u^3), with
    u = (s - t0) / (t1 - t0), which flattens both ends: an f that goes like
    |theta - t|^{3/2} at an end t is smooth in s. Returns the finer of the
    first two successive sums that agree to atol. f maps an array of thetas
    to the array of integrand values.
    """
    prev, k = None, 1
    while k <= _MAX_PANELS:
        # (t1 - t0) / k is exact for k a power of two, so the rule has k panels
        x, w, _ = panel_nodes(np.array([[t0, t1]]), (t1 - t0) / k, 16)
        u = (x - t0) / (t1 - t0)
        cur = math.fsum(w * (f(t0 + (t1 - t0) * u * u * (3.0 - 2.0 * u)) * 6.0 * u * (1.0 - u)))
        if prev is not None and abs(cur - prev) <= atol:
            return cur, True
        prev, k = cur, 2 * k
    return prev, False


def _rim_panels(cells: np.ndarray, c: np.ndarray, radius: float) -> list:
    """Panels (theta0, theta1, f) of the first-axis integral under x = c0 + r sin(theta).

    cells are a 3-D set's cells in the cube c +- radius. f(theta) is the
    exact 2-D measure of the cells over one first-axis piece times the
    jacobian r cos(theta). The panels split at the pieces' ends and where f
    stops being analytic: where the slice disk touches an edge line or a
    corner.
    """
    c0 = float(c[0])

    def theta(x):
        return float(np.arcsin(np.clip((x - c0) / radius, -1.0, 1.0)))

    panels = []
    for a, b, rest in cell_runs(cells):
        rects = _relative(rest, c[1:], radius)
        d = _kink_radii(rects, radius)
        half = np.arctan2(_rim(radius, d), d)
        ta, tb = theta(a), theta(b)
        ts = np.concatenate([[ta, tb], -half, half])
        ts = np.unique(ts[(ts >= ta) & (ts <= tb)])

        def f(t, rects=rects):
            chord = radius * np.cos(t)
            return _disk_rect_area(rects, chord) * chord

        panels += [(t0, t1, f) for t0, t1 in zip(ts[:-1], ts[1:])]
    return panels


def intersection_measure(omega: ControlSet, center, radius: float, rel_tol: float = 1e-6) -> float:
    """Lebesgue measure of omega intersected with the ball B(center, radius).

    Every 1-D and 2-D measure is exact, and rel_tol is read only in 3-D.
    In 2-D the disk's area inside each rectangle of the set has a closed
    form. In 3-D the first axis is integrated with the rim-absorbing
    substitution x = c + r sin(theta), on each panel by 16-node Gauss rules
    on 1, 2, 4, ... equal sub-panels until two successive sums agree, over
    the exact 2-D slice measure; the result carries relative error about
    rel_tol. The panels split wherever the slice measure stops being
    analytic (see _rim_panels) and their ends are flattened, so slab and
    box-corner measures are exact to rounding.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    c = np.atleast_1d(np.asarray(center, dtype=np.float64))
    if c.size != omega.dim:
        raise ValueError(f"center has {c.size} coordinates, set has dim {omega.dim}")
    window = np.column_stack([c - radius, c + radius])
    if omega.dim == 1:
        iv = omega.cells(window)[:, 0]
        return float(np.sum(iv[:, 1] - iv[:, 0]))
    if omega.dim not in (2, 3):
        raise ValueError(f"dimension {omega.dim} unsupported (1, 2, or 3)")

    scale = ball_volume(omega.dim, radius)
    if omega.dim == 2:
        total = float(_disk_rect_area(_relative(omega.cells(window), c, radius), radius))
    else:
        total = 0.0
        for t0, t1, f in _rim_panels(omega.cells(window), c, radius):
            if t1 - t0 <= 1e-14:
                continue
            atol = rel_tol * scale * max((t1 - t0) / math.pi, 1e-3)
            val, ok = _panel_halving(f, float(t0), float(t1), atol)
            if not ok:
                raise QuadratureError("panel halving did not converge to the requested tolerance")
            total += val
    return min(max(total, 0.0), scale)


_THICKNESS_REL_TOL = 1e-6  # of each 3-D intersection measure
_TRANSFER_SLACK = 1e-3  # forgiven when comparing measured thickness to a level


def thickness_estimate(omega: ControlSet, rho: DensityFn, centers) -> float:
    """Finite-sample thickness: min over centers of |omega cap B| / |B|.

    The thickness constant is the infimum of that ratio over all centers, so
    a minimum over sampled centers is an upper bound on it, not a lower one:
    a sparse sample can miss the worst center and overstate thickness.
    """
    pts = np.asarray(centers, dtype=np.float64)
    if omega.dim == 1 and pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != omega.dim:
        raise ValueError("centers must be a non-empty (m, dim) array")
    radii = rho(pts)
    worst = 1.0
    for row, r in zip(pts, radii.tolist()):
        frac = intersection_measure(omega, row, r, _THICKNESS_REL_TOL) / ball_volume(omega.dim, r)
        worst = min(worst, frac)
    return min(max(worst, 0.0), 1.0)


# -- coverings ---------------------------------------------------------------


@dataclass(frozen=True)
class Covering:
    """Greedy ball covering of a box.

    centers (k, n) with radii rho(center); third-radius balls are pairwise
    interior-disjoint; overlap_bound is the a-priori multiplicity bound
    (4 C^3 + 1)^n for the slowness constant C; max_multiplicity is the
    largest overlap observed on the verification grid, the grid of
    candidate centers, which holds candidates points.
    """

    centers: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)
    overlap_bound: int
    max_multiplicity: int
    grid_step: float
    candidates: int


# A covering of this many candidates takes about 0.3-1 s on one thread of a
# 2-vCPU x86-64 VM: 0.9 s in 1-D, 0.55 s in 2-D and 1.0 s in 3-D at m = 1,
# 0.26 s in 2-D with the power density.
_MAX_CANDIDATES = 2_000_000

# The slowness constant C: a covering accepts only a 1/C-Lipschitz density,
# for which its a-priori overlap bound is (4 C^3 + 1)^n.
_SLOWNESS_CONSTANT = 2.0


def _box_grid(box: np.ndarray, sizes) -> tuple:
    """(axes, grid): per-axis linspaces of the given sizes and their row-major product."""
    axes = [np.linspace(lo, hi, k) for (lo, hi), k in zip(box, sizes)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return axes, np.stack([m.ravel() for m in mesh], axis=1)


def _runs(axis: np.ndarray, c: np.ndarray, base: np.ndarray, rr: np.ndarray) -> tuple:
    """Index runs [lo, hi) of the sorted axis where base + (x - c)**2 <= rr, rounded as written.

    Rounded subtraction, squaring and addition are monotone, so the test is
    monotone in x on each side of c and holds on one contiguous run. Its ends
    are estimated from sqrt(rr - base), then moved one index at a time by
    the exact test until they are stable.
    """
    m = axis.size

    def inside(i):
        x = axis[np.clip(i, 0, m - 1)]
        return (i >= 0) & (i < m) & (base + (x - c) ** 2 <= rr)

    mid = np.searchsorted(axis, c)  # left of mid the test grows with the index, from mid on it falls
    w = np.sqrt(np.maximum(rr - base, 0.0))
    lo = np.minimum(np.searchsorted(axis, c - w), mid)
    hi = np.maximum(np.searchsorted(axis, c + w, side="right"), mid)
    while True:
        dlo = ((lo < mid) & ~inside(lo)).astype(np.intp) - inside(lo - 1)
        dhi = inside(hi).astype(np.intp) - ((hi > mid) & ~inside(hi - 1))
        if not (dlo.any() or dhi.any()):
            return lo, hi
        lo, hi = lo + dlo, hi + dhi


def _coverage_counts(axes: list, centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """How many balls B(centers[k], radii[k]) hold each point of the row-major grid of axes.

    A point counts iff sum((g - c)**2) <= r*r, summed left to right as
    np.sum sums. Each term is at most the sum, so a ball reaches a grid line
    (leading indices fixed) only through runs of the same test on the
    leading axes, and on the line it covers one run (see _runs). The runs
    become +1/-1 marks that a cumulative sum along each line turns into
    counts: the work follows the lines each ball reaches, not its points.
    """
    last = axes[-1].size
    marks = np.zeros(math.prod(a.size for a in axes[:-1]) * (last + 1), dtype=np.int64)
    rr_all = radii * radii
    for s in range(0, centers.shape[0], 1024):
        ctr, rr = centers[s : s + 1024], rr_all[s : s + 1024]
        ball = np.arange(ctr.shape[0])
        line = np.zeros_like(ball)
        base = np.zeros(ctr.shape[0])
        for d, axis in enumerate(axes):
            lo, hi = _runs(axis, ctr[ball, d], base, rr[ball])
            if d == len(axes) - 1:
                break
            # one (ball, line) pair per index of each run
            size = hi - lo
            rep = np.repeat(np.arange(ball.size), size)
            idx = lo[rep] + np.arange(rep.size) - (np.cumsum(size) - size)[rep]
            ball = ball[rep]
            base = base[rep] + (axis[idx] - ctr[ball, d]) ** 2
            line = line[rep] * axis.size + idx
        np.add.at(marks, line * (last + 1) + lo, 1)
        np.add.at(marks, line * (last + 1) + hi, -1)
    return np.cumsum(marks.reshape(-1, last + 1), axis=1)[:, :-1].ravel()


def covering_generate(rho: DensityFn, box) -> Covering:
    """Cover a box with balls B(x_k, rho(x_k)) whose third-radius cores are disjoint.

    Candidates sweep a grid of fixed step min rho / 6, the smallest density
    on the box over 6, in row-major order; a candidate is kept iff its
    distance to every kept center is at least the sum of the two radii over
    3. Coverage is then verified on the same grid and the observed overlap
    multiplicity recorded. The overlap bound holds only for a
    1/_SLOWNESS_CONSTANT-Lipschitz density, and a grid of more than
    _MAX_CANDIDATES points would not finish in seconds; both are rejected
    before any grid is built.
    """
    b = _as_box(box)
    n = b.shape[0]
    if n not in (1, 2, 3):
        raise ValueError(f"dimension {n} unsupported (1, 2, or 3)")
    if rho.lipschitz > 1.0 / _SLOWNESS_CONSTANT:
        raise InvalidDensityError(
            f"density has Lipschitz constant {rho.lipschitz:.6g}; a covering needs at most {1.0 / _SLOWNESS_CONSTANT:g}"
        )
    rho_min = rho.min_on_box(b)
    if not rho_min > 0:
        raise InvalidDensityError("density must be positive on the box")
    grid_step = rho_min / 6.0
    cells = np.maximum(np.ceil((b[:, 1] - b[:, 0]) / grid_step), 1.0)
    count = float(np.prod(cells + 1.0))
    if not count <= _MAX_CANDIDATES:
        raise CoverageError(f"candidate grid of {count:.3g} points exceeds the cap {_MAX_CANDIDATES}")
    axes, grid = _box_grid(b, (cells + 1.0).astype(np.int64))
    radii = rho(grid)
    kept = greedy_ball_select(axes, radii)
    centers = grid[kept]
    kept_radii = radii[kept]

    covered = _coverage_counts(axes, centers, kept_radii)
    if np.any(covered == 0):
        holes = grid[covered == 0]
        raise CoverageError(
            f"{holes.shape[0]} verification points uncovered (first: {holes[0].tolist()})",
            uncovered=holes,
        )
    bound = int(round((4.0 * _SLOWNESS_CONSTANT**3 + 1.0) ** n))
    return Covering(
        centers=centers,
        radii=kept_radii,
        overlap_bound=bound,
        max_multiplicity=int(covered.max()),
        grid_step=float(grid_step),
        candidates=grid.shape[0],
    )


# -- thickness transfer ------------------------------------------------------


@dataclass(frozen=True)
class TransferReport:
    """Outcome of an empirical thickness-transfer check between densities."""

    hypothesis_ok: bool
    predicted: float
    measured: float
    transfer_ok: bool
    notes: str = ""


def thickness_transfer_check(
    omega: ControlSet,
    rho1: DensityFn,
    rho2: DensityFn,
    gamma: float,
    centers,
) -> TransferReport:
    """Check that gamma-thickness w.r.t. rho1 transfers to rho2.

    With rho1 <= rho2 on the sampled centers and gamma > 1 - 6^{-n}, the
    transferred level is 1 - (1-gamma) 6^n; the measured thickness w.r.t.
    rho2 must reach it up to _TRANSFER_SLACK. A violated hypothesis is
    reported in the result, not raised.
    """
    n = omega.dim
    r1 = rho1(centers)
    r2 = rho2(centers)
    notes = []
    pointwise_ok = bool(np.all(r1 <= r2 + 1e-12))
    gamma_ok = gamma > 1.0 - 6.0 ** (-n)
    if not pointwise_ok:
        notes.append("rho1 > rho2 somewhere on the sample")
    if not gamma_ok:
        notes.append(f"gamma={gamma:g} not above 1 - 6^-{n}")
    predicted = 1.0 - (1.0 - gamma) * 6.0**n
    input_thickness = thickness_estimate(omega, rho1, centers)
    if input_thickness < gamma - _TRANSFER_SLACK:
        notes.append(f"claimed thickness {gamma:g} not met on sample ({input_thickness:.6f})")
    measured = thickness_estimate(omega, rho2, centers)
    hypothesis_ok = pointwise_ok and gamma_ok and input_thickness >= gamma - _TRANSFER_SLACK
    transfer_ok = hypothesis_ok and measured >= predicted - _TRANSFER_SLACK
    return TransferReport(
        hypothesis_ok=hypothesis_ok,
        predicted=float(predicted),
        measured=float(measured),
        transfer_ok=bool(transfer_ok),
        notes="; ".join(notes),
    )
