"""Densities, thick control sets, intersection measures, and ball coverings.

A density is a positive, slowly varying radius field rho on R^n (the useful
ones are 1/2-Lipschitz and pinched between a constant m and R<x>^{1-eps}).
A control set omega is a union of boxes, balls, or a periodic pattern;
thickness of omega with respect to rho is the worst-case volume fraction
|omega cap B(x, rho(x))| / |B(x, rho(x))| over ball centers x.

Every 1-D and 2-D measure is exact. Boxes, periodic patterns and the full
space have slices that stay the same between consecutive first-axis
breakpoints (``piecewise_slices``); in 2-D such a set cut to the disk's
bounding square is a union of disjoint rectangles, and the disk's area
inside each has a closed form; inside a union of disks it comes from
Green's theorem over the boundary arcs. Only 3-D uses panel halving: the
exact 2-D slice measure is integrated along the first axis by Gauss panels,
halved until two sums agree, under the substitution x = c + r sin(theta),
which absorbs the square-root behaviour at the ball's rim. Panels split at
the set's own breakpoints and where the slice measure stops being analytic:
where the slice disk becomes tangent to an edge line or passes through a
corner of the slice's rectangles, or where two slice circles of a ball
union touch. A cubic substitution that flattens each panel's ends makes the
integrand smooth there.

The covering generator picks centers greedily from a fine grid, keeping a
candidate only when it is at least a third of the summed radii away from
every kept center; that makes the third-radius balls interior-disjoint by
construction while the full balls still cover the box. Selection and the
coverage count use KD-trees, so their work follows the balls kept and the
grid points each ball holds.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import greedy_ball_select
from .quadrature import panel_nodes

__all__ = [
    "InvalidDensityError",
    "QuadratureError",
    "CoverageError",
    "DensityFn",
    "DensityReport",
    "density_validate",
    "ControlSet",
    "FullSpace",
    "BoxUnion",
    "interval_union",
    "PeriodicPattern",
    "BallUnion",
    "graded_cells",
    "slice_pieces",
    "intersection_measure",
    "ball_volume",
    "thickness_estimate",
    "Covering",
    "covering_generate",
    "TransferReport",
    "thickness_transfer_check",
]


class InvalidDensityError(ValueError):
    """Density violates positivity or its declared bounds."""


class QuadratureError(RuntimeError):
    """Measure quadrature failed to reach the requested tolerance."""


class CoverageError(RuntimeError):
    """Generated balls fail to cover the box; holds the diagnostics."""

    def __init__(self, message, uncovered=None):
        super().__init__(message)
        self.uncovered = uncovered


# -- interval helpers (1-D exact arithmetic) ---------------------------------


def _merge_intervals(iv: np.ndarray) -> np.ndarray:
    """Sort and merge an (k, 2) interval array into disjoint intervals."""
    iv = np.asarray(iv, dtype=np.float64).reshape(-1, 2)
    iv = iv[iv[:, 1] > iv[:, 0]]
    if iv.shape[0] == 0:
        return iv.reshape(0, 2)
    iv = iv[np.argsort(iv[:, 0], kind="stable")]
    out = [list(iv[0])]
    for a, b in iv[1:]:
        if a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return np.asarray(out)


def _clip_intervals(iv: np.ndarray, lo: float, hi: float) -> np.ndarray:
    iv = np.asarray(iv, dtype=np.float64).reshape(-1, 2)
    if iv.shape[0] == 0:
        return iv
    a = np.maximum(iv[:, 0], lo)
    b = np.minimum(iv[:, 1], hi)
    keep = b > a
    return np.column_stack([a[keep], b[keep]])


def _as_box(box) -> np.ndarray:
    """Normalize box bounds to an (n, 2) array."""
    arr = np.asarray(box, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2 or np.any(arr[:, 1] <= arr[:, 0]):
        raise ValueError("box must be ((lo, hi), ...) with lo < hi per axis")
    return arr


# -- densities ---------------------------------------------------------------


@dataclass(frozen=True)
class DensityFn:
    """Positive radius field rho on R^n.

    kind 'constant': rho = m. kind 'power': rho(x) = R <x>^{1-eps} with
    <x> = sqrt(1 + |x|^2) and eps in (0, 1]. kind 'tabulated': 1-D linear
    interpolation of (grid, values), clamped outside the grid. The (m, R,
    eps) triple always stores declared bounds m <= rho(x) <= R <x>^{1-eps}.
    """

    kind: str
    m: float
    R: float
    eps: float
    grid: np.ndarray | None = field(default=None, repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def constant(m: float) -> "DensityFn":
        if not m > 0:
            raise InvalidDensityError("constant density requires m > 0")
        return DensityFn("constant", float(m), float(m), 1.0)

    @staticmethod
    def power(R: float, eps: float) -> "DensityFn":
        if not R > 0:
            raise InvalidDensityError("power density requires R > 0")
        if not 0 < eps <= 1:
            raise InvalidDensityError("ε must lie in (0,1]")
        # <x> >= 1, so R is also the infimum of rho
        return DensityFn("power", float(R), float(R), float(eps))

    @staticmethod
    def tabulated(grid, values) -> "DensityFn":
        g = np.asarray(grid, dtype=np.float64)
        v = np.asarray(values, dtype=np.float64)
        if g.ndim != 1 or g.shape != v.shape or g.size < 2:
            raise InvalidDensityError("tabulated density needs matching 1-D grid/values")
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
        scalar = pts.ndim == 0
        if pts.ndim <= 1:
            r = np.abs(np.atleast_1d(pts))
        else:
            r = np.linalg.norm(pts, axis=-1)
        if self.kind == "constant":
            out = np.full_like(r, self.m)
        elif self.kind == "power":
            out = self.R * (1.0 + r * r) ** ((1.0 - self.eps) / 2.0)
        elif self.kind == "tabulated":
            if pts.ndim > 1:
                raise InvalidDensityError("tabulated density is 1-D only")
            out = np.interp(np.atleast_1d(pts), self.grid, self.values)
        else:
            raise InvalidDensityError(f"unknown density kind {self.kind!r}")
        return float(out[0]) if scalar else out

    def min_on_box(self, box) -> float:
        """Infimum of rho over the box (exact for constant/power)."""
        b = _as_box(box)
        if self.kind == "constant":
            return self.m
        if self.kind == "power":
            nearest = np.clip(0.0, b[:, 0], b[:, 1])
            if b.shape[0] == 1:
                return float(self(nearest[0]))
            return float(self(nearest[None, :])[0])
        xs = np.linspace(b[0, 0], b[0, 1], 4097)
        return float(np.min(self(xs)))


@dataclass(frozen=True)
class DensityReport:
    lipschitz_ok: bool
    bounds_ok: bool
    worst_ratio: float


def _kronecker_points(box: np.ndarray, samples: int) -> np.ndarray:
    """Deterministic low-discrepancy points: additive recurrence per axis."""
    n = box.shape[0]
    # generalized golden ratios, one irrational step per axis
    phi = [(2.0, 1.618033988749895), (3.0, 1.324717957244746), (4.0, 1.220744084605760)]
    alphas = np.array([1.0 / phi[min(j, 2)][1] ** (1 + j // 3) for j in range(n)])
    i = np.arange(1, samples + 1)[:, None]
    frac = np.mod(0.5 + i * alphas[None, :], 1.0)
    return box[:, 0] + frac * (box[:, 1] - box[:, 0])


def density_validate(rho: DensityFn, box, samples: int = 512) -> DensityReport:
    """Check the declared bounds and the 1/2-Lipschitz property on a sample.

    Deterministic low-discrepancy points in the box; the Lipschitz quotient
    |rho(x)-rho(y)| / |x-y| is evaluated over all pairs of a capped subset
    and its worst value reported.
    """
    if samples < 2:
        raise ValueError("samples must be at least 2")
    b = _as_box(box)
    pts = _kronecker_points(b, samples)
    flat = pts[:, 0] if b.shape[0] == 1 else pts
    vals = np.atleast_1d(rho(flat))
    if np.any(vals <= 0):
        raise InvalidDensityError("density must be positive on the sample")
    with np.errstate(over="ignore"):
        radial = np.abs(flat) if b.shape[0] == 1 else np.linalg.norm(flat, axis=-1)
        upper = rho.R * (1.0 + radial**2) ** ((1.0 - rho.eps) / 2.0)
    tol = 1e-9 * max(1.0, float(np.max(vals)))
    bounds_ok = bool(np.all(vals >= rho.m - tol) and np.all(vals <= upper + tol))

    sub = pts[: min(samples, 256)]
    subvals = np.atleast_1d(rho(sub[:, 0] if b.shape[0] == 1 else sub))
    diff = np.abs(subvals[:, None] - subvals[None, :])
    dist = np.linalg.norm(sub[:, None, :] - sub[None, :, :], axis=-1)
    mask = dist > 0
    worst = float(np.max(diff[mask] / dist[mask])) if np.any(mask) else 0.0
    return DensityReport(lipschitz_ok=worst <= 0.5 + 1e-12, bounds_ok=bounds_ok, worst_ratio=worst)


# -- control sets ------------------------------------------------------------


class ControlSet:
    """A measurable sensor region with a total membership query.

    Subclasses implement `contains`, and the slicing hooks used by the
    measure quadrature: `intervals_1d` (dim 1 only) returns the kept
    intervals clipped to [lo, hi] as a merged (k, 2) array; `slice_first`
    (dim >= 2) returns the restriction to a hyperplane x_0 = value as a set
    one dimension down; `breakpoints_first` lists first-axis coordinates
    where the slice structure jumps. `piecewise_slices` is set on the
    classes whose slice is the same at every point strictly between two
    consecutive breakpoints, so one `slice_first` call per piece (see
    `slice_pieces`) describes the whole set. Every set has dim >= 1.
    """

    dim: int
    piecewise_slices = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")

    def contains(self, points) -> np.ndarray:
        raise NotImplementedError

    def intervals_1d(self, lo: float, hi: float) -> np.ndarray:
        raise NotImplementedError

    def slice_first(self, value: float) -> "ControlSet":
        raise NotImplementedError

    def breakpoints_first(self, lo: float, hi: float) -> np.ndarray:
        return np.empty(0)

    def _points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        if self.dim == 1 and pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim == 1:
            pts = pts[None, :]
        if pts.shape[-1] != self.dim:
            raise ValueError(f"points must have {self.dim} coordinates")
        return pts


@dataclass(frozen=True)
class FullSpace(ControlSet):
    """All of R^n."""

    dim: int = 1
    piecewise_slices = True

    def contains(self, points):
        return np.ones(self._points(points).shape[0], dtype=bool)

    def intervals_1d(self, lo, hi):
        return np.array([[lo, hi]])

    def slice_first(self, value):
        return FullSpace(self.dim - 1)


@dataclass(frozen=True)
class BoxUnion(ControlSet):
    """Union of axis-aligned boxes; boxes has shape (k, n, 2)."""

    dim: int
    boxes: np.ndarray = field(repr=False)
    piecewise_slices = True

    def __post_init__(self):
        super().__post_init__()
        b = np.asarray(self.boxes, dtype=np.float64).reshape(-1, self.dim, 2)
        if np.any(b[:, :, 1] < b[:, :, 0]):
            raise ValueError("each box needs lo <= hi per axis")
        b = b.copy()
        b.setflags(write=False)
        object.__setattr__(self, "boxes", b)

    def contains(self, points):
        pts = self._points(points)
        lo = self.boxes[:, :, 0]
        hi = self.boxes[:, :, 1]
        inside = (pts[:, None, :] >= lo[None]) & (pts[:, None, :] <= hi[None])
        return np.any(np.all(inside, axis=2), axis=1)

    def intervals_1d(self, lo, hi):
        return _merge_intervals(_clip_intervals(self.boxes[:, 0, :], lo, hi))

    def slice_first(self, value):
        keep = (self.boxes[:, 0, 0] <= value) & (value <= self.boxes[:, 0, 1])
        return BoxUnion(self.dim - 1, self.boxes[keep][:, 1:, :])

    def breakpoints_first(self, lo, hi):
        edges = self.boxes[:, 0, :].ravel()
        return edges[(edges > lo) & (edges < hi)]


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
    piecewise_slices = True

    def __post_init__(self):
        super().__post_init__()
        if not self.period > 0:
            raise ValueError("period must be positive")
        if not 0 < self.kept <= 1:
            raise ValueError("kept fraction must lie in (0, 1]")
        if not math.isfinite(self.offset):
            raise ValueError("offset must be finite")

    def contains(self, points):
        pts = self._points(points)
        frac = np.mod(pts - self.offset, self.period) / self.period
        return np.all(frac < self.kept, axis=1)

    def _axis_intervals(self, lo, hi):
        k0 = math.floor((lo - self.offset) / self.period) - 1
        k1 = math.ceil((hi - self.offset) / self.period) + 1
        ks = np.arange(k0, k1 + 1, dtype=np.float64)
        starts = self.offset + ks * self.period
        return _merge_intervals(
            _clip_intervals(np.column_stack([starts, starts + self.kept * self.period]), lo, hi)
        )

    def intervals_1d(self, lo, hi):
        return self._axis_intervals(lo, hi)

    def slice_first(self, value):
        frac = math.fmod(value - self.offset, self.period) / self.period
        if frac < 0:
            frac += 1.0
        if frac < self.kept:
            return PeriodicPattern(self.dim - 1, self.period, self.kept, self.offset)
        return BoxUnion(self.dim - 1, np.empty((0, self.dim - 1, 2)))

    def breakpoints_first(self, lo, hi):
        iv = self._axis_intervals(lo - self.period, hi + self.period)
        edges = iv.ravel()
        return edges[(edges > lo) & (edges < hi)]


@dataclass(frozen=True)
class BallUnion(ControlSet):
    """Union of euclidean balls; centers (k, n), radii (k,)."""

    dim: int
    centers: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)

    def __post_init__(self):
        super().__post_init__()
        c = np.asarray(self.centers, dtype=np.float64).reshape(-1, self.dim)
        r = np.asarray(self.radii, dtype=np.float64).reshape(-1)
        if c.shape[0] != r.shape[0]:
            raise ValueError("centers and radii length mismatch")
        if np.any(r < 0):
            raise ValueError("radii must be non-negative")
        c = c.copy()
        r = r.copy()
        c.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)

    def contains(self, points):
        pts = self._points(points)
        if self.centers.shape[0] == 0:
            return np.zeros(pts.shape[0], dtype=bool)
        d2 = np.sum((pts[:, None, :] - self.centers[None]) ** 2, axis=2)
        return np.any(d2 <= self.radii[None] ** 2, axis=1)

    def intervals_1d(self, lo, hi):
        c = self.centers[:, 0]
        return _merge_intervals(_clip_intervals(np.column_stack([c - self.radii, c + self.radii]), lo, hi))

    def slice_first(self, value):
        dx = value - self.centers[:, 0]
        keep = np.abs(dx) < self.radii
        red = np.sqrt(np.maximum(self.radii[keep] ** 2 - dx[keep] ** 2, 0.0))
        return BallUnion(self.dim - 1, self.centers[keep][:, 1:], red)

    def breakpoints_first(self, lo, hi):
        c = self.centers[:, 0]
        edges = np.concatenate([c - self.radii, c + self.radii])
        return edges[(edges > lo) & (edges < hi)]


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
        w = float(rho(a))
        kept.append((a, min(a + gamma * w, extent)))
        a += w
    a = 0.0
    while a > -extent:
        w = float(rho(a))
        kept.append((max(a - gamma * w, -extent), a))
        a -= w
    return interval_union(kept)


def slice_pieces(omega: ControlSet, lo: float, hi: float) -> list:
    """Pieces (a, b, slice) of [lo, hi] between omega's first-axis breakpoints.

    The slice is taken at each piece's midpoint; for a set with
    piecewise_slices it is the slice at every interior point of the piece.
    The ends lo and hi are kept exactly.
    """
    breaks = np.asarray(omega.breakpoints_first(lo, hi), dtype=np.float64)
    edges = np.unique(np.concatenate([[lo, hi], breaks]))
    return [(a, b, omega.slice_first(0.5 * (a + b))) for a, b in zip(edges[:-1], edges[1:])]


# -- intersection measure ----------------------------------------------------

_UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def ball_volume(dim: int, radius: float) -> float:
    if dim not in _UNIT_BALL_VOLUME:
        raise ValueError(f"dimension {dim} unsupported (1, 2, or 3)")
    return _UNIT_BALL_VOLUME[dim] * radius**dim


def _rectangles(omega: ControlSet, center, radius: float) -> np.ndarray:
    """A 2-D set with piecewise slices, cut to the square center +- radius.

    Returns disjoint rectangles as rows (x0, x1, y0, y1) relative to the
    center, clipped to [-radius, radius]; the square's own sides land on
    exactly +-radius.
    """
    cx, cy = float(center[0]), float(center[1])
    rows = [
        (a, b, y0, y1)
        for a, b, sub in slice_pieces(omega, cx - radius, cx + radius)
        for y0, y1 in sub.intervals_1d(cy - radius, cy + radius)
    ]
    if not rows:
        return np.empty((0, 4))
    rect = np.array(rows, dtype=np.float64)
    c = np.array([cx, cx, cy, cy])
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


def _disk_union_area(c0, r0: float, centers: np.ndarray, radii: np.ndarray) -> float:
    """Area of B(c0, r0) inside the union of the disks B(centers[k], radii[k]), by Green's theorem.

    The boundary is made of counter-clockwise arcs: the probe circle's arcs
    inside the union, and each union circle's arcs inside the probe and in
    no other union disk (repeated disks count once), cut where circles cross.
    An arc of radius r about (cx, cy) from angle t0 to t1 adds
    (r^2 (t1 - t0) + r (cx (sin t1 - sin t0) - cy (cos t1 - cos t0))) / 2.
    """
    disks = np.unique(np.column_stack([centers - c0, radii]), axis=0)
    if np.any(np.hypot(disks[:, 0], disks[:, 1]) + r0 <= disks[:, 2]):
        return math.pi * r0 * r0
    circles = np.vstack([[0.0, 0.0, r0], disks])
    arcs = []
    for i, (cx, cy, r) in enumerate(circles):
        others = np.delete(circles, i, axis=0)
        dx, dy, ro = others[:, 0] - cx, others[:, 1] - cy, others[:, 2]
        d = np.hypot(dx, dy)
        cut = (d < r + ro) & (d > np.abs(r - ro))
        alpha = np.arccos(np.clip((d[cut] ** 2 + r * r - ro[cut] ** 2) / (2.0 * d[cut] * r), -1.0, 1.0))
        phi = np.arctan2(dy[cut], dx[cut])
        t0 = np.sort(np.mod(np.concatenate([[0.0], phi - alpha, phi + alpha]), 2.0 * math.pi))
        t1 = np.append(t0[1:], t0[0] + 2.0 * math.pi)
        mid = (t0 + t1) / 2.0
        on_arc = (r * np.cos(mid)[:, None] - dx) ** 2 + (r * np.sin(mid)[:, None] - dy) ** 2 < ro * ro
        # a disk that does not cross this circle holds all of it or none of it, tangent points aside
        inside = np.where(cut, on_arc, d + r <= ro)
        keep = inside.any(axis=1) if i == 0 else inside[:, 0] & ~inside[:, 1:].any(axis=1)
        arcs += list(keep * (r * r * (t1 - t0) + r * (cx * (np.sin(t1) - np.sin(t0)) - cy * (np.cos(t1) - np.cos(t0)))))
    return math.fsum(arcs) / 2.0


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
        x, w = panel_nodes(np.array([[t0, t1]]), (t1 - t0) / k, 16)
        u = (x - t0) / (t1 - t0)
        cur = math.fsum(w * (f(t0 + (t1 - t0) * u * u * (3.0 - 2.0 * u)) * 6.0 * u * (1.0 - u)))
        if prev is not None and abs(cur - prev) <= atol:
            return cur, True
        prev, k = cur, 2 * k
    return prev, False


def _tangent_slices(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """First coordinates where the slices of two of the spheres B(centers[k], radii[k]) touch.

    Two crossing spheres meet in a circle, and their slice circles touch at
    its slices, so these are the circle's ends along the first axis.
    """
    v = centers[None, :, :] - centers[:, None, :]
    d = np.linalg.norm(v, axis=-1)
    i, j = np.nonzero((d > np.abs(radii[:, None] - radii)) & (d < radii[:, None] + radii))
    d, n0 = d[i, j], v[i, j, 0] / d[i, j]
    h = (d * d + radii[i] ** 2 - radii[j] ** 2) / (2.0 * d)  # from sphere i's center to the circle's plane
    mid = centers[i, 0] + h * n0
    w = np.sqrt(np.maximum(radii[i] ** 2 - h * h, 0.0) * np.maximum(1.0 - n0 * n0, 0.0))
    return np.concatenate([mid - w, mid + w])


def _rim_panels(omega: ControlSet, c: np.ndarray, radius: float) -> list:
    """Panels (theta0, theta1, f) of the first-axis integral under x = c0 + r sin(theta).

    f(theta) is the exact 2-D slice measure times the jacobian r cos(theta).
    The panels split at the set's breakpoints and where f stops being
    analytic: over piecewise slices where the slice disk touches an edge line
    or a corner, and for ball unions where two slice circles touch.
    """
    c0 = float(c[0])
    rest = c[1:]

    def theta(x):
        return np.arcsin(np.clip((np.asarray(x, dtype=np.float64) - c0) / radius, -1.0, 1.0))

    if omega.piecewise_slices:
        panels = []
        for a, b, sub in slice_pieces(omega, c0 - radius, c0 + radius):
            rects = _rectangles(sub, rest, radius)
            if rects.shape[0] == 0:
                continue
            d = _kink_radii(rects, radius)
            half = np.arctan2(_rim(radius, d), d)
            ta, tb = float(theta(a)), float(theta(b))
            ts = np.concatenate([[ta, tb], -half, half])
            ts = np.unique(ts[(ts >= ta) & (ts <= tb)])

            def f(t, rects=rects):
                chord = radius * np.cos(t)
                return _disk_rect_area(rects, chord) * chord

            panels += [(t0, t1, f) for t0, t1 in zip(ts[:-1], ts[1:])]
        return panels

    def f(ts):
        chords = radius * np.cos(ts)
        xs = c0 + radius * np.sin(ts)
        return np.array([intersection_measure(omega.slice_first(x), rest, h) * h for x, h in zip(xs, chords)])

    # theta clips kinks outside the ball to the ends +-pi/2
    touch = _tangent_slices(np.vstack([c, omega.centers]), np.append(radius, omega.radii))
    kinks = np.append(omega.breakpoints_first(c0 - radius, c0 + radius), touch)
    ts = np.unique(np.concatenate([[-math.pi / 2, math.pi / 2], theta(kinks)]))
    return [(t0, t1, f) for t0, t1 in zip(ts[:-1], ts[1:])]


def intersection_measure(omega: ControlSet, center, radius: float, rel_tol: float = 1e-6) -> float:
    """Lebesgue measure of omega intersected with the ball B(center, radius).

    Every 1-D and 2-D measure is exact, and rel_tol is read only in 3-D.
    In 2-D the disk's area inside each rectangle of a set with piecewise
    slices (boxes, periodic patterns, the full space), and inside a union of
    disks, has a closed form. In 3-D the first axis is integrated with the
    rim-absorbing substitution x = c + r sin(theta), on each panel by
    16-node Gauss rules on 1, 2, 4, ... equal sub-panels until two
    successive sums agree, over the exact 2-D slice measure; the result
    carries relative error about rel_tol. The panels split wherever the
    slice measure stops being analytic (see _rim_panels) and their ends are
    flattened, so slab measures are exact to rounding.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    c = np.atleast_1d(np.asarray(center, dtype=np.float64))
    if c.size != omega.dim:
        raise ValueError(f"center has {c.size} coordinates, set has dim {omega.dim}")
    if omega.dim == 1:
        iv = omega.intervals_1d(c[0] - radius, c[0] + radius)
        return float(np.sum(iv[:, 1] - iv[:, 0]))
    if omega.dim not in (2, 3):
        raise ValueError(f"dimension {omega.dim} unsupported (1, 2, or 3)")

    scale = ball_volume(omega.dim, radius)
    if omega.dim == 2 and omega.piecewise_slices:
        total = float(_disk_rect_area(_rectangles(omega, c, radius), radius))
    elif omega.dim == 2:
        total = _disk_union_area(c, radius, omega.centers, omega.radii)
    else:
        total = 0.0
        for t0, t1, f in _rim_panels(omega, c, radius):
            if t1 - t0 <= 1e-14:
                continue
            atol = rel_tol * scale * max((t1 - t0) / math.pi, 1e-3)
            val, ok = _panel_halving(f, float(t0), float(t1), atol)
            if not ok:
                raise QuadratureError("panel halving did not converge to the requested tolerance")
            total += val
    return min(max(total, 0.0), scale)


def thickness_estimate(omega: ControlSet, rho: DensityFn, centers, rel_tol: float = 1e-6) -> float:
    """Finite-sample thickness: min over centers of |omega cap B| / |B|.

    This is a lower-confidence certificate: it bounds thickness only at the
    sampled centers, not everywhere.
    """
    pts = np.asarray(centers, dtype=np.float64)
    if omega.dim == 1 and pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != omega.dim:
        raise ValueError("centers must be a non-empty (m, dim) array")
    radii = np.atleast_1d(rho(pts[:, 0] if omega.dim == 1 else pts))
    worst = 1.0
    for row, r in zip(pts, radii.tolist()):
        frac = intersection_measure(omega, row, r, rel_tol) / ball_volume(omega.dim, r)
        worst = min(worst, frac)
    return min(max(worst, 0.0), 1.0)


# -- coverings ---------------------------------------------------------------


@dataclass(frozen=True)
class Covering:
    """Greedy ball covering of a box.

    centers (k, n) with radii rho(center); third-radius balls are pairwise
    interior-disjoint; overlap_bound is the a-priori multiplicity bound
    (4 C^3 + 1)^n for the slowness constant C; max_multiplicity is the
    largest overlap observed on the verification grid.
    """

    centers: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)
    overlap_bound: int
    max_multiplicity: int
    grid_step: float

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


def _box_grid(box: np.ndarray, step: float) -> np.ndarray:
    axes = []
    for lo, hi in box:
        k = max(int(math.ceil((hi - lo) / step)), 1)
        axes.append(np.linspace(lo, hi, k + 1))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def covering_generate(
    rho: DensityFn, box, grid_step: float | None = None, slowness_constant: float = 2.0
) -> Covering:
    """Cover a box with balls B(x_k, rho(x_k)) whose third-radius cores are disjoint.

    Candidates sweep a grid of the given step (default: min rho over the box
    divided by 6) in row-major order; a candidate is kept iff its distance to
    every kept center is at least the sum of the two radii over 3. Coverage
    is then verified on the same grid and the observed overlap multiplicity
    recorded. A grid coarser than min rho / 5 cannot certify coverage and is
    rejected up front.
    """
    from scipy.spatial import cKDTree

    b = _as_box(box)
    n = b.shape[0]
    if n not in (1, 2, 3):
        raise ValueError(f"dimension {n} unsupported (1, 2, or 3)")
    rho_min = rho.min_on_box(b)
    if not rho_min > 0:
        raise InvalidDensityError("density must be positive on the box")
    if grid_step is None:
        grid_step = rho_min / 6.0
    if grid_step >= rho_min / 5.0:
        raise CoverageError(
            f"candidate grid step {grid_step:g} too coarse for min density {rho_min:g}; "
            f"need step < {rho_min / 5.0:g}"
        )
    grid = _box_grid(b, grid_step)
    radii = np.atleast_1d(rho(grid if n > 1 else grid[:, 0])).astype(np.float64)
    kept = greedy_ball_select(np.ascontiguousarray(grid), np.ascontiguousarray(radii))
    centers = grid[kept]
    kept_radii = radii[kept]

    tree = cKDTree(grid)
    covered = np.zeros(grid.shape[0], dtype=np.int64)
    # candidate hits from the tree, widened against its rounding, then the
    # exact test; in chunks of centers, so few index lists exist at a time
    for s in range(0, centers.shape[0], 128):
        ctr, rad = centers[s : s + 128], kept_radii[s : s + 128]
        hits = tree.query_ball_point(ctr, rad * (1.0 + 1e-12))
        owner = np.repeat(np.arange(ctr.shape[0]), [len(h) for h in hits])
        point = np.concatenate(hits).astype(np.intp)
        d2 = np.sum((grid[point] - ctr[owner]) ** 2, axis=1)
        r = rad[owner]
        covered += np.bincount(point[d2 <= r * r], minlength=grid.shape[0])
    if np.any(covered == 0):
        holes = grid[covered == 0]
        raise CoverageError(
            f"{holes.shape[0]} verification points uncovered (first: {holes[0].tolist()})",
            uncovered=holes,
        )
    bound = int(round((4.0 * slowness_constant**3 + 1.0) ** n))
    return Covering(
        centers=centers,
        radii=kept_radii,
        overlap_bound=bound,
        max_multiplicity=int(covered.max()),
        grid_step=float(grid_step),
    )


# -- thickness transfer ------------------------------------------------------


@dataclass(frozen=True)
class TransferReport:
    """Outcome of an empirical thickness-transfer check between densities."""

    hypothesis_ok: bool
    input_thickness: float
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
    rel_tol: float = 1e-6,
    slack: float = 1e-3,
) -> TransferReport:
    """Check that gamma-thickness w.r.t. rho1 transfers to rho2.

    With rho1 <= rho2 on the sampled centers and gamma > 1 - 6^{-n}, the
    transferred level is 1 - (1-gamma) 6^n; the measured thickness w.r.t.
    rho2 must reach it up to the slack. A violated hypothesis is reported in
    the result, not raised.
    """
    pts = np.asarray(centers, dtype=np.float64)
    if omega.dim == 1 and pts.ndim == 1:
        pts = pts[:, None]
    n = omega.dim
    flat = pts[:, 0] if n == 1 else pts
    r1 = np.atleast_1d(rho1(flat))
    r2 = np.atleast_1d(rho2(flat))
    notes = []
    pointwise_ok = bool(np.all(r1 <= r2 + 1e-12))
    gamma_ok = gamma > 1.0 - 6.0 ** (-n)
    if not pointwise_ok:
        notes.append("rho1 > rho2 somewhere on the sample")
    if not gamma_ok:
        notes.append(f"gamma={gamma:g} not above 1 - 6^-{n}")
    predicted = 1.0 - (1.0 - gamma) * 6.0**n
    input_thickness = thickness_estimate(omega, rho1, pts, rel_tol)
    if input_thickness < gamma - slack:
        notes.append(f"claimed thickness {gamma:g} not met on sample ({input_thickness:.6f})")
    measured = thickness_estimate(omega, rho2, pts, rel_tol)
    hypothesis_ok = pointwise_ok and gamma_ok and input_thickness >= gamma - slack
    transfer_ok = hypothesis_ok and measured >= predicted - slack
    return TransferReport(
        hypothesis_ok=hypothesis_ok,
        input_thickness=float(input_thickness),
        predicted=float(predicted),
        measured=float(measured),
        transfer_ok=bool(transfer_ok),
        notes="; ".join(notes),
    )
