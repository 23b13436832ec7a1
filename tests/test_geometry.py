import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hermlab import cli, geometry, kernels
from hermlab.geometry import (
    BoxUnion,
    CoverageError,
    DensityFn,
    FullSpace,
    InvalidDensityError,
    PeriodicPattern,
    covering_generate,
    graded_cells,
    intersection_measure,
    interval_union,
    thickness_estimate,
    thickness_transfer_check,
)


# -- densities ----------------------------------------------------------------


def test_power_density_requires_unit_interval_exponent():
    with pytest.raises(InvalidDensityError, match=r"ε must lie in \(0,1\]"):
        DensityFn.power(1.0, 1.5)
    with pytest.raises(InvalidDensityError, match=r"ε must lie in \(0,1\]"):
        DensityFn.power(1.0, 0.0)


def test_constant_density_is_flat():
    rho = DensityFn.constant(0.75)
    assert rho(np.array([-3.0, 0.0, 10.0])) == pytest.approx([0.75, 0.75, 0.75])
    assert rho.lipschitz == 0.0


def test_power_density_value():
    rho = DensityFn.power(2.0, 0.5)
    # 2 <x>^{1/2} at x = 2: <2> = sqrt 5
    assert rho(np.array([2.0]))[0] == pytest.approx(2.0 * 5.0**0.25, rel=1e-15)


def test_tabulated_density_interpolates():
    rho = DensityFn.tabulated([-1.0, 0.0, 1.0], [1.0, 2.0, 1.0])
    assert rho(np.array([0.5]))[0] == pytest.approx(1.5)


# a dip to 0.01 narrower than the spacing of 4097 samples over [-100, 100]
NARROW_DIP = DensityFn.tabulated([-1.0, 0.0, 1e-3, 1.0], [1.0, 1.0, 0.01, 1.0])
# a 1/2-Lipschitz dip to 0.01 at a knot that those 4097 samples miss
SLOW_DIP = DensityFn.tabulated([-10.0, 1e-3, 10.0], [5.0, 0.01, 5.0])
# a step of slope 10 that 256 sampled pairs over [-1, 1] saw as slope 0.00995
STEEP_STEP = DensityFn.tabulated([-1.0, 0.0, 1e-3, 1.0], [1.0, 1.0, 1.01, 1.01])


def _sampled_slope(rho, pts):
    """Largest finite-difference slope of rho between consecutive points of pts, (m,) or (m, n)."""
    dist = np.linalg.norm(np.diff(pts, axis=0).reshape(len(pts) - 1, -1), axis=1)
    return float(np.max(np.abs(np.diff(rho(pts))) / dist))


def test_power_density_is_slowly_varying():
    # the density of every power covering here; its exact constant is 0.31020
    assert DensityFn.power(1.0, 0.5).lipschitz <= 0.5


@pytest.mark.parametrize("R, eps", [(1.0, 0.5), (2.0, 0.5), (1.612, 0.5), (0.7, 0.1), (3.0, 0.9), (2.0, 1.0)])
def test_power_lipschitz_matches_its_sampled_slope(R, eps):
    rho = DensityFn.power(R, eps)
    # the slope peaks at |x| = eps^{-1/2}; step 1e-3 leaves the secants
    # about 1e-8 below it and rounding about 1e-12
    t = np.linspace(0.0, 3.0 / math.sqrt(eps), int(3000 / math.sqrt(eps)) + 1)
    sampled = _sampled_slope(rho, t)
    assert rho.lipschitz >= sampled * (1.0 - 1e-12)
    assert rho.lipschitz == pytest.approx(sampled, rel=1e-6, abs=0.0)
    # rho is radial, so a 2-D ray sees the same slope
    ray = np.column_stack([t, t]) / math.sqrt(2.0)
    assert _sampled_slope(rho, ray) == pytest.approx(sampled, rel=1e-9, abs=1e-15)


@pytest.mark.parametrize(
    "rho, step, slope",
    [
        (DensityFn.constant(0.75), 0.1, 0.0),
        (DensityFn.tabulated([-1.0, 0.0, 1.0], [1.0, 2.0, 1.0]), 0.01, 1.0),
        (NARROW_DIP, 1e-4, 990.0),
        (SLOW_DIP, 0.1, 4.99 / 9.999),
        (STEEP_STEP, 1e-4, 10.0),
    ],
)
def test_lipschitz_matches_the_sampled_slope(rho, step, slope):
    # the step puts several points inside every piece, clamped ends included,
    # and keeps rounding (about 1e-16 rho / step) below 1e-12 of the slope
    t = np.linspace(-12.0, 12.0, int(round(24.0 / step)) + 1)
    sampled = _sampled_slope(rho, t)
    assert rho.lipschitz >= sampled * (1.0 - 1e-12)
    assert rho.lipschitz == pytest.approx(sampled, rel=1e-9, abs=0.0)
    assert rho.lipschitz == pytest.approx(slope, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rho", [DensityFn.power(1.612, 0.5), STEEP_STEP], ids=["power", "step"])
def test_covering_rejects_a_density_above_half_lipschitz_before_any_grid(rho, monkeypatch):
    def no_grid(*args):
        raise AssertionError("a candidate grid was built for a density too steep to cover with")

    monkeypatch.setattr(geometry, "_box_grid", no_grid)
    with pytest.raises(InvalidDensityError, match="Lipschitz constant"):
        covering_generate(rho, [(-100.0, 100.0)])


def test_tabulated_min_on_box_is_exact():
    assert NARROW_DIP.min_on_box([(-100.0, 100.0)]) == 0.01
    # no grid point inside: the smaller of the interpolant at the two ends
    assert NARROW_DIP.min_on_box([(0.5, 0.75)]) == float(np.interp(0.5, NARROW_DIP.grid, NARROW_DIP.values))
    assert NARROW_DIP.min_on_box([(2.0, 3.0)]) == 1.0


def test_tabulated_density_rejects_a_2d_box_before_any_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("a candidate grid was built for a density that cannot be evaluated on it")

    monkeypatch.setattr(geometry, "_box_grid", no_grid)
    with pytest.raises(InvalidDensityError, match="1-D only"):
        NARROW_DIP.min_on_box([(-1.0, 1.0), (-1.0, 1.0)])
    with pytest.raises(InvalidDensityError, match="1-D only"):
        covering_generate(SLOW_DIP, [(-1.0, 1.0), (-1.0, 1.0)])


def test_covering_step_rule_sees_a_dip_between_samples():
    cov = covering_generate(SLOW_DIP, [(-100.0, 100.0)])
    assert cov.grid_step == 0.01 / 6.0


# -- exact 1-D measures ---------------------------------------------------------


def test_full_space_measure_is_diameter():
    full = FullSpace(1)
    assert intersection_measure(full, np.array([0.3]), 1.7) == pytest.approx(3.4, abs=1e-15)


def test_interval_clipping_measure():
    omega = interval_union([(0.0, 1.0)])
    assert intersection_measure(omega, np.array([0.0]), 0.5) == pytest.approx(0.5, abs=1e-15)
    assert intersection_measure(omega, np.array([2.5]), 1.0) == pytest.approx(0.0, abs=1e-15)


def test_periodic_measure_unit_ball():
    # stripes [2k, 2k+1); ball (0.5, 1) covers [-0.5, 1.5] whose kept part
    # is exactly [0, 1]
    omega = PeriodicPattern(dim=1, period=2.0, kept=0.5)
    val = intersection_measure(omega, np.array([0.5]), 1.0)
    assert val == pytest.approx(1.0, abs=1e-14)


def test_ball_union_measure_1d():
    # a 1-D ball spec builds the intervals [c - r, c + r]
    omega = cli._build_omega({"type": "balls", "centers": [[0.0], [10.0]], "radii": [1.0, 2.0]})
    assert intersection_measure(omega, np.array([0.0]), 3.0) == pytest.approx(2.0, abs=1e-14)


# -- measures in 2-D and 3-D ----------------------------------------------------


def test_disc_in_full_plane():
    val = intersection_measure(FullSpace(2), np.array([0.2, -0.1]), 1.3)
    assert val == pytest.approx(math.pi * 1.3**2, rel=1e-15)


def test_half_plane_halves_the_disc():
    omega = BoxUnion(2, np.array([[[0.0, 50.0], [-50.0, 50.0]]]))
    val = intersection_measure(omega, np.array([0.0, 0.0]), 2.0)
    assert val == pytest.approx(math.pi * 2.0, rel=1e-15)


def test_quarter_plane_quarters_the_disc():
    omega = BoxUnion(2, np.array([[[0.0, 50.0], [0.0, 50.0]]]))
    val = intersection_measure(omega, np.array([0.0, 0.0]), 1.0)
    assert val == pytest.approx(math.pi / 4.0, rel=1e-15)


def test_ball_in_full_space_3d():
    val = intersection_measure(FullSpace(3), np.zeros(3), 1.1)
    assert val == pytest.approx(4.0 / 3.0 * math.pi * 1.1**3, rel=1e-12)


def test_half_space_halves_the_ball_3d():
    omega = BoxUnion(3, np.array([[[0.0, 9.0], [-9.0, 9.0], [-9.0, 9.0]]]))
    val = intersection_measure(omega, np.zeros(3), 1.0, rel_tol=1e-9)
    assert val == pytest.approx(2.0 / 3.0 * math.pi, rel=1e-12)


# -- exact 2-D measures against quadrature of the column length -----------------


def _union_length(intervals, lo, hi):
    """Length of a union of intervals inside [lo, hi], by sort and sweep."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def _stripe_length(period, kept, offset, lo, hi):
    """Length of the kept stripes [offset + kL, offset + kL + kept L) inside [lo, hi]."""

    def K(y):
        u = (y - offset) / period
        k = math.floor(u)
        return period * (k * kept + min(u - k, kept))

    return K(hi) - K(lo)


def _disk_measure_quad(column, x_edges, y_edges, center, radius):
    """Integral over x of the column length of omega inside the disk, by scipy quad.

    The x-range is split at the set's x-edges and where the rim crosses a
    y-edge, so every part is smooth inside and quad only meets endpoint
    square roots.
    """
    cx, cy = center
    pts = [cx - radius, cx + radius]
    pts += [e for e in x_edges if abs(e - cx) < radius]
    for e in y_edges:
        if abs(e - cy) < radius:
            h = math.sqrt(radius**2 - (e - cy) ** 2)
            pts += [cx - h, cx + h]
    pts = sorted(set(pts))

    def f(x):
        s = math.sqrt(max(radius**2 - (x - cx) ** 2, 0.0))
        return column(x, cy - s, cy + s)

    return sum(
        integrate.quad(f, a, b, epsabs=1e-14 * radius**2, epsrel=1e-13, limit=200)[0] for a, b in zip(pts[:-1], pts[1:])
    )


def test_box_union_disk_measure_is_exact(rng):
    worst = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 5))
        lo = rng.uniform(-3.0, 2.0, size=(k, 2))
        boxes = np.stack([lo, lo + rng.uniform(0.2, 3.0, size=(k, 2))], axis=-1)
        center = rng.uniform(-2.0, 2.0, size=2)
        r = float(rng.uniform(0.3, 3.0))

        def column(x, lo_y, hi_y, boxes=boxes):
            return _union_length([tuple(b[1]) for b in boxes if b[0, 0] <= x <= b[0, 1]], lo_y, hi_y)

        ref = _disk_measure_quad(column, boxes[:, 0].ravel(), boxes[:, 1].ravel(), center, r)
        val = intersection_measure(BoxUnion(2, boxes), center, r)
        worst = max(worst, abs(val - ref) / (math.pi * r * r))
    assert worst <= 1e-12


def test_periodic_disk_measure_is_exact(rng):
    worst = 0.0
    for _ in range(10):
        period = float(rng.uniform(0.5, 3.0))
        kept = float(rng.uniform(0.1, 1.0))
        offset = float(rng.uniform(-1.0, 1.0))
        center = rng.uniform(-3.0, 3.0, size=2)
        r = float(rng.uniform(0.3, 3.0))
        ks = np.arange(-20, 21)
        edges = np.concatenate([offset + ks * period, offset + (ks + kept) * period])

        def column(x, lo_y, hi_y, p=(period, kept, offset)):
            frac = ((x - p[2]) / p[0]) % 1.0
            return _stripe_length(*p, lo_y, hi_y) if frac < p[1] else 0.0

        ref = _disk_measure_quad(column, edges, edges, center, r)
        val = intersection_measure(PeriodicPattern(2, period, kept, offset), center, r)
        worst = max(worst, abs(val - ref) / (math.pi * r * r))
    assert worst <= 1e-12


def _cap_volume(r, h):
    """Volume of the part of a radius-r ball below height h over its center."""
    t = min(max(h, -r), r) + r
    return math.pi * t * t * (3.0 * r - t) / 3.0


@pytest.mark.parametrize("rel_tol", [1e-5, 1e-6])
@pytest.mark.parametrize("z, r", [(0.1, 1.0), (0.0, 1.5), (2.2, 1.0)])
def test_ball_slab_measure_meets_rel_tol_3d(z, r, rel_tol):
    slabs = ((-3.0, -1.5), (-0.5, 0.7), (1.6, 2.9))
    omega = BoxUnion(3, np.array([[(-math.inf, math.inf)] * 2 + [s] for s in slabs]))
    exact = sum(_cap_volume(r, b - z) - _cap_volume(r, a - z) for a, b in slabs)
    val = intersection_measure(omega, np.array([1.3, -2.7, z]), r, rel_tol)
    # exact to rounding: each panel's integrand is smooth up to its ends
    assert abs(val - exact) <= 1e-12 * 4.0 / 3.0 * math.pi * r**3


@pytest.mark.parametrize("rel_tol", [1e-5, 1e-6])
def test_slabs_across_first_axis_meet_rel_tol_3d(rel_tol):
    # slabs cut the first axis, so the panels split at the set's own breakpoints
    slabs = ((-3.0, -1.5), (-0.5, 0.7), (1.6, 2.9))
    omega = BoxUnion(3, np.array([[s] + [(-math.inf, math.inf)] * 2 for s in slabs]))
    for x, r in ((0.1, 1.0), (-1.2, 2.3), (2.5, 0.4)):
        exact = sum(_cap_volume(r, b - x) - _cap_volume(r, a - x) for a, b in slabs)
        val = intersection_measure(omega, np.array([x, 0.4, -7.0]), r, rel_tol)
        assert abs(val - exact) <= 1e-12 * 4.0 / 3.0 * math.pi * r**3


_HALF = (0.0, math.inf)
_LINE = (-math.inf, math.inf)
_CUBE = BoxUnion(3, np.array([[(-0.5, 0.5)] * 3]))


def _ball_volume(r):
    return 4.0 / 3.0 * math.pi * r**3


@pytest.mark.parametrize(
    "omega, r, exact",
    [
        # a corner at the center: the slice rectangles' corners cross the slice disk
        *[(BoxUnion(3, np.array([[_HALF] * 3])), r, _ball_volume(r) / 8.0) for r in (0.7, 1.0, 2.3)],
        # an edge through the center, across the first axis and along it
        (BoxUnion(3, np.array([[_HALF, _HALF, _LINE]])), 1.3, _ball_volume(1.3) / 4.0),
        (BoxUnion(3, np.array([[_LINE, _HALF, _HALF]])), 1.3, _ball_volume(1.3) / 4.0),
        # a ball inside the cube, and the cube inside balls just past its corners and far past them
        (_CUBE, 0.3, _ball_volume(0.3)),
        (_CUBE, 1.01 * math.sqrt(3.0) / 2.0, 1.0),
        (_CUBE, 2.0, 1.0),
    ],
    ids=[
        "octant-0.7",
        "octant-1.0",
        "octant-2.3",
        "quarter-space",
        "quarter-space-along-x",
        "ball-in-cube",
        "cube-in-ball-1.01",
        "cube-in-ball-2.0",
    ],
)
def test_box_corners_and_edges_meet_rel_tol_3d(omega, r, exact):
    val = intersection_measure(omega, np.zeros(3), r)
    assert abs(val - exact) <= 1e-12 * _ball_volume(r)


@settings(deadline=None, max_examples=30)
@given(
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=0.1, max_value=1.0),
    st.floats(min_value=1.0, max_value=2.5),
)
def test_measure_monotone_in_radius(c, r1, scale):
    omega = PeriodicPattern(dim=1, period=1.5, kept=0.4)
    small = intersection_measure(omega, np.array([c]), r1)
    large = intersection_measure(omega, np.array([c]), r1 * scale)
    assert small <= large + 1e-12
    assert 0.0 <= small <= 2 * r1 + 1e-12


# -- thickness -----------------------------------------------------------------


def test_full_space_thickness_is_one():
    rho = DensityFn.constant(1.0)
    centers = np.linspace(-5, 5, 11)
    assert thickness_estimate(FullSpace(1), rho, centers) == pytest.approx(1.0, abs=1e-12)


def test_periodic_thickness_matches_kept_fraction():
    omega = PeriodicPattern(dim=1, period=2.0, kept=0.5)
    rho = DensityFn.constant(2.0)
    centers = np.linspace(-7, 7, 29)
    # every ball of radius 2 sees exactly half of each full period
    assert thickness_estimate(omega, rho, centers) == pytest.approx(0.5, abs=1e-12)


def _segment_area(r, h):
    """Area of the part of a radius-r disk below height h over its center."""
    t = min(max(h, -r), r)
    return r * r * (math.pi - math.acos(t / r)) + t * math.sqrt((r - t) * (r + t))


SLABS = ((-3.0, -1.5), (-0.5, 0.7), (1.6, 2.9))
SLAB_CENTERS = np.array([(0.0, 0.4, 0.1), (-2.0, 1.3, -1.1), (1.5, -0.2, 2.2), (0.7, 0.0, -0.3), (3.0, 2.0, 1.0)])


def _slab_fraction(dim, center, r):
    h = center[-1]
    if dim == 2:
        part, whole = _segment_area, math.pi * r * r
    else:
        part, whole = _cap_volume, 4.0 / 3.0 * math.pi * r**3
    return sum(part(r, b - h) - part(r, a - h) for a, b in SLABS) / whole


@pytest.mark.parametrize("dim, tol", [(2, 1e-12), (3, 2e-6)])
def test_thickness_on_slabs_matches_closed_form(dim, tol):
    # slabs across the last axis; the radius grows with |center|, so each
    # center must be measured with its own radius
    omega = BoxUnion(dim, np.array([[(-math.inf, math.inf)] * (dim - 1) + [s] for s in SLABS]))
    rho = DensityFn.power(1.0, 0.5)
    centers = SLAB_CENTERS[:, 3 - dim :]
    expected = min(_slab_fraction(dim, c, (1.0 + float(c @ c)) ** 0.25) for c in centers)
    assert thickness_estimate(omega, rho, centers) == pytest.approx(expected, abs=tol)


def test_graded_cells_are_thick_for_their_density():
    rho = DensityFn.power(1.0, 0.5)
    omega = graded_cells(rho, gamma=0.5, extent=25.0)
    centers = np.linspace(-20, 20, 81)
    assert thickness_estimate(omega, rho, centers) >= 0.5 - 0.05


def test_graded_cells_rejects_bad_fraction():
    with pytest.raises(ValueError):
        graded_cells(DensityFn.constant(1.0), gamma=0.0, extent=5.0)


@pytest.mark.parametrize(
    "extent, match",
    [(0.0, "must be positive"), (-3.0, "must be positive"), (math.nan, "must be positive"), (1e9, "cell cap")],
)
def test_graded_cells_rejects_bad_extent(extent, match):
    # 1e9 at rho = 0.5 is 2e9 cells per side: it must raise before marching
    with pytest.raises(ValueError, match=match):
        graded_cells(DensityFn.constant(0.5), gamma=0.5, extent=extent)


def test_periodic_pattern_rejects_non_finite_offset():
    with pytest.raises(ValueError, match="offset must be finite"):
        PeriodicPattern(dim=1, period=2.0, kept=0.5, offset=math.inf)


# -- coverings -----------------------------------------------------------------


def test_covering_on_graded_density():
    rho = DensityFn.power(1.0, 0.5)
    cov = covering_generate(rho, [(-20.0, 20.0)])
    centers = cov.centers[:, 0]
    radii = cov.radii
    # third-radius cores are pairwise disjoint, exactly
    for i in range(len(radii)):
        for j in range(i + 1, len(radii)):
            assert abs(centers[i] - centers[j]) >= (radii[i] + radii[j]) / 3.0
    # every sampled point of the box is inside some ball
    grid = np.linspace(-20, 20, 10_000)
    dist = np.abs(grid[:, None] - centers[None, :])
    assert np.all((dist <= radii[None, :]).any(axis=1))
    assert cov.max_multiplicity <= cov.overlap_bound
    assert cov.overlap_bound == 33


def test_covering_count_frozen():
    cov = covering_generate(DensityFn.power(1.0, 0.5), [(-20.0, 20.0)])
    assert len(cov.radii) == 22
    assert cov.max_multiplicity == 3


def test_covering_2d_overlap_modest():
    cov = covering_generate(DensityFn.constant(1.0), [(-4.0, 4.0), (-4.0, 4.0)])
    assert cov.max_multiplicity <= 25
    assert cov.overlap_bound == 33**2
    xs = np.linspace(-4, 4, 160)
    X, Y = np.meshgrid(xs, xs)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    d2 = ((pts[:, None, :] - cov.centers[None, :, :]) ** 2).sum(axis=2)
    assert np.all((d2 <= cov.radii[None, :] ** 2).any(axis=1))


def test_power_density_min_on_2d_box():
    rho = DensityFn.power(1.0, 0.5)
    # the point of [1, 2] x [3, 4] nearest the origin is (1, 3), at |x|^2 = 10
    assert rho.min_on_box([(1.0, 2.0), (3.0, 4.0)]) == pytest.approx(11.0**0.25, rel=1e-15)
    assert rho.min_on_box([(-1.0, 2.0), (-3.0, 4.0)]) == 1.0


def test_covering_2d_power_density():
    rho = DensityFn.power(1.0, 0.5)
    cov = covering_generate(rho, [(-5.0, 5.0), (-5.0, 5.0)])
    assert cov.centers.shape[1] == 2
    assert cov.max_multiplicity <= cov.overlap_bound
    np.testing.assert_allclose(cov.radii, (1.0 + np.sum(cov.centers**2, axis=1)) ** 0.25)
    xs = np.linspace(-5, 5, 120)
    X, Y = np.meshgrid(xs, xs)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    d2 = ((pts[:, None, :] - cov.centers[None, :, :]) ** 2).sum(axis=2)
    assert np.all((d2 <= cov.radii[None, :] ** 2).any(axis=1))


def _greedy_oracle(cand, radii):
    """The O(k^2) scan: keep cand[i] iff it is far enough from every kept center."""
    kept = []
    for i in range(cand.shape[0]):
        if kept:
            d = np.sqrt(((cand[kept] - cand[i]) ** 2).sum(axis=1))
            if np.any(d < (radii[kept] + radii[i]) / 3.0):
                continue
        kept.append(i)
    return np.array(kept, dtype=np.int64)


def _axes_grid(axes):
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


def _axes(box, step):
    return [np.linspace(lo, hi, max(int(math.ceil((hi - lo) / step)), 1) + 1) for lo, hi in box]


def _grid(box, step):
    return _axes_grid(_axes(box, step))


COVER_CASES = [
    (DensityFn.power(1.0, 0.5), [(-20.0, 20.0)]),
    (DensityFn.constant(1.0), [(-4.0, 4.0), (-4.0, 4.0)]),
    (DensityFn.power(1.0, 0.5), [(-5.0, 5.0), (-5.0, 5.0)]),
]


@pytest.mark.parametrize("rho, box", COVER_CASES)
def test_greedy_selection_matches_quadratic_scan(rho, box):
    axes = _axes(box, rho.min_on_box(box) / 6.0)
    grid = _axes_grid(axes)
    radii = np.atleast_1d(rho(grid if grid.shape[1] > 1 else grid[:, 0]))
    np.testing.assert_array_equal(kernels.greedy_ball_select(axes, radii), _greedy_oracle(grid, radii))


@pytest.mark.parametrize("dim, size", [(1, 600), (2, 25), (3, 9)])
def test_greedy_selection_matches_quadratic_scan_on_uneven_grids(rng, dim, size):
    for _ in range(4):
        axes = [np.sort(rng.uniform(-5.0, 5.0, size)) for _ in range(dim)]
        radii = rng.uniform(0.1, 1.5, size=size**dim)
        kept = kernels.greedy_ball_select(axes, radii)
        np.testing.assert_array_equal(kept, _greedy_oracle(_axes_grid(axes), radii))


def test_greedy_selection_marks_a_later_line_with_a_smaller_second_index():
    # lines (0, 0), (0, 1), (1, 0), (1, 1) of one point each: the ball kept on
    # line (0, 1) excludes the point of the later line (1, 0) at distance sqrt 2
    axes = [np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0])]
    radii = np.array([0.3, 2.4, 2.4, 1.0])
    kept = kernels.greedy_ball_select(axes, radii)
    np.testing.assert_array_equal(kept, _greedy_oracle(_axes_grid(axes), radii))
    assert kept.tolist() == [0, 1]


def test_greedy_selection_keeps_exact_ties():
    # unit lattice with radii 1.5: neighbours sit exactly at the separation 1
    axes = [np.linspace(0.0, 6.0, 7)] * 2
    radii = np.r_[np.full(25, 1.5), np.full(24, 1.2)]
    kept = kernels.greedy_ball_select(axes, radii)
    np.testing.assert_array_equal(kept, _greedy_oracle(_axes_grid(axes), radii))
    assert {0, 1, 7} <= set(kept.tolist())


@pytest.mark.parametrize("dim", [2, 3])
def test_greedy_selection_with_one_outlier_radius(rng, dim):
    # rmax is 20x the other radii, so most lines reach only a short prefix of
    # the stencil, yet a small ball must still exclude the outlier candidate
    axes = [np.linspace(0.0, 4.0, 21 if dim == 2 else 11)] * dim
    radii = rng.uniform(0.25, 0.35, size=axes[0].size**dim)
    outlier = radii.size // 2 + 3
    radii[outlier] = 6.0
    kept = kernels.greedy_ball_select(axes, radii)
    np.testing.assert_array_equal(kept, _greedy_oracle(_axes_grid(axes), radii))
    assert outlier not in kept


@pytest.mark.parametrize("single", [0, 1, 2])
def test_greedy_selection_with_a_single_point_axis_and_uneven_spacings(rng, single):
    # spacings 0.1 and 1.0 on the other two axes, the single-point axis at each position
    axes = [np.linspace(0.0, 2.0, 21), np.linspace(0.0, 20.0, 21)]
    axes.insert(single, np.array([0.5]))
    radii = rng.uniform(0.5, 3.0, size=441)
    kept = kernels.greedy_ball_select(axes, radii)
    np.testing.assert_array_equal(kept, _greedy_oracle(_axes_grid(axes), radii))


@pytest.mark.parametrize("shape", [(4, 5), (5, 4), (4, 1, 5)])
def test_greedy_selection_keeps_an_exact_diagonal_tie(shape):
    # the far corner of the unit lattice sits at the 3-4-5 distance 5 from the
    # first center, and the radii 6 + 9 make the separation exactly 5 too: it
    # is kept; every other point lies closer than 5 and is excluded. The
    # radius 12 of the second point widens the reach past 5, so the exact
    # test decides the tie, not the cut of the stencil
    axes = [np.arange(float(k)) for k in shape]
    radii = np.full(math.prod(shape), 9.0)
    radii[:2] = 6.0, 12.0
    kept = kernels.greedy_ball_select(axes, radii)
    np.testing.assert_array_equal(kept, _greedy_oracle(_axes_grid(axes), radii))
    assert kept.tolist() == [0, radii.size - 1]


@pytest.mark.parametrize("size", [5, 7])
def test_greedy_selection_rejects_radii_of_the_wrong_length(size):
    with pytest.raises(ValueError, match="candidates"):
        kernels.greedy_ball_select([np.arange(2.0), np.arange(3.0)], np.ones(size))


def test_greedy_selection_rejects_an_unsorted_axis():
    with pytest.raises(ValueError, match="sorted ascending"):
        kernels.greedy_ball_select([np.array([1.0, 0.0])], np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0])
def test_greedy_selection_rejects_a_nan_or_nonpositive_radius(bad):
    with pytest.raises(ValueError, match="positive"):
        kernels.greedy_ball_select([np.arange(2.0)], np.array([1.0, bad]))


def test_covering_leaves_scipy_spatial_unloaded():
    src = os.path.dirname(os.path.dirname(geometry.__file__))
    code = (
        "import sys; from hermlab.geometry import DensityFn, covering_generate; "
        "covering_generate(DensityFn.constant(1.0), [(-3.0, 3.0)] * 2); "
        "print(any(m.startswith('scipy.spatial') for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("rho, box", COVER_CASES)
def test_covering_multiplicity_matches_brute_force(rho, box):
    cov = covering_generate(rho, box)
    grid = _grid(box, cov.grid_step)
    d2 = ((grid[:, None, :] - cov.centers[None, :, :]) ** 2).sum(axis=2)
    counts = (d2 <= cov.radii[None, :] ** 2).sum(axis=1)
    assert counts.min() >= 1
    assert cov.max_multiplicity == counts.max()


def test_covering_rejects_a_grid_above_the_candidate_cap(monkeypatch):
    def no_grid(*args):
        raise AssertionError("a candidate grid was built above the cap")

    monkeypatch.setattr(geometry, "_box_grid", no_grid)
    # 120,001^2 candidates, about 1.44e10
    with pytest.raises(CoverageError, match="exceeds the cap"):
        covering_generate(DensityFn.constant(1.0), [(-1e4, 1e4)] * 2)
    with pytest.raises(CoverageError, match="exceeds the cap"):
        covering_generate(DensityFn.constant(1.0), [(-math.inf, 0.0)])


@pytest.mark.parametrize("rho, box", COVER_CASES)
def test_covering_reports_its_candidate_count(rho, box):
    cov = covering_generate(rho, box)
    assert cov.candidates == _grid(box, cov.grid_step).shape[0]


def _brute_counts(grid, centers, radii):
    d2 = np.sum((grid[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    return np.sum(d2 <= radii * radii, axis=1)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coverage_counts_match_brute_force_on_random_grids(rng, dim):
    for _ in range(40):
        axes = [np.linspace(rng.uniform(-5.0, 0.0), rng.uniform(0.1, 5.0), rng.integers(2, 40 // dim)) for _ in range(dim)]
        grid = _axes_grid(axes)
        k = 30
        # centers on grid points and scattered off them, some beyond the box edge
        centers = grid[rng.integers(0, grid.shape[0], k)]
        centers[::2] += rng.normal(0.0, 3.0, size=centers[::2].shape)
        radii = rng.uniform(0.0, 4.0, size=k)
        # a third of the radii are distances to a grid point, a sixth lie below the step
        far = grid[rng.integers(0, grid.shape[0], k)]
        radii[::3] = np.sqrt(np.sum((far - centers) ** 2, axis=1))[::3]
        radii[1::6] = rng.uniform(0.0, 0.5, size=radii[1::6].shape) * min(a[1] - a[0] for a in axes)
        counts = geometry._coverage_counts(axes, centers, radii)
        assert np.array_equal(counts, _brute_counts(grid, centers, radii))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_coverage_counts_keep_exact_ties(dim):
    # integer lattice and integer radii: many points sit exactly on a sphere
    axes = [np.linspace(0.0, 8.0, 9)] * dim
    grid = _axes_grid(axes)
    centers = grid[:: max(grid.shape[0] // 7, 1)]
    for r in (0.0, 1.0, 2.0, 3.0, 5.0, 20.0):
        radii = np.full(centers.shape[0], r)
        counts = geometry._coverage_counts(axes, centers, radii)
        assert np.array_equal(counts, _brute_counts(grid, centers, radii))
        assert np.sum(counts) > 0


# -- thickness transfer ---------------------------------------------------------


def test_transfer_at_high_thickness():
    omega = PeriodicPattern(dim=1, period=1.0, kept=0.9)
    rho1 = DensityFn.constant(1.0)
    rho2 = DensityFn.constant(2.0)
    centers = np.linspace(-10, 10, 100)
    rep = thickness_transfer_check(omega, rho1, rho2, gamma=0.9, centers=centers)
    assert rep.hypothesis_ok
    assert rep.predicted == pytest.approx(0.4, abs=1e-15)
    assert rep.measured >= 0.4 - 1e-3
    assert rep.transfer_ok


def test_transfer_reports_violated_hypothesis():
    omega = PeriodicPattern(dim=1, period=1.0, kept=0.5)
    rho = DensityFn.constant(1.0)
    rep = thickness_transfer_check(
        omega, rho, DensityFn.constant(2.0), gamma=0.5, centers=np.linspace(-3, 3, 20)
    )
    # gamma = 0.5 is below the 1 - 1/6 threshold in one dimension
    assert not rep.hypothesis_ok
    assert "gamma" in rep.notes


# -- interval bookkeeping --------------------------------------------------------


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-10, max_value=10), st.floats(min_value=0.01, max_value=3)
        ),
        min_size=1,
        max_size=6,
    )
)
def test_interval_union_measure_never_exceeds_ball(pairs):
    intervals = [(a, a + w) for a, w in pairs]
    omega = interval_union(intervals)
    val = intersection_measure(omega, np.array([0.0]), 2.0)
    assert -1e-12 <= val <= 4.0 + 1e-12
    total = sum(min(b, 2.0) - max(a, -2.0) for a, b in intervals if b > -2.0 and a < 2.0)
    assert val <= total + 1e-9
