import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from hermlab import geometry, kernels
from hermlab.geometry import (
    BallUnion,
    BoxUnion,
    CoverageError,
    DensityFn,
    FullSpace,
    InvalidDensityError,
    PeriodicPattern,
    covering_generate,
    density_validate,
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
    rep = density_validate(rho, [(-5.0, 5.0)])
    assert rep.lipschitz_ok and rep.bounds_ok


def test_power_density_value():
    rho = DensityFn.power(2.0, 0.5)
    # 2 <x>^{1/2} at x = 2: <2> = sqrt 5
    assert rho(np.array([2.0]))[0] == pytest.approx(2.0 * 5.0**0.25, rel=1e-15)


def test_power_density_is_slowly_varying():
    rep = density_validate(DensityFn.power(1.0, 0.5), [(-30.0, 30.0)])
    assert rep.lipschitz_ok
    assert rep.worst_ratio <= 0.5 + 1e-12


def test_tabulated_density_interpolates():
    rho = DensityFn.tabulated([-1.0, 0.0, 1.0], [1.0, 2.0, 1.0])
    assert rho(np.array([0.5]))[0] == pytest.approx(1.5)


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
    omega = BallUnion(1, np.array([[0.0], [10.0]]), np.array([1.0, 2.0]))
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


def _lens_area(r1, r2, d):
    """Area shared by two disks of radii r1, r2 whose centers are d apart."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return math.pi * min(r1, r2) ** 2
    a1 = r1 * r1 * math.acos((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))
    a2 = r2 * r2 * math.acos((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))
    return a1 + a2 - 0.5 * math.sqrt((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))


def _lens_measure(centers, radii, center, r):
    """Measure of the probe disk inside a union of pairwise disjoint disks."""
    return sum(_lens_area(r, rk, float(np.linalg.norm(center - ck))) for ck, rk in zip(centers, radii))


def test_ball_union_measure_is_closed_form_2d(monkeypatch):
    calls = []
    rule = geometry._panel_halving
    monkeypatch.setattr(geometry, "_panel_halving", lambda *a, **k: calls.append(1) or rule(*a, **k))
    centers = np.array([[0.0, 0.0], [3.0, 1.0]])
    radii = np.array([1.5, 1.0])
    center, r = np.array([1.4, 0.3]), 1.6
    val = intersection_measure(BallUnion(2, centers, radii), center, r, rel_tol=1e-6)
    assert not calls
    assert abs(val - _lens_measure(centers, radii, center, r)) <= 1e-12 * math.pi * r * r


def test_ball_union_measures_meet_rel_tol_2d():
    centers = np.array([[0.0, 0.0], [3.0, 1.0]])
    radii = np.array([1.5, 1.0])
    omega = BallUnion(2, centers, radii)
    rng = np.random.default_rng(3)
    disks = [(rng.uniform([-1.5, -1.5], [4.5, 2.5]), float(rng.uniform(0.3, 2.0))) for _ in range(20)]
    worst = 0.0
    for rel_tol in (1e-5, 1e-6):
        for center, r in disks:
            val = intersection_measure(omega, center, r, rel_tol)
            worst = max(worst, abs(val - _lens_measure(centers, radii, center, r)) / (math.pi * r * r))
    # exact: the closed form does not depend on rel_tol
    assert worst <= 1e-12


@pytest.mark.parametrize(
    "centers, radii, center, r, exact",
    [
        # a repeated disk counts once
        ([[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0], [0.0, 0.0], 1.5, _lens_area(1.5, 1.0, 1.0)),
        # a zero radius adds nothing, inside another disk or alone
        ([[1.0, 0.0], [1.2, 0.1], [-0.5, 0.0]], [1.0, 0.0, 0.0], [0.0, 0.0], 1.5, _lens_area(1.5, 1.0, 1.0)),
        ([], [], [0.0, 0.0], 1.0, 0.0),
        # a union disk inside the probe, and the probe inside or equal to a union disk
        ([[0.3, 0.2]], [0.5], [0.0, 0.0], 2.0, math.pi * 0.25),
        ([[0.0, 0.0]], [3.0], [0.5, 0.5], 1.0, math.pi),
        ([[0.5, 0.5]], [1.0], [0.5, 0.5], 1.0, math.pi),
        # internally tangent: a union disk inside the probe, the probe inside a union disk
        ([[0.5, 0.0]], [0.5], [0.0, 0.0], 1.0, math.pi * 0.25),
        ([[1.0, 0.0]], [2.0], [0.0, 0.0], 1.0, math.pi),
        # externally tangent: to the probe, and to each other inside the probe
        ([[2.0, 0.0]], [1.0], [0.0, 0.0], 1.0, 0.0),
        ([[-0.5, 0.0], [0.5, 0.0]], [0.5, 0.5], [0.0, 0.0], 2.0, math.pi * 0.5),
        ([[-0.5, 0.0], [0.5, 0.0]], [0.5, 0.5], [1.0, 0.0], 1.0, _lens_area(1.0, 0.5, 1.5) + math.pi * 0.25),
    ],
)
def test_ball_union_measure_degenerate_cases_2d(centers, radii, center, r, exact):
    omega = BallUnion(2, np.array(centers, dtype=float).reshape(-1, 2), radii)
    assert abs(intersection_measure(omega, center, r) - exact) <= 1e-12 * math.pi * r * r
    # the closed form itself, before intersection_measure clips it to [0, |B|]
    area = geometry._disk_union_area(np.array(center), r, omega.centers, omega.radii)
    assert abs(area - exact) <= 1e-12 * math.pi * r * r


def _disk_union_measure_quad(centers, radii, center, r):
    """Integral over x of the probe disk's column length inside a union of disks, by scipy quad.

    The x-range is split at every circle's x-extremes and at the x of every
    crossing of two circles, so the column length is analytic inside each part.
    """
    circles = [(float(center[0]), float(center[1]), r)] + [(c[0], c[1], rk) for c, rk in zip(centers, radii)]
    pts = {x for cx, _, rk in circles for x in (cx - rk, cx + rk)}
    for i, (x1, y1, r1) in enumerate(circles):
        for x2, y2, r2 in circles[i + 1 :]:
            d = math.hypot(x2 - x1, y2 - y1)
            if abs(r1 - r2) < d < r1 + r2:
                a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
                h = math.sqrt(max(r1 * r1 - a * a, 0.0))
                mid = x1 + a * (x2 - x1) / d
                pts |= {mid + h * (y2 - y1) / d, mid - h * (y2 - y1) / d}
    lo, hi = circles[0][0] - r, circles[0][0] + r
    pts = sorted(p for p in pts | {lo, hi} if lo <= p <= hi)

    def half(x, cx, rk):
        return math.sqrt(max(rk * rk - (x - cx) ** 2, 0.0))

    def f(x):
        s = half(x, center[0], r)
        iv = [(cy - half(x, cx, rk), cy + half(x, cx, rk)) for cx, cy, rk in circles[1:]]
        return _union_length(iv, center[1] - s, center[1] + s)

    return sum(
        integrate.quad(f, a, b, epsabs=1e-14 * r * r, epsrel=1e-13, limit=200)[0] for a, b in zip(pts[:-1], pts[1:])
    )


def test_ball_union_measure_matches_column_quadrature_2d():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(30):
        k = int(rng.integers(3, 7))
        centers = rng.uniform(-2.0, 2.0, size=(k, 2))
        radii = rng.uniform(0.3, 1.5, size=k)
        center = rng.uniform(-1.5, 1.5, size=2)
        r = float(rng.uniform(0.5, 2.5))
        ref = _disk_union_measure_quad(centers, radii, center, r)
        val = intersection_measure(BallUnion(2, centers, radii), center, r)
        worst = max(worst, abs(val - ref) / (math.pi * r * r))
    assert worst <= 1e-12


def _lens_volume(r1, r2, d):
    """Volume shared by two balls of radii r1, r2 whose centers are d apart."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return 4.0 / 3.0 * math.pi * min(r1, r2) ** 3
    return math.pi * (r1 + r2 - d) ** 2 * (d * d + 2.0 * d * (r1 + r2) - 3.0 * (r1 - r2) ** 2) / (12.0 * d)


@pytest.mark.parametrize(
    "centers, radii, outer",
    [
        # disjoint balls: the measure is a sum of lenses
        ([[0.0, 0.0, 0.0], [2.5, 0.5, 0.0]], [1.0, 0.8], [0, 1]),
        # the second ball inside the first: the union is the first ball
        ([[0.0, 0.0, 0.0], [0.3, 0.2, -0.1]], [2.0, 0.7], [0]),
    ],
)
@pytest.mark.parametrize("center, r", [([1.0, 0.2, 0.1], 1.5), ([2.2, 0.6, -0.3], 0.5), ([0.1, 0.0, 0.1], 0.4)])
def test_ball_union_measure_meets_rel_tol_3d(centers, radii, outer, center, r, monkeypatch):
    depth, calls = [0], []
    rule = geometry._panel_halving

    def outer_rule(*args):
        depth[0] += 1
        calls.append(depth[0])
        try:
            return rule(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(geometry, "_panel_halving", outer_rule)
    omega = BallUnion(3, centers, radii)
    c = np.array(center)
    exact = sum(_lens_volume(r, radii[k], float(np.linalg.norm(c - centers[k]))) for k in outer)
    val = intersection_measure(omega, c, r, rel_tol=1e-6)
    assert calls and max(calls) == 1  # the slice measures make no adaptive call of their own
    assert abs(val - exact) <= 1e-6 * 4.0 / 3.0 * math.pi * r**3


@pytest.mark.parametrize("center, r", [([0.674, 0.169, 0.0], 0.8), ([0.7, 0.1, 0.05], 0.9), ([0.6, 0.25, -0.05], 1.1)])
def test_overlapping_ball_union_measure_meets_rel_tol_3d(center, r):
    # the lens of the two balls lies inside the probe, so inclusion-exclusion is exact
    centers = np.array([[0.0, 0.0, 0.0], [1.2, 0.3, 0.0]])
    radii = [1.0, 0.9]
    c = np.array(center)
    lenses = [_lens_volume(r, rk, float(np.linalg.norm(c - ck))) for ck, rk in zip(centers, radii)]
    exact = sum(lenses) - _lens_volume(radii[0], radii[1], float(np.linalg.norm(centers[1] - centers[0])))
    val = intersection_measure(BallUnion(3, centers, radii), c, r, rel_tol=1e-6)
    assert abs(val - exact) <= 1e-6 * 4.0 / 3.0 * math.pi * r**3


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
    assert cov.dim == 2
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


def _grid(box, step):
    axes = [np.linspace(lo, hi, max(int(math.ceil((hi - lo) / step)), 1) + 1) for lo, hi in box]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


COVER_CASES = [
    (DensityFn.power(1.0, 0.5), [(-20.0, 20.0)]),
    (DensityFn.constant(1.0), [(-4.0, 4.0), (-4.0, 4.0)]),
    (DensityFn.power(1.0, 0.5), [(-5.0, 5.0), (-5.0, 5.0)]),
]


@pytest.mark.parametrize("rho, box", COVER_CASES)
def test_greedy_selection_matches_quadratic_scan(rho, box):
    grid = _grid(box, rho.min_on_box(box) / 6.0)
    radii = np.atleast_1d(rho(grid if grid.shape[1] > 1 else grid[:, 0]))
    np.testing.assert_array_equal(kernels.greedy_ball_select(grid, radii), _greedy_oracle(grid, radii))


def test_greedy_selection_matches_quadratic_scan_on_scattered_points(rng):
    cand = rng.uniform(-5.0, 5.0, size=(600, 2))
    radii = rng.uniform(0.1, 1.5, size=600)
    np.testing.assert_array_equal(kernels.greedy_ball_select(cand, radii), _greedy_oracle(cand, radii))


def test_greedy_selection_keeps_exact_ties():
    # unit lattice with radii 1.5: neighbours sit exactly at the separation 1
    cand = _grid([(0.0, 6.0), (0.0, 6.0)], 1.0)
    radii = np.r_[np.full(25, 1.5), np.full(24, 1.2)]
    kept = kernels.greedy_ball_select(cand, radii)
    np.testing.assert_array_equal(kept, _greedy_oracle(cand, radii))
    assert {0, 1, 7} <= set(kept.tolist())


@pytest.mark.parametrize("rho, box", COVER_CASES)
def test_covering_multiplicity_matches_brute_force(rho, box):
    cov = covering_generate(rho, box)
    grid = _grid(box, cov.grid_step)
    d2 = ((grid[:, None, :] - cov.centers[None, :, :]) ** 2).sum(axis=2)
    counts = (d2 <= cov.radii[None, :] ** 2).sum(axis=1)
    assert counts.min() >= 1
    assert cov.max_multiplicity == counts.max()


def test_covering_rejects_coarse_grid():
    with pytest.raises(CoverageError):
        covering_generate(DensityFn.constant(1.0), [(-3.0, 3.0)], grid_step=0.9)


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
