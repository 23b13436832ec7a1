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
    assert val == pytest.approx(4.0 / 3.0 * math.pi * 1.1**3, rel=1e-8)


def test_half_space_halves_the_ball_3d():
    omega = BoxUnion(3, np.array([[[0.0, 9.0], [-9.0, 9.0], [-9.0, 9.0]]]))
    val = intersection_measure(omega, np.zeros(3), 1.0, rel_tol=1e-9)
    assert val == pytest.approx(2.0 / 3.0 * math.pi, rel=1e-8)


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
    assert abs(val - exact) <= rel_tol * 4.0 / 3.0 * math.pi * r**3


@pytest.mark.parametrize("rel_tol", [1e-5, 1e-6])
def test_slabs_across_first_axis_meet_rel_tol_3d(rel_tol):
    # slabs cut the first axis, so the panels split at the set's own breakpoints
    slabs = ((-3.0, -1.5), (-0.5, 0.7), (1.6, 2.9))
    omega = BoxUnion(3, np.array([[s] + [(-math.inf, math.inf)] * 2 for s in slabs]))
    for x, r in ((0.1, 1.0), (-1.2, 2.3), (2.5, 0.4)):
        exact = sum(_cap_volume(r, b - x) - _cap_volume(r, a - x) for a, b in slabs)
        val = intersection_measure(omega, np.array([x, 0.4, -7.0]), r, rel_tol)
        assert abs(val - exact) <= rel_tol * 4.0 / 3.0 * math.pi * r**3


def _lens_area(r1, r2, d):
    """Area shared by two disks of radii r1, r2 whose centers are d apart."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        return math.pi * min(r1, r2) ** 2
    a1 = r1 * r1 * math.acos((d * d + r1 * r1 - r2 * r2) / (2.0 * d * r1))
    a2 = r2 * r2 * math.acos((d * d + r2 * r2 - r1 * r1) / (2.0 * d * r2))
    return a1 + a2 - 0.5 * math.sqrt((-d + r1 + r2) * (d + r1 - r2) * (d - r1 + r2) * (d + r1 + r2))


def test_ball_union_measure_uses_quadrature_2d(monkeypatch):
    calls = []
    rule = geometry._panel_midpoint
    monkeypatch.setattr(geometry, "_panel_midpoint", lambda *a, **k: calls.append(1) or rule(*a, **k))
    centers = np.array([[0.0, 0.0], [3.0, 1.0]])
    radii = np.array([1.5, 1.0])
    center, r = np.array([1.4, 0.3]), 1.6
    exact = sum(_lens_area(r, rk, float(np.linalg.norm(center - ck))) for ck, rk in zip(centers, radii))
    val = intersection_measure(BallUnion(2, centers, radii), center, r, rel_tol=1e-6)
    assert calls
    assert abs(val - exact) <= 1e-6 * math.pi * r * r


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


def test_graded_cells_are_thick_for_their_density():
    rho = DensityFn.power(1.0, 0.5)
    omega = graded_cells(rho, gamma=0.5, extent=25.0)
    centers = np.linspace(-20, 20, 81)
    assert thickness_estimate(omega, rho, centers) >= 0.5 - 0.05


def test_graded_cells_rejects_bad_fraction():
    with pytest.raises(ValueError):
        graded_cells(DensityFn.constant(1.0), gamma=0.0, extent=5.0)


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
