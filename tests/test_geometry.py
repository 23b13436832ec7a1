import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermlab import geometry
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


# -- quadrature measures in 2-D and 3-D ----------------------------------------


def test_disc_in_full_plane():
    val = intersection_measure(FullSpace(2), np.array([0.2, -0.1]), 1.3)
    assert val == pytest.approx(math.pi * 1.3**2, rel=1e-9)


def test_half_plane_halves_the_disc():
    omega = BoxUnion(2, np.array([[[0.0, 50.0], [-50.0, 50.0]]]))
    val = intersection_measure(omega, np.array([0.0, 0.0]), 2.0)
    assert val == pytest.approx(math.pi * 2.0, rel=1e-8)


def test_quarter_plane_quarters_the_disc():
    omega = BoxUnion(2, np.array([[[0.0, 50.0], [0.0, 50.0]]]))
    val = intersection_measure(omega, np.array([0.0, 0.0]), 1.0)
    assert val == pytest.approx(math.pi / 4.0, rel=1e-8)


def test_ball_in_full_space_3d():
    val = intersection_measure(FullSpace(3), np.zeros(3), 1.1)
    assert val == pytest.approx(4.0 / 3.0 * math.pi * 1.1**3, rel=1e-8)


def test_half_space_halves_the_ball_3d():
    omega = BoxUnion(3, np.array([[[0.0, 9.0], [-9.0, 9.0], [-9.0, 9.0]]]))
    val = intersection_measure(omega, np.zeros(3), 1.0, rel_tol=1e-9)
    assert val == pytest.approx(2.0 / 3.0 * math.pi, rel=1e-8)


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
