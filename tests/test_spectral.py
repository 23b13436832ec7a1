import math

import numpy as np
import pytest
from scipy.special import erf

from hermlab import geometry, indexing, spectral
from hermlab.kernels import hermite_function_table
from hermlab.quadrature import gauss_legendre, panel_nodes
from hermlab.spectral import (
    DegenerateRestrictionError,
    GramMatrix,
    _gram_2d,
    _panel_length,
    gram_matrix,
    growth_fit,
    spectral_constant,
    truncation_radius,
)

# closed form for the restriction constant of the half line at degree 1:
# the smallest eigenvalue of [[1/2, (2 pi)^{-1/2}], [(2 pi)^{-1/2}, 1/2]]
# restricted pairing is 1/2 - (2 pi)^{-1/2}
HALF_LINE_C1 = (0.5 - (2.0 * math.pi) ** -0.5) ** -0.5


def test_truncation_radius_floor():
    assert truncation_radius(0) == pytest.approx(math.sqrt(20.0))
    assert truncation_radius(40) == pytest.approx(math.sqrt(180.0))


def test_full_space_gram_is_identity():
    G = gram_matrix(geometry.FullSpace(1), 14)
    dev = np.max(np.abs(G.entries - np.eye(G.size)))
    assert dev <= 1e-8
    assert G.quad_tol <= 1e-7


@pytest.mark.parametrize("N, tol", [(400, 5e-15), (800, 1e-12)])
def test_high_degree_full_space_gram_is_identity(N, tol):
    # from degree ~800 the quadrature nodes pass |x| = 38.6, where a Hermite
    # recurrence started from e^{-x^2/2} underflows to zero
    G = gram_matrix(geometry.FullSpace(1), N)
    assert np.max(np.abs(G.entries - np.eye(G.size))) <= tol


def test_full_space_constant_is_one():
    res = spectral_constant(gram_matrix(geometry.FullSpace(1), 10))
    assert res.constant == pytest.approx(1.0, abs=1e-8)


def test_half_line_closed_form():
    omega = geometry.interval_union([(0.0, math.inf)])
    res = spectral_constant(gram_matrix(omega, 1))
    assert res.constant == pytest.approx(HALF_LINE_C1, abs=1e-8)


def test_degree_zero_interval_is_erf():
    omega = geometry.interval_union([(-1.0, 1.0)])
    G = gram_matrix(omega, 0)
    assert G.entries[0, 0] == pytest.approx(erf(1.0), abs=1e-10)
    res = spectral_constant(G)
    assert res.constant == pytest.approx(float(erf(1.0)) ** -0.5, abs=1e-9)


def test_constant_grows_with_degree():
    omega = geometry.PeriodicPattern(dim=1, period=2.0, kept=0.5)
    values = [spectral_constant(gram_matrix(omega, N)).constant for N in (2, 6, 10, 14)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] > values[0]


def test_extremizer_certifies_lambda_min():
    omega = geometry.PeriodicPattern(dim=1, period=2.0, kept=0.5)
    G = gram_matrix(omega, 12)
    res = spectral_constant(G)
    v = res.extremizer
    rayleigh = float(v @ G.entries @ v) / float(v @ v)
    assert rayleigh == pytest.approx(res.lambda_min, rel=1e-9, abs=1e-15)
    # no coefficient vector can do better than the reported minimum
    probe = np.linalg.eigvalsh(G.entries)[0]
    assert res.lambda_min <= probe + 1e-10 * abs(probe) + 1e-14


# the paper's set, thick with respect to rho = <x>^{1/2}, and a periodic set
GRADED_1D = geometry.graded_cells(geometry.DensityFn.power(1.0, 0.5), gamma=0.5, extent=30.0)
PERIODIC_1D = geometry.PeriodicPattern(dim=1, period=4.0, kept=0.25)
EPS = np.finfo(np.float64).eps


def _tall_factor(omega, N, panel_len=None, order=16):
    """Weighted evaluation matrix, by default on the rule gram_matrix returns."""
    R = truncation_radius(N)
    if panel_len is None:
        panel_len = _panel_length(N)
    x, w = panel_nodes(omega.intervals_1d(-R, R), panel_len, order)
    return (hermite_function_table(N, x) * np.sqrt(w)).T


@pytest.mark.parametrize("omega, N", [(GRADED_1D, 150), (PERIODIC_1D, 100)])
def test_factor_svd_matches_svd_of_tall_factor(omega, N):
    B = _tall_factor(omega, N)
    s = np.linalg.svd(B, compute_uv=False)
    G = gram_matrix(omega, N)
    bound = G.size * EPS * s[0]
    res = spectral_constant(G)
    assert abs(math.sqrt(res.lambda_min) - s[-1]) <= bound
    assert abs(math.sqrt(res.condition * res.lambda_min) - s[0]) <= bound
    v = res.extremizer
    assert abs(np.linalg.norm(B @ v) / np.linalg.norm(v) - s[-1]) <= bound


@pytest.mark.parametrize("omega, N", [(GRADED_1D, 150), (PERIODIC_1D, 100)])
def test_factor_is_square_triangle_of_entries(omega, N):
    G = gram_matrix(omega, N)
    R = np.asarray(G.factor)
    assert R.shape == (G.size, G.size)
    assert np.array_equal(np.triu(R), R)
    B = _tall_factor(omega, N)
    assert np.max(np.abs(G.entries - B.T @ B)) <= G.size * EPS


def _half_line(intervals):
    """The parts of an interval union on x >= 0."""
    iv = np.clip(intervals, 0.0, None)
    return iv[iv[:, 1] > iv[:, 0]]


@pytest.mark.parametrize("omega, N", [(GRADED_1D, 400), (PERIODIC_1D, 100)])
def test_entries_match_finer_independent_rule(omega, N):
    # reference: order-20 Gauss panels a quarter as long as the returned rule's
    B = _tall_factor(omega, N, panel_len=_panel_length(N) / 4.0, order=20)
    G = gram_matrix(omega, N)
    assert np.max(np.abs(G.entries - B.T @ B)) <= 1e-13
    assert G.quad_tol <= 1e-12
    if omega is GRADED_1D:
        # the mirror-symmetric set is integrated on x >= 0, each node counted twice
        half = _half_line(omega.intervals_1d(-truncation_radius(N), truncation_radius(N)))
        assert G.nodes == 2 * panel_nodes(half, _panel_length(N), 16)[0].size
    else:
        assert G.nodes == _tall_factor(omega, N).shape[0]


@pytest.mark.parametrize("omega, N", [(GRADED_1D, 400), (geometry.FullSpace(1), 800)])
def test_symmetric_set_splits_by_parity(omega, N):
    # h_k(-x) = (-1)^k h_k(x): on a set equal to its mirror image, even and odd degrees never pair
    G = gram_matrix(omega, N)
    assert not (G.entries[0::2, 1::2].any() or G.entries[1::2, 0::2].any())
    R = np.asarray(G.factor)
    assert np.array_equal(np.triu(R), R)
    assert np.array_equal(R.T @ R, G.entries)


@pytest.mark.parametrize("N", [150, 400])
def test_parity_blocks_match_full_line_factor(N):
    B = _tall_factor(GRADED_1D, N)
    s = np.linalg.svd(B, compute_uv=False)
    G = gram_matrix(GRADED_1D, N)
    res = spectral_constant(G)
    assert abs(res.lambda_min - s[-1] ** 2) <= res.lambda_err
    v = res.extremizer
    assert not (v[0::2].any() and v[1::2].any())
    Rv = np.asarray(G.factor) @ v
    assert abs(float(Rv @ Rv) / float(v @ v) - res.lambda_min) <= res.lambda_err


def _forbid_full_svd(monkeypatch):
    import scipy.linalg

    def full_svd(*args, **kwargs):
        raise AssertionError("the 1-D solve formed singular vectors")

    monkeypatch.setattr(np.linalg, "svd", full_svd)
    monkeypatch.setattr(scipy.linalg, "svd", full_svd)


def test_1d_solve_makes_no_full_svd(monkeypatch):
    G = gram_matrix(GRADED_1D, 150)
    _forbid_full_svd(monkeypatch)
    res = spectral_constant(G)
    assert res.lambda_min > res.lambda_err and not res.floor


@pytest.mark.parametrize(
    "omega, Ns",
    [
        (GRADED_1D, range(25, 401, 25)),
        (PERIODIC_1D, (150, 200)),
        (geometry.PeriodicPattern(1, 2.0, 0.5), (80,)),
    ],
)
def test_inverse_iteration_certifies_extremizer(omega, Ns, monkeypatch):
    # PeriodicPattern(1, 2, 0.5) at N = 80 takes the most steps of the measured sets
    Gs = [gram_matrix(omega, N) for N in Ns]
    _forbid_full_svd(monkeypatch)
    for N, G in zip(Ns, Gs):
        res = spectral_constant(G)
        v = res.extremizer
        Rv = np.asarray(G.factor) @ v
        assert abs(float(Rv @ Rv) / float(v @ v) - res.lambda_min) <= res.lambda_err
        # the periodic constants past N = 125 are rounding noise and stay flagged
        assert res.floor == (omega is PERIODIC_1D)


def test_near_degenerate_bottom_pair_falls_back_to_svd(monkeypatch):
    # s_min^2 and the next squared singular value differ by 2e-6: far above lambda_err,
    # and inverse iteration shrinks the second component by only (1 + 1e-6)^-2 per step
    rng = np.random.default_rng(5)
    m = 30
    s = np.concatenate([[1.0, 1.0 + 1e-6], np.linspace(2.0, 5.0, m - 2)])
    U = np.linalg.qr(rng.standard_normal((m, m)))[0]
    V = np.linalg.qr(rng.standard_normal((m, m)))[0]
    R = np.linalg.qr((U * s) @ V.T, mode="r")
    G = GramMatrix(m - 1, 1, R.T @ R, R, 0.0, truncation_radius(m - 1), m)
    full_svd = np.linalg.svd
    calls = []

    def counted_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return full_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    res = spectral_constant(G)
    assert calls == [(m, m)]
    assert abs(res.lambda_min - 1.0) <= res.lambda_err
    v = res.extremizer
    Rv = R @ v
    assert abs(float(Rv @ Rv) / float(v @ v) - res.lambda_min) <= res.lambda_err


def test_asymmetric_by_one_ulp_takes_general_path():
    boxes = GRADED_1D.boxes.copy()
    i = int(np.argmin(np.abs(boxes[:, 0, 0])))  # the cell that starts at the origin
    assert boxes[i, 0, 0] == 0.0 and boxes[i, 0, 1] > 0.0
    boxes[i, 0, 1] = np.nextafter(boxes[i, 0, 1], np.inf)
    moved = geometry.BoxUnion(1, boxes)
    N = 150
    G = gram_matrix(moved, N)
    assert G.nodes == _tall_factor(moved, N).shape[0]
    assert G.factor[0::2, 1::2].any()
    general = spectral_constant(G)
    folded = spectral_constant(gram_matrix(GRADED_1D, N))
    assert abs(general.lambda_min - folded.lambda_min) <= general.lambda_err


def test_periodic_set_keeps_off_parity_entries():
    G = gram_matrix(PERIODIC_1D, 100)
    assert G.entries[0::2, 1::2].any() and G.entries[1::2, 0::2].any()


@pytest.mark.parametrize("omega", [GRADED_1D, PERIODIC_1D])
def test_one_hermite_table_per_1d_gram(omega, monkeypatch):
    calls = []

    def counted(kmax, x):
        calls.append(x.size)
        return hermite_function_table(kmax, x)

    monkeypatch.setattr(spectral, "hermite_function_table", counted)
    gram_matrix(omega, 50)
    assert len(calls) == 1


@pytest.mark.parametrize("omega, N", [(GRADED_1D, 400), (PERIODIC_1D, 150)])
def test_1d_gram_is_psd_to_rounding(omega, N):
    # the 1-D assembly runs no eigensolve of its own; R^T R keeps G PSD
    G = gram_matrix(omega, N)
    w = np.linalg.eigvalsh(G.entries)
    assert w[0] >= -G.size * EPS * w[-1]


def test_lambda_min_does_not_increase_along_scan():
    # the spans are nested, so lambda_min(G_N') <= lambda_min(G_N) for N' > N
    results = [spectral_constant(gram_matrix(GRADED_1D, N)) for N in range(25, 401, 25)]
    for a, b in zip(results, results[1:]):
        assert b.lambda_min <= a.lambda_min + a.lambda_err + b.lambda_err


def test_floor_flag_marks_rounding_noise():
    periodic = spectral_constant(gram_matrix(PERIODIC_1D, 200))
    assert periodic.floor and periodic.lambda_min <= periodic.lambda_err
    graded = spectral_constant(gram_matrix(GRADED_1D, 400))
    assert not graded.floor and graded.lambda_min > 100 * graded.lambda_err


def test_fewer_nodes_than_basis_functions_degenerates():
    # one 16-node panel cannot resolve 21 basis functions
    G = gram_matrix(geometry.interval_union([(0.0, 1e-3)]), 20)
    assert G.factor.shape == (21, 21)
    assert np.count_nonzero(np.any(G.factor != 0.0, axis=1)) == 16
    with pytest.raises(DegenerateRestrictionError):
        spectral_constant(G)


def _panel_nodes_by_interval(intervals, panel_len, order):
    """Composite rule built one np.linspace per interval."""
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


def test_panel_nodes_match_linspace_panels():
    rng = np.random.default_rng(7)
    cases = [np.empty((0, 2)), np.array([[1.5, 1.5]]), np.array([[-2.0, -2.0], [0.0, 3.3]])]
    for n in range(1, 30):
        cases.append(np.sort(rng.uniform(-40.0, 40.0, 2 * n)).reshape(-1, 2))
    for iv in cases:
        for panel_len in (0.5, 6.0 / math.sqrt(401.0), 3.0 / math.sqrt(801.0), rng.uniform(0.01, 2.0)):
            x, w = panel_nodes(iv, panel_len, 16)
            x_ref, w_ref = _panel_nodes_by_interval(iv, panel_len, 16)
            assert np.array_equal(x, x_ref) and np.array_equal(w, w_ref)


def test_empty_window_degenerates():
    # the sensor set misses the whole quadrature-resolved envelope
    omega = geometry.interval_union([(50.0, 51.0)])
    with pytest.raises(DegenerateRestrictionError):
        spectral_constant(gram_matrix(omega, 2))


def test_two_dim_full_space_gram():
    G = gram_matrix(geometry.FullSpace(2), 6)
    assert np.max(np.abs(G.entries - np.eye(G.size))) <= 1e-8
    # one slice: every x-node pairs with every y-node
    R = truncation_radius(6)
    assert G.nodes == panel_nodes(np.array([[-R, R]]), _panel_length(6), 16)[0].size ** 2


def test_quadrature_tolerance_reported():
    omega = geometry.interval_union([(-2.0, 1.0)])
    G = gram_matrix(omega, 8)
    assert 0.0 <= G.quad_tol <= 1e-7


PERIODIC_2D = geometry.PeriodicPattern(dim=2, period=4.0, kept=0.25)
BOXES_2D = geometry.BoxUnion(2, np.array([[[-3.0, -1.0], [-2.0, 2.0]], [[0.0, 2.0], [-4.0, -1.0]]]))


@pytest.mark.parametrize("omega, N", [(GRADED_1D, 400), (PERIODIC_1D, 150), (PERIODIC_2D, 24), (BOXES_2D, 20)])
def test_entries_are_exactly_symmetric(omega, N):
    G = gram_matrix(omega, N)
    assert np.array_equal(G.entries, G.entries.T)


def test_periodic_2d_gram_is_tensor_of_1d():
    # the product pattern separates: G2[(a1, a2), (b1, b2)] = G1[a1, b1] G1[a2, b2]
    N = 12
    G1 = gram_matrix(geometry.PeriodicPattern(dim=1, period=4.0, kept=0.25), N).entries
    G2 = gram_matrix(PERIODIC_2D, N).entries
    alphas = np.array([(i, k - i) for k in range(N + 1) for i in range(k + 1)])
    a1 = alphas[:, 0]
    a2 = alphas[:, 1]
    ref = G1[a1[:, None], a1[None, :]] * G1[a2[:, None], a2[None, :]]
    assert np.max(np.abs(G2 - ref)) <= 1e-10


def test_periodic_2d_lambda_min_is_bottom_and_constant_rises():
    constants = []
    for N in (4, 8, 12, 16):
        G = gram_matrix(PERIODIC_2D, N)
        res = spectral_constant(G)
        ref = np.linalg.eigvalsh(G.entries)
        bound = G.size * np.finfo(float).eps * ref[-1]
        assert abs(res.lambda_min - ref[0]) <= bound
        constants.append(res.constant)
    assert all(b >= a for a, b in zip(constants, constants[1:]))


def _per_run_gram_2d(omega, degree, panel_len, order):
    """Reference 2-D assembly: one block per run of consecutive x-nodes sharing a slice."""
    R = truncation_radius(degree)
    alphas = indexing.multi_indices(2, degree)
    a1 = alphas[:, 0]
    a2 = alphas[:, 1]
    pieces = [(a, b, sub) for a, b, sub in geometry.slice_pieces(omega, -R, R) if b - a > 1e-14]
    parts = [panel_nodes(np.array([[a, b]]), panel_len, order) for a, b, _ in pieces]
    x = np.concatenate([p[0] for p in parts])
    wx = np.concatenate([p[1] for p in parts])
    runs = []
    start = 0
    for size, sub in zip([p[0].size for p in parts], [sub for _, _, sub in pieces]):
        iv = sub.intervals_1d(-R, R)
        if runs and np.array_equal(iv, runs[-1][2]):
            runs[-1][1] = start + size
        else:
            runs.append([start, start + size, iv])
        start += size
    Bx = hermite_function_table(degree, x) * np.sqrt(wx)
    G = np.zeros((alphas.shape[0],) * 2)
    nodes = 0
    for start, stop, iv in runs:
        y, wy = panel_nodes(iv, panel_len, order)
        if y.size == 0:
            continue
        By = hermite_function_table(degree, y) * np.sqrt(wy)
        Px = Bx[:, start:stop] @ Bx[:, start:stop].T
        My = By @ By.T
        G += Px[a1[:, None], a1[None, :]] * My[a2[:, None], a2[None, :]]
        nodes += (stop - start) * y.size
    return G, nodes


def _random_box_unions(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        lo = rng.uniform(-5.0, 4.0, size=(int(rng.integers(2, 6)), 2))
        hi = lo + rng.uniform(0.3, 4.0, size=lo.shape)
        yield geometry.BoxUnion(2, np.stack([lo, hi], axis=-1))


GROUPED_CASES = (
    [(omega, 8) for omega in _random_box_unions(20, seed=11)]
    + [
        (geometry.PeriodicPattern(2, period, kept, offset), N)
        for period, kept, offset, N in [
            (4.0, 0.25, 0.0, 12),
            (4.0, 0.25, 0.0, 24),
            (2.0, 0.5, 0.3, 10),
            (3.0, 0.4, -1.1, 16),
            (1.5, 0.7, 0.25, 8),
            (6.0, 0.3, 2.0, 20),
        ]
    ]
    + [(geometry.FullSpace(2), 10), (BOXES_2D, 20)]
    # two small boxes at a low degree: each first-axis piece that meets a box is shorter than a panel
    + [(geometry.BoxUnion(2, [[[-0.2, 0.2], [-0.1, 0.1]], [[2.9, 3.1], [0.9, 1.1]]]), 2)]
)


@pytest.mark.parametrize("omega, N", GROUPED_CASES)
def test_grouped_2d_assembly_matches_per_run_reference(omega, N):
    L = _panel_length(N)
    G, G_check, nodes = _gram_2d(omega, N, L)
    ref, ref_nodes = _per_run_gram_2d(omega, N, L, 16)
    ref_check, _ = _per_run_gram_2d(omega, N, 2.0 * L, 16)
    assert nodes == ref_nodes
    assert np.max(np.abs(G - ref)) <= 1e-15
    assert np.max(np.abs(G_check - ref_check)) <= 1e-15
    assert abs(np.max(np.abs(G - G_check)) - np.max(np.abs(ref - ref_check))) <= 1e-15
    R = truncation_radius(N)
    slices = [sub.intervals_1d(-R, R) for a, b, sub in geometry.slice_pieces(omega, -R, R) if b - a > 1e-14]
    kept = [iv.tobytes() for iv in slices if iv.size]
    if isinstance(omega, geometry.BoxUnion) and len(set(kept)) == len(kept):
        # every non-empty slice is one run, so both sums run in the same order
        assert np.array_equal(G, ref) and np.array_equal(G_check, ref_check)


@pytest.mark.parametrize("omega, N", GROUPED_CASES)
def test_2d_gram_is_psd_to_rounding(omega, N):
    # each slice block is the Hadamard product of two PSD pairings (Schur product theorem)
    for G in _gram_2d(omega, N, _panel_length(N))[:2]:
        w = np.linalg.eigvalsh(G)
        assert w[0] >= -G.shape[0] * EPS * w[-1]


def _unchecked_gram_2d(omega, N):
    """The 2-D Gram without the quadrature check, so the solve is tested on every set."""
    entries, _, nodes = _gram_2d(omega, N, _panel_length(N))
    return GramMatrix(N, 2, entries, None, 0.0, truncation_radius(N), nodes)


@pytest.mark.parametrize("omega, N", GROUPED_CASES + [(PERIODIC_2D, 0)])
def test_2d_solve_matches_eigvalsh_and_certifies_extremizer(omega, N):
    G = _unchecked_gram_2d(omega, N)
    w = np.linalg.eigvalsh(G.entries)
    try:
        res = spectral_constant(G)
    except DegenerateRestrictionError:
        # a raise is rounding noise at the floor, never a resolved eigenvalue
        assert w[0] <= G.size * EPS * w[-1]
        return
    assert abs(res.lambda_min - w[0]) <= res.lambda_err
    assert abs(res.condition * res.lambda_min - w[-1]) <= res.lambda_err
    v = res.extremizer
    assert v.shape == (G.size,)
    assert abs(np.linalg.norm(v) - 1.0) <= G.size * EPS
    assert abs(v @ G.entries @ v - res.lambda_min) <= res.lambda_err


def test_2d_solve_makes_no_full_eigendecomposition(monkeypatch):
    import scipy.linalg

    G = gram_matrix(PERIODIC_2D, 12)

    def full_eigensolve(*args, **kwargs):
        raise AssertionError("the 2-D solve computed every eigenpair")

    monkeypatch.setattr(np.linalg, "eigh", full_eigensolve)
    monkeypatch.setattr(scipy.linalg, "eigh", full_eigensolve)
    res = spectral_constant(G)
    assert res.lambda_min > res.lambda_err


@pytest.mark.parametrize("omega, slices", [(PERIODIC_2D, 1), (BOXES_2D, 2), (geometry.FullSpace(2), 1)])
def test_one_assembly_and_two_tables_per_distinct_slice(omega, slices, monkeypatch):
    tables = []
    assemblies = []

    def counted_table(kmax, x):
        tables.append(x.size)
        return hermite_function_table(kmax, x)

    def counted_gram_2d(*args):
        assemblies.append(args)
        return _gram_2d(*args)

    monkeypatch.setattr(spectral, "hermite_function_table", counted_table)
    monkeypatch.setattr(spectral, "_gram_2d", counted_gram_2d)
    gram_matrix(omega, 12)
    assert len(assemblies) == 1
    assert len(tables) == 2 * slices


def test_two_dim_ball_union_gram_is_rejected(monkeypatch):
    tables = []

    def counted_table(kmax, x):
        tables.append(x.size)
        return hermite_function_table(kmax, x)

    monkeypatch.setattr(spectral, "hermite_function_table", counted_table)
    omega = geometry.BallUnion(2, [[0.0, 0.0], [3.0, 1.0]], [1.5, 1.0])
    with pytest.raises(ValueError, match="piecewise slices"):
        gram_matrix(omega, 2)
    assert not tables


def test_growth_fit_recovers_exponential_law():
    eps = 1.0
    pairs = [(N, math.exp(0.3 * N ** (1 - eps / 2) + 0.2)) for N in range(10, 80, 10)]
    fit = growth_fit(pairs, eps)
    assert fit.slope == pytest.approx(0.3, rel=1e-9)
    assert fit.intercept == pytest.approx(0.2, abs=1e-9)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_growth_fit_constant_sequence():
    fit = growth_fit([(N, 2.0) for N in (5, 10, 15, 20, 25)], 0.5)
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert fit.r2 == 1.0


def test_growth_fit_input_validation():
    good = [(N, 1.0 + N) for N in (1, 2, 3, 4, 5)]
    with pytest.raises(ValueError, match="at least 5"):
        growth_fit(good[:4], 0.5)
    with pytest.raises(ValueError, match=r"ε must lie in \(0,1\]"):
        growth_fit(good, 1.5)
    bad = [(5, 1.0), (5, 2.0), (6, 3.0), (7, 4.0), (8, 5.0)]
    with pytest.raises(ValueError):
        growth_fit(bad, 0.5)
    with pytest.raises(ValueError):
        growth_fit([(N, -1.0) for N in (1, 2, 3, 4, 5)], 0.5)


def test_gram_matrix_requires_supported_dimension():
    with pytest.raises(ValueError):
        gram_matrix(geometry.FullSpace(3), 2)
