import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermlab import bernstein, indexing, kernels
from hermlab.hermite import (
    DEGREE_CAP,
    HermiteExpansion,
    apply_harmonic_oscillator,
    apply_ladder,
    apply_position_derivative,
    basis_state,
    evaluate,
    hermite_eval_1d,
    random_expansion,
)

# frozen from a 40-digit evaluation through the classical polynomial form
# H_k(x) exp(-x^2/2) / sqrt(2^k k! sqrt(pi)), independent of the recurrence
PHI4_AT_1P3 = -0.385655452466583154
PRODUCT_AT_1P3_M0P4 = 0.128576726316838136


def test_ground_state_value():
    x = np.array([0.0])
    assert hermite_eval_1d(0, x)[0] == pytest.approx(math.pi ** -0.25, abs=1e-16)


def test_frozen_point_value_degree4():
    val = hermite_eval_1d(4, np.array([1.3]))[0]
    assert val == pytest.approx(PHI4_AT_1P3, abs=5e-16)


def test_frozen_product_value():
    val = evaluate(basis_state(2, 6, (4, 2)), [[1.3, -0.4]])[0]
    assert val == pytest.approx(PRODUCT_AT_1P3_M0P4, abs=5e-16)


def test_eval_rejects_bad_input():
    with pytest.raises(ValueError):
        hermite_eval_1d(-1, np.array([0.0]))
    with pytest.raises(ValueError):
        hermite_eval_1d(2, np.array([np.inf]))
    with pytest.raises(ValueError, match=f"outside \\[0, {DEGREE_CAP}\\]"):
        hermite_eval_1d(DEGREE_CAP + 1, np.array([0.0]))


@pytest.mark.parametrize("k", [0, 5, 2048])
def test_far_points_are_exact_zeros(k):
    # past |x| = 2^32 every h_k is 0 in binary64; x^2/2 would overflow past 1e154
    xs = np.array([1e155, -1e155, 1e200, -1e200, 1.7e308, -1.7e308])
    for x in xs:
        assert hermite_eval_1d(k, x) == 0.0
    assert np.array_equal(hermite_eval_1d(k, xs), np.zeros(xs.size))
    assert np.array_equal(evaluate(basis_state(1, k, (k,)), xs), np.zeros(xs.size))


def test_parity():
    xs = np.linspace(-3, 3, 31)
    for k in range(6):
        left = hermite_eval_1d(k, -xs)
        right = hermite_eval_1d(k, xs)
        assert np.allclose(left, (-1.0) ** k * right, atol=1e-14)


def test_expansion_norm_is_parseval(rng):
    f = HermiteExpansion(2, 5, rng.standard_normal(indexing.span_dim(2, 5)))
    assert f.norm() == pytest.approx(float(np.linalg.norm(f.coeffs)), rel=1e-15)


def test_coefficients_read_only(rng):
    f = random_expansion(rng, dim=1, degree=3)
    with pytest.raises(ValueError):
        f.coeffs[0] = 99.0


def test_with_degree_pads_and_truncates(rng):
    f = random_expansion(rng, dim=2, degree=3)
    g = f.with_degree(6)
    assert g.degree == 6
    assert np.array_equal(g.coeffs[: f.coeffs.size], f.coeffs)
    assert np.all(g.coeffs[f.coeffs.size :] == 0)
    assert np.array_equal(g.with_degree(3).coeffs, f.coeffs)


def test_with_degree_refuses_lossy_truncation(rng):
    f = random_expansion(rng, dim=1, degree=4)
    with pytest.raises(ValueError):
        f.with_degree(2)


def test_bad_index_names_the_index_and_the_span():
    for alpha in ((-1,), (1, 2)):
        with pytest.raises(ValueError, match=r"index .* is not a multi-index of the dim-1 degree-5 span"):
            basis_state(1, 5, alpha)
    for alpha in ((1,), (-1, 2)):
        with pytest.raises(ValueError, match=r"index .* is not a multi-index of the dim-2 degree-3 span"):
            basis_state(2, 3, alpha)


def test_ladder_factors_on_basis_states():
    f = basis_state(1, 3, (2,))
    up = apply_ladder(f, 0, "raise")
    down = apply_ladder(f, 0, "lower")
    assert up.coeffs[indexing.index_lookup(1, 4)[(3,)]] == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert down.coeffs[indexing.index_lookup(1, 2)[(1,)]] == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_derivative_of_first_mode():
    # d/dx Phi_1 = (1/sqrt 2) Phi_0 - Phi_2
    f = basis_state(1, 1, (1,))
    df = apply_position_derivative(f, (0,), (1,))
    lookup = indexing.index_lookup(1, df.degree)
    assert df.coeffs[lookup[(0,)]] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert df.coeffs[lookup[(2,)]] == pytest.approx(-1.0, rel=1e-15)


def test_position_action_matches_pointwise_product(rng):
    f = random_expansion(rng, dim=1, degree=6)
    xf = apply_position_derivative(f, (1,), (0,))
    xs = np.linspace(-2.5, 2.5, 9)[:, None]
    assert np.allclose(evaluate(xf, xs), xs[:, 0] * evaluate(f, xs), atol=1e-13)


def test_derivative_action_matches_finite_difference(rng):
    f = random_expansion(rng, dim=1, degree=6)
    df = apply_position_derivative(f, (0,), (1,))
    xs = np.linspace(-2.0, 2.0, 7)
    h = 1e-6
    fd = (evaluate(f, (xs + h)[:, None]) - evaluate(f, (xs - h)[:, None])) / (2 * h)
    assert np.allclose(evaluate(df, xs[:, None]), fd, atol=1e-7)


def test_oscillator_eigenvalues():
    f = basis_state(2, 4, (3, 1))
    g = apply_harmonic_oscillator(f)
    assert g.coeffs[indexing.index_lookup(2, 4)[(3, 1)]] == pytest.approx(2 * 4 + 2, rel=1e-15)


def test_oscillator_matches_ladder_composition(rng):
    # H = sum_j (x_j - d_j)(x_j + d_j) + n on coefficients
    f = random_expansion(rng, dim=2, degree=5)
    direct = apply_harmonic_oscillator(f).with_degree(7)
    acc = np.zeros_like(f.with_degree(7).coeffs)
    for j in range(2):
        xf = apply_position_derivative(f, (1, 0) if j == 0 else (0, 1), (0, 0))
        xxf = apply_position_derivative(xf, (1, 0) if j == 0 else (0, 1), (0, 0))
        dff = apply_position_derivative(
            f, (0, 0), (2, 0) if j == 0 else (0, 2)
        )
        acc += xxf.with_degree(7).coeffs - dff.with_degree(7).coeffs
    assert np.allclose(acc, direct.coeffs, atol=1e-12)


def test_ladder_adjointness(rng):
    f = random_expansion(rng, dim=2, degree=4)
    g = random_expansion(rng, dim=2, degree=5)
    lhs = np.vdot(apply_ladder(f, 1, "raise").coeffs, g.coeffs)
    rhs = np.vdot(f.coeffs, apply_ladder(g, 1, "lower").with_degree(4).coeffs)
    assert lhs == pytest.approx(rhs, rel=1e-13)



# -- reference: the two-map ladder calculus the single map replaced ------------


@functools.lru_cache(maxsize=None)
def _ref_raise_map(dim, degree, axis):
    table = indexing.multi_indices(dim, degree)
    lookup = indexing.index_lookup(dim, degree + 1)
    tgt = np.empty(table.shape[0], dtype=np.int64)
    for i, row in enumerate(table):
        t = list(int(v) for v in row)
        t[axis] += 1
        tgt[i] = lookup[tuple(t)]
    return tgt, np.sqrt(table[:, axis] + 1.0)


@functools.lru_cache(maxsize=None)
def _ref_lower_map(dim, degree, axis):
    table = indexing.multi_indices(dim, degree)
    tgt_degree = max(degree - 1, 0)
    lookup = indexing.index_lookup(dim, tgt_degree)
    src, tgt = [], []
    for i, row in enumerate(table):
        if row[axis] == 0:
            continue
        t = list(int(v) for v in row)
        t[axis] -= 1
        if sum(t) <= tgt_degree:
            src.append(i)
            tgt.append(lookup[tuple(t)])
    src = np.asarray(src, dtype=np.int64)
    tgt = np.asarray(tgt, dtype=np.int64)
    return src, tgt, np.sqrt(table[src, axis].astype(np.float64))


def _ref_ladder(f, axis, which):
    if which == "raise":
        tgt, fac = _ref_raise_map(f.dim, f.degree, axis)
        out = np.zeros(indexing.span_dim(f.dim, f.degree + 1), dtype=f.coeffs.dtype)
        out[tgt] = fac * f.coeffs
        return HermiteExpansion(f.dim, f.degree + 1, out)
    src, tgt, fac = _ref_lower_map(f.dim, f.degree, axis)
    out = np.zeros(indexing.span_dim(f.dim, max(f.degree - 1, 0)), dtype=f.coeffs.dtype)
    np.add.at(out, tgt, fac * f.coeffs[src])
    return HermiteExpansion(f.dim, max(f.degree - 1, 0), out)


def _ref_position(f, axis):
    up = _ref_ladder(f, axis, "raise")
    down = _ref_ladder(f, axis, "lower").with_degree(f.degree + 1)
    return HermiteExpansion(f.dim, f.degree + 1, (up.coeffs + down.coeffs) / np.sqrt(2.0))


def _ref_derivative(f, axis):
    up = _ref_ladder(f, axis, "raise")
    down = _ref_ladder(f, axis, "lower").with_degree(f.degree + 1)
    return HermiteExpansion(f.dim, f.degree + 1, (down.coeffs - up.coeffs) / np.sqrt(2.0))


def _ref_position_derivative(f, alpha, beta):
    out = f
    for j, b in enumerate(beta):
        for _ in range(b):
            out = _ref_derivative(out, j)
    for j, a in enumerate(alpha):
        for _ in range(a):
            out = _ref_position(out, j)
    return out


def _assert_same_bits(got, want):
    assert got.dim == want.dim and got.degree == want.degree
    assert got.coeffs.dtype == want.coeffs.dtype and got.coeffs.shape == want.coeffs.shape
    assert np.array_equal(got.coeffs, want.coeffs)
    assert got.coeffs.tobytes() == want.coeffs.tobytes()  # signed zeros too


def _samples(rng, dim, degree):
    """A real and a complex expansion, each with some -0.0 and +0.0 coefficients."""
    m = indexing.span_dim(dim, degree)
    real = rng.standard_normal(m)
    cplx = real + 1j * rng.standard_normal(m)
    for c in (real, cplx):
        c[::3] = -0.0
        c[1::5] = 0.0
    return HermiteExpansion(dim, degree, real), HermiteExpansion(dim, degree, cplx)


@pytest.mark.parametrize("dim, degrees", [(1, (0, 1, 7, 200)), (2, (0, 1, 6)), (3, (0, 4))])
def test_single_ladder_map_matches_two_map_reference(rng, dim, degrees):
    pairs = bernstein._index_pairs(dim, 4)
    for degree in degrees:
        for f in _samples(rng, dim, degree):
            for axis in range(dim):
                for which in ("raise", "lower"):
                    _assert_same_bits(apply_ladder(f, axis, which), _ref_ladder(f, axis, which))
            for alpha, beta in pairs:
                _assert_same_bits(
                    apply_position_derivative(f, alpha, beta),
                    _ref_position_derivative(f, alpha, beta),
                )


def test_lowering_ground_level_gives_one_zero_coefficient():
    for dim in (1, 2, 3):
        for c in (np.array([2.5]), np.array([-1.0 + 3.0j])):
            out = apply_ladder(HermiteExpansion(dim, 0, c), dim - 1, "lower")
            assert out.degree == 0 and out.coeffs.dtype == c.dtype
            assert out.coeffs.tobytes() == np.zeros(1, dtype=c.dtype).tobytes()


def _mp_hermite_function(k, x):
    """h_k(x) = H_k(x) e^{-x^2/2} / sqrt(2^k k! sqrt(pi)) at 60 digits."""
    with mpmath.workdps(60):
        x = mpmath.mpf(x)
        norm = mpmath.sqrt(mpmath.sqrt(mpmath.pi) * mpmath.mpf(2) ** k * mpmath.factorial(k))
        return float(mpmath.hermite(k, x) * mpmath.exp(-x * x / 2) / norm)


@pytest.mark.parametrize("k", [1000, 2048])
def test_high_degree_table_matches_mpmath(k):
    # out to the truncation radius of the degree cap; e^{-x^2/2} alone
    # underflows beyond |x| = 38.6, where these degrees are still oscillating
    xs = np.array([0.3, 12.0, 40.0, 55.0, 63.0, 90.0])
    table = kernels.hermite_function_table(k, xs)
    for j, x in enumerate(xs):
        ref = _mp_hermite_function(k, x)
        assert table[k, j] == pytest.approx(ref, abs=1e-12)
        if abs(ref) > 1e-290:
            assert table[k, j] == pytest.approx(ref, rel=1e-12, abs=0.0)


def _table_with_temporaries(kmax, x):
    """The Hermite table through the recurrence written with a fresh array per operation.

    Same check schedule as the kernel: at each check, far points whose
    max(|p_k|, |p_{k-1}|) passes 2^256 are scaled by 2^-512, then again while
    their row is subnormal and the maximum passes 2^-256; the next check
    comes floor(255 / log2(a_{k+1} max|x| + 1)) steps later.
    """
    out = np.empty((kmax + 1, x.size))
    half = 0.5 * x * x
    E = np.zeros(x.size, dtype=np.int64)
    row = np.exp(-half)
    p_prev = np.zeros_like(x)
    p = np.full_like(x, np.pi**-0.25)
    out[0] = p * row
    far = half > kernels._RESCALE * kernels._LN2_HI
    check = 0 if far.any() else kmax
    for k in range(kmax):
        p, p_prev = math.sqrt(2.0 / (k + 1)) * x * p - math.sqrt(k / (k + 1.0)) * p_prev, p
        if k == check:
            big = far & (np.maximum(np.abs(p), np.abs(p_prev)) > 2.0**256)
            while True:
                p = np.where(big, np.ldexp(p, -512), p)
                p_prev = np.where(big, np.ldexp(p_prev, -512), p_prev)
                E = E + 512 * big
                row = np.where(big, np.exp((E * kernels._LN2_HI - half) + E * kernels._LN2_LO), row)
                big = far & (row < np.finfo(np.float64).tiny)
                big &= np.maximum(np.abs(p), np.abs(p_prev)) > 2.0**-256
                if not big.any():
                    break
            step = math.log2(math.sqrt(2.0 / (k + 2)) * np.max(np.abs(x[far])) + 1.0)
            check = k + int(255 // step)
        out[k + 1] = p * row
    return out


@pytest.mark.parametrize("kmax", [400, 1000])
def test_in_place_recurrence_is_bitwise_equal(kmax):
    # past |x| = 26.6 the checks run; past 37.6 e^{-x^2/2} is subnormal
    x = np.linspace(-60.0, 60.0, 1201)
    assert np.array_equal(kernels.hermite_function_table(kmax, x), _table_with_temporaries(kmax, x))


# |x| from 26 to 46 spans points that never rescale, rescale, and start with a subnormal
# e^{-x^2/2} (past 37.6; at k = 100, x = 41 still has h_k = 3.4e-269)
RESCALE_WINDOW = np.arange(26.0, 46.25, 0.5)
RESCALE_DEGREES = [100, 200, 300, 400, 1000]


@functools.cache
def _mp_window_values():
    return np.array([[_mp_hermite_function(k, x) for x in RESCALE_WINDOW] for k in RESCALE_DEGREES])


def test_table_matches_mpmath_across_rescale_window():
    x = np.concatenate([RESCALE_WINDOW, -RESCALE_WINDOW])
    table = kernels.hermite_function_table(max(RESCALE_DEGREES), x)
    for ref, k in zip(_mp_window_values(), RESCALE_DEGREES):
        # h_k(-x) = (-1)^k h_k(x)
        both = np.concatenate([ref, (-1) ** k * ref])
        kept = np.abs(both) > 1e-290
        assert kept.sum() >= 10
        assert np.all(np.abs(table[k, kept] - both[kept]) <= 1e-12 * np.abs(both[kept]))


def test_weighted_table_matches_mpmath_times_weight():
    rng = np.random.default_rng(37)
    w = rng.uniform(1e-3, 2.0, RESCALE_WINDOW.size)
    table = kernels.hermite_function_table(max(RESCALE_DEGREES), RESCALE_WINDOW, w)
    for ref, k in zip(_mp_window_values(), RESCALE_DEGREES):
        kept = np.abs(ref) > 1e-290
        expect = ref[kept] * w[kept]
        assert np.all(np.abs(table[k, kept] - expect) <= 1e-12 * np.abs(expect))


def _per_step_recurrence(kmax, x):
    """The recurrence with no exponent: h_k = p_k e^{-x^2/2}, right while |p_k| stays finite."""
    out = np.empty((kmax + 1, x.size))
    row = np.exp(-0.5 * x * x)
    p_prev, p = np.zeros_like(x), np.full_like(x, np.pi**-0.25)
    out[0] = p * row
    for k in range(kmax):
        p, p_prev = math.sqrt(2.0 / (k + 1)) * x * p - math.sqrt(k / (k + 1.0)) * p_prev, p
        out[k + 1] = p * row
    return out


def test_table_without_far_points_is_the_per_step_recurrence():
    # x^2/2 <= 512 ln 2 everywhere, so no check runs and no weight is applied
    x = np.linspace(-26.6, 26.6, 533)
    assert np.array_equal(kernels.hermite_function_table(1000, x), _per_step_recurrence(1000, x))


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=12), st.floats(min_value=-4, max_value=4))
def test_pointwise_bound(k, x):
    # sup norm of each 1-D mode is attained near the turning points and
    # stays below the ground-state peak
    val = hermite_eval_1d(k, np.array([x]))[0]
    assert abs(val) <= math.pi ** -0.25 + 1e-12


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=5))
def test_evaluate_is_linear_in_coefficients(n, degree):
    rng = np.random.default_rng(7 * n + degree)
    f = HermiteExpansion(n, degree, rng.standard_normal(indexing.span_dim(n, degree)))
    g = HermiteExpansion(n, degree, rng.standard_normal(indexing.span_dim(n, degree)))
    h = HermiteExpansion(n, degree, 2.0 * f.coeffs - 0.5 * g.coeffs)
    pts = rng.uniform(-2, 2, size=(6, n))
    assert np.allclose(
        evaluate(h, pts), 2.0 * evaluate(f, pts) - 0.5 * evaluate(g, pts), atol=1e-12
    )
