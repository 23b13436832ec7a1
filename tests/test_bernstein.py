import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermlab import bernstein, indexing
from hermlab.bernstein import (
    crude_bernstein_check,
    harmonic_power_expand,
    iterated_oscillator_apply,
)
from hermlab.hermite import HermiteExpansion, apply_position_derivative, basis_state, random_expansion


def test_order_zero_is_an_identity():
    chk = crude_bernstein_check(1, 7, (0,), (0,))
    assert chk.lhs == pytest.approx(1.0, rel=1e-15)
    assert chk.ratio == pytest.approx(1.0, rel=1e-15)


def test_single_position_factor():
    chk = crude_bernstein_check(1, 5, (1,), (0,))
    # the norm on the span is at least ||x Phi_5|| = sqrt(11/2); rhs is sqrt(2) sqrt(6)
    assert chk.lhs >= math.sqrt(5.5)
    assert chk.rhs == pytest.approx(math.sqrt(12.0), rel=1e-12)
    assert chk.ratio < 1.0


def _ladder_matrix(dim, N, axis, sign):
    """x_axis (sign +1) or d/dx_axis (sign -1) from the degree-N to the degree-(N+1) span.

    Closed form per basis function: x h_k = sqrt(k/2) h_{k-1} + sqrt((k+1)/2) h_{k+1}
    and h_k' = sqrt(k/2) h_{k-1} - sqrt((k+1)/2) h_{k+1}, on the given axis.
    """
    lookup = indexing.index_lookup(dim, N + 1)
    table = indexing.multi_indices(dim, N)
    M = np.zeros((indexing.span_dim(dim, N + 1), table.shape[0]))
    for col, row in enumerate(table.tolist()):
        k = row[axis]
        for step, factor in ((-1, math.sqrt(k / 2)), (1, sign * math.sqrt((k + 1) / 2))):
            if k + step >= 0:
                target = list(row)
                target[axis] += step
                M[lookup[tuple(target)], col] = factor
    return M


@pytest.mark.parametrize("dim, N", [(1, 0), (1, 9), (2, 6), (3, 3)])
def test_builder_matches_closed_form_ladder_matrices(dim, N):
    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    zero = (0,) * dim
    for axis in range(dim):
        e = tuple(int(j == axis) for j in range(dim))
        X0, X1 = _ladder_matrix(dim, N, axis, 1), _ladder_matrix(dim, N + 1, axis, 1)
        D0 = _ladder_matrix(dim, N, axis, -1)
        close(bernstein._operator_matrix(dim, N, e, zero), X0)
        close(bernstein._operator_matrix(dim, N, zero, e), D0)
        # compositions differentiate first, then multiply
        close(bernstein._operator_matrix(dim, N, e, e), X1 @ D0)
        close(bernstein._operator_matrix(dim, N, tuple(2 * v for v in e), zero), X1 @ X0)


def test_no_violations_on_random_span_vectors(rng):
    for N in (5, 12):
        for a in range(4):
            for b in range(4 - a):
                chk = crude_bernstein_check(1, N, (a,), (b,))
                assert chk.lhs <= chk.rhs
                for _ in range(200):
                    f = HermiteExpansion(1, N, rng.standard_normal(indexing.span_dim(1, N)))
                    image = apply_position_derivative(f, (a,), (b,))
                    assert image.norm() <= chk.lhs * f.norm() * (1 + 1e-12)


def test_two_dim_check(rng):
    chk = crude_bernstein_check(2, 8, (1, 0), (0, 2))
    assert chk.ratio <= 1.0 + 1e-10
    assert chk.N == 8
    for _ in range(200):
        f = random_expansion(rng, dim=2, degree=8)
        image = apply_position_derivative(f, (1, 0), (0, 2))
        assert image.norm() <= chk.lhs * (1 + 1e-12)


_X2D_ON_SPAN_9 = crude_bernstein_check(1, 9, (2,), (1,))


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=10**6))
def test_ratio_bounded_for_arbitrary_seeds(seed):
    rng = np.random.default_rng(seed)
    f = random_expansion(rng, dim=1, degree=9)
    image = apply_position_derivative(f, (2,), (1,))
    assert image.norm() <= _X2D_ON_SPAN_9.lhs * (1 + 1e-12)
    assert _X2D_ON_SPAN_9.ratio <= 1.0 + 1e-10


# -- operator power expansion ----------------------------------------------------


def test_expansion_matches_iterated_application(rng):
    for dim in (1, 2):
        for k in (1, 2, 3, 4):
            op = harmonic_power_expand(k, dim)
            f = random_expansion(rng, dim=dim, degree=8)
            via_terms = op.apply(f)
            direct = iterated_oscillator_apply(f, k)
            num = np.linalg.norm(via_terms.coeffs - direct.coeffs)
            den = np.linalg.norm(direct.coeffs)
            assert num <= 1e-9 * den


def test_expansion_k0_is_identity(rng):
    op = harmonic_power_expand(0, 2)
    f = random_expansion(rng, dim=2, degree=4)
    out = op.apply(f)
    assert np.allclose(out.with_degree(4).coeffs, f.coeffs, atol=1e-15)


def test_expansion_without_terms_is_the_zero_map():
    for dim, k, degree in ((1, 1, 3), (2, 2, 4)):
        f = basis_state(dim, degree, (1,) + (0,) * (dim - 1))
        out = bernstein.OperatorExpansion(k=k, dim=dim, terms={}).apply(f)
        assert out.degree == degree + 2 * k
        assert out.coeffs.shape == (indexing.span_dim(dim, degree + 2 * k),)
        assert not np.any(out.coeffs)


def test_first_power_terms():
    # H + 1 in one dimension: x^2 - d^2 + 1
    op = harmonic_power_expand(1, 1)
    terms = dict(op.terms)
    assert terms[((2,), (0,))] == pytest.approx(1.0)
    assert terms[((0,), (2,))] == pytest.approx(-1.0)
    assert terms[((0,), (0,))] == pytest.approx(1.0)


def test_coefficient_bounds_hold():
    for dim in (1, 2):
        for k in (1, 2, 3):
            op = harmonic_power_expand(k, dim)
            assert op.terms
            for (alpha, beta), c in op.terms.items():
                assert abs(c) <= op.coefficient_bound(alpha, beta) * (1 + 1e-12)


def test_power_cap_guard():
    with pytest.raises(ValueError):
        harmonic_power_expand(13, 1)
