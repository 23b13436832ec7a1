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
    gamma_envelope_fit,
)
from hermlab.hermite import basis_state, random_expansion


def test_order_zero_is_an_identity():
    f = basis_state(1, 7, (7,))
    chk = crude_bernstein_check(f, (0,), (0,))
    assert chk.ratio == pytest.approx(1.0, rel=1e-15)


def test_single_position_factor():
    f = basis_state(1, 5, (5,))
    chk = crude_bernstein_check(f, (1,), (0,))
    # ||x Phi_5|| = sqrt(11/2) against rhs sqrt(2) sqrt(6)
    assert chk.lhs == pytest.approx(math.sqrt(5.5), rel=1e-12)
    assert chk.rhs == pytest.approx(math.sqrt(12.0), rel=1e-12)
    assert chk.ratio < 1.0


def test_no_violations_on_random_span_vectors(rng):
    for N in (5, 12):
        for _ in range(10):
            f = random_expansion(rng, dim=1, degree=N)
            for a in range(4):
                for b in range(4 - a):
                    chk = crude_bernstein_check(f, (a,), (b,))
                    assert chk.ratio <= 1.0 + 1e-10


def test_two_dim_check(rng):
    f = random_expansion(rng, dim=2, degree=8)
    chk = crude_bernstein_check(f, (1, 0), (0, 2))
    assert chk.ratio <= 1.0 + 1e-10
    assert chk.N == 8


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=10**6))
def test_ratio_bounded_for_arbitrary_seeds(seed):
    rng = np.random.default_rng(seed)
    f = random_expansion(rng, dim=1, degree=9)
    chk = crude_bernstein_check(f, (2,), (1,))
    assert chk.ratio <= 1.0 + 1e-10


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


def test_gamma_envelope_on_basis_family():
    fs = [basis_state(1, 10, (j,)) for j in range(0, 11, 2)]
    fit = gamma_envelope_fit(fs, epsilon=0.5, delta=0.5)
    assert fit.certified
    assert fit.K_base >= 1.0
    assert fit.K_outer >= 1.0


def test_gamma_envelope_parameter_guards():
    fs = [basis_state(1, 2, (0,))]
    with pytest.raises(ValueError, match=r"ε must lie in \(0,1\]"):
        gamma_envelope_fit(fs, epsilon=0.0, delta=0.5)
    with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\]"):
        gamma_envelope_fit(fs, epsilon=0.5, delta=0.0)
