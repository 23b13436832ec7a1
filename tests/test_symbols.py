import numpy as np
import pytest
import sympy as sp

from hermlab import symbols
from hermlab.symbols import (
    HamiltonMap,
    QuadraticForm,
    catalog,
    free_laplacian_form,
    hamilton_map,
    harmonic_oscillator_form,
    kramers_fokker_planck_form,
    rotated_harmonic_form,
    singular_space,
    singular_space_summary,
    symplectic_matrix,
)


def _exact_singular_space(Q_sym):
    """Exact-arithmetic reference: nested kernels of Re F (Im F)^j.

    Returns (dimension, first stabilizing truncation or None).
    """
    m = Q_sym.shape[0]
    n = m // 2
    J = sp.zeros(m, m)
    J[:n, n:] = sp.eye(n)
    J[n:, :n] = -sp.eye(n)
    F = J * Q_sym
    ReF = sp.Rational(1, 2) * (F + F.conjugate())
    ImF = (F - F.conjugate()) / (2 * sp.I)
    stack = sp.zeros(0, m)
    k0 = None
    dim = None
    power = sp.eye(m)
    for j in range(2 * n):
        stack = stack.col_join(ReF * power)
        power = power * ImF
        dim = len(stack.nullspace())
        if dim == 0 and k0 is None:
            k0 = j
    return dim, k0


def test_symplectic_matrix_squares_to_minus_identity():
    for n in (1, 2, 3):
        J = symplectic_matrix(n)
        assert np.array_equal(J @ J, -np.eye(2 * n))


def test_hamilton_map_consistency_invariant():
    for name, q in catalog().items():
        F = hamilton_map(q)
        J = symplectic_matrix(q.dim)
        assert np.max(np.abs(q.Q + J @ F.F)) <= 1e-12, name
        n = q.dim
        Qxx, Qxxi, Qxix, Qxixi = q.Q[:n, :n], q.Q[:n, n:], q.Q[n:, :n], q.Q[n:, n:]
        assert np.array_equal(F.F, np.block([[Qxix, Qxixi], [-Qxx, -Qxxi]])), name


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_quadratic_form_rejects_a_nonfinite_entry(bad):
    Q = np.eye(2, dtype=complex)
    Q[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        QuadraticForm(1, Q)


def test_quadratic_form_rejects_asymmetric_matrix():
    Q = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        QuadraticForm(1, Q)


def test_catalog_against_exact_arithmetic():
    # the same nested-kernel computation in exact arithmetic
    expected = {}
    x = sp.symbols("theta")
    forms = {
        "harmonic": sp.eye(2),
        "rotated-harmonic": sp.Matrix(
            [[sp.exp(sp.I * sp.pi / 4), 0], [0, sp.exp(-sp.I * sp.pi / 4)]]
        ),
        "free-laplacian": sp.Matrix([[0, 0], [0, 1]]),
        "kramers-fokker-planck": sp.Matrix(
            [
                [0, 0, 0, -sp.I / 2],
                [0, 1, sp.I / 2, 0],
                [0, sp.I / 2, 1, 0],
                [-sp.I / 2, 0, 0, 1],
            ]
        ),
    }
    for name, Q_sym in forms.items():
        expected[name] = _exact_singular_space(Q_sym)

    for name, q in catalog().items():
        res = singular_space(hamilton_map(q))
        dim_ref, k0_ref = expected[name]
        assert res.dimS == dim_ref, name
        assert res.k0 == k0_ref, name
        assert not res.ambiguous, name


def test_harmonic_summary_values():
    res = singular_space(hamilton_map(harmonic_oscillator_form(1)))
    summary = singular_space_summary(res)
    assert summary["dimS"] == 0
    assert summary["k0"] == 0


def test_free_laplacian_kernel_direction():
    res = singular_space(hamilton_map(free_laplacian_form(1)))
    assert res.dimS == 1
    assert res.k0 is None
    v = res.basis.reshape(-1)
    assert abs(abs(v[0]) - 1.0) <= 1e-12 and abs(v[1]) <= 1e-12


def test_kfp_needs_one_bracket():
    res = singular_space(hamilton_map(kramers_fokker_planck_form()))
    assert (res.dimS, res.k0) == (0, 1)


def test_anisotropic_form_singular_space():
    # x^2 + i xi^2: real part vanishes on the xi axis, one commutator fixes it
    Q = np.array([[1.0, 0.0], [0.0, 1.0j]])
    res = singular_space(hamilton_map(QuadraticForm(1, Q)))
    assert (res.dimS, res.k0) == (0, 1)


def test_result_stable_over_tolerance_decades():
    for tol in (1e-10, 1e-9, 1e-8):
        res = singular_space(hamilton_map(kramers_fokker_planck_form()), tol=tol)
        assert (res.dimS, res.k0) == (0, 1)


def test_rotation_angle_must_stay_sectorial():
    with pytest.raises(ValueError):
        rotated_harmonic_form(np.pi / 2, 1)


def test_real_form_reduces_to_plain_kernel(rng):
    # real symmetric Q: Im F = 0, so S is just the kernel of F
    A = rng.standard_normal((4, 4))
    Q = (A + A.T) / 2.0
    Q[:, 0] = 0.0
    Q[0, :] = 0.0
    res = singular_space(hamilton_map(QuadraticForm(2, Q.astype(complex))))
    F = hamilton_map(QuadraticForm(2, Q.astype(complex))).F.real
    expected_dim = 4 - np.linalg.matrix_rank(F)
    assert res.dimS == expected_dim
