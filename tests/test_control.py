import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from hermlab import control, geometry
from hermlab.control import (
    ControlError,
    ControlProblem,
    gramian,
    lebeau_robbiano_synthesize,
    min_energy_control,
    observability_lower_bound,
    reference_blowup_exponent,
    resimulate,
)
from hermlab.hermite import basis_state, random_expansion
from hermlab.semigroup import EvolutionSpec
from hermlab.spectral import GramMatrix, gram_matrix

STRIPES = geometry.PeriodicPattern(dim=1, period=2.0, kept=0.5)
HEAT = EvolutionSpec(s=1.0, dim=1)


def _actuator(G, degree):
    """A synthetic 1-D actuator block in place of an assembled Gram matrix."""
    return GramMatrix(
        degree=degree, dim=1, entries=np.asarray(G), factor=None, quad_tol=0.0, nodes=0
    )


def _expm_terminal(problem, signal):
    """Terminal state under the stage controls, one matrix exponential per stage.

    On a stage (t0, tau, level, mu) the control is u = -G_lo z with
    z(t) = e^{-(tau - (t - t0)) Lambda_lo} mu, so z' = Lambda_lo z and the pair
    (f, z) solves [f; z]' = [[-Lambda, -G[:, :m] G_lo], [0, Lambda_lo]] [f; z].
    """
    G = np.asarray(gram_matrix(problem.omega, problem.N).entries)
    lam = (2.0 * np.arange(problem.N + 1) + 1.0) ** problem.spec.s
    M = lam.size
    f = np.asarray(problem.f0.coeffs, dtype=np.float64)
    cursor = 0.0
    for t0, tau, level, mu in signal.stage_data:
        f = np.exp(-(t0 - cursor) * lam) * f
        m = level + 1
        A = np.zeros((M + m, M + m))
        A[:M, :M] = -np.diag(lam)
        A[:M, M:] = -G[:, :m] @ G[:m, :m]
        A[M:, M:] = np.diag(lam[:m])
        z0 = np.exp(-tau * lam[:m]) * mu
        f = (scipy.linalg.expm(tau * A) @ np.concatenate([f, z0]))[:M]
        cursor = t0 + tau
    return np.exp(-(problem.T - cursor) * lam) * f


def _control_energy(G, lam, stage_data, nodes=64):
    """int ||u||^2 dt of u(t) = -G_lo E_lo(tau - (t - t0)) mu, Gauss-Legendre on each controlled window."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    energy = 0.0
    for t0, tau, level, mu in stage_data:
        m = level + 1
        for ti, wi in zip(tau / 2.0 * (x + 1.0), tau / 2.0 * w):
            u = -G[:m, :m] @ (np.exp(-(tau - ti) * lam[:m]) * mu)
            energy += wi * (u @ u)
    return energy


def test_gramian_matches_closed_form():
    Gm = gram_matrix(STRIPES, 8)
    G = np.asarray(Gm.entries)
    lam = HEAT.eigenvalues(8)
    W = gramian(0.5, 8, Gm, HEAT)
    # reference: 64-node Gauss-Legendre integral of exp(-t S) over [0, tau]
    tau = 0.5
    x, w = np.polynomial.legendre.leggauss(64)
    S = lam[:, None] + lam[None, :]
    K = sum(tau / 2.0 * wi * np.exp(-tau / 2.0 * (xi + 1.0) * S) for xi, wi in zip(x, w))
    W_ref = (G @ G) * K
    assert np.linalg.norm(W - W_ref) <= 1e-12 * np.linalg.norm(W_ref)


def test_gramian_needs_positive_duration():
    with pytest.raises(ValueError):
        gramian(0.0, 2, STRIPES, HEAT)


def test_gramian_rejects_unresolvable_sensor():
    # sensor set entirely outside the quadrature-resolved envelope
    far = geometry.interval_union([(50.0, 51.0)])
    with pytest.raises(ControlError):
        gramian(0.5, 4, far, HEAT)


def test_scalar_cost_closed_form():
    # one mode, identity actuator, rate 1: cost = e^{-2} / int_0^1 e^{-2t} dt
    ident = _actuator(np.eye(1), 0)
    sig = min_energy_control(basis_state(1, 0, (0,)), 1.0, 0, ident, HEAT)
    expected = math.exp(-2.0) / ((1.0 - math.exp(-2.0)) / 2.0)
    assert sig.total_cost == pytest.approx(expected, abs=1e-13)
    assert _control_energy(np.eye(1), np.ones(1), sig.stage_data) == pytest.approx(expected, rel=1e-10)
    assert sig.residual <= 1e-12
    assert sig.condition == pytest.approx(1.0)


def test_min_energy_control_on_thick_set(rng):
    g = random_expansion(rng, dim=1, degree=8)
    sig = min_energy_control(g, 0.5, 8, STRIPES, HEAT)
    assert sig.residual <= 1e-8 * g.norm()
    G = np.asarray(gram_matrix(STRIPES, 8).entries)
    assert sig.total_cost == pytest.approx(_control_energy(G, HEAT.eigenvalues(8), sig.stage_data), rel=1e-8)
    assert [(t0, tau, level) for t0, tau, level, _ in sig.stage_data] == [(0.0, 0.5, 8)]


def test_costlier_to_control_faster(rng):
    g = random_expansion(rng, dim=1, degree=6)
    slow = min_energy_control(g, 1.0, 6, STRIPES, HEAT)
    fast = min_energy_control(g, 0.25, 6, STRIPES, HEAT)
    assert fast.total_cost > slow.total_cost


def test_condition_cap_raises():
    # an actuator that barely sees the second mode pushes the Gramian past
    # the conditioning cap
    weak = _actuator(np.diag([1.0, 3e-7]), 1)
    g = basis_state(1, 1, (1,))
    with pytest.raises(ControlError, match="condition"):
        min_energy_control(g, 0.5, 1, weak, HEAT)


def test_problem_validation():
    f0 = basis_state(1, 2, (2,))
    with pytest.raises(ValueError):
        ControlProblem(T=0.0, omega=STRIPES, spec=HEAT, N=4, f0=f0)
    with pytest.raises(ValueError, match="δ < 2s−1 required"):
        ControlProblem(
            T=1.0, omega=STRIPES, spec=EvolutionSpec(s=0.6, dim=1), N=4, f0=f0, delta=0.3
        )
    with pytest.raises(ValueError):
        ControlProblem(T=1.0, omega=STRIPES, spec=HEAT, N=1, f0=f0)


@pytest.mark.parametrize("as_gram", [True, False])
def test_control_functions_reject_sensor_set_of_other_dimension(as_gram):
    stripes_2d = geometry.PeriodicPattern(dim=2, period=2.0, kept=0.5)
    omega = gram_matrix(stripes_2d, 4) if as_gram else stripes_2d
    g = basis_state(1, 4, (2,))
    calls = [
        lambda: gramian(0.5, 4, omega, HEAT),
        lambda: min_energy_control(g, 0.5, 4, omega, HEAT),
        lambda: observability_lower_bound(1.0, 4, omega, HEAT),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="sensor set has dim 2, spec has dim 1"):
            call()


def test_problem_rejects_sensor_set_of_other_dimension():
    f0 = basis_state(1, 2, (2,))
    stripes_2d = geometry.PeriodicPattern(dim=2, period=2.0, kept=0.5)
    with pytest.raises(ValueError, match="sensor set has dim 2, spec has dim 1"):
        ControlProblem(T=1.0, omega=stripes_2d, spec=HEAT, N=4, f0=f0)


def test_lr_synthesis_steers_to_zero(rng):
    spec = EvolutionSpec(s=0.75, dim=1)
    f0 = random_expansion(rng, dim=1, degree=8)
    problem = ControlProblem(T=2.0, omega=STRIPES, spec=spec, N=8, f0=f0)
    signal, trace = lebeau_robbiano_synthesize(problem)
    assert trace["terminal_residual"] <= 1e-6 * f0.norm()
    assert trace["verified_residual"] <= 1e-6 * f0.norm()
    assert signal.residual == trace["terminal_residual"]


def test_lr_schedule_is_dyadic(rng):
    f0 = random_expansion(rng, dim=1, degree=8)
    problem = ControlProblem(T=2.0, omega=STRIPES, spec=HEAT, N=8, f0=f0)
    _, trace = lebeau_robbiano_synthesize(problem)
    st = trace["stages"]
    levels = [x["level"] for x in st]
    assert levels == [1, 2, 4, 8]
    # window j spans T / 2^{j+1}, starting where the previous one ended
    expected_start = 0.0
    for j, x in enumerate(st):
        width = 2.0 / 2 ** (j + 1)
        assert x["interval"][0] == pytest.approx(expected_start, abs=1e-15)
        assert x["interval"][1] - x["interval"][0] == pytest.approx(width, abs=1e-15)
        expected_start += width
    # dyadic windows plus the free remainder add up to T exactly
    covered = sum(Fraction(1, 2 ** (j + 1)) for j in range(len(st)))
    assert covered <= 1
    assert float(1 - covered) * 2.0 == pytest.approx(2.0 - st[-1]["interval"][1], abs=1e-15)


def test_lr_stage_residuals_vanish(rng):
    f0 = random_expansion(rng, dim=1, degree=8)
    problem = ControlProblem(T=2.0, omega=STRIPES, spec=HEAT, N=8, f0=f0)
    _, trace = lebeau_robbiano_synthesize(problem)
    for stage in trace["stages"]:
        # the controlled block is annihilated to solver accuracy
        assert stage["residual"] <= 1e-8 * f0.norm()
        assert stage["cost"] >= 0.0


@pytest.mark.parametrize("s", [0.75, 1.0])
def test_lr_total_cost_is_control_energy(rng, s):
    spec = EvolutionSpec(s=s, dim=1)
    f0 = random_expansion(rng, dim=1, degree=25)
    problem = ControlProblem(T=1.0, omega=STRIPES, spec=spec, N=25, f0=f0)
    signal, trace = lebeau_robbiano_synthesize(problem)
    G = np.asarray(gram_matrix(STRIPES, 25).entries)
    energy = _control_energy(G, spec.eigenvalues(25), signal.stage_data)
    assert signal.total_cost == trace["total_cost"]
    assert signal.total_cost == pytest.approx(energy, rel=1e-8)


def test_lr_costs_more_on_short_horizon(rng):
    f0 = random_expansion(rng, dim=1, degree=6)
    short = ControlProblem(T=0.25, omega=STRIPES, spec=HEAT, N=6, f0=f0)
    unit = ControlProblem(T=1.0, omega=STRIPES, spec=HEAT, N=6, f0=f0)
    _, tr_short = lebeau_robbiano_synthesize(short)
    _, tr_unit = lebeau_robbiano_synthesize(unit)
    assert tr_short["total_cost"] / tr_unit["total_cost"] > 1.0


def test_resimulation_consistency(rng):
    f0 = random_expansion(rng, dim=1, degree=8)
    problem = ControlProblem(T=1.0, omega=STRIPES, spec=HEAT, N=8, f0=f0)
    signal, trace = lebeau_robbiano_synthesize(problem)
    replay = resimulate(problem, signal)
    assert replay <= 1e-6 * f0.norm()
    # the synthesis verifies through the same replay on the same Gram matrix
    assert replay == trace["verified_residual"]


def _loop_terminal(problem, signal, nodes=256):
    """The same Duhamel quadrature as resimulate, one node at a time."""
    G = np.asarray(gram_matrix(problem.omega, problem.N).entries)
    lam = (2.0 * np.arange(problem.N + 1) + 1.0) ** problem.spec.s
    f = np.asarray(problem.f0.coeffs, dtype=np.float64)
    x, w = np.polynomial.legendre.leggauss(nodes)
    cursor = 0.0
    for t0, tau, level, mu in signal.stage_data:
        f = np.exp(-(t0 - cursor) * lam) * f
        m = level + 1
        acc = np.exp(-tau * lam) * f
        for ti, wi in zip(tau / 2.0 * (x + 1.0), tau / 2.0 * w):
            u = -G[:m, :m] @ (np.exp(-(tau - ti) * lam[:m]) * mu)
            acc += wi * np.exp(-(tau - ti) * lam) * (G[:, :m] @ u)
        f = acc
        cursor = t0 + tau
    return np.exp(-(problem.T - cursor) * lam) * f


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_resimulate_matches_augmented_expm(rng, scale):
    # scale 0.5 halves every stage control, so the terminal state is far from
    # zero and the comparison sees the whole replayed state, not two small norms
    f0 = random_expansion(rng, dim=1, degree=12)
    problem = ControlProblem(T=1.0, omega=STRIPES, spec=EvolutionSpec(s=0.75, dim=1), N=12, f0=f0)
    signal, _ = lebeau_robbiano_synthesize(problem)
    stage_data = tuple((t0, tau, level, scale * mu) for t0, tau, level, mu in signal.stage_data)
    signal = dataclasses.replace(signal, stage_data=stage_data)
    reference = float(np.linalg.norm(_expm_terminal(problem, signal)))
    if scale < 1.0:
        assert reference > 1e-3 * f0.norm()
    replay = resimulate(problem, signal)
    assert replay == pytest.approx(reference, abs=1e-9 * f0.norm())
    # the node-by-node loop differs from the vectorised replay only in summation order
    assert replay == pytest.approx(float(np.linalg.norm(_loop_terminal(problem, signal))), abs=1e-10 * f0.norm())


def test_synthesis_assembles_the_gram_once(rng, monkeypatch):
    calls = []

    def counting(omega, degree, *args, **kwargs):
        calls.append(degree)
        return gram_matrix(omega, degree, *args, **kwargs)

    monkeypatch.setattr(control, "gram_matrix", counting)
    f0 = random_expansion(rng, dim=1, degree=8)
    problem = ControlProblem(T=1.0, omega=STRIPES, spec=HEAT, N=8, f0=f0)
    lebeau_robbiano_synthesize(problem)
    assert calls == [8]


# -- observability ---------------------------------------------------------------


def test_scalar_observability_closed_form():
    ident = _actuator(np.eye(1), 0)
    for T in (0.3, 0.7, 1.5):
        rep = observability_lower_bound(T, 0, ident, HEAT)
        expected = 2.0 * math.exp(-2.0 * T) / (1.0 - math.exp(-2.0 * T))
        assert rep.C_T_lower[0] == pytest.approx(expected, rel=1e-12)


def test_observability_grid_monotone_with_blowup_fit():
    Ts = [0.1, 0.2, 0.4, 0.8, 1.6]
    rep = observability_lower_bound(Ts, 8, STRIPES, HEAT)
    assert rep.nonincreasing
    assert rep.fit_kappa is not None and rep.fit_kappa > 0
    assert rep.reference_exponent == pytest.approx(1.0)
    assert len(rep.C_T_lower) == len(Ts)


def test_observability_rejects_nonpositive_horizon():
    with pytest.raises(ValueError):
        observability_lower_bound([0.5, -0.1], 4, STRIPES, HEAT)


def test_reference_exponent_formula():
    assert reference_blowup_exponent(1.0, 0.0) == pytest.approx(1.0)
    assert reference_blowup_exponent(0.75, 0.25) == pytest.approx(1.25 / 0.25)
    with pytest.raises(ValueError, match="δ < 2s−1 required"):
        reference_blowup_exponent(0.6, 0.5)
