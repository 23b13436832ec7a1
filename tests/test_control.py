import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import linregress

from hermlab import control, geometry
from hermlab.control import (
    ControlError,
    ControlProblem,
    lebeau_robbiano_synthesize,
    observability_lower_bound,
    reference_blowup_exponent,
)
from hermlab.hermite import basis_state, random_expansion
from hermlab.semigroup import EvolutionSpec
from hermlab.spectral import gram_matrix

STRIPES = geometry.PeriodicPattern(dim=1, period=2.0, kept=0.5)
HEAT = EvolutionSpec(s=1.0, dim=1)


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


def _replayed_norm(problem, signal):
    """Terminal norm of the Duhamel replay, on the problem's own Gram matrix."""
    G = np.asarray(gram_matrix(problem.omega, problem.N).entries)
    f0 = np.asarray(problem.f0.coeffs, dtype=np.float64)
    lam = problem.spec.eigenvalues(problem.N)
    return control._replay(G, lam, problem.spec.dim, f0, signal.stage_data, problem.T)


def test_stage_matrix_matches_time_quadrature():
    # reference: 64-node Gauss-Legendre integral over [0, tau] of
    # E(tau - t) G[:, :m] G_lo E_lo(tau - t), whose leading m rows are the Gramian
    G = np.asarray(gram_matrix(STRIPES, 8).entries)
    lam = HEAT.eigenvalues(8)
    tau, m = 0.5, 4
    M = control._stage_matrix(G, lam, m, tau)
    x, w = np.polynomial.legendre.leggauss(64)
    M_ref = sum(
        tau / 2.0 * wi * (np.exp(-lag * lam)[:, None] * (G[:, :m] @ G[:m, :m]) * np.exp(-lag * lam[:m])[None, :])
        for lag, wi in zip(tau / 2.0 * (1.0 - x), w)
    )
    assert M.shape == (lam.size, m)
    assert np.linalg.norm(M - M_ref) <= 1e-12 * np.linalg.norm(M_ref)


def test_gramian_rejects_unresolvable_sensor():
    # sensor set entirely outside the quadrature-resolved envelope
    far = geometry.interval_union([(50.0, 51.0)])
    problem = ControlProblem(T=1.0, omega=far, spec=HEAT, N=4, f0=basis_state(1, 4, (2,)))
    with pytest.raises(ControlError, match="Gramian unusable even at level 0"):
        lebeau_robbiano_synthesize(problem)


def test_scalar_cost_closed_form():
    # one mode, identity actuator, rate 1: cost = e^{-2} / int_0^1 e^{-2t} dt
    ident, lam, g = np.eye(1), np.ones(1), np.ones(1)
    mu, cost, condition = control._stage(control._stage_matrix(ident, lam, 1, 1.0), np.exp(-lam) * g)
    stage_data = ((0.0, 1.0, 0, mu),)
    expected = math.exp(-2.0) / ((1.0 - math.exp(-2.0)) / 2.0)
    assert cost == pytest.approx(expected, abs=1e-13)
    assert _control_energy(ident, lam, stage_data) == pytest.approx(expected, rel=1e-10)
    assert control._replay(ident, lam, 1, g, stage_data, 1.0) <= 1e-12
    assert condition == pytest.approx(1.0)


def test_min_energy_control_on_thick_set(rng):
    # one stage on the whole span: the replayed terminal state vanishes and
    # the duality cost is the control energy
    g = random_expansion(rng, dim=1, degree=8).coeffs
    G = np.asarray(gram_matrix(STRIPES, 8).entries)
    lam = HEAT.eigenvalues(8)
    mu, cost, _ = control._stage(control._stage_matrix(G, lam, lam.size, 0.5), np.exp(-0.5 * lam) * g)
    stage_data = ((0.0, 0.5, 8, mu),)
    assert control._replay(G, lam, 1, g, stage_data, 0.5) <= 1e-8 * np.linalg.norm(g)
    assert cost == pytest.approx(_control_energy(G, lam, stage_data), rel=1e-8)


def test_condition_cap_raises():
    # an actuator that barely sees the second mode pushes the Gramian past
    # the conditioning cap
    weak, lam = np.diag([1.0, 3e-7]), HEAT.eigenvalues(1)
    with pytest.raises(ControlError, match="condition"):
        control._stage(control._stage_matrix(weak, lam, 2, 0.5), np.exp(-0.5 * lam) * np.array([0.0, 1.0]))


def test_problem_validation():
    f0 = basis_state(1, 2, (2,))
    for T in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon T must be finite and positive"):
            ControlProblem(T=T, omega=STRIPES, spec=HEAT, N=4, f0=f0)
    with pytest.raises(ValueError):
        ControlProblem(T=1.0, omega=STRIPES, spec=HEAT, N=1, f0=f0)


def test_observability_rejects_sensor_set_of_other_dimension():
    stripes_2d = geometry.PeriodicPattern(dim=2, period=2.0, kept=0.5)
    with pytest.raises(ValueError, match="sensor set has dim 2, spec has dim 1"):
        observability_lower_bound(1.0, 4, stripes_2d, HEAT)


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
    replay = _replayed_norm(problem, signal)
    assert replay <= 1e-6 * f0.norm()
    # the synthesis verifies through the same replay on the same Gram matrix
    assert replay == trace["verified_residual"]


def _loop_terminal(problem, signal, nodes=256):
    """The same Duhamel quadrature as control._replay, one node at a time."""
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
    replay = _replayed_norm(problem, signal)
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


def test_synthesis_factors_each_stage_attempt_once(rng, monkeypatch):
    # one stage matrix and one symmetric eigendecomposition per attempt, no Cholesky
    counts = {"stage_matrix": 0, "eig": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def refuse(*args, **kwargs):
        raise AssertionError("Cholesky factorization called")

    monkeypatch.setattr(control, "_stage_matrix", counted("stage_matrix", control._stage_matrix))
    monkeypatch.setattr(np.linalg, "eigh", counted("eig", np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eig", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(scipy.linalg, "cho_factor", refuse)
    f0 = random_expansion(rng, dim=1, degree=8)
    _, trace = lebeau_robbiano_synthesize(ControlProblem(T=1.0, omega=STRIPES, spec=HEAT, N=8, f0=f0))
    assert counts == {"stage_matrix": 4, "eig": 4} and len(trace["stages"]) == 4
    # a sensor set the span cannot see: stage 0 tries level 1, then level 0
    counts.update(stage_matrix=0, eig=0)
    far = geometry.interval_union([(50.0, 51.0)])
    problem = ControlProblem(T=1.0, omega=far, spec=HEAT, N=4, f0=basis_state(1, 4, (2,)))
    with pytest.raises(ControlError, match="Gramian unusable even at level 0"):
        lebeau_robbiano_synthesize(problem)
    assert counts == {"stage_matrix": 2, "eig": 2}


# -- observability ---------------------------------------------------------------


def test_scalar_observability_closed_form():
    # the degree-0 span over the whole line: G = 1, rate 1
    for T in (0.3, 0.7, 1.5):
        rep = observability_lower_bound(T, 0, geometry.FullSpace(1), HEAT)
        expected = 2.0 * math.exp(-2.0 * T) / (1.0 - math.exp(-2.0 * T))
        assert rep.C_T_lower[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("s", [0.75, 1.0])
def test_observability_matches_generalized_eigenproblem(s):
    # reference: the largest eigenvalue of e^{-2T Lambda} v = C Q v, with the
    # observation form Q = int_0^T E(t) G E(t) dt by 64-node Gauss-Legendre
    # quadrature in time, not the closed-form kernel
    spec = EvolutionSpec(s=s, dim=1)
    Ts = [0.1, 0.2, 0.4, 0.8, 1.6]
    G = np.asarray(gram_matrix(STRIPES, 8).entries)
    lam = spec.eigenvalues(8)
    x, w = np.polynomial.legendre.leggauss(64)
    rep = observability_lower_bound(Ts, 8, STRIPES, spec)
    for T, C_T in zip(Ts, rep.C_T_lower):
        Q = sum(
            T / 2.0 * wi * np.outer(e, e) * G
            for e, wi in zip(np.exp(-np.outer(T / 2.0 * (x + 1.0), lam)), w)
        )
        ref = scipy.linalg.eigh(np.diag(np.exp(-2.0 * T * lam)), Q, eigvals_only=True)[-1]
        assert C_T == pytest.approx(ref, rel=1e-12)


def test_observability_grid_monotone_with_blowup_fit():
    Ts = [0.1, 0.2, 0.4, 0.8, 1.6]
    rep = observability_lower_bound(Ts, 8, STRIPES, HEAT)
    assert rep.nonincreasing
    assert rep.fit_kappa is not None and rep.fit_kappa > 0
    assert rep.reference_exponent == pytest.approx(1.0)
    assert len(rep.C_T_lower) == len(Ts)


def test_blowup_fit_recovers_an_exact_kappa_law(monkeypatch):
    # log C_T = 2 / T^1.5 exactly, so log log C_T is linear in log T
    monkeypatch.setattr(control, "_c_t_single", lambda T, G, lam: math.exp(2.0 * T**-1.5))
    rep = observability_lower_bound([0.1, 0.2, 0.4, 0.8, 1.6], 4, STRIPES, HEAT)
    assert rep.fit_kappa == pytest.approx(1.5, abs=1e-12)
    assert 0.0 <= rep.kappa_err < 1e-12


@pytest.mark.parametrize("n", [3, 5, 12])
def test_blowup_fit_error_matches_linregress(monkeypatch, n):
    Ts = np.geomspace(0.1, 2.0, n)
    rng = np.random.default_rng(n)
    values = dict(zip(Ts.tolist(), np.exp(np.exp(rng.uniform(-1.0, 1.0, n))).tolist()))
    monkeypatch.setattr(control, "_c_t_single", lambda T, G, lam: values[T])
    rep = observability_lower_bound(Ts, 4, STRIPES, HEAT)
    ref = linregress(np.log(Ts), np.log(np.log(rep.C_T_lower)))
    assert rep.fit_kappa == pytest.approx(-ref.slope, rel=1e-10)
    assert rep.kappa_err == pytest.approx(ref.stderr, rel=1e-10)


def test_blowup_fit_on_two_horizons_has_no_error():
    rep = observability_lower_bound([0.2, 0.4], 8, STRIPES, HEAT)
    assert rep.fit_kappa is not None and rep.kappa_err is None


def test_blowup_fit_needs_two_distinct_horizons():
    # a RankWarning or a divide-by-zero RuntimeWarning would fail the test
    rep = observability_lower_bound([0.5] * 3, 6, STRIPES, HEAT)
    pair = observability_lower_bound([0.2, 0.2, 0.5, 0.5], 6, STRIPES, HEAT)
    assert min(rep.C_T_lower) > 1.0 and rep.fit_kappa is None and rep.kappa_err is None
    # two distinct horizons, each twice: the line through their two points
    ref = observability_lower_bound([0.2, 0.5], 6, STRIPES, HEAT)
    assert pair.C_T_lower == ref.C_T_lower[:1] * 2 + ref.C_T_lower[1:] * 2
    assert pair.fit_kappa == pytest.approx(ref.fit_kappa, rel=1e-12)
    assert 0.0 <= pair.kappa_err < 1e-12


def test_observability_on_a_sensor_set_the_span_cannot_see_raises():
    with pytest.raises(ControlError, match="observation form singular"):
        observability_lower_bound([0.5], 4, geometry.interval_union([(50.0, 51.0)]), HEAT)


def test_observability_rejects_nonpositive_horizon():
    # an infinite horizon would read a silent constant 0, a NaN one fails inside LAPACK
    for Ts in ([0.5, -0.1], [0.5, np.inf], [np.nan]):
        with pytest.raises(ValueError, match="horizons must be finite and positive"):
            observability_lower_bound(Ts, 4, STRIPES, HEAT)


def test_reference_exponent_formula():
    assert reference_blowup_exponent(1.0, 0.0) == pytest.approx(1.0)
    assert reference_blowup_exponent(0.75, 0.25) == pytest.approx(1.25 / 0.25)
    with pytest.raises(ValueError, match="δ < 2s−1 required"):
        reference_blowup_exponent(0.6, 0.5)
