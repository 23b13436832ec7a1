"""Constructive null control of the truncated fractional-oscillator flow.

The state is the coefficient vector of an expansion in the degree-N span,
evolving by f' = -Lambda f + G u: Lambda is the diagonal of (2|alpha|+n)^s
and the actuator G is the sensor-set Gram matrix, i.e. the control enters
only through the projection of 1_omega u onto the span. Minimal-energy
controls come from the controllability Gramian W = int_0^tau E(t) G^2 E(t) dt
(E the diagonal propagator) via the closed form u(t) = -G E(tau - t) mu,
mu = W^{-1} E(tau) g; dyadic alternation of such controls on growing level
blocks with free dissipation in between steers any initial state to zero.
Every stage goes through one solver, and every terminal check through one
Duhamel-quadrature replay that never uses the closed-form stage kernel.

Observability is estimated on the same span: the best constant C_T with
||f(T)||^2 <= C_T int_0^T ||f(t)||^2_{L2(omega)} dt solves a generalized
eigenproblem between the time-integrated observation form and the squared
terminal propagator, computed through a Cholesky-whitened eigensolve so the
e^{-2T Lambda} underflow never meets an explicit inverse.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import indexing
from .geometry import ControlSet
from .hermite import HermiteExpansion
from .quadrature import gauss_legendre
from .semigroup import EvolutionSpec
from .spectral import GramMatrix, gram_matrix

__all__ = [
    "ControlError",
    "ControlProblem",
    "ControlSegment",
    "ControlSignal",
    "gramian",
    "min_energy_control",
    "lebeau_robbiano_synthesize",
    "resimulate",
    "ObservabilityReport",
    "observability_lower_bound",
    "reference_blowup_exponent",
]

CONDITION_CAP = 1e12


class ControlError(RuntimeError):
    """Synthesis failure; carries the partial trace when one exists."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class ControlProblem:
    """Null-control instance on the degree-N span.

    delta is the density-growth exponent. The synthesis does not read it;
    a control run reports the predicted cost blow-up power
    reference_blowup_exponent(s, delta), which needs delta < 2s - 1 so the
    spectral growth rate stays below the dissipation rate.
    """

    T: float
    omega: ControlSet
    spec: EvolutionSpec
    N: int
    f0: HermiteExpansion
    delta: float = 0.0

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("horizon T must be positive")
        if self.N < 0:
            raise ValueError("truncation degree must be non-negative")
        if self.f0.dim != self.spec.dim:
            raise ValueError("initial state dimension mismatch")
        if self.f0.degree > self.N:
            raise ValueError("initial state must lie in the degree-N span")
        if self.omega.dim != self.spec.dim:
            raise ValueError(f"sensor set has dim {self.omega.dim}, spec has dim {self.spec.dim}")
        reference_blowup_exponent(self.spec.s, self.delta)  # raises unless 0 <= δ < 2s−1


@dataclass(frozen=True)
class ControlSegment:
    """Sampled control trajectory on one time interval.

    values[:, i] is the control coefficient vector (in the degree-`level`
    span) at times[i]; between segments the control is zero.
    """

    interval: tuple
    level: int
    times: np.ndarray = field(repr=False)
    values: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise control with its exact stage data for re-simulation.

    total_cost integrates the squared coefficient norm of the control over
    time; duality_cost is the Gramian closed form, and the two agree to
    quadrature accuracy. stage_data rows hold (t_start, tau, level, mu) with
    u(t) = -G E(tau - (t - t_start)) mu on the stage's controlled window.
    """

    segments: tuple
    total_cost: float
    duality_cost: float
    residual: float
    condition: float
    stage_data: tuple = ()


def _gram_block(omega, degree: int, spec: EvolutionSpec) -> np.ndarray:
    if isinstance(omega, GramMatrix):
        if omega.degree < degree:
            raise ValueError("provided Gram matrix has insufficient degree")
        m = indexing.span_dim(spec.dim, degree)
        return np.asarray(omega.entries[:m, :m])
    return np.asarray(gram_matrix(omega, degree).entries)


def _exact_kernel(lam_a: np.ndarray, lam_b: np.ndarray, tau: float) -> np.ndarray:
    """Closed form of int_0^tau exp(-t (la + lb)) dt; all rates positive."""
    S = lam_a[:, None] + lam_b[None, :]
    return -np.expm1(-tau * S) / S


def _gramian(G: np.ndarray, lam: np.ndarray, tau: float) -> np.ndarray:
    M2 = G @ G
    M2 = (M2 + M2.T) / 2.0
    return M2 * _exact_kernel(lam, lam, tau)


def _checked_eigs(W: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvalsh(W)
    if eigs[0] <= 0.0:
        raise ControlError(
            f"singular controllability Gramian on {W.shape[0]} modes (min eigenvalue {eigs[0]:.3e}); "
            "sensor set too thin at this resolution"
        )
    return eigs


def gramian(tau: float, k: int, omega, spec: EvolutionSpec) -> np.ndarray:
    """Controllability Gramian of the level-k truncation over [0, tau].

    W = int_0^tau E(t) G^2 E(t) dt with E(t) = diag(e^{-t lambda}). The time
    integral separates into the entrywise kernel
    (1 - e^{-tau (la + lb)}) / (la + lb), evaluated in closed form. omega
    may be a ControlSet or a preassembled GramMatrix of degree >= k.
    """
    if not tau > 0:
        raise ValueError("duration must be positive")
    W = _gramian(_gram_block(omega, k, spec), spec.eigenvalues(k), tau)
    _checked_eigs(W)
    return W


def _stage(G: np.ndarray, lam: np.ndarray, m: int, tau: float, g: np.ndarray):
    """Minimal-energy control of the leading m modes of g over [0, tau].

    Returns (mu, cost, condition) with mu = W^{-1} E(tau) g and cost the
    duality form gᵀE(tau)W⁻¹E(tau)g; raises ControlError when the Gramian
    is singular or its condition exceeds CONDITION_CAP.
    """
    from scipy.linalg import cho_factor, cho_solve

    lam_lo = lam[:m]
    W = _gramian(G[:m, :m], lam_lo, tau)
    eigs = _checked_eigs(W)
    condition = float(eigs[-1] / eigs[0])
    if condition > CONDITION_CAP:
        raise ControlError(f"Gramian condition {condition:.3e} exceeds cap {CONDITION_CAP:.0e} on {m} modes")
    rhs = np.exp(-tau * lam_lo) * g[:m]
    mu = cho_solve(cho_factor(W), rhs)
    return mu, float(rhs @ mu), condition


def _segment(G_lo, lam_lo, mu, t0: float, tau: float, level: int, nodes: int) -> ControlSegment:
    """u(t) = -G_lo E_lo(t0 + tau - t) mu sampled at Gauss nodes of [t0, t0 + tau]."""
    x, _ = gauss_legendre(nodes)
    times = t0 + tau / 2.0 * (x + 1.0)
    traj = -G_lo @ (np.exp(-(t0 + tau - times)[:, None] * lam_lo[None, :]).T * mu[:, None])
    return ControlSegment(interval=(t0, t0 + tau), level=level, times=times, values=traj)


def _replay(state, G, lam, m: int, tau: float, mu, nodes: int) -> np.ndarray:
    """State after one controlled stage of f' = -Lambda f + G[:, :m] u.

    Duhamel quadrature of the forcing at `nodes` Gauss points, with the
    control u(t) = -G_lo E_lo(tau - t) mu rebuilt at every node; it never
    uses the closed-form kernel of the synthesis, so it checks it.
    """
    x, w = gauss_legendre(nodes)
    lag = tau / 2.0 * (1.0 - x)  # tau - t at the nodes
    U = G[:m, :m] @ (np.exp(-lam[:m, None] * lag[None, :]) * mu[:, None])
    forced = np.exp(-lam[:, None] * lag[None, :]) * (G[:, :m] @ U)
    return np.exp(-tau * lam) * state - forced @ (tau / 2.0 * w)


def min_energy_control(
    g: HermiteExpansion,
    tau: float,
    k: int,
    omega,
    spec: EvolutionSpec,
    samples: int = 64,
) -> ControlSignal:
    """Minimal-energy control steering the level-k truncation of g to zero.

    Closed form u(t) = -G E(tau - t) mu with mu = W^{-1} E(tau) g. The
    terminal state is re-simulated by Duhamel quadrature on an independent
    finer grid and must come back below 1e-8 ||g||; the quadrature cost and
    the duality closed form gᵀE(tau)W⁻¹E(tau)g must agree.
    """
    if g.dim != spec.dim:
        raise ValueError("state dimension mismatch")
    if not tau > 0:
        raise ValueError("duration must be positive")
    gvec = g.with_degree(k).coeffs if g.degree != k else g.coeffs
    lam = spec.eigenvalues(k)
    G = _gram_block(omega, k, spec)
    mu, duality_cost, condition = _stage(G, lam, lam.size, tau, gvec)

    segment = _segment(G, lam, mu, 0.0, tau, k, samples)
    _, w = gauss_legendre(samples)
    total_cost = float(np.sum(tau / 2.0 * w * np.sum(segment.values**2, axis=0)))

    residual = float(np.linalg.norm(_replay(gvec, G, lam, lam.size, tau, mu, 2 * samples)))
    gnorm = float(np.linalg.norm(gvec))
    if gnorm > 0 and residual > 1e-8 * gnorm:
        raise ControlError(f"terminal residual {residual:.3e} exceeds 1e-8 ||g||")
    return ControlSignal((segment,), total_cost, duality_cost, residual, condition, ((0.0, tau, k, mu),))


# -- dyadic synthesis ---------------------------------------------------------


def _stage_levels(N: int):
    j = 0
    while True:
        yield j, min(2**j, N)
        if 2**j >= N:
            return
        j += 1


def lebeau_robbiano_synthesize(problem: ControlProblem, tol: float = 1e-6):
    """Steer the degree-N truncation to zero by dyadic low-mode control.

    Stage j occupies a window of length T / 2^{j+1}: on its first half a
    minimal-energy control kills every mode of level <= k_j = min(2^j, N) of
    the current state (tracking exactly the pollution the actuator injects
    into the higher modes), and on the second half the flow runs free so
    dissipation crushes what remains. A stage whose Gramian is singular or
    over CONDITION_CAP retries at half the level. Once k_j reaches N the
    state in the span is exactly controlled and the leftover time evolves
    freely. Window lengths are exact dyadic fractions of T, so they sum to T.
    One Gram assembly serves every stage and the re-simulation.

    Returns (ControlSignal, trace); the trace dict carries per-stage
    {interval, level, cost, residual}, the total cost, the terminal
    residual, and verified_residual, the terminal norm of the independent
    Duhamel-quadrature replay that resimulate(oversample=2) performs.
    """
    spec = problem.spec
    N = problem.N
    lam = spec.eigenvalues(N)
    state = problem.f0.with_degree(N).coeffs.astype(np.float64).copy()
    f0_norm = float(np.linalg.norm(state))
    Gfull = np.asarray(gram_matrix(problem.omega, N).entries)

    stages = []
    stage_data = []
    segments = []
    total_cost = 0.0
    worst_condition = 1.0
    elapsed = Fraction(0)
    for j, level in _stage_levels(N):
        window = Fraction(1, 2 ** (j + 1))
        tau = problem.T * float(window) / 2.0
        t0 = float(elapsed) * problem.T

        eff_level = level
        while True:
            m = indexing.span_dim(spec.dim, eff_level)
            try:
                mu, stage_cost, condition = _stage(Gfull, lam, m, tau, state)
                break
            except ControlError:
                if eff_level == 0:
                    raise ControlError(
                        f"stage {j}: Gramian unusable even at level 0",
                        trace=_trace_dict(stages, total_cost, float(np.linalg.norm(state)), None),
                    )
                eff_level //= 2
        worst_condition = max(worst_condition, condition)

        # exact effect of the stage control on every mode of the span:
        # terminal += -(G[:, :m] E_lo(tau - t) mu) propagated, which separates
        # into the same entrywise kernel as the Gramian itself
        M = (Gfull[:, :m] @ Gfull[:m, :m]) * _exact_kernel(lam, lam[:m], tau)
        new_state = np.exp(-tau * lam) * state
        new_state -= M @ mu
        low_resid = float(np.linalg.norm(new_state[:m]))

        segments.append(_segment(Gfull[:m, :m], lam[:m], mu, t0, tau, eff_level, 32))
        stage_data.append((t0, tau, eff_level, mu))
        total_cost += stage_cost

        # free evolution on the second half of the window
        state = np.exp(-tau * lam) * new_state
        stages.append(
            {"interval": [t0, t0 + 2 * tau], "level": int(eff_level), "cost": stage_cost, "residual": low_resid}
        )
        elapsed += window

    remainder = Fraction(1) - elapsed
    if remainder > 0:
        state = np.exp(-float(remainder) * problem.T * lam) * state
    terminal_residual = float(np.linalg.norm(state))

    # the duality cost of each stage is its exact control energy
    signal = ControlSignal(
        tuple(segments), total_cost, total_cost, terminal_residual, worst_condition, tuple(stage_data)
    )
    verified = _resimulate(problem, Gfull, signal.stage_data, oversample=2)
    trace = _trace_dict(stages, total_cost, terminal_residual, verified)
    if f0_norm > 0 and terminal_residual > tol * f0_norm:
        raise ControlError(
            f"terminal residual {terminal_residual:.3e} exceeds {tol:g} ||f0||", trace=trace
        )
    return signal, trace


def _trace_dict(stages, total_cost, terminal_residual, verified):
    return {
        "stages": stages,
        "total_cost": total_cost,
        "terminal_residual": terminal_residual,
        "verified_residual": verified,
    }


def _resimulate(problem: ControlProblem, Gfull: np.ndarray, stage_data, oversample: int) -> float:
    lam = problem.spec.eigenvalues(problem.N)
    state = problem.f0.with_degree(problem.N).coeffs.astype(np.float64)
    t_cursor = 0.0
    for t0, tau, level, mu in stage_data:
        state = np.exp(-(t0 - t_cursor) * lam) * state
        m = indexing.span_dim(problem.spec.dim, level)
        state = _replay(state, Gfull, lam, m, tau, mu, 128 * oversample)
        t_cursor = t0 + tau
    return float(np.linalg.norm(np.exp(-(problem.T - t_cursor) * lam) * state))


def resimulate(problem: ControlProblem, signal: ControlSignal, oversample: int = 2) -> float:
    """Independent forward simulation of the synthesized control.

    Assembles the Gram matrix of problem.omega, replays each stage's control
    formula through Duhamel quadrature at 128 * oversample Gauss nodes with
    exact free propagation in between, and returns the terminal norm.
    Agreement with the synthesis residual, which uses the closed-form stage
    kernel, confirms the terminal contract.
    """
    Gfull = np.asarray(gram_matrix(problem.omega, problem.N).entries)
    return _resimulate(problem, Gfull, signal.stage_data, oversample)


# -- observability ------------------------------------------------------------


def reference_blowup_exponent(s: float, delta: float, m1: float = 0.0) -> float:
    """Predicted power of 1/T in log C_T: (1+delta)(2 m1 s + 1)/(2s - 1 - delta).

    For the pure fractional flow the dissipation has no blow-up factor, so
    m1 = 0 is the faithful instantiation.
    """
    if not 0 <= delta < 2 * s - 1:
        raise ValueError("δ < 2s−1 required")
    return (1.0 + delta) * (2.0 * m1 * s + 1.0) / (2.0 * s - 1.0 - delta)


@dataclass(frozen=True)
class ObservabilityReport:
    """Best observability constants over a horizon grid, with a blow-up fit.

    C_T_lower[i] is the sharpest constant on the span at horizon T[i];
    (fit_C, fit_kappa) fit log C_T ~ fit_C / T^fit_kappa over the grid
    points with C_T > 1, and reference_exponent is the predicted kappa.
    """

    T: tuple
    N: int
    C_T_lower: tuple
    fit_C: float | None
    fit_kappa: float | None
    reference_exponent: float
    nonincreasing: bool


def _c_t_single(T: float, G: np.ndarray, lam: np.ndarray) -> float:
    from scipy.linalg import solve_triangular

    Q = G * _exact_kernel(lam, lam, T)
    Q = (Q + Q.T) / 2.0
    try:
        L = np.linalg.cholesky(Q)
    except np.linalg.LinAlgError as exc:
        raise ControlError(f"observation form singular at T={T:g}") from exc
    # whiten: C_T = lambda_max(L^{-1} e^{-2T Lambda} L^{-T})
    E = np.exp(-2.0 * T * lam)
    X = solve_triangular(L, np.diag(np.sqrt(E)), lower=True)
    return float(np.linalg.eigvalsh(X @ X.T)[-1])


def observability_lower_bound(T, N: int, omega, spec: EvolutionSpec) -> ObservabilityReport:
    """Sharp observability constant(s) of the degree-N span on a horizon grid.

    T may be a single horizon or a grid. Each constant solves the
    generalized eigenproblem between the integrated observation form and
    the squared terminal propagator. When the grid has at least two points
    with C_T > 1, log log C_T is regressed on log T to expose the blow-up
    power, reported next to the predicted exponent (never asserted).
    """
    Ts = np.atleast_1d(np.asarray(T, dtype=np.float64))
    if np.any(Ts <= 0):
        raise ValueError("horizons must be positive")
    G = _gram_block(omega, N, spec)
    lam = spec.eigenvalues(N)
    values = [_c_t_single(float(t), G, lam) for t in Ts]
    nonincr = bool(np.all(np.diff(values) <= 1e-9 * np.maximum(values[:-1], 1.0)))
    mask = np.array(values) > 1.0
    fit_C = fit_kappa = None
    if int(np.sum(mask)) >= 2:
        lx = np.log(Ts[mask])
        ly = np.log(np.log(np.array(values)[mask]))
        slope, intercept = np.polyfit(lx, ly, 1)
        fit_kappa = float(-slope)
        fit_C = float(math.exp(intercept))
    return ObservabilityReport(
        T=tuple(float(t) for t in Ts),
        N=N,
        C_T_lower=tuple(values),
        fit_C=fit_C,
        fit_kappa=fit_kappa,
        reference_exponent=reference_blowup_exponent(spec.s, 0.0),
        nonincreasing=nonincr,
    )
