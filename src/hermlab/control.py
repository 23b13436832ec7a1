"""Constructive null control of the truncated fractional-oscillator flow.

The state is the coefficient vector of an expansion in the degree-N span,
evolving by f' = -Lambda f + G u: Lambda is the diagonal of (2|alpha|+n)^s
and the actuator G is the sensor-set Gram matrix, i.e. the control enters
only through the projection of 1_omega u onto the span. Minimal-energy
controls come from the controllability Gramian W = int_0^tau E(t) G^2 E(t) dt
(E the diagonal propagator) via the closed form u(t) = -G E(tau - t) mu,
mu = W^{-1} E(tau) g; dyadic alternation of such controls on growing level
blocks with free dissipation in between steers any initial state to zero.
lebeau_robbiano_synthesize is the one control entry point: every stage goes
through one solver, and the terminal check through one Duhamel-quadrature
replay that never uses the closed-form stage kernel.

Observability is estimated on the same span: the best constant C_T with
||f(T)||^2 <= C_T int_0^T ||f(t)||^2_{L2(omega)} dt solves a generalized
eigenproblem between the time-integrated observation form and the squared
terminal propagator, computed through a Cholesky-whitened eigensolve so the
e^{-2T Lambda} underflow never meets an explicit inverse.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import indexing
from .geometry import ControlSet
from .hermite import HermiteExpansion
from .quadrature import gauss_legendre
from .semigroup import EvolutionSpec
from .spectral import gram_matrix

__all__ = [
    "ControlError",
    "ControlProblem",
    "ControlSignal",
    "lebeau_robbiano_synthesize",
    "ObservabilityReport",
    "observability_lower_bound",
    "reference_blowup_exponent",
]

CONDITION_CAP = 1e12


class ControlError(RuntimeError):
    """A stage Gramian or observation form is unusable, or the terminal residual misses tol."""


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
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError("horizon T must be finite and positive")
        if self.N < 0:
            raise ValueError("truncation degree must be non-negative")
        if self.f0.dim != self.spec.dim:
            raise ValueError("initial state dimension mismatch")
        if self.f0.degree > self.N:
            raise ValueError("initial state must lie in the degree-N span")
        _check_dim(self.omega, self.spec)
        reference_blowup_exponent(self.spec.s, self.delta)  # raises unless 0 <= δ < 2s−1


@dataclass(frozen=True)
class ControlSignal:
    """Piecewise control given by its exact stage data.

    stage_data rows hold (t_start, tau, level, mu) with
    u(t) = -G_lo E_lo(tau - (t - t_start)) mu on the stage's controlled
    window [t_start, t_start + tau] and zero elsewhere. total_cost is the
    control energy int ||u||^2 dt, summed over stages from the duality form
    gᵀE(tau)W⁻¹E(tau)g; condition is the worst stage Gramian condition.
    """

    total_cost: float
    condition: float
    stage_data: tuple


def _check_dim(omega, spec: EvolutionSpec):
    if omega.dim != spec.dim:
        raise ValueError(f"sensor set has dim {omega.dim}, spec has dim {spec.dim}")


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


def _replay(G: np.ndarray, lam: np.ndarray, dim: int, state: np.ndarray, stage_data, T: float) -> float:
    """Terminal norm at time T of f' = -Lambda f + G u from state under the stage controls.

    Each stage's forcing goes through Duhamel quadrature at 256 Gauss nodes,
    with the control u(t) = -G_lo E_lo(tau - (t - t0)) mu rebuilt at every
    node; between and after the stages the flow is propagated exactly. It
    never uses the closed-form kernel of the synthesis, so it checks it.
    """
    x, w = gauss_legendre(256)
    cursor = 0.0
    for t0, tau, level, mu in stage_data:
        state = np.exp(-(t0 - cursor) * lam) * state
        m = indexing.span_dim(dim, level)
        lag = tau / 2.0 * (1.0 - x)  # t0 + tau - t at the nodes
        U = G[:m, :m] @ (np.exp(-lam[:m, None] * lag[None, :]) * mu[:, None])
        forced = np.exp(-lam[:, None] * lag[None, :]) * (G[:, :m] @ U)
        state = np.exp(-tau * lam) * state - forced @ (tau / 2.0 * w)
        cursor = t0 + tau
    return float(np.linalg.norm(np.exp(-(T - cursor) * lam) * state))


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
    One Gram assembly serves every stage and the replay.

    Returns (ControlSignal, trace); the trace dict carries per-stage
    {interval, level, cost, residual}, the total cost, the terminal
    residual, and verified_residual, the terminal norm of the independent
    Duhamel-quadrature replay (_replay).
    """
    spec = problem.spec
    N = problem.N
    lam = spec.eigenvalues(N)
    f0 = state = problem.f0.with_degree(N).coeffs.astype(np.float64)
    f0_norm = float(np.linalg.norm(f0))
    Gfull = np.asarray(gram_matrix(problem.omega, N).entries)

    stages = []
    stage_data = []
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
                    raise ControlError(f"stage {j}: Gramian unusable even at level 0")
                eff_level //= 2
        worst_condition = max(worst_condition, condition)

        # exact effect of the stage control on every mode of the span:
        # terminal += -(G[:, :m] E_lo(tau - t) mu) propagated, which separates
        # into the same entrywise kernel as the Gramian itself
        M = (Gfull[:, :m] @ Gfull[:m, :m]) * _exact_kernel(lam, lam[:m], tau)
        new_state = np.exp(-tau * lam) * state
        new_state -= M @ mu
        low_resid = float(np.linalg.norm(new_state[:m]))

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

    if f0_norm > 0 and terminal_residual > tol * f0_norm:
        raise ControlError(f"terminal residual {terminal_residual:.3e} exceeds {tol:g} ||f0||")
    signal = ControlSignal(total_cost, worst_condition, tuple(stage_data))
    trace = {
        "stages": stages,
        "total_cost": total_cost,
        "terminal_residual": terminal_residual,
        "verified_residual": _replay(Gfull, lam, spec.dim, f0, signal.stage_data, problem.T),
    }
    return signal, trace


# -- observability ------------------------------------------------------------


# The blow-up exponent m1 of the dissipation estimate: the pure fractional
# flow has no blow-up factor, so m1 = 0 is the faithful instantiation.
_M1 = 0.0


def reference_blowup_exponent(s: float, delta: float) -> float:
    """Predicted power of 1/T in log C_T: (1+delta)(2 m1 s + 1)/(2s - 1 - delta)."""
    if not 0 <= delta < 2 * s - 1:
        raise ValueError("δ < 2s−1 required")
    return (1.0 + delta) * (2.0 * _M1 * s + 1.0) / (2.0 * s - 1.0 - delta)


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
    if not np.all(np.isfinite(Ts) & (Ts > 0)):
        raise ValueError("horizons must be finite and positive")
    _check_dim(omega, spec)
    G = np.asarray(gram_matrix(omega, N).entries)
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
