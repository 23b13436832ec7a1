"""Output checks made apart from hermlab.

Every function here takes what hermlab returned plus data the benchmark built
itself, and returns a list of failure messages (empty when the output
passes). None of them calls into hermlab: references are built by the
workloads from independent routes (the 1-D Gram path, scipy, closed forms)
and handed in.
"""

import math

import numpy as np
import scipy.linalg
from scipy.spatial import cKDTree

EPS = np.finfo(np.float64).eps


def _norm2(A: np.ndarray) -> float:
    return float(np.linalg.norm(A, 2)) if A.size else 0.0


def complement_law(G: np.ndarray, G_complement: np.ndarray, tol: float) -> list:
    """G(omega) + G(complement of omega) must be the identity."""
    dev = float(np.max(np.abs(G + G_complement - np.eye(G.shape[0]))))
    return [] if dev <= tol else [f"G(omega)+G(complement) off the identity by {dev:.3e} > {tol:.1e}"]


def gram_matches(G: np.ndarray, G_ref: np.ndarray, tol: float) -> list:
    """Entrywise agreement of an assembled Gram with its reference."""
    if G.shape != G_ref.shape:
        return [f"Gram shape {G.shape} != reference {G_ref.shape}"]
    dev = float(np.max(np.abs(G - G_ref)))
    return [] if dev <= tol else [f"Gram off its reference by {dev:.3e} > {tol:.1e}"]


def lambda_weyl(lam: float, G: np.ndarray, G_ref: np.ndarray) -> list:
    """Reported lambda_min against eigvalsh of the reference, by Weyl's bound.

    |lambda - lambda_min(G_ref)| <= ||G - G_ref||_2 + m eps ||G_ref||_2, with
    m the matrix size as the backward-error constant of a dense eigensolve.
    """
    ref = float(np.linalg.eigvalsh(G_ref)[0])
    bound = _norm2(G - G_ref) + G_ref.shape[0] * EPS * _norm2(G_ref)
    err = abs(lam - ref)
    if err <= bound:
        return []
    return [f"lambda_min {lam:.6e} vs reference {ref:.6e}: error {err:.3e} > Weyl bound {bound:.3e}"]


def lambda_1d(lam: float, G: np.ndarray) -> list:
    """lambda_min >= 0 and within m eps ||G|| of eigvalsh(G)."""
    out = []
    if not lam >= 0.0:
        out.append(f"lambda_min {lam:.3e} negative")
    ref = float(np.linalg.eigvalsh(G)[0])
    bound = G.shape[0] * EPS * _norm2(G)
    if abs(lam - ref) > bound:
        out.append(f"lambda_min {lam:.6e} vs eigvalsh {ref:.6e} beyond {bound:.3e}")
    return out


def rayleigh_certificate(lam: float, vec: np.ndarray, B: np.ndarray) -> list:
    """lambda_min must be the Rayleigh quotient ||B v||^2 / ||v||^2 of its extremizer.

    The check keeps its meaning far below eps ||G||, where eigvalsh cannot
    resolve lambda_min: Bv is formed to within cols * eps * s_max.
    """
    v = np.asarray(vec, dtype=np.float64)
    q = float(np.sum((B @ v) ** 2) / (v @ v))
    sigma_max = float(np.linalg.norm(B, 2))
    bound = svd_lambda_error(max(lam, q), sigma_max, B.shape[1])
    if abs(q - lam) <= bound:
        return []
    return [f"lambda_min {lam:.6e} is not the Rayleigh quotient {q:.6e} of its extremizer (bound {bound:.3e})"]


def constant_matches(C: float, lam: float) -> list:
    """C_N is lambda_min^{-1/2}."""
    want = lam ** -0.5 if lam > 0 else math.inf
    return [] if math.isclose(C, want, rel_tol=1e-12) else [f"C_N {C:.6e} != lambda^-1/2 {want:.6e}"]


def svd_lambda_error(lam: float, sigma_max: float, cols: int) -> float:
    """Error bound on lambda = s_min^2 when each singular value is within cols*eps*s_max."""
    ds = cols * EPS * sigma_max
    return (math.sqrt(max(lam, 0.0)) + ds) ** 2 - max(lam, 0.0)


def nondecreasing(Ns, Cs, lam_errs) -> list:
    """C_N may not fall along a scan of nested spans (interlacing).

    lambda_min(G_{N'}) <= lambda_min(G_N) for N' > N, so C_N can only rise;
    a fall is accepted only inside the two lambda error bounds.
    """
    out = []
    for i in range(1, len(Ns)):
        lam_prev = Cs[i - 1] ** -2.0
        lam_next = Cs[i] ** -2.0
        if lam_next > lam_prev + lam_errs[i - 1] + lam_errs[i]:
            out.append(
                f"C_N falls from N={Ns[i - 1]} ({Cs[i - 1]:.6e}) to N={Ns[i]} ({Cs[i]:.6e})"
            )
    return out


def growth_fit_matches(Ns, Cs, epsilon: float, slope: float, intercept: float) -> list:
    """The fit of log C_N on N^{1-eps/2} against an independent least squares."""
    x = np.asarray(Ns, dtype=np.float64) ** (1.0 - epsilon / 2.0)
    A = np.column_stack([np.ones_like(x), x])
    (a, b), *_ = np.linalg.lstsq(A, np.log(np.asarray(Cs, dtype=np.float64)), rcond=None)
    if math.isclose(slope, b, rel_tol=1e-8, abs_tol=1e-12) and math.isclose(
        intercept, a, rel_tol=1e-8, abs_tol=1e-12
    ):
        return []
    return [f"growth fit ({intercept:.6e}, {slope:.6e}) != lstsq ({a:.6e}, {b:.6e})"]


# -- control -----------------------------------------------------------------


def replay_terminal(lam: np.ndarray, G: np.ndarray, f0: np.ndarray, stage_data, T: float) -> np.ndarray:
    """Terminal state of f' = -Lambda f + G[:, :m] u under the returned stage data.

    On a stage (t0, tau, level, mu) the control is u(t) = -G_lo z(t) with
    z(t) = e^{-(tau - (t - t0)) Lambda_lo} mu, so z' = Lambda_lo z and
    [f; z]' = [[-Lambda, -G[:, :m] G_lo], [0, Lambda_lo]] [f; z]; the stage is
    one matrix exponential of that augmented system. Gaps are free decay.
    """
    M = lam.size
    state = np.asarray(f0, dtype=np.float64).copy()
    cursor = 0.0
    for t0, tau, level, mu in stage_data:
        state = np.exp(-(t0 - cursor) * lam) * state
        m = int(level) + 1
        A = np.zeros((M + m, M + m))
        A[:M, :M] = -np.diag(lam)
        A[:M, M:] = -G[:, :m] @ G[:m, :m]
        A[M:, M:] = np.diag(lam[:m])
        z0 = np.exp(-tau * lam[:m]) * np.asarray(mu)
        state = (scipy.linalg.expm(tau * A) @ np.concatenate([state, z0]))[:M]
        cursor = t0 + tau
    return np.exp(-(T - cursor) * lam) * state


def control_law(terminal: np.ndarray, f0: np.ndarray, tol: float, windows, T: float, total_cost: float) -> list:
    """Replayed terminal state small, stage windows tiling [0, T], cost finite and positive.

    Stage j owns the dyadic window of length T / 2^{j+1}; windows follow each
    other from 0 and the free remainder after the last one closes [0, T].
    """
    out = []
    f0n = float(np.linalg.norm(f0))
    res = float(np.linalg.norm(terminal))
    if not res <= tol * f0n:
        out.append(f"replayed terminal state {res:.3e} > {tol:g} * ||f0|| ({f0n:.3e})")
    cursor = 0.0
    for j, (a, b) in enumerate(windows):
        if not (math.isclose(a, cursor, abs_tol=1e-12 * T) and math.isclose(b - a, T / 2 ** (j + 1), rel_tol=1e-12)):
            out.append(f"stage {j} window [{a}, {b}] does not continue the dyadic tiling at {cursor}")
            break
        cursor = b
    if not cursor <= T * (1 + 1e-12):
        out.append(f"stage windows end at {cursor} beyond T={T}")
    if not (math.isfinite(total_cost) and total_cost > 0):
        out.append(f"total_cost {total_cost!r} not finite and positive")
    return out


# -- geometry ----------------------------------------------------------------


def box_grid(box, step: float) -> np.ndarray:
    """The verification grid of a covering: ceil(width / step) cells per axis."""
    axes = [np.linspace(lo, hi, max(int(math.ceil((hi - lo) / step)), 1) + 1) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def covering_law(grid, grid_radii, centers, radii, max_multiplicity: int, overlap_bound: int) -> list:
    """Coverage, multiplicity, disjoint third-radius cores, and maximality.

    grid_radii is the density at each grid point. Multiplicity is recounted
    with a KD-tree on the grid. The greedy rule keeps a candidate iff it is
    at least (r + r')/3 from every kept center, so the kept cores are
    disjoint and every candidate left out lies strictly inside that distance
    of some kept center; a covering missing one of its balls breaks the
    second law at that ball's center.
    """
    out = []
    grid = np.asarray(grid, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, grid.shape[1])
    radii = np.asarray(radii, dtype=np.float64)
    if centers.shape[0] == 0:
        return ["covering has no balls"]
    hits = cKDTree(grid).query_ball_point(centers, r=radii)
    counts = np.bincount(np.concatenate([np.asarray(h, dtype=np.int64) for h in hits]), minlength=grid.shape[0])
    holes = int(np.sum(counts == 0))
    if holes:
        out.append(f"{holes} grid points uncovered")
    if int(counts.max()) != max_multiplicity:
        out.append(f"recounted max multiplicity {int(counts.max())} != reported {max_multiplicity}")
    if max_multiplicity > overlap_bound:
        out.append(f"max multiplicity {max_multiplicity} > overlap bound {overlap_bound}")

    rmax = float(radii.max())
    pairs = cKDTree(centers).query_pairs(r=2.0 * rmax / 3.0, output_type="ndarray")
    if pairs.size:
        d = np.sqrt(((centers[pairs[:, 0]] - centers[pairs[:, 1]]) ** 2).sum(axis=1))
        close = int(np.sum(d < (radii[pairs[:, 0]] + radii[pairs[:, 1]]) / 3.0))
        if close:
            out.append(f"{close} pairs of third-radius cores overlap")

    near = cKDTree(centers).query_ball_point(grid, r=(grid_radii + rmax) / 3.0)
    lonely = 0
    for i, idx in enumerate(near):
        idx = np.asarray(idx, dtype=np.int64)
        d = np.sqrt(((centers[idx] - grid[i]) ** 2).sum(axis=1))
        if not np.any(d < (radii[idx] + grid_radii[i]) / 3.0):
            lonely += 1
    if lonely:
        out.append(f"{lonely} candidates are separated from every kept center (selection not maximal)")
    return out


def slab_measure(dim: int, center, radius: float, slabs) -> float:
    """|B(center, radius) cap {x : x_last in some slab}| for disjoint slabs.

    2-D: circular-segment areas, the integral of 2 sqrt(r^2 - t^2) dt.
    3-D: spherical caps, the integral of pi (r^2 - t^2) dt.
    """
    c = float(np.asarray(center, dtype=np.float64)[-1])
    r = float(radius)

    def primitive(u: float) -> float:
        t = min(max(u - c, -r), r)
        if dim == 2:
            return t * math.sqrt(max(r * r - t * t, 0.0)) + r * r * math.asin(t / r)
        if dim == 3:
            return math.pi * (r * r * t - t**3 / 3.0)
        raise ValueError(f"dimension {dim} has no closed form here")

    return math.fsum(primitive(b) - primitive(a) for a, b in slabs)


def ball_volume(dim: int, radius: float) -> float:
    return {2: math.pi * radius**2, 3: 4.0 / 3.0 * math.pi * radius**3}[dim]


def measure_matches(measured: float, exact: float, volume: float, rel_tol: float) -> list:
    """A quadrature measure within rel_tol of the ball's volume of the closed form."""
    err = abs(measured - exact)
    if err <= rel_tol * volume:
        return []
    return [f"measure {measured:.9e} vs closed form {exact:.9e}: error {err:.3e} > {rel_tol:g} * |B|"]
