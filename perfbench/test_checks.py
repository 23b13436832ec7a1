"""The benchmark's checkers against planted errors, so that none passes vacuously.

Each test runs hermlab on a small input, shows that the checker accepts the
true output, then plants one error and shows that the checker rejects it.

    python3 -m pytest -q perfbench/test_checks.py
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from hermlab import control, geometry, spectral  # noqa: E402
from hermlab.hermite import HermiteExpansion  # noqa: E402
from hermlab.semigroup import EvolutionSpec  # noqa: E402


@pytest.fixture(scope="module")
def periodic_2d():
    """A 2-D Gram at N=6 with its tensor-product reference."""
    N = 6
    G = spectral.gram_matrix(workloads.PERIODIC_2D, N)
    G1 = spectral.gram_matrix(workloads.PERIODIC_1D, N).entries
    a = workloads._total_degree_pairs(N)
    G_ref = G1[a[:, :1], a[:, 0]] * G1[a[:, 1:], a[:, 1]]
    return np.array(G.entries), G_ref


def test_perturbed_gram_entry_is_caught(periodic_2d):
    G, G_ref = periodic_2d
    assert checks.gram_matches(G, G_ref, workloads.FAIL_TOL) == []
    bad = G.copy()
    bad[3, 5] += 1e-6
    assert checks.gram_matches(bad, G_ref, workloads.FAIL_TOL)


def test_perturbed_gram_breaks_complement_law():
    G = spectral.gram_matrix(workloads.PERIODIC_1D, 20).entries
    Gc = spectral.gram_matrix(workloads.PERIODIC_1D_COMPLEMENT, 20).entries
    assert checks.complement_law(G, Gc, workloads.FAIL_TOL) == []
    bad = np.array(G)
    bad[7, 2] += 1e-6
    assert checks.complement_law(bad, Gc, workloads.FAIL_TOL)


def test_wrong_lambda_min_is_caught(periodic_2d):
    G, G_ref = periodic_2d
    lam = float(np.linalg.eigvalsh(G_ref)[0])
    assert checks.lambda_weyl(lam, G, G_ref) == []
    assert checks.lambda_weyl(lam * 1.01, G, G_ref)
    assert checks.lambda_weyl(float(np.linalg.eigvalsh(G_ref)[1]), G, G_ref)


def test_wrong_lambda_min_1d_is_caught():
    gram = spectral.gram_matrix(workloads.PERIODIC_1D, 40)
    res = spectral.spectral_constant(gram)
    G, B = gram.entries, gram.factor
    assert checks.lambda_1d(res.lambda_min, G) == []
    assert checks.lambda_1d(res.lambda_min + 1e-9, G)
    assert checks.lambda_1d(-1e-30, G)
    # lambda_min is ~1e-20 here, far below what eigvalsh resolves
    assert checks.rayleigh_certificate(res.lambda_min, res.extremizer, B) == []
    assert checks.rayleigh_certificate(res.lambda_min * 1.01, res.extremizer, B)
    assert checks.constant_matches(res.constant, res.lambda_min) == []
    assert checks.constant_matches(res.constant * 1.001, res.lambda_min)


def test_falling_constant_is_caught():
    Ns, Cs = [25, 50, 75], [10.0, 40.0, 200.0]
    assert checks.nondecreasing(Ns, Cs, [0.0] * 3) == []
    assert checks.nondecreasing(Ns, [10.0, 40.0, 39.0], [1e-20] * 3)


def _small_covering():
    rho = geometry.DensityFn.constant(1.0)
    box = ((-3.0, 3.0), (-3.0, 3.0))
    cov = geometry.covering_generate(rho, list(box))
    grid = checks.box_grid(box, cov.grid_step)
    return cov, grid, np.full(grid.shape[0], 1.0)


def test_covering_with_one_ball_removed_is_caught():
    cov, grid, grid_radii = _small_covering()
    args = (cov.max_multiplicity, cov.overlap_bound)
    assert checks.covering_law(grid, grid_radii, cov.centers, cov.radii, *args) == []
    for drop in (0, len(cov.radii) // 2, len(cov.radii) - 1):
        keep = np.arange(len(cov.radii)) != drop
        assert checks.covering_law(grid, grid_radii, cov.centers[keep], cov.radii[keep], *args)


def test_covering_with_wrong_multiplicity_is_caught():
    cov, grid, grid_radii = _small_covering()
    assert checks.covering_law(grid, grid_radii, cov.centers, cov.radii, cov.max_multiplicity + 1, cov.overlap_bound)
    assert checks.covering_law(grid, grid_radii, cov.centers, cov.radii, cov.max_multiplicity, cov.max_multiplicity - 1)


def test_control_with_large_terminal_state_is_caught():
    N, s, T = 12, 0.75, 1.0
    rng = np.random.default_rng(3)
    c = rng.standard_normal(N + 1)
    f0 = HermiteExpansion(1, N, c / np.linalg.norm(c))
    p = control.ControlProblem(T=T, omega=workloads.CONTROL_SET, spec=EvolutionSpec(s=s, dim=1), N=N, f0=f0)
    signal, trace = control.lebeau_robbiano_synthesize(p, tol=workloads.CONTROL_TOL)
    G = spectral.gram_matrix(workloads.CONTROL_SET, N).entries
    lam = (2.0 * np.arange(N + 1) + 1.0) ** s
    windows = [tuple(st["interval"]) for st in trace["stages"]]

    def law(stage_data, windows=windows, cost=signal.total_cost):
        terminal = checks.replay_terminal(lam, G, f0.coeffs, stage_data, T)
        return checks.control_law(terminal, f0.coeffs, workloads.CONTROL_TOL, windows, T, cost)

    assert law(signal.stage_data) == []
    weak = [(t0, tau, level, mu * (1 - 1e-3)) for t0, tau, level, mu in signal.stage_data]
    assert law(weak)
    assert law(signal.stage_data[:-1])
    assert law(signal.stage_data, windows=windows[1:])
    assert law(signal.stage_data, cost=float("nan"))


def test_measure_off_by_1e3_is_caught():
    for dim, across, r, tol in workloads.PROBES[:2]:
        omega = workloads._slab_set(dim)
        center = np.append(np.full(dim - 1, 0.7), across)
        m = geometry.intersection_measure(omega, center, r, tol)
        exact = checks.slab_measure(dim, center, r, workloads.SLABS)
        vol = checks.ball_volume(dim, r)
        assert checks.measure_matches(m, exact, vol, tol) == []
        assert checks.measure_matches(m + 1e-3, exact, vol, tol)
        assert checks.measure_matches(m * (1 - 1e-3), exact, vol, tol)


def test_slab_closed_forms():
    # whole ball inside one slab, and half a ball cut at its equator
    assert checks.slab_measure(2, (0.0, 0.0), 1.0, [(-2.0, 2.0)]) == pytest.approx(np.pi)
    assert checks.slab_measure(3, (0.0, 0.0, 0.0), 1.0, [(0.0, 5.0)]) == pytest.approx(2 * np.pi / 3)


def test_workload_check_flags_a_planted_spectral_error():
    w = workloads.Spectral1D(0)
    w.sets["periodic"] = (*w.sets["periodic"][:2], range(25, 76, 25))
    rows, fit = w._scan("periodic")
    assert w.check("periodic-scan", (rows, fit)) == []
    N, G, res = rows[1]
    rows[1] = (N, G, dataclasses.replace(res, lambda_min=res.lambda_min * 2, constant=(res.lambda_min * 2) ** -0.5))
    assert w.check("periodic-scan", (rows, fit))
