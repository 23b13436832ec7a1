"""End-to-end acceptance checks.

Each test prints exactly one verdict line, so running
`pytest tests/test_acceptance.py -s` doubles as the acceptance report.
"""

import json
import math
import time

import numpy as np
import pytest

from hermlab import bernstein, cli, control, geometry, semigroup, spectral, symbols
from hermlab.hermite import basis_state, random_expansion
from hermlab.semigroup import EvolutionSpec


def _verdict(num, label, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{mark}] {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def test_criterion_01_orthonormality():
    t0 = time.monotonic()
    G = spectral.gram_matrix(geometry.FullSpace(1), 40)
    dev = float(np.max(np.abs(G.entries - np.eye(G.size))))
    elapsed = time.monotonic() - t0
    ok = dev <= 1e-8 and elapsed <= 10.0
    _verdict(1, "full-space pairing is the identity", ok, f"max dev {dev:.2e}, {elapsed:.2f}s")


def test_criterion_02_half_line_closed_form():
    closed = (0.5 - (2.0 * math.pi) ** -0.5) ** -0.5
    omega = geometry.interval_union([(0.0, math.inf)])
    got = spectral.spectral_constant(spectral.gram_matrix(omega, 1)).constant
    ok = abs(got - closed) <= 1e-8
    _verdict(2, "half-line restriction constant", ok, f"|Δ| = {abs(got - closed):.2e}")


def test_criterion_03_growth_scaling_law():
    results = []
    ok = True
    for eps, R in ((0.5, 1.0), (0.75, 1.0), (1.0, 2.0)):
        t0 = time.monotonic()
        rho = geometry.DensityFn.power(R, eps)
        omega = geometry.graded_cells(rho, gamma=0.5, extent=30.0)
        pairs = []
        for N in range(10, 121, 10):
            res = spectral.spectral_constant(spectral.gram_matrix(omega, N))
            pairs.append((N, res.constant))
        fit = spectral.growth_fit(pairs, eps)
        elapsed = time.monotonic() - t0
        results.append(f"eps={eps:g}: slope {fit.slope:.4f} ± {fit.slope_err:.4f}, r2={fit.r2:.4f} in {elapsed:.1f}s")
        ok = ok and fit.r2 >= 0.95 and elapsed <= 300.0
    _verdict(3, "log C_N fits N^(1-eps/2)", ok, "; ".join(results))


def test_criterion_04_derivative_bounds():
    violations = 0
    worst = 0.0
    for N in (5, 15, 30):
        for a in range(7):
            for b in range(7 - a):
                chk = bernstein.crude_bernstein_check(1, N, (a,), (b,))
                worst = max(worst, chk.ratio)
                if chk.ratio > 1.0 + 1e-10:
                    violations += 1
    _verdict(4, "crude derivative bound never violated", violations == 0,
             f"{violations} violations, max ratio {worst:.12f}")


def test_criterion_05_operator_expansion():
    rng = np.random.default_rng(505)
    ok = True
    worst_rel = 0.0
    for dim in (1, 2):
        for k in range(1, 6):
            op = bernstein.harmonic_power_expand(k, dim)
            for (alpha, beta), c in op.terms.items():
                if abs(c) > op.coefficient_bound(alpha, beta) * (1 + 1e-12):
                    ok = False
            f = random_expansion(rng, dim=dim, degree=10)
            direct = bernstein.iterated_oscillator_apply(f, k)
            via = op.apply(f)
            rel = float(
                np.linalg.norm(via.coeffs - direct.coeffs) / np.linalg.norm(direct.coeffs)
            )
            worst_rel = max(worst_rel, rel)
            ok = ok and rel <= 1e-9
    _verdict(5, "oscillator powers expand exactly", ok, f"worst rel dev {worst_rel:.2e}")


def test_criterion_06_dissipation_sharpness():
    rng = np.random.default_rng(606)
    worst_gap = 0.0
    worst_ratio = 0.0
    for s in (0.6, 1.0):
        spec = EvolutionSpec(s=s, dim=1)
        for k in range(0, 9):
            pure = basis_state(1, k + 1, (k + 1,))
            for t in (0.01, 0.1, 1.0):
                rep = semigroup.dissipation_tail(pure, k=k, t=t, spec=spec)
                worst_gap = max(worst_gap, abs(rep.tail_norm - rep.bound))
        for _ in range(50):
            f = random_expansion(rng, dim=1, degree=9)
            k = int(rng.integers(0, 9))
            t = float(rng.uniform(0.01, 1.0))
            rep = semigroup.dissipation_tail(f, k=k, t=t, spec=spec)
            if rep.bound > 0:
                worst_ratio = max(worst_ratio, rep.tail_norm / rep.bound)
    ok = worst_gap <= 1e-12 and worst_ratio <= 1.0 + 1e-12
    _verdict(6, "pure-mode decay saturates its bound", ok,
             f"gap {worst_gap:.2e}, worst ratio {worst_ratio:.12f}")


def test_criterion_07_semigroup_law():
    rng = np.random.default_rng(707)
    spec = EvolutionSpec(s=0.8, dim=1)
    worst = 0.0
    for _ in range(100):
        f = random_expansion(rng, dim=1, degree=10)
        t1, t2 = rng.uniform(0.01, 2.0, size=2)
        a = semigroup.evolve(semigroup.evolve(f, t1, spec), t2, spec)
        b = semigroup.evolve(f, t1 + t2, spec)
        worst = max(worst, float(np.max(np.abs(a.coeffs - b.coeffs))))
    _verdict(7, "two-step evolution equals one step", worst <= 1e-12, f"max gap {worst:.2e}")


def test_criterion_08_covering():
    t0 = time.monotonic()
    cov = geometry.covering_generate(geometry.DensityFn.power(1.0, 0.5), [(-20.0, 20.0)])
    centers = cov.centers[:, 0]
    radii = cov.radii
    disjoint = all(
        abs(centers[i] - centers[j]) >= (radii[i] + radii[j]) / 3.0
        for i in range(len(radii))
        for j in range(i + 1, len(radii))
    )
    grid = np.linspace(-20.0, 20.0, 10_000)
    dist = np.abs(grid[:, None] - centers[None, :])
    covered = bool(np.all((dist <= radii[None, :]).any(axis=1)))
    elapsed = time.monotonic() - t0
    ok = disjoint and covered and cov.max_multiplicity <= 33 and elapsed <= 30.0
    _verdict(8, "graded covering is thin and complete", ok,
             f"{len(radii)} balls, multiplicity {cov.max_multiplicity}, {elapsed:.2f}s")


def test_criterion_09_thickness_transfer():
    omega = geometry.PeriodicPattern(dim=1, period=1.0, kept=0.9)
    rep = geometry.thickness_transfer_check(
        omega,
        geometry.DensityFn.constant(1.0),
        geometry.DensityFn.constant(2.0),
        gamma=0.9,
        centers=np.linspace(-12.0, 12.0, 100),
    )
    ok = rep.hypothesis_ok and rep.measured >= 0.4 - 1e-3
    _verdict(9, "thickness survives the doubled scale", ok,
             f"measured {rep.measured:.4f} vs predicted {rep.predicted:.4f}")


def test_criterion_10_singular_space_catalog():
    expected = {
        "harmonic": (0, 0),
        "rotated-harmonic": (0, 0),
        "free-laplacian": (1, None),
        "kramers-fokker-planck": (0, 1),
    }
    got = {}
    for name, q in symbols.catalog().items():
        res = symbols.singular_space(symbols.hamilton_map(q))
        got[name] = (res.dimS, res.k0)
    ok = got == expected
    _verdict(10, "singular-space catalog matches the exact oracle", ok, str(got))


def test_criterion_11_null_control_end_to_end():
    t0 = time.monotonic()
    rng = np.random.default_rng(1111)
    stripes = geometry.PeriodicPattern(dim=1, period=2.0, kept=0.5)
    spec = EvolutionSpec(s=1.0, dim=1)
    f0 = random_expansion(rng, dim=1, degree=25)
    unit = control.ControlProblem(T=1.0, omega=stripes, spec=spec, N=25, f0=f0)
    signal, trace = control.lebeau_robbiano_synthesize(unit)
    short = control.ControlProblem(T=0.25, omega=stripes, spec=spec, N=25, f0=f0)
    _, trace_short = control.lebeau_robbiano_synthesize(short)
    elapsed = time.monotonic() - t0
    rel = trace["terminal_residual"] / f0.norm()
    rel_v = trace["verified_residual"] / f0.norm()
    ratio = trace_short["total_cost"] / trace["total_cost"]
    ok = rel <= 1e-6 and rel_v <= 1e-6 and ratio > 1.0 and elapsed <= 120.0
    _verdict(11, "dyadic synthesis reaches zero", ok,
             f"residual {rel:.2e} (verified {rel_v:.2e}), cost ratio {ratio:.1f}, {elapsed:.1f}s")


def test_criterion_12_observability_blowup():
    stripes = geometry.PeriodicPattern(dim=1, period=2.0, kept=0.5)
    spec = EvolutionSpec(s=1.0, dim=1)
    Ts = [0.1, 0.2, 0.4, 0.8, 1.6]
    rep = control.observability_lower_bound(Ts, 10, stripes, spec)
    ok = rep.nonincreasing and rep.fit_kappa is not None and rep.fit_kappa > 0
    _verdict(12, "observability constant blows up as T shrinks", ok,
             f"fitted kappa {rep.fit_kappa:.3f} ± {rep.kappa_err:.3f}, reference exponent {rep.reference_exponent:.3f}"
             " (reported, not asserted)")


def test_criterion_13_determinism(tmp_path):
    cfg = {
        "kind": "spectral-scan",
        "seed": 0,
        "parameters": {
            "N_values": list(range(10, 121, 10)),
            "epsilon": 0.5,
            "omega": {
                "type": "graded",
                "density": {"kind": "power", "R": 1.0, "eps": 0.5},
                "gamma": 0.5,
                "extent": 30.0,
            },
        },
        "acceptance": [{"metric": "fit_r2", "op": ">=", "value": 0.95}],
    }
    m1 = cli.run(cfg, out_override=str(tmp_path / "a"))
    m2 = cli.run(cfg, out_override=str(tmp_path / "b"))
    b1 = (tmp_path / "a" / "spectral.csv").read_bytes()
    b2 = (tmp_path / "b" / "spectral.csv").read_bytes()
    ok = b1 == b2 and m1["acceptance"]["passed"] and m2["acceptance"]["passed"]
    _verdict(13, "same config and seed, same bytes", ok,
             f"{len(b1)} CSV bytes, hashes {'equal' if b1 == b2 else 'differ'}")
