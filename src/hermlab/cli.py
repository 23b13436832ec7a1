"""Declarative experiment runner with reproducible artifacts.

A run is described by one JSON config file: an experiment kind, its
parameters, a seed, and an optional acceptance block of assertions over
the run's summary metrics. Running produces CSV data, JSON reports, and
gnuplot scripts in the output directory, then writes manifest.json last
as the atomic completion marker; if anything fails, files already written
are removed so a manifest's existence certifies a complete run. Identical
config and seed reproduce identical CSV bytes on the same platform and
backend.

Config skeleton::

    {
      "kind": "spectral-scan",
      "seed": 0,
      "output_dir": "runs/scan-eps05",
      "parameters": { ... per kind ... },
      "acceptance": [
        {"metric": "fit_r2", "op": ">=", "value": 0.95}
      ]
    }

The process exit code is 0 iff validation, the run, and every acceptance
assertion succeed.
"""

import argparse
import csv
import dataclasses
import datetime
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__, bernstein, control, geometry, semigroup, spectral, symbols
from .hermite import HermiteExpansion, basis_state, random_expansion
from .semigroup import EvolutionSpec

__all__ = [
    "Diagnostic",
    "ConfigError",
    "validate",
    "run",
    "load_config",
    "main",
    "KINDS",
]

KINDS = (
    "spectral-scan",
    "bernstein-check",
    "covering",
    "dissipation",
    "control-run",
    "singular-space",
)

_OPS = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding, addressed by the config field that caused it."""

    field: str
    message: str

    def __str__(self):
        return f"{self.field}: {self.message}"


class ConfigError(ValueError):
    """Raised by run() when validation fails; carries the diagnostics."""

    def __init__(self, diagnostics):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)


# -- validation ---------------------------------------------------------------


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _check_density(spec, field, out):
    if not isinstance(spec, dict):
        out.append(Diagnostic(field, "density spec must be an object"))
        return
    kind = spec.get("kind")
    if kind == "constant":
        if not _is_num(spec.get("m")) or spec.get("m") <= 0:
            out.append(Diagnostic(field + ".m", "constant density needs m > 0"))
    elif kind == "power":
        if not _is_num(spec.get("R")) or spec.get("R") <= 0:
            out.append(Diagnostic(field + ".R", "power density needs R > 0"))
        eps = spec.get("eps")
        if not _is_num(eps) or not 0 < eps <= 1:
            out.append(Diagnostic(field + ".eps", "ε must lie in (0,1]"))
    elif kind == "tabulated":
        grid, values = spec.get("grid"), spec.get("values")
        if not isinstance(grid, list) or not isinstance(values, list) or len(grid) != len(values) or len(grid) < 2:
            out.append(Diagnostic(field, "tabulated density needs matching grid/values lists"))
    else:
        out.append(Diagnostic(field + ".kind", "density kind must be constant|power|tabulated"))


def _check_omega(spec, field, out):
    if not isinstance(spec, dict):
        out.append(Diagnostic(field, "sensor set spec must be an object"))
        return
    t = spec.get("type")
    if t == "full":
        if not isinstance(spec.get("dim", 1), int) or spec.get("dim", 1) < 1:
            out.append(Diagnostic(field + ".dim", "dim must be a positive integer"))
    elif t == "intervals":
        iv = spec.get("intervals")
        if not isinstance(iv, list) or not iv or any(len(p) != 2 for p in iv):
            out.append(Diagnostic(field + ".intervals", "need a non-empty list of [a, b] pairs"))
    elif t == "periodic":
        if not _is_num(spec.get("period")) or spec.get("period") <= 0:
            out.append(Diagnostic(field + ".period", "period must be positive"))
        kept = spec.get("kept")
        if not _is_num(kept) or not 0 < kept <= 1:
            out.append(Diagnostic(field + ".kept", "kept fraction must lie in (0, 1]"))
    elif t == "boxes":
        if not isinstance(spec.get("boxes"), list) or not spec.get("boxes"):
            out.append(Diagnostic(field + ".boxes", "need a non-empty list of boxes"))
    elif t == "balls":
        c, r = spec.get("centers"), spec.get("radii")
        if not isinstance(c, list) or not isinstance(r, list) or len(c) != len(r) or not c:
            out.append(Diagnostic(field, "need matching centers/radii lists"))
    elif t == "graded":
        _check_density(spec.get("density"), field + ".density", out)
        g = spec.get("gamma")
        if not _is_num(g) or not 0 < g <= 1:
            out.append(Diagnostic(field + ".gamma", "gamma must lie in (0, 1]"))
        if not _is_num(spec.get("extent")) or spec.get("extent") <= 0:
            out.append(Diagnostic(field + ".extent", "extent must be positive"))
    else:
        out.append(
            Diagnostic(field + ".type", "type must be full|intervals|periodic|boxes|balls|graded")
        )


def _check_s_delta(params, field, out, need_delta=False):
    s = params.get("s")
    if not _is_num(s):
        out.append(Diagnostic(field + ".s", "s must be a number"))
    elif s <= 0.5:
        out.append(Diagnostic(field + ".s", "s must exceed 1/2"))
    elif s > 1:
        out.append(Diagnostic(field + ".s", "s must not exceed 1"))
    if need_delta or "delta" in params:
        d = params.get("delta", 0.0)
        if not _is_num(d):
            out.append(Diagnostic(field + ".delta", "delta must be a number"))
        elif _is_num(s) and 0.5 < s <= 1 and not 0 <= d < 2 * s - 1:
            out.append(Diagnostic(field + ".delta", "δ < 2s−1 required"))


def _check_int_list(values, field, out, minimum=0):
    if not isinstance(values, list) or not values:
        out.append(Diagnostic(field, "need a non-empty list of integers"))
        return False
    if any(not isinstance(v, int) or isinstance(v, bool) or v < minimum for v in values):
        out.append(Diagnostic(field, f"entries must be integers >= {minimum}"))
        return False
    return True


def validate(config) -> list:
    """Total schema check; returns a list of Diagnostic, empty iff runnable."""
    out = []
    if not isinstance(config, dict):
        return [Diagnostic("$", "config must be a JSON object")]
    kind = config.get("kind")
    if kind not in KINDS:
        out.append(Diagnostic("kind", "kind must be one of " + "|".join(KINDS)))
        return out
    seed = config.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        out.append(Diagnostic("seed", "seed must be a non-negative integer"))
    if "output_dir" in config and not isinstance(config["output_dir"], str):
        out.append(Diagnostic("output_dir", "output_dir must be a path string"))
    acceptance = config.get("acceptance", [])
    if not isinstance(acceptance, list):
        out.append(Diagnostic("acceptance", "acceptance must be a list of assertions"))
    else:
        for i, item in enumerate(acceptance):
            f = f"acceptance[{i}]"
            if not isinstance(item, dict):
                out.append(Diagnostic(f, "assertion must be an object"))
                continue
            if not isinstance(item.get("metric"), str):
                out.append(Diagnostic(f + ".metric", "metric name required"))
            if item.get("op") not in _OPS:
                out.append(Diagnostic(f + ".op", "op must be one of " + " ".join(_OPS)))
            if not _is_num(item.get("value")) and not isinstance(item.get("value"), bool):
                out.append(Diagnostic(f + ".value", "value must be a number or boolean"))

    p = config.get("parameters")
    if not isinstance(p, dict):
        out.append(Diagnostic("parameters", "parameters object required"))
        return out
    pf = "parameters"

    for tol_key in ("tol", "rel_tol"):
        if tol_key in p and (not _is_num(p[tol_key]) or p[tol_key] <= 0):
            out.append(Diagnostic(f"{pf}.{tol_key}", "tolerances must be positive"))

    if kind == "spectral-scan":
        _check_int_list(p.get("N_values"), pf + ".N_values", out)
        _check_omega(p.get("omega"), pf + ".omega", out)
        if "epsilon" in p:
            e = p["epsilon"]
            if not _is_num(e) or not 0 < e <= 1:
                out.append(Diagnostic(pf + ".epsilon", "ε must lie in (0,1]"))
    elif kind == "bernstein-check":
        for key in ("N", "count", "max_order"):
            v = p.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                out.append(Diagnostic(f"{pf}.{key}", f"{key} must be a positive integer"))
        if not isinstance(p.get("dim", 1), int) or p.get("dim", 1) < 1:
            out.append(Diagnostic(pf + ".dim", "dim must be a positive integer"))
    elif kind == "covering":
        _check_density(p.get("density"), pf + ".density", out)
        if not _is_num(p.get("extent")) or p.get("extent") <= 0:
            out.append(Diagnostic(pf + ".extent", "extent must be positive"))
        if not isinstance(p.get("dim", 1), int) or not 1 <= p.get("dim", 1) <= 3:
            out.append(Diagnostic(pf + ".dim", "dim must be 1, 2, or 3"))
    elif kind == "dissipation":
        _check_s_delta(p, pf, out)
        _check_int_list(p.get("k_values"), pf + ".k_values", out)
        tv = p.get("t_values")
        if not isinstance(tv, list) or not tv or any(not _is_num(t) or t <= 0 for t in tv):
            out.append(Diagnostic(pf + ".t_values", "need a non-empty list of positive times"))
        if not isinstance(p.get("degree"), int) or p.get("degree") < 0:
            out.append(Diagnostic(pf + ".degree", "degree must be a non-negative integer"))
        if not isinstance(p.get("count", 1), int) or p.get("count", 1) < 1:
            out.append(Diagnostic(pf + ".count", "count must be a positive integer"))
    elif kind == "control-run":
        _check_s_delta(p, pf, out, need_delta=True)
        _check_omega(p.get("omega"), pf + ".omega", out)
        if not isinstance(p.get("N"), int) or p.get("N") < 0:
            out.append(Diagnostic(pf + ".N", "N must be a non-negative integer"))
        if not _is_num(p.get("T")) or p.get("T") <= 0:
            out.append(Diagnostic(pf + ".T", "T must be positive"))
        f0 = p.get("f0", {"type": "random"})
        if not isinstance(f0, dict) or f0.get("type") not in ("random", "basis", "coeffs"):
            out.append(Diagnostic(pf + ".f0.type", "f0 type must be random|basis|coeffs"))
    elif kind == "singular-space":
        names = p.get("names")
        forms = p.get("forms")
        if names is None and forms is None:
            out.append(Diagnostic(pf, "need names (catalog keys) or forms (matrices)"))
        if names is not None:
            known = set(symbols.catalog())
            if not isinstance(names, list) or not names:
                out.append(Diagnostic(pf + ".names", "names must be a non-empty list"))
            else:
                for i, n in enumerate(names):
                    if n not in known:
                        out.append(
                            Diagnostic(f"{pf}.names[{i}]", "unknown form; known: " + " ".join(sorted(known)))
                        )
    return out


# -- config -> objects --------------------------------------------------------


def _build_density(spec) -> geometry.DensityFn:
    if spec["kind"] == "constant":
        return geometry.DensityFn.constant(spec["m"])
    if spec["kind"] == "power":
        return geometry.DensityFn.power(spec["R"], spec["eps"])
    return geometry.DensityFn.tabulated(spec["grid"], spec["values"])


def _build_omega(spec) -> geometry.ControlSet:
    t = spec["type"]
    if t == "full":
        return geometry.FullSpace(spec.get("dim", 1))
    if t == "intervals":
        return geometry.interval_union(spec["intervals"])
    if t == "periodic":
        return geometry.PeriodicPattern(
            dim=spec.get("dim", 1),
            period=spec["period"],
            kept=spec["kept"],
            offset=spec.get("offset", 0.0),
        )
    if t == "boxes":
        return geometry.BoxUnion(spec.get("dim", len(spec["boxes"][0])), np.asarray(spec["boxes"], dtype=np.float64))
    if t == "balls":
        centers = np.asarray(spec["centers"], dtype=np.float64)
        centers = centers.reshape(centers.shape[0], -1)
        return geometry.BallUnion(centers.shape[1], centers, np.asarray(spec["radii"], dtype=np.float64))
    return geometry.graded_cells(_build_density(spec["density"]), spec["gamma"], spec["extent"])


def _omega_hash(omega: geometry.ControlSet) -> str:
    """sha256 of a canonical form of a built sensor set.

    The form is the class name, then every field in declaration order: dim
    as an integer, arrays as their shape and float64 bytes, other numbers by
    repr of their float. Specs that build the same set hash alike.
    """
    parts = [type(omega).__name__]
    for f in dataclasses.fields(omega):
        v = getattr(omega, f.name)
        if f.name == "dim":
            parts.append(f"dim={int(v)}")
        elif isinstance(v, np.ndarray):
            parts.append(f"{f.name}={v.shape}:{np.ascontiguousarray(v, dtype=np.float64).tobytes().hex()}")
        else:
            parts.append(f"{f.name}={float(v)!r}")
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _config_hash(config) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(canon).hexdigest()


# -- output helpers -----------------------------------------------------------


def _fmt_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


class _Workspace:
    """Collects output files so a failed run can clean up after itself.

    counters holds the run's work counts for the manifest, timings its wall
    time per phase, and omega_hash the hash of the sensor set when the run
    builds one.
    """

    def __init__(self, outdir):
        self.outdir = outdir
        self.files = []
        self.counters = {}
        self.timings = {}
        self.omega_hash = None

    def path(self, name):
        return os.path.join(self.outdir, name)

    def write_csv(self, name, header, rows):
        with open(self.path(name), "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt_cell(v) for v in row])
        self.files.append(name)

    def write_json(self, name, payload):
        with open(self.path(name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        self.files.append(name)

    def write_text(self, name, text):
        with open(self.path(name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        self.files.append(name)

    def cleanup(self):
        for name in self.files:
            try:
                os.remove(self.path(name))
            except OSError:
                pass


def _gnuplot(csv_name, title, xlabel, ylabel, using, logy=False, extra=""):
    lines = [
        "set datafile separator ','",
        f"set title '{title}'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        "set key top left",
        "set grid",
    ]
    if logy:
        lines.append("set logscale y")
    if extra:
        lines.append(extra)
    lines.append(f"plot '{csv_name}' skip 1 using {using} with linespoints title '{ylabel}'")
    return "\n".join(lines) + "\n"


# -- per-kind runners ---------------------------------------------------------


def _run_spectral_scan(p, ws, rng):
    omega = _build_omega(p["omega"])
    ws.omega_hash = _omega_hash(omega)
    rows = []
    nodes = 0
    assembly_s = solve_s = 0.0
    for N in p["N_values"]:
        t0 = time.perf_counter()
        G = spectral.gram_matrix(omega, N)
        t1 = time.perf_counter()
        res = spectral.spectral_constant(G)
        solve_s += time.perf_counter() - t1
        assembly_s += t1 - t0
        rows.append((N, res.lambda_min, res.constant, G.quad_tol, res.lambda_err, res.floor))
        nodes += G.nodes
    ws.counters.update(gram_assemblies=len(rows), quadrature_nodes=nodes)
    ws.timings.update(assembly_s=assembly_s, solve_s=solve_s)
    ws.write_csv("spectral.csv", ["N", "lambda_min", "C_N", "quad_tol", "lambda_err", "floor"], rows)
    metrics = {
        "floor_rows": sum(r[5] for r in rows),
        "max_abs_cn_minus_1": max(abs(r[2] - 1.0) for r in rows),
        "max_quad_tol": max(r[3] for r in rows),
        "min_lambda_min": min(r[1] for r in rows),
        "rows": len(rows),
    }
    if len(rows) >= 5 and "epsilon" in p:
        fit = spectral.growth_fit([(r[0], r[2]) for r in rows], p["epsilon"])
        metrics.update(
            fit_r2=fit.r2, fit_slope=fit.slope, fit_intercept=fit.intercept, epsilon=p["epsilon"]
        )
        xlabel = "N^(1-eps/2)"
    else:
        xlabel = "N"
    ws.write_text(
        "spectral.gp",
        _gnuplot("spectral.csv", "spectral constant growth", xlabel, "C_N", "1:3", logy=True),
    )
    return metrics


def _run_bernstein_check(p, ws, rng):
    dim, N = p.get("dim", 1), p["N"]
    pairs = bernstein._index_pairs(dim, p["max_order"])
    rows = []
    worst = 0.0
    violations = 0
    for i in range(p["count"]):
        f = random_expansion(rng, dim=dim, degree=N)
        for a, b in pairs:
            chk = bernstein.crude_bernstein_check(f, a, b)
            worst = max(worst, chk.ratio)
            if chk.ratio > 1 + 1e-10:
                violations += 1
            rows.append((i, "".join(map(str, a)), "".join(map(str, b)), chk.lhs, chk.rhs, chk.ratio))
    ws.write_csv("bernstein.csv", ["sample", "alpha", "beta", "lhs", "rhs", "ratio"], rows)
    ws.write_text(
        "bernstein.gp",
        _gnuplot("bernstein.csv", "derivative-bound ratios", "row", "ratio", "0:6"),
    )
    return {"violations": violations, "max_ratio": worst, "rows": len(rows)}


def _run_covering(p, ws, rng):
    rho = _build_density(p["density"])
    dim = p.get("dim", 1)
    L = float(p["extent"])
    box = [(-L, L)] * dim
    cov = geometry.covering_generate(rho, box)
    header = [f"x{i+1}" for i in range(dim)] + ["radius"]
    rows = [tuple(c) + (r,) for c, r in zip(cov.centers, cov.radii)]
    ws.write_csv("covering.csv", header, rows)
    ws.write_text(
        "covering.gp",
        _gnuplot("covering.csv", "ball covering", "x1", "radius", "1:%d" % (dim + 1)),
    )
    return {
        "balls": len(cov.radii),
        "max_multiplicity": cov.max_multiplicity,
        "overlap_bound": cov.overlap_bound,
        "grid_step": cov.grid_step,
    }


def _run_dissipation(p, ws, rng):
    spec = EvolutionSpec(s=p["s"], dim=p.get("dim", 1))
    degree = p["degree"]
    rows = []
    worst = 0.0
    sharp_gap = 0.0
    for k in p["k_values"]:
        if k + 1 <= degree:
            alpha = (k + 1,) + (0,) * (spec.dim - 1)
            pure = basis_state(spec.dim, degree, alpha)
            for t in p["t_values"]:
                rep = semigroup.dissipation_tail(pure, k=k, t=float(t), spec=spec)
                sharp_gap = max(sharp_gap, abs(rep.tail_norm - rep.bound))
        for i in range(p.get("count", 1)):
            f = random_expansion(rng, dim=spec.dim, degree=degree)
            for t in p["t_values"]:
                rep = semigroup.dissipation_tail(f, k=k, t=float(t), spec=spec)
                ratio = rep.tail_norm / rep.bound if rep.bound > 0 else 0.0
                worst = max(worst, ratio)
                rows.append((k, float(t), i, rep.tail_norm, rep.bound, rep.weak_bound, ratio))
    ws.write_csv(
        "dissipation.csv",
        ["k", "t", "sample", "tail_norm", "bound", "weak_bound", "ratio"],
        rows,
    )
    ws.write_text(
        "dissipation.gp",
        _gnuplot("dissipation.csv", "high-mode decay", "t", "tail_norm", "2:4", logy=True),
    )
    return {"max_ratio": worst, "sharp_gap": sharp_gap, "rows": len(rows)}


def _build_f0(spec_f0, dim, N, rng) -> HermiteExpansion:
    kind = spec_f0.get("type", "random")
    if kind == "random":
        return random_expansion(rng, dim=dim, degree=N)
    if kind == "basis":
        return basis_state(dim, N, tuple(spec_f0["alpha"]))
    return HermiteExpansion(dim, N, np.asarray(spec_f0["coeffs"], dtype=np.float64))


def _run_control(p, ws, rng):
    spec = EvolutionSpec(s=p["s"], dim=p.get("dim", 1))
    omega = _build_omega(p["omega"])
    ws.omega_hash = _omega_hash(omega)
    f0 = _build_f0(p.get("f0", {"type": "random"}), spec.dim, p["N"], rng)
    problem = control.ControlProblem(
        T=float(p["T"]), omega=omega, spec=spec, N=p["N"], f0=f0, delta=p.get("delta", 0.0)
    )
    t0 = time.perf_counter()
    signal, trace = control.lebeau_robbiano_synthesize(problem, tol=p.get("tol", 1e-6))
    ws.timings["synthesis_s"] = time.perf_counter() - t0
    levels = [st["level"] for st in trace["stages"]]
    ws.counters.update(stages=len(levels), max_level=max(levels, default=0))
    ws.write_json("trace.json", trace)
    rows = [
        (i, st["interval"][0], st["interval"][1], st["level"], st["cost"], st["residual"])
        for i, st in enumerate(trace["stages"])
    ]
    ws.write_csv("cost.csv", ["stage", "t_start", "t_end", "level", "cost", "residual"], rows)
    ws.write_text(
        "cost.gp",
        _gnuplot("cost.csv", "stage control cost", "t_start", "cost", "2:5", logy=True),
    )
    f0n = f0.norm()
    return {
        "total_cost": trace["total_cost"],
        "terminal_residual_rel": trace["terminal_residual"] / f0n if f0n else 0.0,
        "verified_residual_rel": trace["verified_residual"] / f0n if f0n else 0.0,
        "stages": len(trace["stages"]),
        "worst_condition": signal.condition,
    }


def _run_singular_space(p, ws, rng):
    tol = p.get("tol", 1e-10)
    cat = symbols.catalog()
    todo = []
    for name in p.get("names", []):
        todo.append((name, cat[name]))
    for i, m in enumerate(p.get("forms", [])):
        Q = np.array([[complex(*c) if isinstance(c, list) else complex(c) for c in row] for row in m])
        todo.append((f"form{i}", symbols.QuadraticForm(Q.shape[0] // 2, Q)))
    rows = []
    reports = {}
    for name, q in todo:
        res = symbols.singular_space(symbols.hamilton_map(q), tol=tol)
        summary = symbols.singular_space_summary(res)
        rows.append((name, summary["dimS"], -1 if summary["k0"] is None else summary["k0"], int(res.ambiguous)))
        reports[name] = {
            "dimS": summary["dimS"],
            "k0": summary["k0"],
            "ambiguous": res.ambiguous,
            "basis": [[float(x) for x in v] for v in np.atleast_2d(summary["basis"])]
            if summary["dimS"]
            else [],
        }
    ws.write_csv("singular_space.csv", ["name", "dim_s", "k0", "ambiguous"], rows)
    ws.write_json("singular_space.json", reports)
    return {"forms": len(rows), "max_dim_s": max((r[1] for r in rows), default=0)}


_RUNNERS = {
    "spectral-scan": _run_spectral_scan,
    "bernstein-check": _run_bernstein_check,
    "covering": _run_covering,
    "dissipation": _run_dissipation,
    "control-run": _run_control,
    "singular-space": _run_singular_space,
}


# -- orchestration ------------------------------------------------------------


def run(config, out_override=None, seed_override=None, threads=None) -> dict:
    """Execute one experiment config; returns the manifest dict.

    The manifest is written to output_dir/manifest.json only after every
    other artifact landed, so its presence marks a complete run. On any
    failure the partial outputs are removed before the exception leaves.
    threads caps the BLAS/OpenMP pools; threads_applied records whether the
    cap took effect.
    """
    diags = validate(config)
    if diags:
        raise ConfigError(diags)
    if seed_override is not None:
        config = dict(config, seed=seed_override)
    outdir = out_override or config.get("output_dir") or "."
    os.makedirs(outdir, exist_ok=True)
    threads_applied = _apply_thread_cap(threads)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.monotonic()
    ws = _Workspace(outdir)
    rng = np.random.default_rng(config.get("seed", 0))
    try:
        metrics = _RUNNERS[config["kind"]](config["parameters"], ws, rng)
    except BaseException:
        ws.cleanup()
        raise
    metrics["wall_time_s"] = time.monotonic() - t0

    checks = []
    passed_all = True
    for item in config.get("acceptance", []):
        actual = metrics.get(item["metric"])
        ok = actual is not None and _OPS[item["op"]](actual, item["value"])
        passed_all = passed_all and ok
        checks.append(
            {
                "metric": item["metric"],
                "op": item["op"],
                "value": item["value"],
                "actual": actual,
                "passed": bool(ok),
            }
        )

    manifest = {
        "kind": config["kind"],
        "seed": config.get("seed", 0),
        "threads": threads,
        "threads_applied": threads_applied,
        "config_hash": _config_hash(config),
        "tool_version": __version__,
        "started": started,
        "finished": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "files": sorted(ws.files),
        "metrics": metrics,
        "counters": ws.counters,
        "acceptance": {"passed": passed_all, "checks": checks},
    }
    if ws.timings:
        manifest["timings"] = ws.timings
    if ws.omega_hash is not None:
        manifest["omega_hash"] = ws.omega_hash
    tmp = ws.path("manifest.json.tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, ws.path("manifest.json"))
    return manifest


def _apply_thread_cap(threads) -> bool:
    """Cap the BLAS/OpenMP pools; True only when threadpoolctl applied it.

    The environment variables reach only pools started after this call;
    numpy's and scipy's are already running by then.
    """
    if threads is None:
        return False
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return False
    threadpool_limits(threads)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hermlab", description="spectral-estimate and control experiments"
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        k = sub.add_parser(kind, help=f"run a {kind} experiment")
        k.add_argument("--config", required=True, help="path to the JSON experiment config")
        k.add_argument("--out", default=None, help="output directory (overrides config)")
        k.add_argument("--seed", type=int, default=None, help="seed override")
        k.add_argument("--threads", type=int, default=None, help="BLAS/OpenMP thread cap")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    if config.get("kind") not in (None, args.kind):
        print(
            f"error: config kind {config.get('kind')!r} does not match subcommand {args.kind!r}",
            file=sys.stderr,
        )
        return 2
    config.setdefault("kind", args.kind)

    diags = validate(config)
    if diags:
        for d in diags:
            print(f"error: {d}", file=sys.stderr)
        return 2

    try:
        manifest = run(config, out_override=args.out, seed_override=args.seed, threads=args.threads)
    except (
        control.ControlError,
        geometry.CoverageError,
        geometry.InvalidDensityError,
        geometry.QuadratureError,
        spectral.DegenerateRestrictionError,
    ) as exc:
        # run() already removed partial outputs; no manifest means no complete run
        print(f"error: run failed: {exc}", file=sys.stderr)
        return 1
    outdir = args.out or config.get("output_dir") or "."
    for name in manifest["files"]:
        print(os.path.join(outdir, name))
    verdict = "pass" if manifest["acceptance"]["passed"] else "FAIL"
    print(f"acceptance: {verdict}")
    return 0 if manifest["acceptance"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
