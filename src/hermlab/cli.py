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


# -- validation: the envelope, then the inputs built -------------------------


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x, minimum) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and (minimum is None or x >= minimum)


# Integer parameters per kind as (key, minimum, default); a None default marks
# a required key, and a key ending in _values holds a non-empty list. The
# range of a dim is left to the constructor that takes it.
_INTEGERS = {
    "spectral-scan": (("N_values", 0, None),),
    "bernstein-check": (("N", 1, None), ("count", 1, None), ("max_order", 1, None), ("dim", 1, 1)),
    "covering": (("dim", None, 1),),
    "dissipation": (("k_values", 0, None), ("degree", 0, None), ("count", 1, 1), ("dim", None, 1)),
    "control-run": (("N", 0, None), ("dim", None, 1)),
    "singular-space": (),
}


def _check_envelope(config) -> list:
    """The rules no library code owns: the config's shape and its integers."""
    if not isinstance(config, dict):
        return [Diagnostic("$", "config must be a JSON object")]
    kind = config.get("kind")
    if kind not in KINDS:
        return [Diagnostic("kind", "kind must be one of " + "|".join(KINDS))]
    out = []
    if not _is_int(config.get("seed", 0), 0):
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
    if "tol" in p and (not _is_num(p["tol"]) or p["tol"] <= 0):
        out.append(Diagnostic("parameters.tol", "tol must be positive"))
    for key, minimum, default in _INTEGERS[kind]:
        v = p.get(key, default)
        bound = "" if minimum is None else f" >= {minimum}"
        if key.endswith("_values"):
            if not isinstance(v, list) or not v or not all(_is_int(x, minimum) for x in v):
                out.append(Diagnostic(f"parameters.{key}", f"need a non-empty list of integers{bound}"))
        elif not _is_int(v, minimum):
            out.append(Diagnostic(f"parameters.{key}", f"{key} must be an integer{bound}"))
    if kind == "singular-space" and "names" not in p and "forms" not in p:
        out.append(Diagnostic("parameters", "need names (catalog keys) or forms (matrices)"))
    return out


def _prepare(config):
    """Check a config and build its run's inputs with the library constructors.

    Returns (diagnostics, inputs). After the envelope checks, each input is
    built by the function its runner would call; its ValueError, or the
    TypeError, KeyError or IndexError of a malformed spec, becomes one
    Diagnostic addressed by the field being built. inputs holds the seeded
    rng and the built objects, and is None unless diagnostics is empty.
    """
    out = _check_envelope(config)
    if out:
        return out, None
    kind, p = config["kind"], config["parameters"]
    rng = np.random.default_rng(config.get("seed", 0))
    inputs = {"rng": rng}

    def build(field, make):
        try:
            return make()
        except KeyError as exc:
            out.append(Diagnostic(field, f"key {exc} not found"))
        except (ValueError, TypeError, IndexError) as exc:
            out.append(Diagnostic(field, str(exc)))

    if kind in ("dissipation", "control-run"):
        spec = inputs["spec"] = build("parameters", lambda: EvolutionSpec(s=p["s"], dim=p.get("dim", 1)))
    if kind == "spectral-scan":
        inputs["omega"] = build("parameters.omega", lambda: _build_omega(p["omega"]))
        if "epsilon" in p:  # growth_fit's own check runs only after the scan
            build("parameters.epsilon", lambda: spectral._check_epsilon(p["epsilon"]))
    elif kind == "covering":
        inputs["rho"] = build("parameters.density", lambda: _build_density(p["density"]))
        inputs["box"] = build(
            "parameters.extent", lambda: [(-float(p["extent"]), float(p["extent"]))] * p.get("dim", 1)
        )
    elif kind == "dissipation":
        inputs["t_values"] = build("parameters.t_values", lambda: [float(t) for t in p["t_values"]])
    elif kind == "control-run":
        omega = build("parameters.omega", lambda: _build_omega(p["omega"]))
        if spec is not None:
            f0 = build("parameters.f0", lambda: _build_f0(p.get("f0", {"type": "random"}), spec.dim, p["N"], rng))
            # the delta rule on its own field; ControlProblem applies it again
            build("parameters.delta", lambda: control.reference_blowup_exponent(spec.s, p.get("delta", 0.0)))
        if not out:
            inputs["problem"] = build(
                "parameters",
                lambda: control.ControlProblem(
                    T=float(p["T"]), omega=omega, spec=spec, N=p["N"], f0=f0, delta=p.get("delta", 0.0)
                ),
            )
    elif kind == "singular-space":
        catalog = symbols.catalog()
        inputs["named"] = build("parameters.names", lambda: [(n, catalog[n]) for n in p.get("names", [])])
        inputs["forms"] = build("parameters.forms", lambda: [_build_form(Q) for Q in p.get("forms", [])])
    return out, (None if out else inputs)


def validate(config) -> list:
    """Total check by building the run's inputs; returns Diagnostics, empty iff they all build."""
    return _prepare(config)[0]


# -- config -> objects --------------------------------------------------------


def _build_density(spec) -> geometry.DensityFn:
    kind = spec["kind"]
    if kind == "constant":
        return geometry.DensityFn.constant(spec["m"])
    if kind == "power":
        return geometry.DensityFn.power(spec["R"], spec["eps"])
    if kind == "tabulated":
        return geometry.DensityFn.tabulated(spec["grid"], spec["values"])
    raise ValueError("density kind must be constant|power|tabulated")


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
    if t == "graded":
        return geometry.graded_cells(_build_density(spec["density"]), spec["gamma"], spec["extent"])
    raise ValueError("type must be full|intervals|periodic|boxes|balls|graded")


def _build_f0(spec_f0, dim, N, rng) -> HermiteExpansion:
    kind = spec_f0["type"]
    if kind == "random":
        return random_expansion(rng, dim=dim, degree=N)
    if kind == "basis":
        return basis_state(dim, N, tuple(spec_f0["alpha"]))
    if kind == "coeffs":
        return HermiteExpansion(dim, N, np.asarray(spec_f0["coeffs"], dtype=np.float64))
    raise ValueError("f0 type must be random|basis|coeffs")


def _build_form(rows) -> symbols.QuadraticForm:
    Q = np.array([[complex(*c) if isinstance(c, list) else complex(c) for c in row] for row in rows])
    return symbols.QuadraticForm(Q.shape[0] // 2, Q)


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


def _run_spectral_scan(p, inputs, ws):
    omega = inputs["omega"]
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


def _run_bernstein_check(p, inputs, ws):
    dim, N = p.get("dim", 1), p["N"]
    pairs = bernstein._index_pairs(dim, p["max_order"])
    rows = []
    worst = 0.0
    violations = 0
    for i in range(p["count"]):
        f = random_expansion(inputs["rng"], dim=dim, degree=N)
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


def _run_covering(p, inputs, ws):
    dim = p.get("dim", 1)
    cov = geometry.covering_generate(inputs["rho"], inputs["box"])
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


def _run_dissipation(p, inputs, ws):
    spec, rng = inputs["spec"], inputs["rng"]
    degree = p["degree"]
    rows = []
    worst = 0.0
    sharp_gap = 0.0
    for k in p["k_values"]:
        if k + 1 <= degree:
            alpha = (k + 1,) + (0,) * (spec.dim - 1)
            pure = basis_state(spec.dim, degree, alpha)
            for t in inputs["t_values"]:
                rep = semigroup.dissipation_tail(pure, k=k, t=t, spec=spec)
                sharp_gap = max(sharp_gap, abs(rep.tail_norm - rep.bound))
        for i in range(p.get("count", 1)):
            f = random_expansion(rng, dim=spec.dim, degree=degree)
            for t in inputs["t_values"]:
                rep = semigroup.dissipation_tail(f, k=k, t=t, spec=spec)
                ratio = rep.tail_norm / rep.bound if rep.bound > 0 else 0.0
                worst = max(worst, ratio)
                rows.append((k, t, i, rep.tail_norm, rep.bound, rep.weak_bound, ratio))
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


def _run_control(p, inputs, ws):
    problem = inputs["problem"]
    ws.omega_hash = _omega_hash(problem.omega)
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
    f0n = problem.f0.norm()
    return {
        "total_cost": trace["total_cost"],
        "terminal_residual_rel": trace["terminal_residual"] / f0n if f0n else 0.0,
        "verified_residual_rel": trace["verified_residual"] / f0n if f0n else 0.0,
        "stages": len(trace["stages"]),
        "worst_condition": signal.condition,
        "reference_exponent": control.reference_blowup_exponent(problem.spec.s, problem.delta),
    }


def _run_singular_space(p, inputs, ws):
    tol = p.get("tol", 1e-10)
    todo = inputs["named"] + [(f"form{i}", q) for i, q in enumerate(inputs["forms"])]
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
    if seed_override is not None and isinstance(config, dict):
        config = dict(config, seed=seed_override)
    diags, inputs = _prepare(config)
    if diags:
        raise ConfigError(diags)
    outdir = out_override or config.get("output_dir") or "."
    os.makedirs(outdir, exist_ok=True)
    threads_applied = _apply_thread_cap(threads)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.monotonic()
    ws = _Workspace(outdir)
    try:
        metrics = _RUNNERS[config["kind"]](config["parameters"], inputs, ws)
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
    if isinstance(config, dict):
        if config.get("kind") not in (None, args.kind):
            print(
                f"error: config kind {config.get('kind')!r} does not match subcommand {args.kind!r}",
                file=sys.stderr,
            )
            return 2
        config.setdefault("kind", args.kind)

    try:
        manifest = run(config, out_override=args.out, seed_override=args.seed, threads=args.threads)
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return 2
    except (
        ValueError,
        control.ControlError,
        geometry.CoverageError,
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
