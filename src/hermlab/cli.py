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
from .hermite import DEGREE_CAP, HermiteExpansion, basis_state, random_expansion
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


def _is_int(x, lo, hi) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and (lo is None or x >= lo) and (hi is None or x <= hi)


_REQUIRED = object()
_DEGREE = (0, DEGREE_CAP)
_ANY = (None, None)

# Every parameter key of each kind as key: (default, integer bounds). A
# _REQUIRED default marks a required key; epsilon's None default means no
# growth fit. Bounds (lo, hi), either end None when open, mark an integer
# key, and a key ending in _values holds a non-empty list of such integers.
# Degrees stop at the Hermite table's DEGREE_CAP. The range of a dim is left
# to the constructor that takes it.
_PARAMETERS = {
    "spectral-scan": {"N_values": (_REQUIRED, _DEGREE), "omega": (_REQUIRED, None), "epsilon": (None, None)},
    "bernstein-check": {
        "N": (_REQUIRED, (1, DEGREE_CAP)), "max_order": (_REQUIRED, (1, DEGREE_CAP)), "dim": (1, (1, None)),
    },
    "covering": {"density": (_REQUIRED, None), "extent": (_REQUIRED, None), "dim": (1, _ANY)},
    "dissipation": {
        "s": (_REQUIRED, None), "dim": (1, _ANY), "degree": (_REQUIRED, _DEGREE),
        "k_values": (_REQUIRED, _DEGREE), "t_values": (_REQUIRED, None), "count": (1, (1, None)),
    },
    "control-run": {
        "s": (_REQUIRED, None), "dim": (1, _ANY), "N": (_REQUIRED, _DEGREE), "T": (_REQUIRED, None),
        "omega": (_REQUIRED, None), "f0": ({"type": "random"}, None), "delta": (0.0, None),
    },
    "singular-space": {"names": ([], None), "forms": ([], None)},
}
KINDS = tuple(_PARAMETERS)
_TOP_LEVEL = ("kind", "seed", "output_dir", "parameters", "acceptance")
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _check_envelope(config):
    """The rules no library code owns: the config's keys, shape and integers.

    Returns (diagnostics, parameters with every default filled in).
    """
    if not isinstance(config, dict):
        return [Diagnostic("$", "config must be a JSON object")], None
    kind = config.get("kind")
    if kind not in KINDS:
        return [Diagnostic("kind", "kind must be one of " + "|".join(KINDS))], None
    out = [Diagnostic(str(key), "unknown key") for key in config if key not in _TOP_LEVEL]
    if not _is_int(config.get("seed", 0), 0, None):
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
            out += [Diagnostic(f"{f}.{key}", "unknown key") for key in item if key not in ("metric", "op", "value")]
            if not isinstance(item.get("metric"), str):
                out.append(Diagnostic(f + ".metric", "metric name required"))
            if item.get("op") not in _OPS:
                out.append(Diagnostic(f + ".op", "op must be one of " + " ".join(_OPS)))
            if not _is_num(item.get("value")) and not isinstance(item.get("value"), bool):
                out.append(Diagnostic(f + ".value", "value must be a number or boolean"))

    p = config.get("parameters")
    if not isinstance(p, dict):
        out.append(Diagnostic("parameters", "parameters object required"))
        return out, None
    out += [Diagnostic(f"parameters.{key}", "unknown key") for key in p if key not in _PARAMETERS[kind]]
    filled = {}
    for key, (default, bounds) in _PARAMETERS[kind].items():
        v = filled[key] = p.get(key, default)
        if v is _REQUIRED:
            out.append(Diagnostic(f"parameters.{key}", "required key missing"))
            continue
        if bounds is None:
            continue
        lo, hi = bounds
        bound = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
        if key.endswith("_values"):
            if not isinstance(v, list) or not v or not all(_is_int(x, lo, hi) for x in v):
                out.append(Diagnostic(f"parameters.{key}", f"need a non-empty list of integers{bound}"))
        elif not _is_int(v, lo, hi):
            out.append(Diagnostic(f"parameters.{key}", f"{key} must be an integer{bound}"))
    if kind == "bernstein-check" and not out and p["N"] + p["max_order"] > DEGREE_CAP:
        out.append(Diagnostic("parameters.max_order", f"N + max_order must be <= {DEGREE_CAP}, the output degree cap"))
    if kind == "singular-space" and "names" not in p and "forms" not in p:
        out.append(Diagnostic("parameters", "need names (catalog keys) or forms (matrices)"))
    return out, filled


def _prepare(config):
    """Check a config and build its run's inputs with the library constructors.

    Returns (diagnostics, parameters, inputs). After the envelope checks,
    each input is built by the function its runner would call; its
    ValueError, or the TypeError, KeyError or IndexError of a malformed spec,
    becomes one Diagnostic addressed by the field being built. parameters
    has every default filled in; inputs holds the seeded rng and the built
    objects. Both are None unless diagnostics is empty.
    """
    out, p = _check_envelope(config)
    if out:
        return out, None, None
    kind = config["kind"]
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
        spec = inputs["spec"] = build("parameters", lambda: EvolutionSpec(s=p["s"], dim=p["dim"]))
    if kind == "spectral-scan":
        inputs["omega"] = build("parameters.omega", lambda: _build_omega(p["omega"]))
        if p["epsilon"] is not None:  # growth_fit's own check runs only after the scan
            build("parameters.epsilon", lambda: spectral._check_epsilon(p["epsilon"]))
    elif kind == "covering":
        inputs["rho"] = build("parameters.density", lambda: _build_density(p["density"]))
        inputs["box"] = build(
            "parameters.extent",
            lambda: geometry._as_box([(-float(p["extent"]), float(p["extent"]))] * p["dim"]),
        )
        if not out:  # a density that cannot be evaluated on the box fails before any grid is built
            build("parameters.density", lambda: inputs["rho"].min_on_box(inputs["box"]))
    elif kind == "dissipation":
        inputs["t_values"] = build(
            "parameters.t_values", lambda: [semigroup._check_time(float(t)) for t in p["t_values"]]
        )
    elif kind == "control-run":
        omega = build("parameters.omega", lambda: _build_omega(p["omega"]))
        if spec is not None:
            f0 = build("parameters.f0", lambda: _build_f0(p["f0"], spec.dim, p["N"], rng))
            # delta is read only by the reported reference exponent, so its rule is checked here
            build("parameters.delta", lambda: control.reference_blowup_exponent(spec.s, p["delta"]))
        if not out:
            inputs["problem"] = build(
                "parameters",
                lambda: control.ControlProblem(T=float(p["T"]), omega=omega, spec=spec, N=p["N"], f0=f0),
            )
    elif kind == "singular-space":
        catalog = symbols.catalog()
        inputs["named"] = build("parameters.names", lambda: [(n, catalog[n]) for n in p["names"]])
        inputs["forms"] = build("parameters.forms", lambda: [_build_form(Q) for Q in p["forms"]])
    return (out, None, None) if out else (out, p, inputs)


def validate(config) -> list:
    """Total check by building the run's inputs; returns Diagnostics, empty iff they all build."""
    return _prepare(config)[0]


# -- config -> objects --------------------------------------------------------


def _build_density(spec) -> geometry.DensityFn:
    """The density of a spec; its keys besides kind go to the constructor as keywords."""
    args, D = dict(spec), geometry.DensityFn
    make = {"constant": D.constant, "power": D.power, "tabulated": D.tabulated}.get(args.pop("kind"))
    if make is None:
        raise ValueError("density kind must be constant|power|tabulated")
    return make(**args)


def _build_omega(spec) -> geometry.ControlSet:
    """The sensor set of a spec; its keys besides type go to the constructor as keywords."""
    args = dict(spec)
    t = args.pop("type")
    if t == "full":
        return geometry.FullSpace(**args)
    if t == "intervals":
        return geometry.interval_union(**args)
    if t == "periodic":
        return geometry.PeriodicPattern(**{"dim": 1, **args})
    if t == "boxes":
        return geometry.BoxUnion(**{"dim": len(args["boxes"][0]), **args})
    if t == "graded":
        return geometry.graded_cells(_build_density(args.pop("density")), **args)
    raise ValueError("type must be full|intervals|periodic|boxes|graded")


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


def _gnuplot(csv_name, title, xlabel, ylabel, using, logy=False):
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
    lines.append(f"plot '{csv_name}' skip 1 using {using} with linespoints title '{ylabel}'")
    return "\n".join(lines) + "\n"


# -- per-kind runners ---------------------------------------------------------


def _import_lapack(ws):
    """Load scipy's LAPACK wrappers as phase import_s, not inside the first Gram's or Gramian's phase."""
    t0 = time.perf_counter()
    from scipy.linalg import lapack  # noqa: F401

    ws.timings["import_s"] = time.perf_counter() - t0


def _run_spectral_scan(p, inputs, ws):
    omega = inputs["omega"]
    ws.omega_hash = _omega_hash(omega)
    _import_lapack(ws)
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
        "max_quad_tol": max(r[3] for r in rows),
        "min_lambda_min": min(r[1] for r in rows),
        "rows": len(rows),
    }
    if isinstance(omega, geometry.FullSpace):  # C_N = 1 only on the whole space
        metrics["max_abs_cn_minus_1"] = max(abs(r[2] - 1.0) for r in rows)
    # a floored C_N is only a lower bound, so it stays out of the fit
    trusted = [(r[0], r[2]) for r in rows if not r[5]]
    if len(trusted) >= 5 and p["epsilon"] is not None:
        fit = spectral.growth_fit(trusted, p["epsilon"])
        metrics.update(fit_r2=fit.r2, fit_slope=fit.slope, fit_slope_err=fit.slope_err, fit_intercept=fit.intercept,
                       fit_rows=len(trusted), epsilon=p["epsilon"])
    ws.write_text("spectral.gp", _gnuplot("spectral.csv", "spectral constant growth", "N", "C_N", "1:3", logy=True))
    return metrics


def _run_bernstein_check(p, inputs, ws):
    dim, N = p["dim"], p["N"]
    rows = []
    t0 = time.perf_counter()
    pairs = bernstein._index_pairs(dim, p["max_order"])
    for a, b in pairs:
        chk = bernstein.crude_bernstein_check(dim, N, a, b)
        rows.append(("".join(map(str, a)), "".join(map(str, b)), chk.lhs, chk.rhs, chk.ratio))
    ws.timings["checks_s"] = time.perf_counter() - t0
    ws.counters["checks"] = len(rows)
    ws.write_csv("bernstein.csv", ["alpha", "beta", "norm", "bound", "ratio"], rows)
    ws.write_text(
        "bernstein.gp",
        _gnuplot("bernstein.csv", "derivative-bound ratios", "row", "ratio", "0:5"),
    )
    ratios = [row[-1] for row in rows]
    # the order-0 pair is the identity, whose norm and bound are both 1 on every span
    moving = [row[-1] for row, (a, b) in zip(rows, pairs) if sum(a) + sum(b) >= 1]
    return {"violations": sum(r > 1 + 1e-10 for r in ratios), "max_ratio": max(moving), "rows": len(rows)}


def _run_covering(p, inputs, ws):
    dim = p["dim"]
    t0 = time.perf_counter()
    cov = geometry.covering_generate(inputs["rho"], inputs["box"])
    ws.timings["covering_s"] = time.perf_counter() - t0
    ws.counters.update(candidates=cov.candidates, balls=len(cov.radii))
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
    t0 = time.perf_counter()
    for k in p["k_values"]:
        if k + 1 <= degree:
            alpha = (k + 1,) + (0,) * (spec.dim - 1)
            pure = basis_state(spec.dim, degree, alpha)
            for t in inputs["t_values"]:
                rep = semigroup.dissipation_tail(pure, k=k, t=t, spec=spec)
                sharp_gap = max(sharp_gap, abs(rep.tail_norm - rep.bound))
        for i in range(p["count"]):
            f = random_expansion(rng, dim=spec.dim, degree=degree)
            for t in inputs["t_values"]:
                rep = semigroup.dissipation_tail(f, k=k, t=t, spec=spec)
                ratio = rep.tail_norm / rep.bound if rep.bound > 0 else 0.0
                worst = max(worst, ratio)
                rows.append((k, t, i, rep.tail_norm, rep.bound, rep.weak_bound, ratio))
    ws.timings["dissipation_s"] = time.perf_counter() - t0
    ws.counters["rows"] = len(rows)
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
    _import_lapack(ws)
    t0 = time.perf_counter()
    signal, trace = control.lebeau_robbiano_synthesize(problem)
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
        "reference_exponent": control.reference_blowup_exponent(problem.spec.s, p["delta"]),
    }


def _run_singular_space(p, inputs, ws):
    todo = inputs["named"] + [(f"form{i}", q) for i, q in enumerate(inputs["forms"])]
    rows = []
    reports = {}
    t0 = time.perf_counter()
    for name, q in todo:
        res = symbols.singular_space(symbols.hamilton_map(q))
        rows.append((name, res.dimS, -1 if res.k0 is None else res.k0, int(res.ambiguous)))
        reports[name] = {"dimS": res.dimS, "k0": res.k0, "ambiguous": res.ambiguous, "basis": res.basis.tolist()}
    ws.timings["singular_space_s"] = time.perf_counter() - t0
    ws.counters["forms"] = len(rows)
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


def run(config, out_override=None) -> dict:
    """Execute one experiment config; returns the manifest dict.

    out_override, when given, replaces the config's output_dir. The manifest
    is written to output_dir/manifest.json only after every other artifact
    landed, so its presence marks a complete run. On any failure the partial
    outputs are removed before the exception leaves. The manifest's
    thread_env records the thread variables the BLAS and OpenMP pools read
    when they load; run() does not set them.
    """
    diags, p, inputs = _prepare(config)
    if diags:
        raise ConfigError(diags)
    outdir = out_override or config.get("output_dir") or "."
    os.makedirs(outdir, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.monotonic()
    ws = _Workspace(outdir)
    try:
        metrics = _RUNNERS[config["kind"]](p, inputs, ws)
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
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hermlab", description="spectral-estimate and control experiments"
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        k = sub.add_parser(kind, help=f"run a {kind} experiment")
        k.add_argument("--config", required=True, help="path to the JSON experiment config")
        k.add_argument("--out", default=None, help="output directory (overrides config)")
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
        manifest = run(config, out_override=args.out)
    except ConfigError as exc:
        for d in exc.diagnostics:
            print(f"error: {d}", file=sys.stderr)
        return 2
    except (
        MemoryError,
        ValueError,
        control.ControlError,
        geometry.CoverageError,
        geometry.QuadratureError,
        spectral.DegenerateRestrictionError,
    ) as exc:
        # run() already removed partial outputs; no manifest means no complete run
        print(f"error: run failed: {exc or type(exc).__name__}", file=sys.stderr)
        return 1
    outdir = args.out or config.get("output_dir") or "."
    for name in manifest["files"]:
        print(os.path.join(outdir, name))
    verdict = "pass" if manifest["acceptance"]["passed"] else "FAIL"
    print(f"acceptance: {verdict}")
    return 0 if manifest["acceptance"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
