"""hermlab benchmark: one workload per call, timed from outside, outputs checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectral-2d --seed 1 --seconds 20 --trace 0

Each workload runs in its own worker process (worker.py) with one BLAS and
OpenMP thread. Set-up time is taken from the moment a worker is started until
it reports ready, in SETUP_SAMPLES fresh processes, and reported as their
median. With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics (setup_s, pass_s, peak_rss_mb); with
``--trace 1`` it carries the per-layer metrics of a traced run instead.
Full results, with the settings that make numbers comparable, go to
perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("spectral-2d", "spectral-1d", "control-1d", "geometry")
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

# per-layer metric -> (span name, field, unit)
PER_LAYER = {
    "kernels.hermite_function_table.calls": ("kernels.hermite_function_table", "calls", "count"),
    "kernels.hermite_function_table.entries": ("kernels.hermite_function_table", "work", "count"),
    "kernels.hermite_function_table.self_s": ("kernels.hermite_function_table", "self_s", "s"),
    "kernels.greedy_ball_select.self_s": ("kernels.greedy_ball_select", "self_s", "s"),
    "spectral.gram_matrix.calls": ("spectral.gram_matrix", "calls", "count"),
    "spectral.gram_matrix.self_s": ("spectral.gram_matrix", "self_s", "s"),
    "spectral.spectral_constant.self_s": ("spectral.spectral_constant", "self_s", "s"),
    "spectral.min_eigenvalue.calls": ("spectral.min_eigenvalue", "calls", "count"),
    "spectral.min_eigenvalue.self_s": ("spectral.min_eigenvalue", "self_s", "s"),
    "geometry.slice_first.calls": ("geometry.slice_first", "calls", "count"),
    "geometry.covering_generate.self_s": ("geometry.covering_generate", "self_s", "s"),
    "geometry.intersection_measure.calls": ("geometry.intersection_measure", "calls", "count"),
    "geometry.intersection_measure.self_s": ("geometry.intersection_measure", "self_s", "s"),
    "control.lebeau_robbiano_synthesize.self_s": ("control.lebeau_robbiano_synthesize", "self_s", "s"),
    "control.gramian.calls": ("control.gramian", "calls", "count"),
    "control.gramian.self_s": ("control.gramian", "self_s", "s"),
    "control.resimulate.self_s": ("control.resimulate", "self_s", "s"),
    "numpy.leggauss.calls": ("numpy.leggauss", "calls", "count"),
    "numpy.leggauss.self_s": ("numpy.leggauss", "self_s", "s"),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_cmd(args, *extra) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]


def worker_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def run_worker(args, deadline: float, *extra) -> tuple:
    """Run one worker to its end; returns (seconds until READY, output after it).

    A timer kills the worker at the deadline, so a hung worker ends the run.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(args, *extra), cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        setup = None
        for line in proc.stdout:
            if line.strip() == "READY":
                setup = time.perf_counter() - t0
                break
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
    if setup is None or proc.returncode != 0:
        raise BenchError(f"worker failed with exit code {proc.returncode}")
    return setup, rest


def layer_metrics(layers: list) -> tuple:
    """Per-layer metrics from per-pass span summaries: counts per pass, median self times."""
    metrics, steady = {}, True
    for name, (span, field, unit) in PER_LAYER.items():
        values = [p.get(span, {}).get(field, 0) for p in layers]
        if field == "self_s":
            value = statistics.median(values)
        else:
            steady = steady and len(set(values)) == 1
            value = values[0]
        metrics[name] = {"value": value, "unit": unit}
    return metrics, steady


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True, help="how long the timed passes run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hermlab" / "__init__.py").is_file():
        print(f"error: no hermlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.npz"
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(run_worker(args, deadline, "--setup-only")[0])
        t, out = run_worker(args, deadline, "--spans", str(spans_path))
        setup.append(t)
        raw = json.loads(out.strip().splitlines()[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    raw["setup_s"] = setup
    if args.trace:
        metrics, raw["counts_steady"] = layer_metrics(raw["layers"])
        metrics["traced.pass_s"] = {"value": raw["median_pass_s"], "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": raw["median_pass_s"], "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
        }
    summary = {
        "correct": not raw["unexpected_failures"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    raw["summary"] = summary
    (RESULTS / f"{tag}.json").write_text(json.dumps(raw, indent=1) + "\n", encoding="utf-8")

    print(f"# settings {json.dumps(raw['settings'], sort_keys=True)}")
    print(f"# {args.workload} seed={args.seed}: {len(raw['pass_s'])} passes, "
          f"{raw['attempted']} operations attempted, {raw['failed']} failed")
    for op_id, errs in raw["failures"].items():
        print(f"# failed {op_id}: {errs[0]}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
