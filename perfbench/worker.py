"""Run one workload in this process: set up, time whole passes, check, report.

Started by run.py with the BLAS and OpenMP thread counts fixed to 1 and
hermlab's ``src`` on PYTHONPATH. It prints ``READY`` once the imports, the
inputs and one untimed warm-up operation are done (run.py times set-up up to
that line), then repeats passes over all the workload's operations until
``--seconds`` have gone by, checks every output after each pass, outside the
timed region, and prints one JSON line with the raw results.

With ``--trace 1`` the passes run with every hermlab layer function wrapped
(see spans.py) and the JSON carries per-pass span summaries.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import hermlab
import spans
from workloads import WORKLOADS


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file name."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return out
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def settings() -> dict:
    """What makes two sets of numbers comparable."""
    return {
        "hermlab_backend": hermlab.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def run_pass(ops, tracer, trace: bool, op_base: int):
    outputs = []
    t0 = time.perf_counter()
    for k, (op_id, fn) in enumerate(ops):
        try:
            out = tracer.operation(op_base + k, fn) if trace else fn()
            outputs.append((op_id, out, None))
        except Exception as exc:  # an operation that raises is a failed operation
            outputs.append((op_id, None, f"{type(exc).__name__}: {exc}"))
    return time.perf_counter() - t0, outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default="spans.npz", help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true", help="exit right after set-up")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    workload.warmup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    ops = workload.operations()
    trace = bool(args.trace)
    tracer = spans.Tracer()
    if trace:
        tracer.install()
    pass_s, summaries, failures = [], [], {}
    attempted = failed = 0
    unexpected = set()
    begin = time.perf_counter()
    while True:
        first = len(tracer.start)
        tracer.active = trace
        elapsed, outputs = run_pass(ops, tracer, trace, len(pass_s) * len(ops))
        tracer.active = False
        pass_s.append(elapsed)
        if trace:
            summaries.append(tracer.summarize(first, len(tracer.start)))
        for op_id, out, error in outputs:
            errs = [error] if error else workload.check(op_id, out)
            attempted += 1
            if errs:
                failed += 1
                failures.setdefault(op_id, errs)
                if op_id not in workload.expected_failures:
                    unexpected.add(op_id)
        if time.perf_counter() - begin >= args.seconds:
            break
    if trace:
        tracer.uninstall()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "unexpected_failures": sorted(unexpected),
        "failures": failures,
        "pass_s": pass_s,
        "median_pass_s": statistics.median(pass_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "settings": settings(),
    }
    if trace:
        result["layers"] = summaries
        result["spans"] = len(tracer.start)
        tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
