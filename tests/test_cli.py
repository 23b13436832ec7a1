import csv
import importlib.util
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import hermlab
from hermlab import cli, control, geometry, spectral
from hermlab.cli import ConfigError, load_config, main, run, validate


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def _full_scan(outdir):
    return {
        "kind": "spectral-scan",
        "seed": 0,
        "output_dir": outdir,
        "parameters": {"N_values": [0, 4, 8], "omega": {"type": "full", "dim": 1}},
        "acceptance": [{"metric": "max_abs_cn_minus_1", "op": "<=", "value": 1e-8}],
    }


def test_validate_accepts_runnable_config(tmp_path):
    assert validate(_full_scan(str(tmp_path))) == []


def test_validate_epsilon_message():
    cfg = _full_scan(".")
    cfg["parameters"]["epsilon"] = 1.5
    msgs = [d.message for d in validate(cfg)]
    assert "ε must lie in (0,1]" in msgs


def test_validate_s_messages():
    cfg = {
        "kind": "dissipation",
        "parameters": {"s": 0.5, "k_values": [2], "t_values": [0.1], "degree": 5},
    }
    msgs = [d.message for d in validate(cfg)]
    assert "s must exceed 1/2" in msgs
    cfg["parameters"]["s"] = 1.3
    msgs = [d.message for d in validate(cfg)]
    assert "s must not exceed 1" in msgs


def test_validate_delta_message():
    cfg = {
        "kind": "control-run",
        "parameters": {
            "s": 0.6,
            "delta": 0.3,
            "N": 4,
            "T": 1.0,
            "omega": {"type": "periodic", "period": 2.0, "kept": 0.5},
        },
    }
    diags = validate(cfg)
    assert any(d.message == "δ < 2s−1 required" for d in diags)
    assert any(d.field == "parameters.delta" for d in diags)


def test_validate_is_total_on_junk():
    assert validate(42) != []
    assert validate({"kind": "nonsense"}) != []
    assert validate({"kind": "covering", "parameters": {}}) != []


def test_run_writes_manifest_last(tmp_path):
    cfg = _full_scan(str(tmp_path / "out"))
    manifest = run(cfg)
    outdir = tmp_path / "out"
    assert (outdir / "manifest.json").exists()
    listed = set(manifest["files"])
    assert listed == {"spectral.csv", "spectral.gp"}
    for name in listed:
        assert (outdir / name).exists()
    assert manifest["acceptance"]["passed"] is True
    assert manifest["tool_version"]
    assert len(manifest["config_hash"]) == 64
    assert manifest["omega_hash"] == cli._omega_hash(geometry.FullSpace(1))


def test_spectral_scan_manifest_counts_assemblies_and_nodes(tmp_path):
    cfg = {
        "kind": "spectral-scan",
        "seed": 0,
        "parameters": {
            "N_values": [10, 40],
            "omega": {"type": "periodic", "dim": 1, "period": 4.0, "kept": 0.25},
        },
    }
    run(cfg, out_override=str(tmp_path))
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    omega = geometry.PeriodicPattern(dim=1, period=4.0, kept=0.25)
    nodes = [spectral.gram_matrix(omega, N).nodes for N in (10, 40)]
    assert manifest["counters"] == {"gram_assemblies": 2, "quadrature_nodes": sum(nodes)}


def test_spectral_scan_manifest_times_assembly_and_solve(tmp_path):
    cfg = {
        "kind": "spectral-scan",
        "seed": 0,
        "parameters": {
            "N_values": [4, 8],
            "omega": {"type": "periodic", "dim": 2, "period": 4.0, "kept": 0.25},
        },
    }
    manifest = run(cfg, out_override=str(tmp_path))
    timings = manifest["timings"]
    assert set(timings) == {"assembly_s", "solve_s"}
    assert min(timings.values()) >= 0.0
    assert timings["assembly_s"] + timings["solve_s"] <= manifest["metrics"]["wall_time_s"]


def _scan_omega_hash(tmp_path, name, omega_spec):
    cfg = {"kind": "spectral-scan", "seed": 0, "parameters": {"N_values": [4], "omega": omega_spec}}
    return run(cfg, out_override=str(tmp_path / name))["omega_hash"]


def test_manifest_hashes_the_built_sensor_set(tmp_path):
    a = _scan_omega_hash(tmp_path, "a", {"type": "boxes", "dim": 1, "boxes": [[[0.0, 1.0]], [[2.0, 3.0]]]})
    b = _scan_omega_hash(tmp_path, "b", {"type": "boxes", "dim": 1, "boxes": [[[0.0, 1.0]], [[2.0, 3.5]]]})
    assert len(a) == 64 and a != b
    # the same set through other key orders and through the intervals spec
    same = [
        {"boxes": [[[0.0, 1.0]], [[2.0, 3.0]]], "dim": 1, "type": "boxes"},
        {"intervals": [[0, 1], [2, 3]], "type": "intervals"},
    ]
    for i, spec in enumerate(same):
        assert _scan_omega_hash(tmp_path, f"same{i}", spec) == a
    periodic = {"type": "periodic", "period": 4, "kept": 0.25}
    assert _scan_omega_hash(tmp_path, "p1", periodic) == _scan_omega_hash(
        tmp_path, "p2", {"kept": 0.25, "period": 4.0, "type": "periodic", "offset": 0}
    )
    assert _scan_omega_hash(tmp_path, "p3", dict(periodic, offset=1.0)) != _scan_omega_hash(tmp_path, "p4", periodic)


def test_csv_dialect(tmp_path):
    run(_full_scan(str(tmp_path)))
    raw = (tmp_path / "spectral.csv").read_bytes()
    assert b"\r" not in raw
    text = raw.decode()
    assert text.splitlines()[0] == "N,lambda_min,C_N,quad_tol,lambda_err,floor"
    assert ";" not in text


def test_floor_column_flags_rounding_noise(tmp_path):
    cfg = {
        "kind": "spectral-scan",
        "seed": 0,
        "parameters": {
            "N_values": [50, 200],
            "omega": {"type": "periodic", "dim": 1, "period": 4.0, "kept": 0.25},
        },
    }
    manifest = run(cfg, out_override=str(tmp_path))
    rows = (tmp_path / "spectral.csv").read_text().splitlines()[1:]
    assert [r.split(",")[-1] for r in rows] == ["0", "1"]
    assert manifest["metrics"]["floor_rows"] == 1


def test_cli_import_leaves_scipy_special_unloaded():
    src = os.path.dirname(os.path.dirname(hermlab.__file__))
    code = "import sys, hermlab.cli; print('scipy.special' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_scipy_linalg_unloaded():
    src = os.path.dirname(os.path.dirname(hermlab.__file__))
    code = "import sys, hermlab.cli; print(any(m.startswith('scipy.linalg') for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_spectral_import_leaves_scipy_linalg_unloaded():
    src = os.path.dirname(os.path.dirname(hermlab.__file__))
    code = "import sys, hermlab.spectral; print(any(m.startswith('scipy.linalg') for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_manifest_records_whether_thread_cap_applied(tmp_path, monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    have_threadpoolctl = importlib.util.find_spec("threadpoolctl") is not None
    for threads, applied in ((None, False), (1, have_threadpoolctl)):
        out = tmp_path / str(threads)
        argv = ["spectral-scan", "--config", _write(tmp_path, "cfg.json", _full_scan(str(out)))]
        if threads is not None:
            argv += ["--threads", str(threads)]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["threads"] == threads
        assert manifest["threads_applied"] is applied


def test_determinism_byte_identical(tmp_path):
    cfg = {
        "kind": "spectral-scan",
        "seed": 11,
        "parameters": {
            "N_values": [10, 20, 30, 40, 50],
            "epsilon": 0.5,
            "omega": {
                "type": "graded",
                "density": {"kind": "power", "R": 1.0, "eps": 0.5},
                "gamma": 0.5,
                "extent": 25.0,
            },
        },
    }
    run(cfg, out_override=str(tmp_path / "a"))
    run(cfg, out_override=str(tmp_path / "b"))
    assert (tmp_path / "a" / "spectral.csv").read_bytes() == (
        tmp_path / "b" / "spectral.csv"
    ).read_bytes()


def test_failed_run_cleans_partial_outputs(tmp_path):
    cfg = {
        "kind": "control-run",
        "seed": 0,
        "output_dir": str(tmp_path / "broken"),
        "parameters": {
            "s": 1.0,
            "N": 4,
            "T": 1.0,
            # sensor set far outside the resolved envelope: Gramian is singular
            "omega": {"type": "intervals", "intervals": [[50.0, 51.0]]},
        },
    }
    assert validate(cfg) == []
    with pytest.raises(Exception):
        run(cfg)
    outdir = tmp_path / "broken"
    assert not (outdir / "manifest.json").exists()
    assert not any(outdir.iterdir())


def test_run_raises_config_error_with_diagnostics():
    cfg = {"kind": "spectral-scan", "parameters": {"N_values": [], "omega": {"type": "full"}}}
    with pytest.raises(ConfigError) as err:
        run(cfg)
    assert err.value.diagnostics


def test_main_exit_codes(tmp_path, capsys):
    good = _write(tmp_path, "good.json", _full_scan(str(tmp_path / "g")))
    assert main(["spectral-scan", "--config", good]) == 0

    failing = _full_scan(str(tmp_path / "f"))
    failing["acceptance"] = [{"metric": "max_abs_cn_minus_1", "op": "<=", "value": 0.0}]
    bad_acc = _write(tmp_path, "failing.json", failing)
    assert main(["spectral-scan", "--config", bad_acc]) == 1

    invalid = _full_scan(str(tmp_path / "i"))
    invalid["parameters"]["epsilon"] = 1.5
    bad_cfg = _write(tmp_path, "invalid.json", invalid)
    assert main(["spectral-scan", "--config", bad_cfg]) == 2
    err = capsys.readouterr().err
    assert "ε must lie in (0,1]" in err


def test_main_reports_runtime_failure_cleanly(tmp_path, capsys):
    cfg = {
        "kind": "control-run",
        "seed": 0,
        "output_dir": str(tmp_path / "broken"),
        "parameters": {
            "s": 1.0,
            "N": 4,
            "T": 1.0,
            "omega": {"type": "intervals", "intervals": [[50.0, 51.0]]},
        },
    }
    path = _write(tmp_path, "crash.json", cfg)
    assert main(["control-run", "--config", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: run failed:")
    assert "Traceback" not in err
    assert not (tmp_path / "broken" / "manifest.json").exists()


def _scan_probe(omega, N_values=(4,), **extra):
    return {"kind": "spectral-scan", "parameters": dict({"N_values": list(N_values), "omega": omega}, **extra)}


def _control_probe(**extra):
    omega = {"type": "periodic", "period": 2.0, "kept": 0.5}
    return {"kind": "control-run", "parameters": dict({"s": 1.0, "N": 4, "T": 1.0, "omega": omega}, **extra)}


# (config, exit code): 2 where a library constructor rejects an input while
# the config is validated, 1 where only the run itself can find the fault
_PROBES = {
    "boxes-of-mixed-dimension": (_scan_probe({"type": "boxes", "boxes": [[[0, 1]], [[0, 1], [0, 1]]]}), 2),
    "reversed-interval": (_scan_probe({"type": "intervals", "intervals": [[2, 1]]}), 2),
    "negative-radius": (_scan_probe({"type": "balls", "centers": [[0.0]], "radii": [-1.0]}), 2),
    "full-space-3d": (_scan_probe({"type": "full", "dim": 3}), 1),
    "periodic-2d-above-degree-cap": (_scan_probe({"type": "periodic", "dim": 2, "period": 4.0, "kept": 0.25}, [30]), 1),
    "periodic-dim-0": (_scan_probe({"type": "periodic", "dim": 0, "period": 4.0, "kept": 0.25}), 2),
    "balls-2d-gram": (_scan_probe({"type": "balls", "centers": [[0.0, 0.0], [3.0, 1.0]], "radii": [1.5, 1.0]}, [2]), 1),
    "string-interval": (_scan_probe({"type": "intervals", "intervals": [["a", "b"]]}), 2),
    "string-offset": (_scan_probe({"type": "periodic", "period": 4.0, "kept": 0.25, "offset": "x"}), 2),
    "unsorted-scan-with-epsilon": (_scan_probe({"type": "full"}, [4, 2, 8, 6, 10], epsilon=0.5), 1),
    "graded-beyond-cell-cap": (
        _scan_probe({"type": "graded", "density": {"kind": "constant", "m": 0.5}, "gamma": 0.5, "extent": 1e9}),
        2,
    ),
    "tabulated-string-grid": (
        {
            "kind": "covering",
            "parameters": {"density": {"kind": "tabulated", "grid": [0, "x"], "values": [1, 1]}, "extent": 5.0},
        },
        2,
    ),
    "basis-index-above-N": (_control_probe(f0={"type": "basis", "alpha": [9]}), 2),
    "coeffs-too-short": (_control_probe(f0={"type": "coeffs", "coeffs": [1.0, 0.0]}), 2),
    "sensor-set-2d-spec-1d": (_control_probe(omega={"type": "periodic", "dim": 2, "period": 2.0, "kept": 0.5}), 2),
    "dissipation-dim-0": (
        {
            "kind": "dissipation",
            "parameters": {"s": 1.0, "dim": 0, "k_values": [2], "t_values": [0.1], "degree": 5},
        },
        2,
    ),
    "ragged-form": ({"kind": "singular-space", "parameters": {"forms": [[[1, 0], [0]]]}}, 2),
}


@pytest.mark.parametrize("name", sorted(_PROBES))
def test_validated_config_runs_or_fails_in_one_line(tmp_path, capsys, name):
    cfg, expected = _PROBES[name]
    path = _write(tmp_path, "probe.json", cfg)
    t0 = time.perf_counter()
    code = main([cfg["kind"], "--config", path, "--out", str(tmp_path / "out")])
    assert time.perf_counter() - t0 < 5.0
    lines = capsys.readouterr().err.splitlines()
    assert code == expected
    assert "Traceback" not in "\n".join(lines)
    assert (validate(cfg) == []) == (expected == 1)
    if expected == 1:
        assert len(lines) == 1 and lines[0].startswith("error: run failed: ")
    else:
        assert lines and all(line.startswith("error: parameters") for line in lines)
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_main_rejects_kind_mismatch(tmp_path, capsys):
    path = _write(tmp_path, "scan.json", _full_scan(str(tmp_path / "k")))
    assert main(["covering", "--config", path]) == 2


def test_main_seed_and_out_overrides(tmp_path):
    cfg = _full_scan(str(tmp_path / "ignored"))
    path = _write(tmp_path, "cfg.json", cfg)
    code = main(["spectral-scan", "--config", path, "--out", str(tmp_path / "o"), "--seed", "9"])
    assert code == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert not (tmp_path / "ignored").exists()


def test_covering_run_exports_centers(tmp_path):
    cfg = {
        "kind": "covering",
        "seed": 0,
        "output_dir": str(tmp_path),
        "parameters": {"density": {"kind": "power", "R": 1.0, "eps": 0.5}, "extent": 10.0, "dim": 1},
        "acceptance": [{"metric": "max_multiplicity", "op": "<=", "value": 33}],
    }
    manifest = run(cfg)
    assert manifest["acceptance"]["passed"]
    assert "omega_hash" not in manifest  # a covering builds no sensor set
    lines = (tmp_path / "covering.csv").read_text().splitlines()
    assert lines[0] == "x1,radius"
    assert len(lines) - 1 == manifest["metrics"]["balls"]


def test_singular_space_run_matches_catalog(tmp_path):
    cfg = {
        "kind": "singular-space",
        "seed": 0,
        "output_dir": str(tmp_path),
        "parameters": {
            "names": [
                "harmonic",
                "rotated-harmonic",
                "free-laplacian",
                "kramers-fokker-planck",
            ]
        },
    }
    run(cfg)
    rows = (tmp_path / "singular_space.csv").read_text().splitlines()[1:]
    table = {r.split(",")[0]: tuple(r.split(",")[1:3]) for r in rows}
    assert table["harmonic"] == ("0", "0")
    assert table["rotated-harmonic"] == ("0", "0")
    assert table["free-laplacian"] == ("1", "-1")
    assert table["kramers-fokker-planck"] == ("0", "1")


def test_control_run_manifest_lists_trace(tmp_path):
    cfg = {
        "kind": "control-run",
        "seed": 4,
        "output_dir": str(tmp_path),
        "parameters": {
            "s": 1.0,
            "N": 10,
            "T": 1.0,
            "omega": {"type": "periodic", "period": 2.0, "kept": 0.5},
        },
        "acceptance": [{"metric": "terminal_residual_rel", "op": "<=", "value": 1e-6}],
    }
    manifest = run(cfg)
    assert manifest["acceptance"]["passed"]
    assert "trace.json" in manifest["files"]
    assert "cost.csv" in manifest["files"]
    assert manifest["omega_hash"] == cli._omega_hash(geometry.PeriodicPattern(dim=1, period=2.0, kept=0.5))
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert {"stages", "total_cost", "terminal_residual"} <= set(trace)
    for stage in trace["stages"]:
        assert {"interval", "level", "cost", "residual"} <= set(stage)


def test_control_run_manifest_counts_stages_and_times_synthesis(tmp_path):
    cfg = {
        "kind": "control-run",
        "seed": 4,
        "parameters": {
            "s": 1.0,
            "delta": 0.5,
            "N": 10,
            "T": 1.0,
            "omega": {"type": "periodic", "period": 2.0, "kept": 0.5},
        },
    }
    manifest = run(cfg, out_override=str(tmp_path))
    # (1 + delta) / (2s - 1 - delta) with s = 1, delta = 0.5
    assert manifest["metrics"]["reference_exponent"] == control.reference_blowup_exponent(1.0, 0.5) == 3.0
    with open(tmp_path / "cost.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert manifest["counters"]["stages"] == len(rows) > 0
    assert manifest["counters"]["max_level"] == max(int(r["level"]) for r in rows)
    assert 0.0 <= manifest["timings"]["synthesis_s"] <= manifest["metrics"]["wall_time_s"]


def test_load_config_round_trip(tmp_path):
    path = _write(tmp_path, "c.json", _full_scan("x"))
    assert load_config(path)["kind"] == "spectral-scan"
