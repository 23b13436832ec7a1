import csv
import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import hermlab
from hermlab import bernstein, cli, control, geometry, spectral
from hermlab.cli import ConfigError, load_config, main, run, validate
from hermlab.hermite import DEGREE_CAP


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
    assert set(timings) == {"import_s", "assembly_s", "solve_s"}
    assert min(timings.values()) >= 0.0
    assert sum(timings.values()) <= manifest["metrics"]["wall_time_s"]


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


def test_growth_fit_skips_floored_rows(tmp_path):
    # C_N of a floored row is only a lower bound; here N = 150 and 175 floor
    Ns = list(range(25, 176, 25))
    omega = {"type": "periodic", "dim": 1, "period": 4.0, "kept": 0.25}
    cfg = {"kind": "spectral-scan", "seed": 0, "parameters": {"N_values": Ns, "epsilon": 1.0, "omega": omega}}
    metrics = run(cfg, out_override=str(tmp_path))["metrics"]
    with open(tmp_path / "spectral.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    trusted = [(int(r["N"]), float(r["C_N"])) for r in rows if r["floor"] == "0"]
    fit = spectral.growth_fit(trusted, 1.0)
    assert metrics["floor_rows"] == 2 and metrics["fit_rows"] == len(trusted) == 5
    assert (metrics["fit_slope"], metrics["fit_slope_err"], metrics["fit_r2"]) == (fit.slope, fit.slope_err, fit.r2)
    assert "max_abs_cn_minus_1" not in metrics
    # with fewer than five rows left no fit is reported
    cfg["parameters"]["N_values"] = Ns[2:]
    metrics = run(cfg, out_override=str(tmp_path / "short"))["metrics"]
    assert metrics["floor_rows"] == 2 and "fit_slope" not in metrics and "fit_rows" not in metrics


def test_spectral_plot_labels_its_x_axis_n(tmp_path):
    params = {"N_values": [2, 4, 6, 8, 10], "epsilon": 0.5, "omega": {"type": "full"}}
    cfg = {"kind": "spectral-scan", "seed": 0, "parameters": params}
    metrics = run(cfg, out_override=str(tmp_path))["metrics"]
    assert metrics["fit_rows"] == 5 and metrics["max_abs_cn_minus_1"] <= 1e-8
    gp = (tmp_path / "spectral.gp").read_text().splitlines()
    assert "set xlabel 'N'" in gp and gp[-1].startswith("plot 'spectral.csv' skip 1 using 1:3 ")


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


def test_manifest_records_the_thread_environment(tmp_path, monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    before = dict(os.environ)
    path = _write(tmp_path, "cfg.json", _full_scan(str(tmp_path / "out")))
    assert main(["spectral-scan", "--config", path]) == 0
    assert dict(os.environ) == before
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["thread_env"] == {"OMP_NUM_THREADS": None, "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": None}
    assert "threads" not in manifest and "threads_applied" not in manifest


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
    # no deviation is below 0, so this criterion fails whatever the rounding
    failing["acceptance"] = [{"metric": "max_abs_cn_minus_1", "op": "<", "value": 0.0}]
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
    "full-space-3d": (_scan_probe({"type": "full", "dim": 3}), 1),
    "periodic-2d-above-degree-cap": (_scan_probe({"type": "periodic", "dim": 2, "period": 4.0, "kept": 0.25}, [30]), 1),
    "periodic-dim-0": (_scan_probe({"type": "periodic", "dim": 0, "period": 4.0, "kept": 0.25}), 2),
    # balls are no omega type: 1-D balls are written as intervals
    "balls-2d": (_scan_probe({"type": "balls", "centers": [[0.0, 0.0], [3.0, 1.0]], "radii": [1.5, 1.0]}, [2]), 2),
    "nan-interval": (_scan_probe({"type": "intervals", "intervals": [[math.nan, 1.0]]}), 2),
    "nan-box": (_scan_probe({"type": "boxes", "boxes": [[[0.0, 1.0], [math.nan, 1.0]]]}, [2]), 2),
    "nan-interval-end": (_scan_probe({"type": "intervals", "intervals": [[0.0, 1.0], [2.0, math.nan]]}), 2),
    "string-interval": (_scan_probe({"type": "intervals", "intervals": [["a", "b"]]}), 2),
    "periodic-infinite-period": (_scan_probe({"type": "periodic", "period": math.inf, "kept": 0.25}), 2),
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
    "tabulated-density-on-a-2d-box": (
        {
            "kind": "covering",
            "parameters": {"density": {"kind": "tabulated", "grid": [0, 1], "values": [1, 1]}, "extent": 5.0, "dim": 2},
        },
        2,
    ),
    "covering-infinite-constant": (
        {"kind": "covering", "parameters": {"density": {"kind": "constant", "m": math.inf}, "extent": 5.0}},
        2,
    ),
    "covering-boolean-constant": (
        {"kind": "covering", "parameters": {"density": {"kind": "constant", "m": True}, "extent": 5.0}},
        2,
    ),
    "covering-boolean-power-R": (
        {"kind": "covering", "parameters": {"density": {"kind": "power", "R": True, "eps": 0.5}, "extent": 5.0}},
        2,
    ),
    "covering-boolean-power-eps": (
        {"kind": "covering", "parameters": {"density": {"kind": "power", "R": 1.0, "eps": True}, "extent": 5.0}},
        2,
    ),
    "covering-nan-power-R": (
        {"kind": "covering", "parameters": {"density": {"kind": "power", "R": math.nan, "eps": 0.5}, "extent": 5.0}},
        2,
    ),
    "tabulated-infinite-grid": (
        {
            "kind": "covering",
            "parameters": {"density": {"kind": "tabulated", "grid": [0, math.inf], "values": [1, 1]}, "extent": 5.0},
        },
        2,
    ),
    "tabulated-nan-values": (
        {
            "kind": "covering",
            "parameters": {"density": {"kind": "tabulated", "grid": [0, 1], "values": [1, math.nan]}, "extent": 5.0},
        },
        2,
    ),
    "graded-infinite-constant": (
        _scan_probe({"type": "graded", "density": {"kind": "constant", "m": math.inf}, "gamma": 0.5, "extent": 5.0}),
        2,
    ),
    "covering-reversed-extent": (
        {"kind": "covering", "parameters": {"density": {"kind": "constant", "m": 1.0}, "extent": -1.0}},
        2,
    ),
    "covering-nan-extent": (
        {"kind": "covering", "parameters": {"density": {"kind": "constant", "m": 1.0}, "extent": math.nan}},
        2,
    ),
    "covering-beyond-candidate-cap": (
        {"kind": "covering", "parameters": {"density": {"kind": "constant", "m": 1.0}, "extent": 1e4, "dim": 2}},
        1,
    ),
    "basis-index-above-N": (_control_probe(f0={"type": "basis", "alpha": [9]}), 2),
    "coeffs-too-short": (_control_probe(f0={"type": "coeffs", "coeffs": [1.0, 0.0]}), 2),
    "sensor-set-2d-spec-1d": (_control_probe(omega={"type": "periodic", "dim": 2, "period": 2.0, "kept": 0.5}), 2),
    "control-infinite-horizon": (_control_probe(T=math.inf), 2),
    "dissipation-dim-0": (
        {
            "kind": "dissipation",
            "parameters": {"s": 1.0, "dim": 0, "k_values": [2], "t_values": [0.1], "degree": 5},
        },
        2,
    ),
    "dissipation-nan-time": (
        {
            "kind": "dissipation",
            "parameters": {"s": 1.0, "k_values": [2], "t_values": [math.nan, 0.5], "degree": 5},
        },
        2,
    ),
    "ragged-form": ({"kind": "singular-space", "parameters": {"forms": [[[1, 0], [0]]]}}, 2),
    "nan-form": ({"kind": "singular-space", "parameters": {"forms": [[[1, 0], [0, math.nan]]]}}, 2),
    "infinite-form": ({"kind": "singular-space", "parameters": {"forms": [[[math.inf, 0], [0, 1]]]}}, 2),
    "misspelled-acceptance": (dict(_scan_probe({"type": "full"}), acceptanse=[]), 2),
    "unknown-parameter": (_scan_probe({"type": "full"}, tolerance=1e-12), 2),
    "misspelled-offset": (_scan_probe({"type": "periodic", "period": 4.0, "kept": 0.25, "ofset": 1.0}), 2),
    "extra-boxes-key": (_scan_probe({"type": "boxes", "boxes": [[[0.0, 1.0]]], "dims": 1}), 2),
    "extra-intervals-key": (_scan_probe({"type": "intervals", "intervals": [[0.0, 1.0]], "radius": 2.0}), 2),
    "extra-graded-key": (
        _scan_probe(
            {"type": "graded", "density": {"kind": "constant", "m": 0.5}, "gamma": 0.5, "extent": 5.0, "extnt": 9.0}
        ),
        2,
    ),
    "extra-density-key": (
        {"kind": "covering", "parameters": {"density": {"kind": "constant", "m": 1, "R": 5}, "extent": 5.0}},
        2,
    ),
    "scan-above-degree-cap": (_scan_probe({"type": "full"}, [DEGREE_CAP + 1]), 2),
    "bernstein-above-degree-cap": ({"kind": "bernstein-check", "parameters": {"N": DEGREE_CAP + 1, "max_order": 1}}, 2),
    "bernstein-output-above-degree-cap": (
        {"kind": "bernstein-check", "parameters": {"N": DEGREE_CAP - 2, "max_order": 3}},
        2,
    ),
    "misspelled-assertion-key": (
        dict(_scan_probe({"type": "full"}), acceptance=[{"metric": "rows", "op": "==", "value": 1, "vaule": 2}]),
        2,
    ),
    "dissipation-above-degree-cap": (
        {
            "kind": "dissipation",
            "parameters": {"s": 1.0, "k_values": [2], "t_values": [0.1], "degree": DEGREE_CAP + 1},
        },
        2,
    ),
    "control-above-degree-cap": (_control_probe(N=DEGREE_CAP + 1), 2),
    "covering-steep-power": (
        {
            "kind": "covering",
            "parameters": {"density": {"kind": "power", "R": 2.0, "eps": 0.5}, "extent": 3.0, "dim": 2},
        },
        1,
    ),
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
    assert len(lines) == 1
    if expected == 1:
        assert lines[0].startswith("error: run failed: ")
    else:  # addressed by the config field at fault
        field = lines[0].removeprefix("error: ").split(":")[0]
        assert re.split(r"[.\[]", field)[0] in cfg
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_negative_basis_index_is_named_in_the_diagnostic(tmp_path, capsys):
    cfg = _control_probe(f0={"type": "basis", "alpha": [-1]})
    path = _write(tmp_path, "probe.json", cfg)
    assert main([cfg["kind"], "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error: parameters.f0: index (-1,) is not a multi-index of the dim-1 degree-4 span" in err


def test_every_kind_has_one_runner_in_the_same_order():
    assert cli.KINDS == ("spectral-scan", "bernstein-check", "covering", "dissipation", "control-run", "singular-space")
    assert list(cli._RUNNERS) == list(cli.KINDS)


def test_main_rejects_kind_mismatch(tmp_path, capsys):
    path = _write(tmp_path, "scan.json", _full_scan(str(tmp_path / "k")))
    assert main(["covering", "--config", path]) == 2


def test_main_out_overrides_the_output_dir(tmp_path):
    cfg = dict(_full_scan(str(tmp_path / "ignored")), seed=9)
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["spectral-scan", "--config", path, "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["seed"] == 9
    assert not (tmp_path / "ignored").exists()


def test_main_reports_a_refused_allocation_in_one_line(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(bernstein, "crude_bernstein_check", refuse)
    cfg = {"kind": "bernstein-check", "parameters": {"N": 4, "max_order": 1}}
    path = _write(tmp_path, "cfg.json", cfg)
    assert main(["bernstein-check", "--config", path, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: run failed: Unable to allocate 7.28 TiB"]
    assert not (tmp_path / "out" / "manifest.json").exists()


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
    assert manifest["counters"] == {"candidates": 121, "balls": manifest["metrics"]["balls"]}
    assert 0.0 <= manifest["timings"]["covering_s"] <= manifest["metrics"]["wall_time_s"]


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


def _csv_rows(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_bernstein_check_manifest_counts_and_times_checks(tmp_path):
    cfg = {"kind": "bernstein-check", "seed": 1, "parameters": {"dim": 1, "N": 12, "max_order": 3}}
    manifest = run(cfg, out_override=str(tmp_path))
    rows = _csv_rows(tmp_path / "bernstein.csv")
    assert manifest["counters"] == {"checks": len(rows)} and len(rows) == manifest["metrics"]["rows"] == 10
    assert set(manifest["timings"]) == {"checks_s"}
    assert 0.0 <= manifest["timings"]["checks_s"] <= manifest["metrics"]["wall_time_s"]


def test_bernstein_check_rows_are_exact_norms_independent_of_the_seed(tmp_path):
    texts = []
    for seed in (1, 2):
        cfg = {"kind": "bernstein-check", "seed": seed, "parameters": {"dim": 2, "N": 4, "max_order": 2}}
        run(cfg, out_override=str(tmp_path / str(seed)))
        texts.append((tmp_path / str(seed) / "bernstein.csv").read_bytes())
    assert texts[0] == texts[1]
    rows = _csv_rows(tmp_path / "1" / "bernstein.csv")
    assert list(rows[0]) == ["alpha", "beta", "norm", "bound", "ratio"]
    assert len(rows) == len({(r["alpha"], r["beta"]) for r in rows}) == 15
    x1 = next(r for r in rows if (r["alpha"], r["beta"]) == ("10", "00"))
    assert float(x1["norm"]) == bernstein.crude_bernstein_check(2, 4, (1, 0), (0, 0)).lhs


def test_bernstein_check_max_ratio_leaves_out_the_order_zero_identity(tmp_path):
    cfg = {"kind": "bernstein-check", "seed": 1, "parameters": {"dim": 1, "N": 20, "max_order": 4}}
    manifest = run(cfg, out_override=str(tmp_path))
    rows = _csv_rows(tmp_path / "bernstein.csv")
    assert (rows[0]["alpha"], rows[0]["beta"], float(rows[0]["ratio"])) == ("0", "0", 1.0)
    assert manifest["metrics"]["max_ratio"] == max(float(r["ratio"]) for r in rows[1:])
    assert manifest["metrics"]["max_ratio"] < 1


def test_dissipation_manifest_counts_rows_and_times_tails(tmp_path):
    cfg = {
        "kind": "dissipation",
        "seed": 2,
        "parameters": {"s": 1.0, "k_values": [1, 3], "t_values": [0.1, 0.5], "degree": 6, "count": 2},
    }
    manifest = run(cfg, out_override=str(tmp_path))
    rows = _csv_rows(tmp_path / "dissipation.csv")
    assert manifest["counters"] == {"rows": len(rows)} and len(rows) == manifest["metrics"]["rows"] == 8
    assert set(manifest["timings"]) == {"dissipation_s"}
    assert 0.0 <= manifest["timings"]["dissipation_s"] <= manifest["metrics"]["wall_time_s"]


def test_singular_space_manifest_counts_forms_and_times_them(tmp_path):
    cfg = {
        "kind": "singular-space",
        "parameters": {"names": ["harmonic", "free-laplacian"], "forms": [[[1, 0], [0, 1]]]},
    }
    manifest = run(cfg, out_override=str(tmp_path))
    rows = _csv_rows(tmp_path / "singular_space.csv")
    assert manifest["counters"] == {"forms": len(rows)} and len(rows) == manifest["metrics"]["forms"] == 3
    assert set(manifest["timings"]) == {"singular_space_s"}
    assert 0.0 <= manifest["timings"]["singular_space_s"] <= manifest["metrics"]["wall_time_s"]


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
    timings = manifest["timings"]
    assert set(timings) == {"import_s", "synthesis_s"}
    assert min(timings.values()) >= 0.0
    assert sum(timings.values()) <= manifest["metrics"]["wall_time_s"]


def test_load_config_round_trip(tmp_path):
    path = _write(tmp_path, "c.json", _full_scan("x"))
    assert load_config(path)["kind"] == "spectral-scan"
