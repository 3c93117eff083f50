"""Smoke tests of the benchmark itself: tiny runs print every metric with its
unit, the tracer restores every function it wraps, and the generator is
deterministic and reproduces the acceptance inputs at the default seed."""

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace and workload == "radon_refine":
        assert metrics["raytrace.trace_field.calls"] == 0
        assert metrics["raytrace.energy_audit.calls"] == 0
        assert metrics["solver.energy_evals"] > 0
    if trace and workload == "trace_many":
        assert metrics["solver.energy_evals"] == 0
        assert metrics["cli.write_trace_csv.rows"] == 2048
    if not trace:
        assert all(v > 0 for v in metrics.values())
        assert "fail_ratio" in proc.stdout


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "trace_many", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _snapshot():
    return {id(ns): dict(vars(ns)) for ns in tracer._namespaces()}


def test_tracer_wraps_every_namespace_and_restores(tmp_path):
    import negrefractor
    from negrefractor import cli, geometry, raytrace, refractor, solver

    before = _snapshot()
    recorder = tracer.SpanRecorder()
    with pytest.raises(RuntimeError):
        with tracer.traced(recorder):
            wrapped = solver.sheet_radii
            assert wrapped is not before[id(solver)]["sheet_radii"]
            assert raytrace.sheet_radii is wrapped is refractor.sheet_radii
            assert raytrace.assign_envelope is solver.assign_envelope
            assert solver.build_quadrature is geometry.build_quadrature
            assert negrefractor.solve_discrete is solver.solve_discrete
            assert negrefractor.energy_audit is cli.energy_audit
            assert cli.trace_field is raytrace.trace_field
            assert cli.canonical_json is before[id(cli)]["canonical_json"]
            assert solver._CoordinateWorkspace is before[id(solver)]["_CoordinateWorkspace"]
            geometry.build_quadrature(negrefractor.make_cap([0.0, 0.0, 1.0], 0.5, 3), 2)
            raise RuntimeError("leave the block early")
    after = _snapshot()
    assert before.keys() == after.keys()
    for key, attrs in before.items():
        assert attrs.keys() == after[key].keys()
        assert all(after[key][name] is value for name, value in attrs.items())
    metrics = recorder.per_layer()
    assert metrics["geometry.build_quadrature.calls"] == (1, "count")


def test_generated_inputs_are_byte_identical_per_seed(tmp_path):
    for name, cls in workloads.WORKLOADS.items():
        files = []
        for run in ("a", "b", "c"):
            seed = 7 if run != "c" else 8
            d = tmp_path / f"{name}-{run}"
            d.mkdir()
            cls().setup(seed, d)
            files.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
        assert files[0] == files[1]
        assert files[0] != files[2]


def _same(a, b):
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
        )
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if callable(a):
        return True  # density callables are rebuilt per instance
    return a == b


def test_default_seed_reproduces_the_acceptance_inputs():
    tests = ROOT / "tests"
    criteria = _module("_criteria_conftest", tests / "conftest.py")
    for kappa in inputs.MATRIX_KAPPAS:
        for m in inputs.MATRIX_SIZES:
            doc = inputs.solvable_case(kappa, m, 1000 + m)
            cfg = criteria.solvable_config(kappa, m, seed=1000 + m, level=8)
            assert np.array_equal([t["P"] for t in doc["targets"]], cfg.targets.points)
            assert np.array_equal([t["g"] for t in doc["targets"]], cfg.targets.weights)
            assert (doc["kappa"], doc["b1"], doc["tau"], doc["r0"], doc["quadrature_level"]) == (
                cfg.medium.kappa, cfg.b1, cfg.tau, cfg.r0, cfg.quadrature_level)
    cases = dict(inputs.matrix_cases(inputs.DEFAULT_SEED))
    assert cases["golden_m2"] == json.loads((tests / "data" / "m2_symmetric.json").read_text())
    assert cases["k-1.5_m5"] == inputs.solvable_case(-1.5, 5, 1005)
    assert len(cases) == 11

    sys.modules.setdefault("conftest", criteria)
    acceptance = _module("_criteria_acceptance", tests / "test_acceptance.py")
    expected = acceptance._disk_problem()
    got = inputs.radon_problem(inputs.radon_spec(inputs.DEFAULT_SEED))
    assert _same(got, expected)


def test_pinned_trace_state_matches_its_digest():
    state = inputs.load_trace_state()
    assert len(state["b"]) == len(state["config"]["targets"]) == 60
