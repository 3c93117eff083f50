"""Command-line surface: strict schema, exit codes, deterministic reports,
table/mesh/trace exports."""

import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import negrefractor
from conftest import duplicate_sheet_state, solvable_config, symmetric_pair_config
from negrefractor import cli, geometry, raytrace, refractor, solver

DATA = Path(__file__).parent / "data"


def _config_dict(**overrides):
    s, c = math.sin(math.radians(5.0)), math.cos(math.radians(5.0))
    doc = {
        "kappa": -1.5,
        "sigma": 1.0,
        "alpha_parallel": 0.5,
        "dimension": 3,
        "source": {"axis": [0.0, 0.0, 1.0], "half_angle_deg": 30.0, "density": "uniform"},
        "epsilon": 0.4,
        "targets": [{"P": [s, 0.0, c], "g": 0.3}, {"P": [-s, 0.0, c], "g": 0.3}],
        "b1": -1.4972,
        "tau": 1.2,
        "r0": 0.085,
        "quadrature_level": 6,
        "tolerances": {"measure_tol": 1e-4, "b_tol": 1e-10, "max_outer": 200},
        "seed": 0,
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_missing_kappa_is_parse_error(tmp_path, capsys):
    doc = _config_dict()
    del doc["kappa"]
    code = cli.main(["validate", _write(tmp_path, doc)])
    assert code == cli.EXIT_PARSE
    assert "kappa" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    code = cli.main(["validate", _write(tmp_path, _config_dict(kapa=-1.5))])
    assert code == cli.EXIT_PARSE
    assert "kapa" in capsys.readouterr().err


def test_unknown_nested_key_rejected(tmp_path):
    doc = _config_dict()
    doc["source"]["densty"] = "uniform"
    assert cli.main(["validate", _write(tmp_path, doc)]) == cli.EXIT_PARSE


def test_validate_ok(tmp_path):
    out = tmp_path / "val.json"
    code = cli.main(["validate", _write(tmp_path, _config_dict()), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["validation"]["passed"] is True


def test_validation_failure_exit_code(tmp_path):
    doc = _config_dict(r0=0.5)  # far outside the admissible window
    assert cli.main(["validate", _write(tmp_path, doc)]) == cli.EXIT_VALIDATION


def test_margin_that_empties_the_window_fails_validation(tmp_path, capsys):
    # kappa = -1.5: the window floor 1/kappa plus 1.7 lies above 1
    cfgp = _write(tmp_path, _config_dict(epsilon=1.7))
    out = tmp_path / "val.json"
    assert cli.main(["validate", cfgp, "--out", str(out)]) == cli.EXIT_VALIDATION
    rep = json.loads(out.read_text())["report"]["validation"]
    assert rep["passed"] is False and rep["c_eps"] == 1.0
    failed = [r["detail"] for r in rep["records"] if r["status"] == "fail"]
    assert any("empties the admissible window" in d for d in failed)
    assert cli.main(["solve", cfgp, "--out", str(tmp_path / "r.json")]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.count("validation failed") == 1


def test_critical_with_mismatched_impedance_warns_but_runs(tmp_path):
    doc = _config_dict(kappa=-1.0, sigma=1.3, b1=-0.9, tau=0.3, r0=0.3)
    out = tmp_path / "val.json"
    assert cli.main(["validate", _write(tmp_path, doc), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["report"]["validation"]
    assert any(
        r["name"] == "impedance-critical" and r["status"] == "warn"
        for r in rep["records"]
    )


def test_solve_writes_report_and_mesh(tmp_path):
    out = tmp_path / "report.json"
    mesh = tmp_path / "surface.obj"
    code = cli.main([
        "solve", _write(tmp_path, _config_dict()),
        "--out", str(out), "--export", str(mesh),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["solve"]["status"] == "converged"
    assert doc["report"]["weak_certificate"]["ok"] is True
    assert "report_sha256" in doc and "wall_times" in doc
    text = mesh.read_text()
    assert text.startswith("#") and "\nv " in text and "\nf " in text


def test_solve_reports_are_bit_identical(tmp_path):
    cfgp = _write(tmp_path, _config_dict())
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["solve", cfgp, "--out", str(out1)]) == 0
    assert cli.main(["solve", cfgp, "--out", str(out2)]) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    assert d1["report_sha256"] == d2["report_sha256"]
    assert cli.report_bytes(d1["report"]) == cli.report_bytes(d2["report"])


def test_solve_matches_golden_report(tmp_path):
    golden = json.loads((DATA / "m2_symmetric_report.json").read_text())
    out = tmp_path / "report.json"
    code = cli.main([
        "solve", str(DATA / "m2_symmetric.json"), "--out", str(out),
    ])
    assert code == 0
    fresh = json.loads(out.read_text())
    assert fresh["report_sha256"] == golden["report_sha256"]
    assert cli.report_bytes(fresh["report"]) == cli.report_bytes(golden["report"])


def _config_file_doc(cfg):
    """Config file document for a solvable_config (unit-scale targets)."""
    return {
        "kappa": cfg.medium.kappa,
        "dimension": 3,
        "source": {"axis": [0.0, 0.0, 1.0], "half_angle_deg": 30.0, "density": "uniform"},
        "epsilon": cfg.margin.epsilon,
        "targets": [
            {"P": [float(v) for v in P], "g": float(g)}
            for P, g in zip(cfg.targets.points, cfg.targets.weights)
        ],
        "b1": cfg.b1,
        "tau": cfg.tau,
        "r0": cfg.r0,
        "quadrature_level": cfg.quadrature_level,
    }


def _run_cli_subprocess(args, extra_env):
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    env.update(extra_env)
    src = str(Path(negrefractor.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "negrefractor.cli", *args],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr


def test_reports_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks the kernel of a dynamic-arch OpenBLAS; the
    # Prescott kernels round dot products differently from the default ones.
    # Where numpy is not linked that way the variable is inert and this
    # checks plain repeatability.
    cfgp = _write(tmp_path, _config_file_doc(solvable_config(-1.5, 5, seed=1005)))
    for command in ("solve", "validate"):
        docs = []
        for tag, extra in (("default", {}), ("prescott", {"OPENBLAS_CORETYPE": "Prescott"})):
            out = tmp_path / f"{command}-{tag}.json"
            _run_cli_subprocess([command, cfgp, "--out", str(out)], extra)
            docs.append(json.loads(out.read_text()))
        assert cli.report_bytes(docs[0]["report"]) == cli.report_bytes(docs[1]["report"])
        assert docs[0]["report_sha256"] == docs[1]["report_sha256"]


def _golden_bytes():
    golden = json.loads((DATA / "m2_symmetric_report.json").read_text())
    return cli.report_bytes(golden["report"])


def test_reports_do_not_depend_on_the_node_layout(tmp_path, monkeypatch):
    # the golden solve with every rule's nodes copied to row-major order
    # gives the golden bytes, which the column-major rule gives too
    # (test_solve_matches_golden_report)
    built = []

    def row_major(domain, level):
        rule = geometry.build_quadrature(domain, level)
        built.append(dataclasses.replace(rule, nodes=np.ascontiguousarray(rule.nodes)))
        return built[-1]

    monkeypatch.setattr(solver, "build_quadrature", row_major)
    out = tmp_path / "report.json"
    assert cli.main(["solve", str(DATA / "m2_symmetric.json"), "--out", str(out)]) == 0
    assert built and all(r.nodes.flags.c_contiguous for r in built)
    assert cli.report_bytes(json.loads(out.read_text())["report"]) == _golden_bytes()


def _umath():
    """numpy's module that lists the CPU features and dispatch targets."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            return importlib.import_module(name)
        except ImportError:
            continue
    return None


def test_reports_do_not_depend_on_the_simd_dispatch(tmp_path):
    # NPY_DISABLE_CPU_FEATURES switches off every SIMD target numpy would
    # dispatch to on this CPU, so its kernels run on the baseline; the
    # golden solve must still give the golden bytes
    umath = _umath()
    targets = [t for t in getattr(umath, "__cpu_dispatch__", ())
               if umath.__cpu_features__.get(t)]
    if not targets:
        pytest.skip("numpy dispatches to no SIMD target on this CPU")
    extra = {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}
    env = {**os.environ, **extra}
    probe = (f"import {umath.__name__} as u; "
             "print(' '.join(k for k, on in u.__cpu_features__.items() if on))")
    enabled = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True, timeout=120).stdout.split()
    assert not set(targets) & set(enabled)
    out = tmp_path / "report.json"
    _run_cli_subprocess(["solve", str(DATA / "m2_symmetric.json"), "--out", str(out)], extra)
    assert cli.report_bytes(json.loads(out.read_text())["report"]) == _golden_bytes()
    # the trace CSV's kernel reads np.log10, whose bits follow the dispatch
    rays = {}
    for name, env in (("baseline", extra), ("default", None)):
        rays[name] = tmp_path / f"rays-{name}.csv"
        argv = ["trace", str(DATA / "m2_symmetric.json"), "--state", str(out),
                "--out-csv", str(rays[name])]
        if env is None:
            assert cli.main(argv) == cli.EXIT_OK
        else:
            _run_cli_subprocess(argv, env)
    assert rays["baseline"].read_bytes() == rays["default"].read_bytes()


def test_versions_sit_outside_the_hashed_report(tmp_path):
    out = tmp_path / "val.json"
    assert cli.main(["validate", _write(tmp_path, _config_dict()), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert "versions" not in doc["report"]
    assert doc["versions"]["negrefractor"] == negrefractor.__version__
    assert list(doc) == ["report", "report_sha256", "versions", "wall_times"]


def test_nonconvergence_exit_code(tmp_path):
    # coarse quadrature cannot resolve the tolerance: node weight > tol
    doc = _config_dict(quadrature_level=4)
    out = tmp_path / "r.json"
    code = cli.main(["solve", _write(tmp_path, doc), "--out", str(out)])
    assert code == cli.EXIT_NONCONVERGENCE


def test_trace_and_export_roundtrip(tmp_path):
    cfgp = _write(tmp_path, _config_dict())
    report = tmp_path / "report.json"
    assert cli.main(["solve", cfgp, "--out", str(report)]) == 0
    rays = tmp_path / "rays.csv"
    audit = tmp_path / "audit.json"
    assert cli.main([
        "trace", cfgp, "--state", str(report),
        "--out-csv", str(rays), "--out", str(audit),
    ]) == 0
    header = rays.read_text().splitlines()
    assert header[0] == "x0,x1,x2,z0,z1,z2,m0,m1,m2,active,focus_error,r,t,skipped"
    assert len(header) == 1 + 2 * 4**6
    doc = json.loads(audit.read_text())
    assert doc["report"]["audit"]["miss_count"] == 0

    mesh = tmp_path / "surface.obj"
    assert cli.main([
        "export", cfgp, "--state", str(report), "--format", "obj",
        "--out", str(mesh),
    ]) == 0
    assert mesh.read_text().count("\nf ") > 0


def test_fresnel_table(tmp_path):
    out = tmp_path / "table.csv"
    code = cli.main([
        "fresnel-table", "--kappa", "-1.5", "--sigma", "1.2", "--alpha", "0.5",
        "--epsilon", "0.3", "--samples", "11", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,p,q,r,t"
    assert len(lines) == 12
    for row in lines[1:]:
        c, p, q, r, t = map(float, row.split(","))
        assert r + t == 1.0
        assert abs(r - (0.5 * p * p + 0.5 * q * q)) <= 1e-15


def test_fresnel_table_is_lossless_at_kappa_minus_one(tmp_path):
    out = tmp_path / "table.csv"
    code = cli.main([
        "fresnel-table", "--kappa", "-1", "--sigma", "1.3", "--epsilon", "0.1",
        "--samples", "21", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "c,p,q,r,t" and len(lines) == 22
    assert lines[1].split(",")[0] == "-1"  # the window [-1, 1] of AdmissibilityMargin
    for row in lines[1:]:
        assert row.split(",")[1:] == ["0", "0", "0", "1"]


@pytest.mark.parametrize("command", ["trace", "export"])
@pytest.mark.parametrize("state", [b'{"report": {"solve": {}}}', b"{not json", b"\xff\xfe{}", None])
def test_malformed_state_file_is_a_schema_error(tmp_path, capsys, command, state):
    cfgp = _write(tmp_path, _config_dict())
    statep = tmp_path / "state.json"
    if state is None:  # a directory
        statep.mkdir()
    else:
        statep.write_bytes(state)
    outputs = {"trace": ["--out-csv", str(tmp_path / "rays.csv")],
               "export": ["--out", str(tmp_path / "surface.obj")]}[command]
    code = cli.main([command, cfgp, "--state", str(statep), *outputs])
    assert code == cli.EXIT_PARSE
    assert "report.solve.b" in capsys.readouterr().err


def test_stray_key_error_is_an_internal_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("b")

    monkeypatch.setattr(solver, "solve_discrete", broken)
    code = cli.main(["solve", _write(tmp_path, _config_dict())])
    assert code == cli.EXIT_INTERNAL


def _two_dimensional_doc(level):
    a = math.radians(4.0)
    return {
        "kappa": -1.5,
        "dimension": 2,
        "source": {"axis": [0.0, 1.0], "half_angle_deg": 30.0, "density": "uniform"},
        "epsilon": 0.4,
        "targets": [
            {"P": [math.sin(a), math.cos(a)], "g": 0.25},
            {"P": [-math.sin(a), math.cos(a)], "g": 0.25},
        ],
        "b1": -1.4972,
        "tau": 1.2,
        "r0": 0.085,
        "quadrature_level": level,
    }


def test_two_dimensional_solve_and_polyline_export(tmp_path):
    cfgp = _write(tmp_path, _two_dimensional_doc(8), "flat.json")
    report = tmp_path / "report2d.json"
    assert cli.main(["solve", cfgp, "--out", str(report)]) == 0
    poly = tmp_path / "surface.csv"
    assert cli.main([
        "export", cfgp, "--state", str(report), "--format", "csv",
        "--out", str(poly),
    ]) == 0
    lines = poly.read_text().splitlines()
    assert lines[0] == "angle,rho"
    assert len(lines) == 1 + 4**8


def test_tabulated_density_must_match_rule(tmp_path):
    # level 4, dimension 3: 2 * 4^4 = 512 nodes
    doc = _config_dict(quadrature_level=4)
    doc["source"]["density"] = {"table": [1.0] * 512}
    out = tmp_path / "val.json"
    assert cli.main(["validate", _write(tmp_path, doc), "--out", str(out)]) == 0
    doc["source"]["density"] = {"table": [1.0] * 100}
    assert cli.main(["validate", _write(tmp_path, doc)]) == cli.EXIT_VALIDATION


def test_tabulated_density_solves_on_the_configured_rule(tmp_path):
    # the golden config at level 7, dimension 3: 2 * 4^7 = 32768 nodes; the
    # table has no values on the coarser rules of the quadrature ladder
    doc = json.loads((DATA / "m2_symmetric.json").read_text())
    doc["source"]["density"] = {"table": [1.0] * 32768}
    out = tmp_path / "report.json"
    assert cli.main(["solve", _write(tmp_path, doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text())["report"]
    assert report["solve"]["status"] == "converged"
    assert report["weak_certificate"]["ok"] is True
    assert {s["level"] for s in report["solve"]["sweeps"]} == {7}


def _set(path, value):
    """Config mutation: set the key at `path` (keys and list indices)."""
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return mutate


@pytest.mark.parametrize("command", ["validate", "solve"])
@pytest.mark.parametrize("case, named", [
    (b"{not json", "invalid JSON"),
    (b"\xff\xfe{", "invalid JSON"),  # not UTF-8
    (b"[]", "config root"),
    (_set(["tau"], "1.2"), "'tau'"),
    (_set(["dimension"], 4), "dimension"),
    (_set(["source"], "cap"), "source"),
    (_set(["source", "axis"], [0.0, 1.0]), "source.axis"),
    (_set(["source", "axis"], ["z", 0, 1]), "'axis entry'"),
    (_set(["source", "axis"], [False, False, True]), "'axis entry'"),
    (_set(["source", "density"], "gaussian"), "source.density"),
    (_set(["source", "density"], {"table": []}), "source.density.table"),
    (_set(["targets"], []), "targets"),
    (_set(["targets", 0], [0.0, 0.0, 1.0]), "targets[0]"),
    (_set(["targets", 1, "P"], [0.0, 1.0]), "targets[1].P"),
    (_set(["quadrature_level"], 0), "quadrature_level"),
    (_set(["tolerances"], []), "tolerances"),
    (_set(["seed"], 1.5), "seed"),
    (_set(["targets", 1, "P"], [0.0, 0.0, 0.0]), "target points"),
    *[(_set(["tolerances", "max_outer"], v), "max_outer") for v in ("x", None, 2.5, True, -3, 0)],
    (None, "cannot read config"),  # a directory
], ids=lambda v: v if isinstance(v, str) else None)
def test_schema_refusals_are_parse_errors(tmp_path, capsys, command, case, named):
    path = tmp_path / "config.json"
    if case is None:
        path.mkdir()
    elif isinstance(case, bytes):
        path.write_bytes(case)
    else:
        doc = _config_dict()
        case(doc)
        path.write_text(json.dumps(doc))
    assert cli.main([command, str(path)]) == cli.EXIT_PARSE
    assert named in capsys.readouterr().err


def test_canonical_json_17_digits():
    assert cli.canonical_json(1.0 / 3.0) == "0.33333333333333331"
    assert cli.canonical_json({"a": [1, 2.5, True, None, "s"]}) == '{"a":[1,2.5,true,null,"s"]}'


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------

def _reference_trace_csv(field, rule, path):
    """One `_fmt_float` call per cell, row by row: the writer the block
    writer must reproduce byte for byte."""
    Z, m_dir, assigned, tie = field.z, field.m, field.assigned, field.tie
    dim = rule.domain.dim
    cols = (
        [f"x{i}" for i in range(dim)]
        + [f"z{i}" for i in range(dim)]
        + [f"m{i}" for i in range(dim)]
        + ["active", "focus_error", "r", "t", "skipped"]
    )
    ok = ~tie
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for i in range(rule.count):
            row = list(rule.nodes[i]) + list(Z[i]) + list(m_dir[i])
            vals = [(cli._fmt_float(v) if v == v else "nan") for v in row]
            vals.append(str(int(assigned[i])))
            for v in (field.focus_error[i], field.r[i], field.t[i]):
                vals.append(cli._fmt_float(v) if ok[i] else "nan")
            vals.append("true" if tie[i] else "false")
            fh.write(",".join(vals) + "\n")


def _csv_case(name, tmp_path):
    """(state, rule) of a 3-D solve (2048 nodes; its z and m get every
    layout of `%.17g` in "layouts"), a duplicate-sheet state with some or
    only tie nodes (512 nodes) or a 2-D solve (4096 nodes)."""
    if name.endswith("_ties"):
        return duplicate_sheet_state(third_sheet=name == "mixed_ties")
    if name in ("solve_3d", "layouts"):
        cfg = symmetric_pair_config(-1.5, level=5)
    else:
        cfg, _ = cli.load_config(_write(tmp_path, _two_dimensional_doc(6)))
    rule = cfg.rule()
    return solver.solve_discrete(cfg, rule).state, rule


def _every_layout(field):
    """`field` with z and m values of every `%.17g` layout: exponents -300
    to 300 (fixed from -4 to 16), 1 to 17 significant digits, powers of ten,
    both signs, zeros and a subnormal."""
    mantissas = [1.0, 1.5, 1.2345678901234567, 9.9999999999999982, 5.5e-16 + 1]
    values = [m * 10.0**e for e in range(-300, 301) for m in mantissas]
    values += [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999998e16, 12345678.9, 0.0, -0.0, 5e-324]
    values = np.array(values + [-v for v in values])
    cells = np.concatenate([field.z, field.m], axis=1)
    assert values.size <= cells.size
    cells.flat[:values.size] = values
    dim = field.z.shape[1]
    return field._replace(z=cells[:, :dim].copy(), m=cells[:, dim:].copy())


@pytest.mark.parametrize("name", ["solve_3d", "mixed_ties", "all_ties", "solve_2d", "layouts"])
def test_trace_csv_matches_per_row_reference(tmp_path, monkeypatch, name):
    state, rule = _csv_case(name, tmp_path)
    field = raytrace.trace_field(state, rule, refractor.evaluate_field(state, rule))
    if name == "layouts":
        field = _every_layout(field)
    ref = tmp_path / "ref.csv"
    _reference_trace_csv(field, rule, ref)
    text = ref.read_bytes()
    assert text.count(b"\n") == 1 + rule.count
    if name.endswith("_ties"):
        assert b",nan,nan,nan,0,nan,nan,nan,true\n" in text
        assert (b"false" in text) == (name == "mixed_ties")
    # the default block, one that divides no node count, and one row
    for block in (cli._CSV_BLOCK, 1000, 1):
        monkeypatch.setattr(cli, "_CSV_BLOCK", block)
        out = tmp_path / f"rays-{block}.csv"
        cli.write_trace_csv(field, rule, str(out))
        assert out.read_bytes() == text, block


def _injected(field, name, i, value):
    array = getattr(field, name).copy()
    array[i] = value
    return field._replace(**{name: array})


def test_trace_csv_refuses_non_finite_values(tmp_path):
    state, rule = _csv_case("mixed_ties", tmp_path)
    field = raytrace.trace_field(state, rule, refractor.evaluate_field(state, rule))
    tie = field.tie
    i = int(np.argmin(tie))  # a traced node
    assert tie.any() and not tie[i]
    out = str(tmp_path / "rays.csv")
    for bad in (
        _injected(field, "z", (i, 1), np.inf),
        _injected(field, "z", (i, 2), -np.inf),
        _injected(field, "r", i, np.nan),
        _injected(field, "r", i, np.inf),
    ):
        with pytest.raises(ValueError, match="non-finite"):
            cli.write_trace_csv(bad, rule, out)
        with pytest.raises(ValueError, match="non-finite"):
            _reference_trace_csv(bad, rule, out)
    # NaN geometry is written as nan, and a tie node's r is never written
    j = int(np.argmax(tie))
    for fine in (_injected(field, "z", (i, 0), np.nan), _injected(field, "r", j, np.inf)):
        cli.write_trace_csv(fine, rule, out)
        text = Path(out).read_bytes()
        _reference_trace_csv(fine, rule, out)
        assert Path(out).read_bytes() == text


def _g17_cases():
    """Derandomized doubles for `cli._g17`: random bit patterns of every
    exponent, scaled normals, powers of ten and their neighbours across the
    fast range and past it, exact 18-digit ties, and the special values."""
    rng = np.random.default_rng(17)
    exponent = np.repeat(np.arange(2047, dtype=np.uint64), 16)
    bits = (exponent << np.uint64(52)) | rng.integers(0, 2**52, exponent.size, dtype=np.uint64)
    bits[::2] |= np.uint64(1) << np.uint64(63)
    normals = rng.standard_normal(20000) * 10.0 ** rng.uniform(-40, 40, 20000)
    tens = np.array([10.0**k for k in range(-323, 309)] + [float(f"1e{k}") for k in range(-323, 309)])
    tens = np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf)])
    # odd N / 2^s with N 5^s of 18 digits: the decimal expansion ends in a 5
    # at the 18th digit, a tie of the 17-digit rounding
    ties = []
    for s in range(2, 24):
        lo, hi = -(-10**17 // 5**s), min(10**18 // 5**s, 2**53)
        ties += [(int(N) | 1) / 2**s for N in rng.integers(lo, hi, 200)]
    ties = np.array(ties)
    ties = np.concatenate([ties, -ties] + [ties * 2.0**k for k in (-60, -7, 7, 60)])
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                        2.2250738585072009e-308, 2.2250738585072014e-308,
                        1.7976931348623157e308, -1.7976931348623157e308, 1e-200, 1e200])
    subnormal = rng.integers(1, 2**52, 200, dtype=np.uint64).view(np.float64)
    return np.concatenate([bits.view(np.float64), normals, tens, ties, special, subnormal])


def test_g17_kernel_matches_format(tmp_path, monkeypatch):
    values = _g17_cases()
    text = cli._g17(values)
    assert text.shape == (values.size, cli._G17_WIDTH) and not text[:, -1].any()
    got = [row.tobytes().translate(None, b"\0") for row in text]
    want = [format(x, ".17g").encode() for x in values.tolist()]
    assert got == want
    # the fast path decides nearly every cell of a solve's trace
    state, rule = _csv_case("solve_3d", tmp_path)
    traced = raytrace.trace_field(state, rule, refractor.evaluate_field(state, rule))
    slow = []
    monkeypatch.setattr(cli, "format", lambda x, spec: slow.append(x) or format(x, spec),
                        raising=False)
    cli.write_trace_csv(traced, rule, str(tmp_path / "rays.csv"))
    assert len(slow) < 1e-3 * rule.count * (3 * rule.domain.dim + 3), len(slow)


@pytest.fixture(scope="module")
def solved_report(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    cfgp = _write(tmp, _config_dict(quadrature_level=5))
    report = tmp / "report.json"
    assert cli.main(["solve", cfgp, "--out", str(report)]) in (0, cli.EXIT_NONCONVERGENCE)
    return cfgp, str(report)


def _trace_argv(solved_report, tmp_path):
    cfgp, report = solved_report
    return ["trace", cfgp, "--state", report,
            "--out-csv", str(tmp_path / "rays.csv"), "--out", str(tmp_path / "audit.json")]


def test_trace_traces_the_field_once(tmp_path, monkeypatch, solved_report):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return trace_field(*args, **kwargs)

    trace_field = raytrace.trace_field
    monkeypatch.setattr(raytrace, "trace_field", counted)
    monkeypatch.setattr(cli, "trace_field", counted)
    assert cli.main(_trace_argv(solved_report, tmp_path)) == cli.EXIT_OK
    assert len(calls) == 1
    doc = json.loads((tmp_path / "audit.json").read_text())
    assert doc["report"]["audit"]["miss_count"] == 0


def test_trace_with_non_finite_values_is_a_validation_error(tmp_path, monkeypatch, solved_report):
    trace_field = raytrace.trace_field

    def poisoned(state, rule, field):
        traced = trace_field(state, rule, field)
        i = int(np.argmin(traced.tie))
        return _injected(traced, "r", i, np.nan)

    monkeypatch.setattr(cli, "trace_field", poisoned)
    assert cli.main(_trace_argv(solved_report, tmp_path)) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("command", ["solve", "trace", "export"])
@pytest.mark.parametrize("unusable", ["directory", "missing parent"])
def test_unusable_output_path_is_a_usage_error(tmp_path, capsys, monkeypatch, solved_report,
                                              command, unusable):
    cfgp, report = solved_report
    out = tmp_path / "out"
    if unusable == "directory":
        out.mkdir()
    else:
        out = tmp_path / "missing" / "out"
    argv = {"solve": ["solve", cfgp, "--out", str(out)],
            "trace": ["trace", cfgp, "--state", report, "--out-csv", str(out)],
            "export": ["export", cfgp, "--state", report, "--out", str(out)]}[command]
    calls = _count_sheet_radii(monkeypatch)
    assert cli.main(argv) == cli.EXIT_PARSE
    assert f"cannot write output {out}" in capsys.readouterr().err
    assert not calls  # refused before any work


@pytest.mark.parametrize("command", ["solve", "export"])
@pytest.mark.parametrize("dimension, fmt", [(3, "csv"), (2, "obj")])
def test_export_format_must_fit_the_dimension(tmp_path, capsys, monkeypatch, command,
                                              dimension, fmt):
    doc = _config_dict(quadrature_level=5) if dimension == 3 else _two_dimensional_doc(5)
    cfgp = _write(tmp_path, doc)
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"report": {"solve": {"b": [doc["b1"]] * len(doc["targets"])}}}))
    report, surface = tmp_path / "r.json", tmp_path / f"surface.{fmt}"
    argv = {"solve": ["solve", cfgp, "--out", str(report), "--export", str(surface),
                      "--export-format", fmt],
            "export": ["export", cfgp, "--state", str(state), "--format", fmt,
                       "--out", str(surface)]}[command]
    calls = _count_sheet_radii(monkeypatch)
    assert cli.main(argv) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert f"cannot write output {surface}: {fmt} export does not fit a {dimension}-D" in err
    assert not calls and not report.exists() and not surface.exists()


def _count_sheet_radii(monkeypatch):
    """Count every call of `refractor.sheet_radii`, through each module that
    binds it; returns the list that grows by one per call."""
    calls = []
    original = refractor.sheet_radii

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (refractor, raytrace, solver, cli):
        if getattr(module, "sheet_radii", None) is original:
            monkeypatch.setattr(module, "sheet_radii", counted)
    return calls


def test_trace_evaluates_the_sheets_once(tmp_path, monkeypatch, solved_report):
    calls = _count_sheet_radii(monkeypatch)
    assert cli.main(_trace_argv(solved_report, tmp_path)) == cli.EXIT_OK
    assert len(calls) == 1


def test_solve_evaluates_no_sheets_after_the_solver(tmp_path, monkeypatch):
    calls = _count_sheet_radii(monkeypatch)
    at_return = []
    solve = solver.solve_discrete

    def solve_discrete(*args, **kwargs):
        report = solve(*args, **kwargs)
        at_return.append(len(calls))
        return report

    monkeypatch.setattr(solver, "solve_discrete", solve_discrete)
    cfgp = _write(tmp_path, _config_dict(quadrature_level=5))
    mesh = tmp_path / "surface.obj"
    code = cli.main(["solve", cfgp, "--out", str(tmp_path / "r.json"), "--export", str(mesh)])
    assert code in (cli.EXIT_OK, cli.EXIT_NONCONVERGENCE)
    assert at_return and at_return[0] > 0
    assert len(calls) == at_return[0]
