"""Command-line front end: config ingestion, solve/trace/export dispatch,
deterministic serialization.

Configs are strict JSON (unknown keys are rejected so typos cannot silently
change a run).  Angles are degrees in configs, radians internally.  On load,
all target coordinates are rescaled so the nearest target sits at distance 1;
the scale factor is echoed in the report.  Reports carry a SHA-256 over their
deterministic section, which depends only on the config and the code; the
package versions and wall-clock timings live outside it.

Exit codes: 0 ok, 2 parse/schema, 3 validation, 4 non-convergence,
5 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, detmath, fresnel, solver
from .fresnel import AdmissibilityMargin, MediumPair
from .geometry import make_cap
from .raytrace import energy_audit, trace_field
from .refractor import EmissionDensity, RefractorState, TargetSpec, evaluate_field
from .solver import ProblemConfig, Tolerances, ValidationFailure

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NONCONVERGENCE = 4
EXIT_INTERNAL = 5


class SchemaError(ValueError):
    """An input violates the strict schema, or a path cannot be used."""


# ---------------------------------------------------------------------------
# deterministic JSON
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite number in report: {x}")
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """JSON text with floats at 17 significant digits and stable layout."""
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def report_bytes(report: dict) -> bytes:
    return canonical_json(report).encode()


def _versions() -> dict:
    return {
        "negrefractor": __version__,
        "numpy": np.__version__,
        "python": ".".join(map(str, sys.version_info[:3])),
    }


def finalize_report(report: dict, wall_times: dict) -> str:
    """Report document: the hashed section, its SHA-256, then the
    environment-dependent versions and wall times."""
    body = report_bytes(report)
    sha = hashlib.sha256(body).hexdigest()
    return (
        '{"report":'
        + body.decode()
        + ',"report_sha256":'
        + json.dumps(sha)
        + ',"versions":'
        + canonical_json(_versions())
        + ',"wall_times":'
        + canonical_json(wall_times)
        + "}"
    )


# ---------------------------------------------------------------------------
# strict schema
# ---------------------------------------------------------------------------

def _check_keys(d: dict, allowed: set, where: str):
    unknown = set(d) - allowed
    if unknown:
        raise SchemaError(f"unknown key(s) {sorted(unknown)} in {where}")


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise SchemaError(f"missing required key '{key}' in {where}")
    return d[key]


def _number(v, key: str):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"key '{key}' must be a number, got {type(v).__name__}")
    return float(v)


def _integer(v, key: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or (minimum is not None and v < minimum):
        at_least = "" if minimum is None else f" >= {minimum}"
        raise SchemaError(f"key '{key}' must be an integer{at_least}, got {v!r}")
    return v


def load_config(path: str):
    """Parse and validate a config file into a ProblemConfig.

    Returns (config, echo) where echo is the deterministic config record for
    the report (including the normalization scale applied to lengths).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not UTF-8
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError("config root must be an object")
    _check_keys(
        raw,
        {
            "kappa", "sigma", "alpha_parallel", "dimension", "source",
            "epsilon", "targets", "b1", "tau", "r0", "quadrature_level",
            "tolerances", "seed",
        },
        "config root",
    )
    kappa = _number(_need(raw, "kappa", "config root"), "kappa")
    sigma = _number(raw.get("sigma", 1.0), "sigma")
    alpha = _number(raw.get("alpha_parallel", 0.5), "alpha_parallel")
    dim = _need(raw, "dimension", "config root")
    if dim not in (2, 3):
        raise SchemaError(f"dimension must be 2 or 3, got {dim!r}")

    source = _need(raw, "source", "config root")
    if not isinstance(source, dict):
        raise SchemaError("source must be an object")
    _check_keys(source, {"axis", "half_angle_deg", "density"}, "source")
    axis = _need(source, "axis", "source")
    if not isinstance(axis, list) or len(axis) != dim:
        raise SchemaError(f"source.axis must be a list of {dim} numbers")
    axis = [_number(v, "axis entry") for v in axis]
    half_angle = np.deg2rad(_number(_need(source, "half_angle_deg", "source"), "half_angle_deg"))
    density_spec = source.get("density", "uniform")
    if density_spec == "uniform":
        density = EmissionDensity.uniform(1.0)
    elif isinstance(density_spec, dict):
        _check_keys(density_spec, {"table"}, "source.density")
        table = _need(density_spec, "table", "source.density")
        if not isinstance(table, list) or not table:
            raise SchemaError("source.density.table must be a nonempty list")
        density = EmissionDensity.from_table([_number(v, "table entry") for v in table])
    else:
        raise SchemaError('source.density must be "uniform" or {"table": [...]}')

    epsilon = _number(_need(raw, "epsilon", "config root"), "epsilon")
    targets_raw = _need(raw, "targets", "config root")
    if not isinstance(targets_raw, list) or not targets_raw:
        raise SchemaError("targets must be a nonempty list")
    points, weights = [], []
    for i, entry in enumerate(targets_raw):
        if not isinstance(entry, dict):
            raise SchemaError(f"targets[{i}] must be an object")
        _check_keys(entry, {"P", "g"}, f"targets[{i}]")
        P = _need(entry, "P", f"targets[{i}]")
        if not isinstance(P, list) or len(P) != dim:
            raise SchemaError(f"targets[{i}].P must be a list of {dim} numbers")
        points.append([_number(v, "P entry") for v in P])
        weights.append(_number(_need(entry, "g", f"targets[{i}]"), "g"))

    b1 = _number(_need(raw, "b1", "config root"), "b1")
    tau = _number(_need(raw, "tau", "config root"), "tau")
    r0 = _number(_need(raw, "r0", "config root"), "r0")
    level = _integer(_need(raw, "quadrature_level", "config root"), "quadrature_level", 1)

    tol_raw = raw.get("tolerances", {})
    if not isinstance(tol_raw, dict):
        raise SchemaError("tolerances must be an object")
    _check_keys(tol_raw, {"measure_tol", "b_tol", "max_outer"}, "tolerances")
    tolerances = Tolerances(
        measure_tol=_number(tol_raw.get("measure_tol", 1e-4), "measure_tol"),
        b_tol=_number(tol_raw.get("b_tol", 1e-10), "b_tol"),
        max_outer=_integer(tol_raw.get("max_outer", 200), "max_outer", 1),
    )
    # accepted and echoed for compatibility; nothing in a run depends on it
    _integer(raw.get("seed", 0), "seed")

    # normalization: nearest target distance becomes the length unit
    pts = np.asarray(points, dtype=float)
    norms = detmath.norm_rows(pts)
    if np.any(norms <= 0.0):
        raise SchemaError("target points must be nonzero")
    scale = float(norms.min())
    pts = pts / scale

    config = ProblemConfig(
        domain=make_cap(axis, half_angle, dim),
        density=density,
        medium=MediumPair(kappa=kappa, sigma=sigma, alpha=alpha),
        margin=AdmissibilityMargin(epsilon),
        targets=TargetSpec(pts, np.asarray(weights, dtype=float)),
        b1=b1 / scale,
        tau=tau,
        r0=r0 / scale,
        quadrature_level=level,
        tolerances=tolerances,
    )
    echo = dict(raw)
    echo["normalization_scale"] = scale
    return config, echo


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def _check_output(path: str | None, fmt: str | None = None, dim: int | None = None) -> None:
    """Refuse an unusable output before any work: a directory, a path whose
    directory is missing, or an export format for surfaces of another dimension."""
    if path and os.path.isdir(path):
        reason = "is a directory"
    elif path and not os.path.isdir(os.path.dirname(path) or "."):
        reason = "its directory does not exist"
    elif path and fmt and {"obj": 3, "csv": 2}[fmt] != dim:
        reason = f"{fmt} export does not fit a {dim}-D surface"
    else:
        return
    raise SchemaError(f"cannot write output {path}: {reason}")


def _open_output(path: str):
    """Open an output file; a path that cannot be written is a usage error."""
    try:
        return open(path, "w")
    except OSError as exc:
        raise SchemaError(f"cannot write output {path}: {exc.strerror}") from exc


def export_surface(rho: np.ndarray, rule, path: str, fmt: str) -> None:
    """Write the envelope surface rho(x) x: OBJ triangle mesh (n=3) or CSV polyline (n=2)."""
    if fmt == "csv":
        angles = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0])
        with _open_output(path) as fh:
            fh.write("angle,rho\n")
            for a, r in zip(angles, rho):
                fh.write(f"{_fmt_float(a)},{_fmt_float(r)}\n")
        return
    n_polar, n_az = rule.grid_shape
    verts = rho[:, None] * rule.nodes
    lines = ["# envelope refractor surface"]
    for v in verts:
        lines.append(f"v {_fmt_float(v[0])} {_fmt_float(v[1])} {_fmt_float(v[2])}")
    for i in range(n_polar - 1):
        for k in range(n_az):
            a = i * n_az + k + 1
            b = i * n_az + (k + 1) % n_az + 1
            c = (i + 1) * n_az + k + 1
            d = (i + 1) * n_az + (k + 1) % n_az + 1
            lines.append(f"f {a} {b} {d}")
            lines.append(f"f {a} {d} {c}")
    with _open_output(path) as fh:
        fh.write("\n".join(lines) + "\n")


# Rows per write of the trace CSV: one %-format call formats a whole block.
_CSV_BLOCK = 4096


def write_trace_csv(traced, rule, path: str) -> None:
    """Write one CSV row per node of `traced = trace_field(state, rule, field)`.

    Floats are written as `format(x, ".17g")`; x, z and m are "nan" where
    NaN, and the focus error (to the assigned target), r and t are "nan" on
    tie nodes.  Any other non-finite value raises ValueError, like
    `_fmt_float`, before anything is written.
    """
    tie = traced.tie
    dim = rule.domain.dim
    cols = (
        [f"x{i}" for i in range(dim)]
        + [f"z{i}" for i in range(dim)]
        + [f"m{i}" for i in range(dim)]
        + ["active", "focus_error", "r", "t", "skipped"]
    )
    ray = np.column_stack([traced.focus_error, traced.r, traced.t])
    ray[tie] = np.nan
    geo = np.hstack([rule.nodes, traced.z, traced.m])
    ray_ok = ray[~tie]
    bad = np.concatenate([geo[np.isinf(geo)], ray_ok[~np.isfinite(ray_ok)]])
    if bad.size:
        raise ValueError(f"non-finite number in report: {bad[0]}")
    n_geo = geo.shape[1]
    row_fmt = ",".join(["%.17g"] * n_geo + ["%d"] + ["%.17g"] * 3 + ["%s"]) + "\n"
    skipped = np.where(tie, "true", "false")
    with _open_output(path) as fh:
        fh.write(",".join(cols) + "\n")
        for lo in range(0, rule.count, _CSV_BLOCK):
            blk = slice(lo, lo + _CSV_BLOCK)
            block = geo[blk]
            cells = np.empty((len(block), n_geo + 5), dtype=object)
            cells[:, :n_geo] = block
            cells[:, n_geo] = traced.assigned[blk]
            cells[:, n_geo + 1:n_geo + 4] = ray[blk]
            cells[:, -1] = skipped[blk]
            fh.write(row_fmt * len(cells) % tuple(cells.ravel().tolist()))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    config, echo = load_config(args.config)
    _check_output(args.out)
    report = solver.validate(config)
    doc = {"config": echo, "validation": report.to_dict()}
    text = finalize_report(doc, {})
    _write_or_print(text, args.out)
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _state_from_report(config: ProblemConfig, report_path: str) -> RefractorState:
    try:
        with open(report_path) as fh:
            b = json.load(fh)["report"]["solve"]["b"]
    # OSError: unreadable; ValueError: not JSON or not UTF-8
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SchemaError(
            f"state file {report_path} is not a solve report with report.solve.b: {exc!r}"
        ) from exc
    return RefractorState(config.medium, config.targets, np.asarray(b, dtype=float))


def _write_or_print(text: str, out: str | None):
    if out:
        with _open_output(out) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_solve(args) -> int:
    t0 = time.perf_counter()
    config, echo = load_config(args.config)
    _check_output(args.out)
    _check_output(args.export, args.export_format, config.domain.dim)
    rule = config.rule()
    t1 = time.perf_counter()
    report = solver.solve_discrete(config, rule)
    t2 = time.perf_counter()
    ok_weak, certificate = solver.verify_weak(config, report.measures)
    audit = energy_audit(
        report.state, rule, config.density, report.field,
        trace_field(report.state, rule, report.field),
    )
    t3 = time.perf_counter()
    doc = {
        "config": echo,
        "validation": report.validation.to_dict(),
        "solve": report.to_dict(),
        "weak_certificate": {"ok": ok_weak, "entries": certificate},
        "audit": audit.to_dict(),
    }
    text = finalize_report(
        doc,
        {
            "setup_s": t1 - t0,
            "solve_s": t2 - t1,
            "audit_s": t3 - t2,
        },
    )
    _write_or_print(text, args.out)
    if args.export:
        export_surface(report.field.rho, rule, args.export, args.export_format)
    return EXIT_OK if report.converged else EXIT_NONCONVERGENCE


def cmd_trace(args) -> int:
    config, echo = load_config(args.config)
    _check_output(args.out_csv)
    _check_output(args.out)
    rule = config.rule()
    state = _state_from_report(config, args.state)
    field = evaluate_field(state, rule)
    traced = trace_field(state, rule, field)
    write_trace_csv(traced, rule, args.out_csv)
    audit = energy_audit(state, rule, config.density, field, traced)
    doc = {"config": echo, "audit": audit.to_dict()}
    _write_or_print(finalize_report(doc, {}), args.out)
    return EXIT_OK


def cmd_fresnel_table(args) -> int:
    _check_output(args.out)
    medium = MediumPair(kappa=args.kappa, sigma=args.sigma, alpha=args.alpha)
    margin = AdmissibilityMargin(args.epsilon)
    cs = np.linspace(*margin.window(args.kappa), args.samples)  # raises when the margin empties it
    r = fresnel.reflectance(cs, medium, margin)
    if medium.regime.lossless:
        p = q = r
    else:
        p = fresnel.p_coefficient(cs, medium)
        q = fresnel.q_coefficient(cs, medium)
    rows = ["c,p,q,r,t"] + [
        ",".join(_fmt_float(v) for v in row) for row in zip(cs, p, q, r, 1.0 - r)
    ]
    _write_or_print("\n".join(rows), args.out)
    return EXIT_OK


def cmd_export(args) -> int:
    config, _ = load_config(args.config)
    _check_output(args.out, args.format, config.domain.dim)
    rule = config.rule()
    state = _state_from_report(config, args.state)
    export_surface(evaluate_field(state, rule).rho, rule, args.out, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="negrefractor",
        description="Near-field refractor synthesis in negative-index media",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a config against the standing assumptions")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("solve", help="synthesize the refractor and write the report")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.add_argument("--export", default=None, help="also write the surface mesh here")
    p.add_argument("--export-format", default="obj", choices=["obj", "csv"])
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("trace", help="ray-trace a solved state and audit the energy ledger")
    p.add_argument("config")
    p.add_argument("--state", required=True, help="solve report JSON")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("fresnel-table", help="tabulate Fresnel coefficients over the window")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_fresnel_table)

    p = sub.add_parser("export", help="write the surface mesh of a solved state")
    p.add_argument("config")
    p.add_argument("--state", required=True)
    p.add_argument("--format", default="obj", choices=["obj", "csv"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationFailure as exc:
        print(exc, file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"invalid problem: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
