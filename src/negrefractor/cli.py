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


# Decimal scales k of the power table (every k = 16 - E of the fast range
# 1e-200 <= |x| <= 1e200, with room), and bytes of one cell of `_g17`.
_K_MIN, _K_MAX = -250, 280
_G17_WIDTH = 48


def _g17_tables():
    """The tables of `_g17`, built exactly from Python ints (under 100 KB).

    Per decimal scale k: 10^k = hi + lo as a double-double (hi = fl(10^k),
    lo = fl(10^k - hi)), and for E = 16 - k the cell's head word (sign, the
    "0." prefix of -4 <= E < 0, a 0xFF point slot after the first digit),
    its exponent word ("e+XX" outside -4 <= E < 17) and its form (0:
    prefix, 1 + E: fixed with E + 1 integer digits, 18: exponent).
    Per (form, significant digits): the AND pattern that keeps the head, the
    digits shown and "." in the one point slot shown.  Per 4-digit group:
    its characters and its count of trailing zeros."""
    hi, lo, head, expo, form = [], [], [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            hi.append(float(10**k))
            lo.append(float(10**k - int(hi[-1])))
        else:
            hi.append(1 / 10**-k)  # int true division rounds correctly
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * 10**-k) / (den * 10**-k))
        e = 16 - k
        prefix = ("0." + "0" * (-e - 1) if -4 <= e < 0 else "").encode().ljust(5, b"\0")
        head += [b"\0" + prefix + b"\0\xff", b"-" + prefix + b"\0\xff"]
        expo.append(b"" if -4 <= e < 17 else b"e%+03d" % e)
        form.append(0 if -4 <= e < 0 else 1 + e if 0 <= e < 17 else 18)
    pattern = np.zeros((19, 17, _G17_WIDTH), np.uint8)
    pattern[:, :, :7] = pattern[:, :, 40:] = 0xFF
    for f in range(19):
        point = 17 if f == 0 else 0 if f == 18 else f - 1
        for nd in range(1, 18):
            keep = max(nd, f) if f < 18 else nd
            pattern[f, nd - 1, 8:6 + 2 * keep:2] = 0xFF
            if keep > point + 1:
                pattern[f, nd - 1, 7 + 2 * point] = ord(".")
    group = np.arange(10000, dtype=np.int16)[:, None]
    scale = np.array([1000, 100, 10, 1], np.int16)
    chars = (group // scale % 10 + ord("0")).astype(np.uint8)
    return (
        np.array([hi, lo]),
        np.frombuffer(b"".join(head), np.uint64),
        np.array(expo, "S8").view(np.uint64),
        np.array(form, np.intp) * 17,
        pattern.reshape(19 * 17, _G17_WIDTH).view(np.uint64),
        chars.view(np.uint32).ravel(),
        (group % (10 * scale) == 0).sum(axis=1, dtype=np.uint8),
    )


# Built at import, before any trace array exists, so that these long-lived
# arrays never sit above a trace's freed memory.
_POWER, _HEAD, _EXPO, _FORM, _PATTERN, _GROUPS, _ZEROS = _g17_tables()
_CELL = np.dtype([("head", "<u8"), ("digits", "V32"), ("expo", "<u8")])
_FIXED = np.array([b"0", b"-0", b"nan", b"nan"], f"S{_G17_WIDTH}").view(np.uint8).reshape(4, -1)


def _g17(values: np.ndarray) -> np.ndarray:
    """`format(x, ".17g")` of every float64 x in `values`, as an (n, 48)
    uint8 template: each row holds the text in order, NUL bytes anywhere in
    it (drop them with `bytes.translate(None, b"\\0")`), and a NUL last byte.

    Estimate.  `np.log10` only guesses the decimal exponent E of |x|; its
    last bits vary with the SIMD dispatch, and nothing below relies on them.
    With k = 16 - E and 10^k = hi + lo from the table, y = |x| 10^k = p + t
    with p = fl(|x| hi) and t = (|x| hi - p) + |x| lo, the first term exact
    by Dekker's product (`detmath.two_prod`; none of its terms under- or
    overflows here).  Near y ~ 1e16..1e17, |t| <= 8 + 11.2, and t is within
    1e-14 of y - p: |x| lo rounds by 2^-53 |t|, 10^k - hi - lo is below
    2^-105 10^k, and the sum rounds once.

    Certificate.  A cell takes the fast path only if 1e-200 <= |x| <= 1e200,
    p + floor(t) >= 10^16 (so p > 2^53 is an integer), |frac(t) - 1/2| >
    1e-6, and D = p + floor(t) + (frac(t) > 1/2) < 10^17.  y is then no
    nearer than 1e-6 - 1e-14 to a tie, so D is y correctly rounded, and
    10^16 - 1e-14 <= y < 10^17 - 1/2, so D has 17 digits and E is the
    exponent `%.17g` prints: for y just below 10^16, the rounding at E - 1
    is 10^16 too.  So the text never depends on the estimate.  Every other
    x (0, NaN, ties and near-ties, a wrong estimate, |x| outside the range)
    is a fixed string or `format` itself.

    Layout.  A cell is a head word (sign, "0." plus zeros for -4 <= E < 0),
    the 17 digits each followed by a point slot, and an exponent word.  One
    AND with the pattern of its (form, significant digits) drops the
    trailing zeros past the integer digits and every point slot but the one
    shown."""
    v = np.asarray(values, dtype=np.float64).ravel()
    n = v.size
    neg = np.signbit(v)
    a = np.abs(v)
    fast = (a >= 1e-200) & (a <= 1e200)
    a[~fast] = 1.0
    idx = np.floor(np.log10(a))
    idx = (16 - _K_MIN - idx).astype(np.intp)
    hi, lo = _POWER.take(idx, axis=1)
    p, t = detmath.two_prod(a, hi)
    t += a * lo
    whole = np.floor(t)
    t -= whole
    D = p.astype(np.int64)
    D += whole.astype(np.int64)
    ok = fast & (D >= 10**16) & (np.abs(t - 0.5) > 1e-6)
    D += t > 0.5
    ok &= D < 10**17
    # D = d0 10^16 + the digits of x[:, 0] 10^8 + x[:, 1], in 4-digit groups
    high = D // 10**8
    d0 = high // 10**8
    x = np.empty((n, 2), np.intp)
    x[:, 0] = high - d0 * 10**8
    x[:, 1] = D - high * 10**8
    h = x // 10**4
    group = np.empty((n, 2, 2), np.intp)
    group[..., 0] = h
    group[..., 1] = x - h * 10**4
    group = group.reshape(n, 4)
    # trailing zeros of the 16 digits: the last group's, plus those of the
    # group before it where the last group is all zeros, and so on
    zeros = _ZEROS.take(group)
    trailing = zeros[:, 0].copy()
    for j in (1, 2, 3):
        trailing *= zeros[:, j] == 4
        trailing += zeros[:, j]
    row = _FORM.take(idx)  # the pattern of (form, 17 - trailing digits)
    row += 16
    row -= trailing
    cells = np.empty(n, _CELL)
    cells["head"] = _HEAD.take(2 * idx + neg)
    digits = _GROUPS.take(group).view(np.uint8).astype(np.uint16)
    digits |= 0xFF00
    cells["digits"] = digits.view("V32").ravel()
    cells["expo"] = _EXPO.take(idx)
    text = cells.view(np.uint8).reshape(n, _G17_WIDTH)
    text[:, 6] = d0
    text[:, 6] += ord("0")
    cells.view(np.uint64).reshape(n, 6)[...] &= np.take(_PATTERN, row, axis=0)
    if not ok.all():
        rest = np.flatnonzero(~ok)
        special = v[rest]
        fixed = (special == 0) | np.isnan(special)
        text[rest[fixed]] = _FIXED[2 * np.isnan(special[fixed]) + neg[rest[fixed]]]
        rest = rest[~fixed]
        if rest.size:
            slow = [format(y, ".17g") for y in v[rest].tolist()]
            text[rest] = np.array(slow, f"S{_G17_WIDTH}").view(np.uint8).reshape(-1, _G17_WIDTH)
    return text


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


def _open_output(path: str, mode: str = "w"):
    """Open an output file; a path that cannot be written is a usage error."""
    try:
        return open(path, mode)
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


# Rows per block of the trace CSV: one `_g17` call formats a whole block.
# At 512 rows its temporaries stay in a 2-core VM's L2 cache; 4096 rows
# took 1.7x as long there, and 8x the memory.
_CSV_BLOCK = 512
_SKIPPED = np.array([b"false\n", b"true\n"], "S8").view(np.uint8).reshape(2, -1)


def write_trace_csv(traced, rule, path: str) -> None:
    """Write one CSV row per node of `traced = trace_field(state, rule, field)`.

    Floats are written as `format(x, ".17g")` (by `_g17`, a block of rows at
    a time); x, z and m are "nan" where NaN, and the focus error (to the
    assigned target), r and t are "nan" on tie nodes.  Any other non-finite
    value raises ValueError, like `_fmt_float`, before anything is written.
    The target index, an integer below 2^53, goes through `_g17` too: its
    `%.17g` text is its `%d` text.
    """
    dim = rule.domain.dim
    cols = (
        [f"x{i}" for i in range(dim)]
        + [f"z{i}" for i in range(dim)]
        + [f"m{i}" for i in range(dim)]
        + ["active", "focus_error", "r", "t", "skipped"]
    )
    # nothing infinite, and no NaN in a ray's focus error, r or t, checked a
    # column at a time with boolean temporaries only
    ray = ~traced.tie
    bad = [a[np.isinf(a)] for a in (rule.nodes, traced.z, traced.m)]
    bad += [a[ray & ~np.isfinite(a)] for a in (traced.focus_error, traced.r, traced.t)]
    bad = np.concatenate(bad)
    if bad.size:
        raise ValueError(f"non-finite number in report: {bad[0]}")
    with _open_output(path, "wb") as fh:
        fh.write(",".join(cols).encode() + b"\n")
        for lo in range(0, rule.count, _CSV_BLOCK):
            blk = slice(lo, lo + _CSV_BLOCK)
            tie = traced.tie[blk]
            values = np.column_stack([
                rule.nodes[blk], traced.z[blk], traced.m[blk], traced.assigned[blk],
                traced.focus_error[blk], traced.r[blk], traced.t[blk],
            ])
            values[tie, 3 * dim + 1:] = np.nan
            rows, n_cols = values.shape
            width = n_cols * _G17_WIDTH
            buf = bytearray(rows * (width + _SKIPPED.shape[1]))
            line = np.frombuffer(buf, np.uint8).reshape(rows, -1)
            line[:, :width] = _g17(values).reshape(rows, width)
            line[:, _G17_WIDTH - 1:width:_G17_WIDTH] = ord(",")
            line[:, width:] = _SKIPPED[tie.view(np.uint8)]
            fh.write(buf.translate(None, b"\0"))


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


def _sample_count(text: str) -> int:
    """A `--samples` value: an integer of at least 1."""
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


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
    p.add_argument("--samples", type=_sample_count, default=101)
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
