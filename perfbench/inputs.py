"""Seeded input generator for the benchmark.

Every input is a plain JSON document built from the seed alone; the program
under test only ever sees the files written from these documents.  Seed 0
(``DEFAULT_SEED``) reproduces the acceptance-suite inputs exactly:

* the criterion-5 matrix: ``solvable_config(kappa, m, seed=1000 + m)`` for
  kappa in (-1.5, -0.5, -1) and m in (2, 5, 10) at quadrature level 8;
* the stiff case ``solvable_config(-1.5, 10, seed=1027)``;
* the golden ``m2_symmetric`` config;
* criterion 9's disk problem for ``refine_radon``.

Other seeds perturb those inputs by a small amount (``MATRIX_JITTER``,
``RADON_JITTER``, ``TRACE_B_JITTER``), except the stiff and golden cases,
which stay fixed.  The perturbations are kept small so that the work per
pass, and with it the timings, stays comparable across seeds.

The many-target trace state is pinned in ``data/trace_many.json`` (digest
``TRACE_STATE_SHA256``), so a later solver change cannot alter what is
traced.  ``python3 perfbench/inputs.py --regen-trace-state`` rebuilds it with
a loose level-5 solve.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
DEG = np.pi / 180.0
CAP30 = 2.0 * np.pi * (1.0 - np.cos(30 * DEG))

MATRIX_KAPPAS = (-1.5, -0.5, -1.0)
MATRIX_SIZES = (2, 5, 10)
MATRIX_LEVEL = 8
STIFF_SEED = 1027

# In-plane jitter of non-anchor targets, patch centre, and relative jitter
# of the traced sheet parameters, for seeds other than DEFAULT_SEED.  The
# solver's sweep counts react to tiny input changes: at 1e-4 the energy
# evaluations of the kappa=-1, m=10 case (the median operation of a matrix
# pass) vary by +-13% between seeds, at 1e-7 by +-2%.  Criterion 9's problem
# sits at the edge of what level-7 quadrature resolves: with a 1e-4 centre
# jitter, refine_radon stalls at level 3 on seeds 1, 10, 13 and 15 of 1..20
# (residual above the measure tolerance, no coordinate moves); at 1e-5 and
# below none of those seeds stalls.
MATRIX_JITTER = 1e-7
RADON_JITTER = 1e-6
TRACE_B_JITTER = 1e-6

RADON_LEVELS = 4
RADON_QUAD_LEVEL = 7
TRACE_LEVEL = 8
TRACE_SOLVE_LEVEL = 5
TRACE_SOLVE_MEASURE_TOL = 1e-2

DATA_DIR = Path(__file__).resolve().parent / "data"
TRACE_STATE_FILE = DATA_DIR / "trace_many.json"
TRACE_STATE_SHA256 = "bad7cb519319b64e6548b915be41268987f7685d3cd3ae5754ef7f97228c7fc3"


def _config_doc(kappa, points, weights, b1, tau, r0, level, seed=None,
                tolerances=None) -> dict:
    """Config file document: 30-degree uniform cap around +z, epsilon 0.4."""
    doc = {
        "kappa": float(kappa),
        "sigma": 1.0,
        "alpha_parallel": 0.5,
        "dimension": 3,
        "source": {"axis": [0.0, 0.0, 1.0], "half_angle_deg": 30.0, "density": "uniform"},
        "epsilon": 0.4,
        "targets": [
            {"P": [float(v) for v in p], "g": float(g)}
            for p, g in zip(points, weights)
        ],
        "b1": float(b1),
        "tau": float(tau),
        "r0": float(r0),
        "quadrature_level": int(level),
    }
    if tolerances is not None:
        doc["tolerances"] = tolerances
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


# ---------------------------------------------------------------------------
# discrete matrix (criterion 5 shape)
# ---------------------------------------------------------------------------

def _separated_targets(rng, m, max_angle, min_sep, radial=(0.97, 1.03)):
    pts = []
    while len(pts) < m:
        ang = rng.uniform(0.0, max_angle)
        az = rng.uniform(-np.pi, np.pi)
        rad = rng.uniform(*radial)
        cand = rad * np.array(
            [np.sin(ang) * np.cos(az), np.sin(ang) * np.sin(az), np.cos(ang)]
        )
        if all(np.linalg.norm(cand - q) >= min_sep for q in pts):
            pts.append(cand)
    return np.array(pts)


def solvable_case(kappa, m, seed):
    """Config document of the standard desk-scale shape (30-degree cap,
    unit-distance targets near the axis, uniform source); the same draws as
    the acceptance suite's ``solvable_config``."""
    rng = np.random.default_rng(seed)
    pts = _separated_targets(rng, m, 5 * DEG, 0.03)
    rad0 = float(np.linalg.norm(pts[0]))
    if kappa < -1.0:
        tau, r0, b1 = 1.2, 0.08, kappa * rad0 + 0.004
    elif kappa == -1.0:
        tau, r0, b1 = 0.3, 0.3, -0.9 * rad0
    else:
        tau, r0 = 0.3, 0.17
        b1 = kappa * rad0 + 0.8 * r0 * (1.0 + kappa)
    g = rng.uniform(0.5, 1.5, m)
    g = g / g.sum() * 0.6 * CAP30
    return _config_doc(kappa, pts, g, b1, tau, r0, MATRIX_LEVEL, seed=seed)


def golden_case() -> dict:
    """The golden two-target config (tests/data/m2_symmetric.json)."""
    a = 5.0 * DEG
    pts = [[np.sin(a), 0.0, np.cos(a)], [-np.sin(a), 0.0, np.cos(a)]]
    return _config_doc(
        -1.5, pts, [0.3, 0.3], -1.4972, 1.2, 0.085, 7, seed=0,
        tolerances={"measure_tol": 0.0001, "b_tol": 1e-10, "max_outer": 200},
    )


def _jitter_targets(doc: dict, rng) -> dict:
    """Move every non-anchor target in-plane by at most MATRIX_JITTER; the
    anchor (and with it b1) stays put."""
    for t in doc["targets"][1:]:
        dx, dy = rng.uniform(-MATRIX_JITTER, MATRIX_JITTER, 2)
        t["P"] = [t["P"][0] + float(dx), t["P"][1] + float(dy), t["P"][2]]
    return doc


def matrix_cases(seed: int) -> list[tuple[str, dict]]:
    """The 11 named solve cases of one ``discrete_matrix`` pass."""
    rng = np.random.default_rng([seed, 5])
    cases = []
    for kappa in MATRIX_KAPPAS:
        for m in MATRIX_SIZES:
            cases.append((f"k{kappa:+}_m{m}", solvable_case(kappa, m, 1000 + m)))
    if seed != DEFAULT_SEED:
        for _, doc in cases:
            _jitter_targets(doc, rng)
    # fixed at every seed: the stiff case's coarse-level stall and the golden
    # report are properties of these exact inputs
    cases.append(("stiff_k-1.5_m10", solvable_case(-1.5, 10, STIFF_SEED)))
    cases.append(("golden_m2", golden_case()))
    return cases


# ---------------------------------------------------------------------------
# dyadic refinement (criterion 9)
# ---------------------------------------------------------------------------

def radon_spec(seed: int) -> dict:
    """Criterion 9's disk problem; other seeds move the patch centre in-plane
    by at most RADON_JITTER (b1 follows the anchor as in the suite)."""
    center = [0.011, 0.007, 1.0]
    if seed != DEFAULT_SEED:
        dx, dy = np.random.default_rng([seed, 9]).uniform(-RADON_JITTER, RADON_JITTER, 2)
        center = [center[0] + float(dx), center[1] + float(dy), center[2]]
    return {
        "kappa": -1.5,
        "center": center,
        "normal": [0.0, 0.0, 1.0],
        "radius": 0.05,
        "mass": 0.45,
        "b1_offset": 0.004,
        "tau": 1.2,
        "r0": 0.08,
        "quadrature_level": RADON_QUAD_LEVEL,
        "b_tol": 1e-13,
        "levels": RADON_LEVELS,
    }


def radon_problem(spec: dict):
    """RadonProblem from a ``radon_spec`` document."""
    import negrefractor as nr
    from negrefractor.solver import DiskPatch, RadonProblem

    center = np.array(spec["center"], dtype=float)
    normal = np.array(spec["normal"], dtype=float)
    probe = DiskPatch(center=center, normal=normal, radius=spec["radius"], density=1.0)
    patch = DiskPatch(center=center, normal=probe.normal, radius=spec["radius"],
                      density=spec["mass"] / probe.total_mass())
    kappa = spec["kappa"]
    anchor_norm = float(np.linalg.norm(patch.anchor_point))
    return RadonProblem(
        domain=nr.make_cap([0.0, 0.0, 1.0], 30 * DEG, 3),
        density=nr.EmissionDensity.uniform(1.0),
        medium=nr.MediumPair(kappa, 1.0, 0.5),
        margin=nr.AdmissibilityMargin(0.4),
        patch=patch,
        b1=kappa * anchor_norm + spec["b1_offset"],
        tau=spec["tau"],
        r0=spec["r0"],
        quadrature_level=spec["quadrature_level"],
        tolerances=nr.Tolerances(b_tol=spec["b_tol"]),
    )


# ---------------------------------------------------------------------------
# many-target trace state (pinned)
# ---------------------------------------------------------------------------

def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_trace_state() -> dict:
    """The pinned 60-target state; refuses a file whose digest moved."""
    digest = file_sha256(TRACE_STATE_FILE)
    if digest != TRACE_STATE_SHA256:
        raise RuntimeError(
            f"{TRACE_STATE_FILE.name} digest {digest} != pinned {TRACE_STATE_SHA256}"
        )
    return json.loads(TRACE_STATE_FILE.read_text())


def trace_inputs(seed: int) -> tuple[dict, dict]:
    """(config document, state report document) for one ``trace_many`` run.
    Other seeds scale each non-anchor b by a factor within TRACE_B_JITTER
    of 1, which moves the assignment boundaries but keeps every sheet valid."""
    pinned = load_trace_state()
    b = np.array(pinned["b"], dtype=float)
    if seed != DEFAULT_SEED:
        rng = np.random.default_rng([seed, 4])
        b[1:] *= 1.0 + rng.uniform(-TRACE_B_JITTER, TRACE_B_JITTER, b.size - 1)
    return pinned["config"], {"report": {"solve": {"b": [float(v) for v in b]}}}


def make_trace_state(workdir: Path) -> dict:
    """Solve the level-4 dyadic atoms of criterion 9's patch loosely at
    quadrature level 5; the result is traced at level 8."""
    from negrefractor import cli, solver

    spec = radon_spec(DEFAULT_SEED)
    problem = radon_problem(spec)
    points, masses, _, _ = solver.dyadic_atoms(problem.patch, RADON_LEVELS)
    scale = float(np.linalg.norm(points, axis=1).min())
    doc = _config_doc(
        spec["kappa"], points / scale, masses, problem.b1 / scale,
        spec["tau"], problem.r0 / scale, TRACE_SOLVE_LEVEL,
        tolerances={"measure_tol": TRACE_SOLVE_MEASURE_TOL, "b_tol": 1e-10,
                    "max_outer": 200},
    )
    path = Path(workdir) / "trace_solve_config.json"
    path.write_text(json.dumps(doc))
    config, _ = cli.load_config(str(path))
    report = solver.solve_discrete(config)
    if not report.converged:
        raise RuntimeError(f"trace-state solve ended {report.status}")
    doc["quadrature_level"] = TRACE_LEVEL
    del doc["tolerances"]
    return {"config": doc, "b": [float(v) for v in report.b]}


if __name__ == "__main__":
    import argparse
    import sys
    import tempfile

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regen-trace-state", action="store_true",
                        help="rebuild data/trace_many.json and print its digest")
    args = parser.parse_args()
    if not args.regen_trace_state:
        parser.print_help()
        sys.exit(2)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        state = make_trace_state(Path(tmp))
    DATA_DIR.mkdir(exist_ok=True)
    TRACE_STATE_FILE.write_text(json.dumps(state, indent=1) + "\n")
    print(file_sha256(TRACE_STATE_FILE))
