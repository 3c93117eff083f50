"""The three benchmark workloads: inputs, one timed pass, output checks.

A pass is a list of operations; each operation is timed on its own and then
checked, outside its timing, against the acceptance criteria it reproduces.
An operation fails when the program exits non-zero, raises, or produces an
output that does not pass its check.  See README.md for why each workload
exists.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import NamedTuple

import inputs
from negrefractor import cli, solver

LEDGER_TOL = 1e-12      # |sum per_target + reflected - incident| / incident
CROSS_PATH_TOL = 1e-12  # max |per_target - measures| / measures


class Op(NamedTuple):
    name: str
    seconds: float
    error: str | None  # None when the output passed its check


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _audit_error(audit: dict, critical: bool) -> str | None:
    """Criterion 7's ledger and cross-path checks plus the miss count."""
    incident = audit["incident"]
    ledger = abs(sum(audit["per_target"]) + audit["reflected"] - incident)
    if not ledger <= LEDGER_TOL * incident:
        return f"ledger does not close: {ledger:.3e} vs incident {incident:.6g}"
    gaps = [abs(a - b) / max(b, 1e-300) for a, b in zip(audit["per_target"], audit["measures"])]
    if not max(gaps) <= CROSS_PATH_TOL:
        return f"cross-path bins differ from measures by {max(gaps):.3e} (rel)"
    if audit["miss_count"] > 0:
        return f"miss_count {audit['miss_count']}"
    if critical and audit["reflected"] != 0.0:
        return f"critical regime reflects {audit['reflected']}"
    return None


class Workload:
    """One set of inputs; ``run_pass`` times every operation once."""

    name = ""

    def __init__(self, tiny: bool = False):
        self.tiny = tiny
        self._digests: dict[str, str] = {}

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def run_pass(self) -> list[Op]:
        raise NotImplementedError

    def _timed(self, name, call, check, outputs=()) -> Op:
        # Outputs are removed first, untimed: rewriting a file in place can
        # make the file system flush it on close: disk time, not program time.
        for path in outputs:
            Path(path).unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a crash is a failed operation, not a crashed run
            return Op(name, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        return Op(name, seconds, check(result))

    def _repeat_error(self, name: str, digest: str) -> str | None:
        """Every repeat of an operation within a run must give the same bytes."""
        first = self._digests.setdefault(name, digest)
        return None if first == digest else f"digest changed between repeats: {first} -> {digest}"


class DiscreteMatrix(Workload):
    """11 in-process ``negrefractor solve`` runs: the criterion-5 matrix, the
    stiff case and the golden config."""

    name = "discrete_matrix"

    def setup(self, seed, workdir):
        cases = inputs.matrix_cases(seed)
        if self.tiny:
            cases = [c for c in cases if c[0] == "golden_m2"]
        self.cases = [
            (name, _write_json(workdir / f"{name}.json", doc),
             str(workdir / f"{name}.report.json"), doc["kappa"] == -1.0,
             doc["quadrature_level"], len(doc["targets"]))
            for name, doc in cases
        ]

    def sizes(self):
        return {"nodes": {n: 2 ** (2 * lvl + 1) for n, _, _, _, lvl, _ in self.cases},
                "targets": {n: m for n, _, _, _, _, m in self.cases}}

    def run_pass(self):
        ops = []
        for name, cfg, out, critical, _, _ in self.cases:
            ops.append(self._timed(
                name,
                lambda: cli.main(["solve", cfg, "--out", out]),
                lambda code: self._check(name, code, out, critical),
                outputs=(out,),
            ))
        return ops

    def _check(self, name, code, out, critical):
        if code != cli.EXIT_OK:
            return f"exit code {code}"
        doc = json.loads(Path(out).read_text())
        report = doc["report"]
        if report["solve"]["status"] != "converged":
            return f"status {report['solve']['status']}"
        if not report["weak_certificate"]["ok"]:
            return "weak certificate not ok"
        return _audit_error(report["audit"], critical) or self._repeat_error(
            name, doc["report_sha256"])


class RadonRefine(Workload):
    """``refine_radon`` to 4 levels on criterion 9's disk problem."""

    name = "radon_refine"

    def setup(self, seed, workdir):
        spec = inputs.radon_spec(seed)
        if self.tiny:
            spec["levels"] = 2
        _write_json(workdir / "radon_problem.json", spec)
        self.levels = spec["levels"]
        self.problem = inputs.radon_problem(spec)

    def sizes(self):
        return {"nodes": 2 ** (2 * self.problem.quadrature_level + 1),
                "targets": [1, 4, 16, 60][: self.levels]}

    def run_pass(self):
        return [self._timed(
            "refine_radon",
            lambda: solver.refine_radon(self.problem, levels=self.levels),
            self._check,
        )]

    def _check(self, rep):
        """Criterion 9: every level converged, strictly decreasing sup
        differences, the test-cell sandwich and the mass balance."""
        mu = self.problem.patch.total_mass()
        if rep.status != "converged" or len(rep.levels) != self.levels:
            return f"status {rep.status} after {len(rep.levels)} levels"
        d = rep.sup_diffs
        if len(d) != self.levels - 1 or not all(a > b for a, b in zip(d, d[1:])):
            return f"sup differences not strictly decreasing: {d}"
        for q in range(len(rep.levels[0]["test_cell_energy"])):
            if q == rep.anchor_test_cell:
                continue
            seq = [row["test_cell_energy"][q] for row in rep.levels[1:]]
            if not all(b <= a + 1e-3 * mu for a, b in zip(seq, seq[1:])):
                return f"test cell {q} energy grows under refinement: {seq}"
        if not rep.mass_error <= 1e-12 * mu:
            return f"mass error {rep.mass_error:.3e}"
        body = json.dumps(rep.to_dict(), sort_keys=True).encode()
        return self._repeat_error("refine_radon", hashlib.sha256(body).hexdigest())


class TraceMany(Workload):
    """In-process ``negrefractor trace`` of the pinned 60-target state."""

    name = "trace_many"

    def setup(self, seed, workdir):
        config, state = inputs.trace_inputs(seed)
        if self.tiny:
            config["quadrature_level"] = 5
        self.level = config["quadrature_level"]
        self.targets = len(config["targets"])
        self.critical = config["kappa"] == -1.0
        self.rays = workdir / "rays.csv"
        self.audit = workdir / "trace_audit.json"
        self.argv = [
            "trace", _write_json(workdir / "trace_config.json", config),
            "--state", _write_json(workdir / "trace_state.json", state),
            "--out-csv", str(self.rays), "--out", str(self.audit),
        ]

    def sizes(self):
        nodes = 2 ** (2 * self.level + 1)
        return {"nodes": nodes, "targets": self.targets,
                # computed, not measured: three (N, m, 3) float64 arrays
                "trace_field_temp_bytes_computed": 3 * nodes * self.targets * 3 * 8}

    def run_pass(self):
        return [self._timed("trace", lambda: cli.main(self.argv), self._check,
                            outputs=(self.rays, self.audit))]

    def _check(self, code):
        if code != cli.EXIT_OK:
            return f"exit code {code}"
        rays = self.rays.read_bytes()
        rows = rays.count(b"\n")
        if rows != 1 + 2 ** (2 * self.level + 1):
            return f"trace CSV has {rows} lines"
        doc = json.loads(self.audit.read_text())
        digest = hashlib.sha256(doc["report_sha256"].encode() + rays).hexdigest()
        return _audit_error(doc["report"]["audit"], self.critical) or self._repeat_error(
            "trace", digest)


WORKLOADS = {w.name: w for w in (DiscreteMatrix, RadonRefine, TraceMany)}
