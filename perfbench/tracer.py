"""Span recorder that times the package's layers from outside.

``traced(recorder)`` replaces a fixed set of public functions of
``negrefractor`` with timing wrappers in every namespace that holds them: the
defining module, each module that imported the function by name
(``solver.sheet_radii``, ``raytrace.assign_envelope``, ``cli.trace_field``,
...) and the package's re-exports.  Everything is restored on exit.  Only
public names are wrapped, so rewrites of private helpers keep the benchmark
valid; ``cli.finalize_report`` is wrapped rather than the recursive
``canonical_json``.

Spans live in flat in-memory arrays (name, start, end, parent, work units)
and are summarised, or saved, after the traced pass.  A layer's self time is
its spans' durations minus the time their direct child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

import numpy as np

LAYERS = ("geometry", "ovals", "fresnel", "refractor", "solver", "raytrace", "cli")


def _result_size(index=None):
    def units(args, kwargs, result):
        return float(np.size(result if index is None else result[index]))
    return units


def _arg_count(args, kwargs, result):
    rule = args[1] if len(args) > 1 else kwargs["rule"]
    return float(rule.count)


# layer -> {public function: work units of one call, or None}
WRAPPED = {
    "geometry": {"build_quadrature": lambda a, k, r: float(r.count)},
    "ovals": {"radii_from_dots": _result_size(0), "radii": None},
    "fresnel": {"transmittance": _result_size(), "reflectance": None, "phi": None},
    "refractor": {"sheet_radii": _result_size(), "assign_envelope": None,
                  "measures": None},
    "solver": {"refine_radon": None, "solve_discrete": None, "validate": None,
               "init_state": None, "verify_weak": None},
    # units: nodes x targets of the (N, m) focus-error matrix
    "raytrace": {"trace_field": _result_size(4), "energy_audit": None},
    "cli": {"main": None, "load_config": None, "write_trace_csv": _arg_count,
            "finalize_report": None},
}

# bytes of one (N, m, 3) float64 array
_F8x3 = 3 * 8


class SpanRecorder:
    """Flat, append-only span store plus the solver's sweep records."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self.sweeps: list[list[dict]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, units):
        """Timing wrapper of `fn` that records one span per call."""
        nid = len(self.names)
        self.names.append(name)
        keep_sweeps = name == "solver.solve_discrete"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.units.append(0.0)
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if units is not None:
                self.units[idx] = units(args, kwargs, result)
            if keep_sweeps:
                self.sweeps.append(result.sweeps)
            return result

        return wrapper

    # -- summaries ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "units": np.frombuffer(self.units, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def per_layer(self) -> dict:
        """Per-function calls/seconds/units, per-layer self time and the
        solver's sweep counts, as {metric name: (value, unit)}."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        calls = np.bincount(a["name_id"], minlength=n_names)
        secs = np.bincount(a["name_id"], weights=dur, minlength=n_names)
        units = np.bincount(a["name_id"], weights=a["units"], minlength=n_names)
        self_by_name = np.bincount(a["name_id"], weights=self_time, minlength=n_names)
        idx = {name: i for i, name in enumerate(self.names)}

        def c(fn):
            return int(calls[idx[fn]]) if fn in idx else 0

        def s(fn):
            return float(secs[idx[fn]]) if fn in idx else 0.0

        def u(fn):
            return float(units[idx[fn]]) if fn in idx else 0.0

        def per(fn, scale=1e9):
            return s(fn) * scale / u(fn) if u(fn) else 0.0

        def layer_self(layer):
            return float(sum(self_by_name[i] for name, i in idx.items()
                             if name.startswith(layer + ".")))

        out = {}
        for fn in ("geometry.build_quadrature", "ovals.radii_from_dots", "ovals.radii",
                   "fresnel.transmittance", "refractor.sheet_radii",
                   "refractor.assign_envelope", "refractor.measures",
                   "raytrace.trace_field", "raytrace.energy_audit"):
            out[f"{fn}.calls"] = (c(fn), "count")
            out[f"{fn}.s"] = (s(fn), "s")
        out["geometry.build_quadrature.ns_per_node"] = (per("geometry.build_quadrature"), "ns")
        out["ovals.radii_from_dots.ns_per_node"] = (per("ovals.radii_from_dots"), "ns")
        out["fresnel.transmittance.ns_per_value"] = (per("fresnel.transmittance"), "ns")
        out["fresnel.reflectance.s"] = (s("fresnel.reflectance"), "s")
        out["fresnel.phi.s"] = (s("fresnel.phi"), "s")
        out["refractor.sheet_radii.ns_per_node_sheet"] = (per("refractor.sheet_radii"), "ns")
        for fn in ("solve_discrete", "validate", "init_state", "verify_weak"):
            out[f"solver.{fn}.s"] = (s(f"solver.{fn}"), "s")
        out["solver.self_s"] = (layer_self("solver"), "s")
        out.update(self._solver_counts())
        out["raytrace.trace_field.ns_per_node_target"] = (per("raytrace.trace_field"), "ns")
        # computed, not measured: the three (N, m, 3) float64 arrays of the
        # focus-error step (rel_all, the s*m product, res) of the largest call
        nm = a["units"][a["name_id"] == idx.get("raytrace.trace_field", -1)]
        out["raytrace.trace_field.bytes_computed"] = (
            int(3 * _F8x3 * nm.max(initial=0.0)), "B")
        for fn in ("load_config", "write_trace_csv", "finalize_report"):
            out[f"cli.{fn}.s"] = (s(f"cli.{fn}"), "s")
        out["cli.write_trace_csv.rows"] = (int(u("cli.write_trace_csv")), "count")
        out["cli.self_s"] = (layer_self("cli"), "s")
        return out

    def _solver_counts(self) -> dict:
        evals = visits = cheap = coarse = n_sweeps = 0
        for sweeps in self.sweeps:
            final_level = max((sw["level"] for sw in sweeps), default=0)
            for sw in sweeps:
                counts = sw["bisection_evals"]
                n_sweeps += 1
                visits += len(counts)
                cheap += sum(1 for n in counts if n == 1)
                e = sum(counts)
                evals += e
                if sw["level"] < final_level:
                    coarse += e
        return {
            "solver.energy_evals": (evals, "count"),
            "solver.sweeps": (n_sweeps, "count"),
            "solver.coordinate_visits": (visits, "count"),
            "solver.evals_per_visit": (evals / visits if visits else 0.0, "ratio"),
            "solver.cheap_accept_ratio": (cheap / visits if visits else 0.0, "ratio"),
            "solver.coarse_eval_share": (coarse / evals if evals else 0.0, "ratio"),
        }


def _namespaces():
    import negrefractor

    return [negrefractor] + [importlib.import_module(f"negrefractor.{m}") for m in LAYERS]


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Install the wrappers for the duration of the block, then restore every
    namespace entry that was replaced."""
    namespaces = _namespaces()
    replaced = []
    try:
        for layer, fns in WRAPPED.items():
            module = importlib.import_module(f"negrefractor.{layer}")
            for fn_name, units in fns.items():
                original = getattr(module, fn_name)
                wrapper = recorder.wrap(f"{layer}.{fn_name}", original, units)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            replaced.append((ns, attr, original))
                            setattr(ns, attr, wrapper)
        yield recorder
    finally:
        for ns, attr, original in reversed(replaced):
            setattr(ns, attr, original)
