"""Forward-optics audit of a synthesized refractor.

The audit shares the envelope arrays (rho, assignment, ties) of the measure
pipeline's `FieldEvaluation`; the rest is independent: each direction is
refracted with the vector Snell law at the local surface normal and scored by
the distance from the refracted half-line to each target.  Perfect sheets
focus exactly, so nonzero focus errors expose bugs; binning ray energy by
nearest focus must reproduce, bin for bin, the measures, which take each
node's transmittance from the geometric cosine toward its assigned target.

Reflected energy is accounted for (f * r per node) but reflected rays are not
propagated further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import detmath, fresnel, ovals, refractor
from .geometry import QuadratureRule
from .refractor import EmissionDensity, FieldEvaluation, RefractorState, assign_envelope, sheet_radii


@dataclass(frozen=True)
class TraceResult:
    nu: np.ndarray | None
    m: np.ndarray | None
    active: int
    focus_error: float
    r: float
    t: float
    skipped: bool


@dataclass(frozen=True)
class AuditReport:
    per_target: np.ndarray        # ray-binned transported energy
    reflected: float
    incident: float
    skipped_fraction: float
    measures: np.ndarray          # quadrature measures on the same rule
    max_discrepancy: float        # max |per_target - measures| (absolute)
    max_focus_error: float
    miss_count: int               # rays whose best focus error exceeds the miss threshold

    def to_dict(self) -> dict:
        return {
            "per_target": self.per_target.tolist(),
            "reflected": self.reflected,
            "incident": self.incident,
            "skipped_fraction": self.skipped_fraction,
            "measures": self.measures.tolist(),
            "max_discrepancy": self.max_discrepancy,
            "max_focus_error": self.max_focus_error,
            "miss_count": self.miss_count,
        }


def _focus_error(z: np.ndarray, m: np.ndarray, target: np.ndarray) -> float:
    """Distance from the half-line {z + s m, s >= 0} to the target point."""
    rel = target - z
    s = max(float(rel @ m), 0.0)
    return float(np.linalg.norm(rel - s * m))


def trace_one(state: RefractorState, x) -> TraceResult:
    """Trace a single source direction through the envelope."""
    x = np.asarray(x, dtype=float)
    rho, assigned, tie = assign_envelope(sheet_radii(state, x[None]), state.regime)
    j = int(assigned[0])
    z = float(rho[0]) * x
    if tie[0]:
        return TraceResult(None, None, j, np.nan, np.nan, np.nan, True)
    nu = ovals.normal_at(state.sheet(j), x)
    m = fresnel.refract(x, nu, state.medium.kappa)
    c = float(x @ m)
    r = float(fresnel.reflectance(c, state.medium))
    t = 1.0 - r
    err = _focus_error(z, m, state.targets.points[j])
    return TraceResult(nu, m, j, err, r, t, False)


# Nodes per block of the focus-error step: (_FOCUS_BLOCK, m) float64
# temporaries instead of (N, m) ones; the values do not depend on it.
_FOCUS_BLOCK = 4096


def _focus_errors(points: np.ndarray, Z: np.ndarray, m_ok: np.ndarray,
                  m_dir: np.ndarray) -> np.ndarray:
    """(n, m) distances from the half-lines {Z + s m_dir, s >= 0} to every
    target, summed component by component; m_ok is m_dir with tie rows zeroed.
    Elementwise per node, so any split of the nodes gives the same bits."""
    rel = [points[None, :, k] - Z[:, k, None] for k in range(Z.shape[1])]
    s = rel[0] * m_ok[:, :1]
    for k in range(1, len(rel)):
        s += rel[k] * m_ok[:, k:k + 1]
    np.maximum(s, 0.0, out=s)
    sq = np.zeros_like(s)
    for k, rel_k in enumerate(rel):
        rel_k -= s * m_dir[:, k:k + 1]
        rel_k *= rel_k
        sq += rel_k
    return np.sqrt(sq, out=sq)


def trace_field(state: RefractorState, rule: QuadratureRule, field: FieldEvaluation):
    """Vectorized trace of every quadrature node, where `field` is
    `refractor.evaluate_field(state, rule)`.

    Returns (z, m, assigned, tie, focus_err (N, m_targets), r, t) where m is
    the Snell-refracted direction of the assigned sheet (NaN on ties).
    """
    X = rule.nodes
    assigned, tie = field.assigned, field.tie
    Z = field.rho[:, None] * X
    kappa = state.medium.kappa
    m_dir = np.full_like(X, np.nan)
    ok = ~tie
    for j in range(state.targets.count):
        mask = ok & (assigned == j)
        if not np.any(mask):
            continue
        to_focus = state.targets.points[j][None, :] - Z[mask]
        mhat = to_focus / detmath.norm_rows(to_focus)[:, None]
        nu = X[mask] - kappa * mhat
        nu /= detmath.norm_rows(nu)[:, None]
        lam = fresnel.phi(detmath.dot_rows(X[mask], nu), kappa)
        m_dir[mask] = (X[mask] - lam[:, None] * nu) / kappa

    # distance from each refracted half-line to every target, in blocks of
    # nodes so the (block, m) temporaries stay small
    m_ok = np.where(ok[:, None], m_dir, 0.0)
    focus_err = np.empty((rule.count, state.targets.count))
    for lo in range(0, rule.count, _FOCUS_BLOCK):
        blk = slice(lo, lo + _FOCUS_BLOCK)
        focus_err[blk] = _focus_errors(state.targets.points, Z[blk], m_ok[blk], m_dir[blk])
    focus_err[tie] = np.nan

    c = detmath.dot_rows(X, m_ok)
    r = np.zeros(rule.count)
    r[ok] = fresnel.reflectance(c[ok], state.medium)
    t = 1.0 - r
    return Z, m_dir, assigned, tie, focus_err, r, t


# Diagnostic threshold: a ray "misses" when even its best focus error exceeds
# this fraction of the target radius.  Reported, never reassigned.
MISS_FRACTION = 1e-6


def energy_audit(
    state: RefractorState,
    rule: QuadratureRule,
    density: EmissionDensity,
    field: FieldEvaluation,
    traced: tuple,
) -> AuditReport:
    """Bin ray energy by nearest focus and reconcile with the measures.

    `field` is `refractor.evaluate_field(state, rule)`, whose per-target sum
    gives the measures, and `traced` is `trace_field(state, rule, field)`.
    Tie nodes cannot be traced (no unique normal); their energy is assigned
    by the same lowest-index rule the measures use, so the two ledgers stay
    comparable.  Non-tie rays are binned by minimal focus error.
    """
    Z, m_dir, assigned, tie, focus_err, r, t = traced
    fvals = density.values_on(rule)
    w = rule.weights
    ok = ~tie

    # nearest focus of each non-tie ray, in blocks of rows so no (N, m)
    # copy of the focus errors is made
    bins = assigned.copy()
    rays = np.flatnonzero(ok)
    best_err = np.empty(rays.size)
    for lo in range(0, rays.size, _FOCUS_BLOCK):
        rows = rays[lo:lo + _FOCUS_BLOCK]
        best = np.nanargmin(focus_err[rows], axis=1)
        bins[rows] = best
        best_err[lo:lo + _FOCUS_BLOCK] = focus_err[rows, best]

    # tie nodes transmit with the assigned sheet's geometric cosine
    t_full = t.copy()
    r_full = r.copy()
    if np.any(tie):
        c_tie = refractor.refraction_cosines(
            state, rule.nodes[tie], detmath.norm_rows(Z[tie]), assigned[tie]
        )
        r_tie = fresnel.reflectance(c_tie, state.medium)
        r_full[tie] = r_tie
        t_full[tie] = 1.0 - r_tie

    transported = np.bincount(
        bins, weights=w * fvals * t_full, minlength=state.targets.count
    )
    reflected = math.fsum(w * fvals * r_full)
    incident = math.fsum(w * fvals)
    measures = field.measures(w * fvals, state.targets.count)
    scale = max(float(state.targets.norms.min()), 1e-300)
    return AuditReport(
        per_target=transported,
        reflected=reflected,
        incident=incident,
        skipped_fraction=float(np.sum(tie)) / rule.count,
        measures=measures,
        max_discrepancy=float(np.max(np.abs(transported - measures))),
        max_focus_error=float(best_err.max()) if best_err.size else 0.0,
        miss_count=int(np.sum(best_err > MISS_FRACTION * scale)) if best_err.size else 0,
    )
