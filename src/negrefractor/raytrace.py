"""Forward-optics audit of a synthesized refractor.

The audit shares the envelope arrays (rho, assignment, ties) of the measure
pipeline's `FieldEvaluation`; the rest is independent: each direction is
refracted with the vector Snell law at the local surface normal and scored by
the distance from the refracted half-line to each target.  `trace_field`
reduces those distances where it computes them, a block of rays at a time,
to the assigned target's error and the nearest target with its error, so no
(nodes, targets) array is built.  Perfect sheets focus exactly, so nonzero
focus errors expose bugs; binning ray energy by that nearest focus must
reproduce, bin for bin, the measures, which take each node's transmittance
from the geometric cosine toward its assigned target.

Reflected energy is accounted for (f * r per node) but reflected rays are not
propagated further.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

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
class AuditReport(refractor.Report):
    per_target: np.ndarray        # ray-binned transported energy
    reflected: float
    incident: float
    skipped_fraction: float
    measures: np.ndarray          # quadrature measures on the same rule
    max_discrepancy: float        # max |per_target - measures| (absolute)
    max_focus_error: float
    miss_count: int               # rays whose best focus error exceeds the miss threshold


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
    err = float(_focus_errors(state.targets.points[j][None], z[None], m[None])[0, 0])
    return TraceResult(nu, m, j, err, r, t, False)


class RayTrace(NamedTuple):
    """Vectorized trace of a rule's nodes: one row per node in every field."""

    z: np.ndarray              # (N, n) surface points rho(x) x
    m: np.ndarray              # (N, n) Snell-refracted directions, NaN on ties
    assigned: np.ndarray       # owning sheet (lowest index on ties)
    tie: np.ndarray            # True where no unique sheet owns the node
    focus_error: np.ndarray    # distance to the assigned target, NaN on ties
    r: np.ndarray              # reflectance at the Snell cosine (ties: geometric)
    t: np.ndarray              # 1 - r
    nearest: np.ndarray        # target of least focus error (ties: assigned)
    nearest_error: np.ndarray  # that least focus error, NaN on ties


# Rays per block of the trace: (_FOCUS_BLOCK, m) float64 temporaries
# instead of (N, m) ones; the values do not depend on it.
_FOCUS_BLOCK = 4096


def _focus_errors(points: np.ndarray, Z: np.ndarray, m_dir: np.ndarray) -> np.ndarray:
    """(n, m) distances from the half-lines {Z + s m_dir, s >= 0} to every
    target, summed component by component.  Elementwise per ray, so any
    split of the rays gives the same bits."""
    rel = [points[None, :, k] - Z[:, k, None] for k in range(Z.shape[1])]
    s = rel[0] * m_dir[:, :1]
    for k in range(1, len(rel)):
        s += rel[k] * m_dir[:, k:k + 1]
    np.maximum(s, 0.0, out=s)
    sq = np.zeros_like(s)
    for k, rel_k in enumerate(rel):
        rel_k -= s * m_dir[:, k:k + 1]
        rel_k *= rel_k
        sq += rel_k
    return np.sqrt(sq, out=sq)


def _refract_rows(X: np.ndarray, Z: np.ndarray, P: np.ndarray, kappa: float) -> np.ndarray:
    """Snell-refracted rows at Z = rho X on the sheets that focus X at P."""
    mhat = P - Z
    mhat /= detmath.norm_rows(mhat)[:, None]
    nu = X - kappa * mhat
    nu /= detmath.norm_rows(nu)[:, None]
    lam = fresnel.phi(detmath.dot_rows(X, nu), kappa)
    return (X - lam[:, None] * nu) / kappa


def trace_field(state: RefractorState, rule: QuadratureRule, field: FieldEvaluation) -> RayTrace:
    """Trace every quadrature node, where `field` is
    `refractor.evaluate_field(state, rule)`.

    Non-tie nodes are refracted with the vector Snell law at the assigned
    sheet's normal and reduced, a block of rays at a time, to their focus
    errors; tie nodes get only the assigned sheet's geometric cosine.
    """
    X = rule.nodes
    assigned, tie = field.assigned, field.tie
    Z = field.rho[:, None] * X
    points = state.targets.points
    # each ray, in blocks of rays so the (block, m) temporaries stay small:
    # its Snell direction, and its distance to every target reduced to the
    # assigned target's error and the nearest target's
    rays = np.flatnonzero(~tie)
    m_dir = np.full_like(X, np.nan)
    focus_error = np.full(rule.count, np.nan)
    nearest = assigned.copy()
    nearest_error = np.full(rule.count, np.nan)
    for lo in range(0, rays.size, _FOCUS_BLOCK):
        at = rays[lo:lo + _FOCUS_BLOCK]
        owner = assigned[at]
        m_dir[at] = m = _refract_rows(X[at], Z[at], points[owner], state.medium.kappa)
        err = _focus_errors(points, Z[at], m)
        row = np.arange(at.size)
        focus_error[at] = err[row, owner]
        nearest[at] = np.nanargmin(err, axis=1)
        nearest_error[at] = err[row, nearest[at]]

    # rays transmit at their Snell cosine, ties at the assigned sheet's
    # geometric one, as in the measures
    c = detmath.dot_rows(X, m_dir)
    c[tie] = refractor.refraction_cosines(state, X[tie], detmath.norm_rows(Z[tie]), assigned[tie])
    r = fresnel.reflectance(c, state.medium)
    return RayTrace(Z, m_dir, assigned, tie, focus_error, r, 1.0 - r, nearest, nearest_error)


# Diagnostic threshold: a ray "misses" when even its best focus error exceeds
# this fraction of the target radius.  Reported, never reassigned.
MISS_FRACTION = 1e-6


def energy_audit(
    state: RefractorState,
    rule: QuadratureRule,
    density: EmissionDensity,
    field: FieldEvaluation,
    traced: RayTrace,
) -> AuditReport:
    """Bin ray energy by nearest focus and reconcile with the measures.

    `field` is `refractor.evaluate_field(state, rule)`, whose per-target sum
    gives the measures, and `traced` is `trace_field(state, rule, field)`.
    Tie nodes cannot be traced (no unique normal); their energy is assigned
    by the same lowest-index rule the measures use, so the two ledgers stay
    comparable.  Non-tie rays are binned by their nearest focus
    (`traced.nearest`).
    """
    wf = rule.weights * density.values_on(rule)
    best_err = traced.nearest_error[~traced.tie]
    transported = np.bincount(traced.nearest, weights=wf * traced.t,
                              minlength=state.targets.count)
    measures = field.measures(wf, state.targets.count)
    scale = max(float(state.targets.norms.min()), 1e-300)
    return AuditReport(
        per_target=transported,
        reflected=math.fsum(wf * traced.r),
        incident=math.fsum(wf),
        skipped_fraction=float(np.sum(traced.tie)) / rule.count,
        measures=measures,
        max_discrepancy=float(np.max(np.abs(transported - measures))),
        max_focus_error=float(best_err.max(initial=0.0)),
        miss_count=int(np.sum(best_err > MISS_FRACTION * scale)),
    )
