"""Envelope refractor built from finitely many refracting sheets.

Each target point P_j carries one closed-form sheet h_j; the surface is their
pointwise envelope over the source cap:

    strong regime          rho(x) = max_j h_j(x)
    mild / critical regime rho(x) = min_j h_j(x)

A direction x "belongs" to the sheet attaining the envelope there; points
where several sheets agree within a relative tie tolerance form the discrete
stand-in for the (measure-zero) singular set, and are assigned to the lowest
index for energy bookkeeping but skipped by normal-dependent queries.  The
rule has one home, `owned`, in the regime's `envelope_sense`; the field
(`assign_envelope`) and the solver's coordinate workspace both read them.

The energy delivered to target j is the quadrature sum of f(x) t(x) over the
directions assigned to j, with t the Fresnel transmittance at the incidence
the sheet produces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import detmath, fresnel, ovals
from .fresnel import MediumPair
from .geometry import QuadratureRule, neighbor_pairs
from .ovals import Regime

# Relative tie band: a sheet within TIE_TOL * rho of the envelope is in band.
TIE_TOL = 1e-9


class EnvelopeSense(NamedTuple):
    """The envelope max_j h_j (`sign` +1) or min_j h_j (-1): `fold` folds
    sheet rows into it and `empty` is that of no sheet, `reaches(h, T)` is
    h >= T (min: h <= T), and a sheet is in band where it reaches rho `tie`."""

    sign: float
    fold: np.ufunc
    empty: float
    reaches: np.ufunc
    tie: float


def envelope_sense(regime: Regime) -> EnvelopeSense:
    """The regime's envelope sense, the one place the max/min mirror is
    written; the tie factor is 1 - TIE_TOL (max) or 1 + TIE_TOL (min)."""
    up = regime.max_envelope
    sign = 1.0 if up else -1.0
    return EnvelopeSense(sign, np.maximum if up else np.minimum, -sign * np.inf,
                         np.greater_equal if up else np.less_equal, 1.0 - sign * TIE_TOL)


def owned(h, low, other, sense: EnvelopeSense):
    """Mask of the nodes a sheet of radii h owns: it is in band of the
    envelope of itself and `other` (all other sheets) and `low` (the
    lower-indexed ones) is not; elementwise, on NaN-free radii."""
    edge = sense.fold(h, other) * sense.tie
    return sense.reaches(h, edge) & ~sense.reaches(low, edge)


class ConfigurationError(ValueError):
    """A sheet is not evaluable somewhere on the aperture."""


class Report:
    """Base of the dataclass reports whose fields are their JSON layout:
    `to_dict` gives the fields in order, arrays as lists, except those the
    class names in `_UNREPORTED`."""

    _UNREPORTED = ()

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v
                for k, v in values.items() if k not in self._UNREPORTED}


@dataclass(frozen=True)
class TargetSpec:
    """Discrete target measure: points P_j (away from the origin) with
    positive energy weights g_j.  Index 0 is the anchor."""

    points: np.ndarray   # (m, dim)
    weights: np.ndarray  # (m,)
    norms: np.ndarray = field(init=False)  # (m,) |P_j|

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        wts = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pts.shape[0] != wts.shape[0] or pts.shape[0] < 1:
            raise ValueError("need one positive weight per target point")
        norms = detmath.norm_rows(pts)
        if np.any(norms <= 0.0):
            raise ValueError("target points must be away from the origin")
        if np.any(wts <= 0.0):
            raise ValueError("target weights must be positive")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        object.__setattr__(self, "norms", norms)

    @property
    def count(self) -> int:
        return self.points.shape[0]

    @property
    def total(self) -> float:
        return math.fsum(self.weights)


@dataclass(frozen=True)
class EmissionDensity:
    """Source intensity f over the aperture with inf f > 0.

    Uniform, or tabulated per quadrature node (tables enter only through
    node values, so their length must match the rule they are used with).
    """

    kind: str
    value: float = 1.0
    table: np.ndarray | None = None

    @staticmethod
    def uniform(value: float = 1.0) -> "EmissionDensity":
        if not (value > 0.0):
            raise ValueError("uniform density must be positive")
        return EmissionDensity(kind="uniform", value=float(value))

    @staticmethod
    def from_table(values) -> "EmissionDensity":
        values = np.asarray(values, dtype=float)
        if np.any(values <= 0.0):
            raise ValueError("tabulated density must be positive everywhere")
        return EmissionDensity(kind="table", table=values)

    def values_on(self, rule: QuadratureRule) -> np.ndarray:
        if self.kind == "uniform":
            return np.full(rule.count, self.value)
        if self.table.shape != (rule.count,):
            raise ValueError(
                f"tabulated density has {self.table.shape[0]} entries, "
                f"rule has {rule.count} nodes"
            )
        return self.table


@dataclass(frozen=True)
class RefractorState:
    """Envelope surface: medium, targets, one parameter b_j per sheet."""

    medium: MediumPair
    targets: TargetSpec
    b: np.ndarray
    regime: Regime = field(init=False)

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if b.shape != (self.targets.count,):
            raise ValueError("need one parameter b_j per target")
        for point, bj in zip(self.targets.points, b):
            if not ovals.admissible_b(point, self.medium.kappa).contains(bj):
                raise ValueError(
                    f"b={bj} inadmissible for target at {point} "
                    f"(kappa={self.medium.kappa})"
                )
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "regime", self.medium.regime)

    def sheet(self, j: int) -> ovals.OvalParams:
        return ovals.OvalParams(
            focus=self.targets.points[j], b=float(self.b[j]), kappa=self.medium.kappa
        )

    def with_b(self, b: np.ndarray) -> "RefractorState":
        return RefractorState(self.medium, self.targets, b)


# ---------------------------------------------------------------------------
# vectorized evaluation
# ---------------------------------------------------------------------------

def sheet_radii(state: RefractorState, X: np.ndarray) -> np.ndarray:
    """(m, N) matrix of sheet radii; raises if any sheet is unsupported."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    H = np.empty((state.targets.count, X.shape[0]))
    for j in range(state.targets.count):
        h, ok = ovals.radii(
            state.medium.kappa, state.targets.points[j], float(state.b[j]), X
        )
        if not np.all(ok):
            bad = int(np.argmin(ok))
            raise ConfigurationError(
                f"sheet {j} not evaluable at node {bad} "
                f"(x={X[bad]}, b={state.b[j]})"
            )
        H[j] = h
    return H


def assign_envelope(H: np.ndarray, regime: Regime):
    """Envelope rho, lowest-index assignment, and tie flags from a radii matrix.

    A sheet is 'in band' when within TIE_TOL * rho of the envelope; ties are
    nodes with more than one sheet in band.  The first sheet in band is the
    one `owned` picks, with `low` the envelope of the earlier rows.  One pass
    over the rows in index order finds both, with no (m, N) band matrix.
    """
    sense = envelope_sense(regime)
    rho = sense.fold.reduce(H, axis=0)
    edge = rho * sense.tie
    assigned = np.zeros(rho.shape, dtype=np.intp)
    seen, tie = np.zeros((2,) + rho.shape, dtype=bool)
    for k, h in enumerate(H):
        row = sense.reaches(h, edge)
        tie |= seen & row
        assigned[row & ~seen] = k
        seen |= row
    return rho, assigned, tie


def refraction_cosine(p2, r, dots):
    """Cosine x . m of the direction m from z = r x toward a target P, given
    p2 = |P|^2 and dots = x . P; elementwise over arrays."""
    return (dots - r) / np.sqrt(np.maximum(p2 - 2.0 * r * dots + r * r, 0.0))


def refraction_cosines(state: RefractorState, X, rho, assigned) -> np.ndarray:
    """Per-node cosine x . m toward the assigned target, m = (P - z)/|P - z|."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    points = state.targets.points
    p2 = detmath.dot_rows(points, points)
    return refraction_cosine(p2[assigned], rho, detmath.dot_rows(X, points[assigned]))


@dataclass(frozen=True)
class FieldEvaluation:
    """The evaluated envelope of one state on one rule: per-node radius,
    assigned sheet, tie flag and Fresnel transmittance."""

    rho: np.ndarray
    assigned: np.ndarray
    tie: np.ndarray
    transmittance: np.ndarray

    def measures(self, wf: np.ndarray, count: int) -> np.ndarray:
        """Energy per target, G_j = sum_i wf_i t_i [assigned_i = j], for wf = w f."""
        return np.bincount(self.assigned, weights=wf * self.transmittance, minlength=count)


def field_of(state: RefractorState, rule: QuadratureRule, envelope) -> FieldEvaluation:
    """The field of `envelope = assign_envelope(H, state.regime)` for the
    radii H of the state's sheets on the rule's nodes."""
    rho, assigned, tie = envelope
    c = refraction_cosines(state, rule.nodes, rho, assigned)
    t = fresnel.transmittance(c, state.medium)
    return FieldEvaluation(rho=rho, assigned=assigned, tie=tie, transmittance=t)


def evaluate_field(state: RefractorState, rule: QuadratureRule) -> FieldEvaluation:
    """The field of the state on the rule's nodes; raises if a sheet is not evaluable there."""
    H = sheet_radii(state, rule.nodes)
    return field_of(state, rule, assign_envelope(H, state.regime))


def measures(state: RefractorState, rule: QuadratureRule, density: EmissionDensity) -> np.ndarray:
    """Energy per target: G_j = sum_i w_i f_i t_i [assigned_i = j]."""
    wf = rule.weights * density.values_on(rule)
    return evaluate_field(state, rule).measures(wf, state.targets.count)


def lipschitz_estimate(state: RefractorState, rule: QuadratureRule) -> float:
    """Max finite-difference slope |rho(x)-rho(y)|/|x-y| over adjacent nodes."""
    rho = evaluate_field(state, rule).rho
    ia, ib = neighbor_pairs(rule)
    dr = np.abs(rho[ia] - rho[ib])
    dx = np.linalg.norm(rule.nodes[ia] - rule.nodes[ib], axis=1)
    return float(np.max(dr / dx))
