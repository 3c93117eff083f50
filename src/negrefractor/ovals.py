"""Closed-form refracting surfaces for a negative relative index.

A point source at the origin in medium I refracts into medium II whose
relative index is kappa = n2/n1 < 0.  The surface that focuses every
admissible ray onto a single interior point P is a Cartesian-oval-type
surface, written in polar form z = h(x) x over unit directions x.  Three
regimes:

  strong   kappa < -1    |z| + kappa |z - P| = b,  kappa|P| < b < |P|,
                         defined where x.P/|P| >= support_cut(P, b)
  mild     -1 < kappa < 0 same implicit equation, defined where x.P >= b
                         and (k^2 x.P - b)^2 >= (1 - k^2)(b^2 - k^2 |P|^2)
  critical kappa = -1    semi-hyperboloid |z| - |z - P| = b, |b| <= |P|,
                         defined where x.P > b

The parameter b shifts the surface monotonically along each ray
(dh/db = 1/(x . n) > 0 with n the unnormalized outward normal), which is the
bracketing fact the envelope solver relies on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import detmath

# |kappa + 1| below this means the critical (kappa = -1) regime.
CRITICAL_TOL = 1e-14
# Relative slack for clipping a tiny negative discriminant at the support rim.
DISC_SLACK = 1e-12


class Regime(enum.Enum):
    """The three cases of the relative index, and the rules each one fixes."""

    STRONG = "strong"      # kappa < -1
    MILD = "mild"          # -1 < kappa < 0
    CRITICAL = "critical"  # kappa = -1

    @property
    def max_envelope(self) -> bool:
        """Whether the envelope is max_j h_j (strong), not min_j h_j; G_j
        grows with b_j exactly then, and falls otherwise."""
        return self is Regime.STRONG

    @property
    def lossless(self) -> bool:
        """Whether every ray is transmitted (kappa = -1, whatever sigma)."""
        return self is Regime.CRITICAL

    def window_floor(self, kappa: float) -> float:
        """Least refraction cosine x . m that admits refraction: 1/kappa
        (strong), kappa (mild) or -1 (critical)."""
        if self is Regime.STRONG:
            return 1.0 / kappa
        if self is Regime.MILD:
            return kappa
        return -1.0


class SupportConditionError(ValueError):
    """Direction lies outside the surface's polar domain."""


def regime_of(kappa: float) -> Regime:
    if not np.isfinite(kappa) or kappa >= 0.0:
        raise ValueError(f"relative index must be negative, got {kappa}")
    if abs(kappa + 1.0) <= CRITICAL_TOL:
        return Regime.CRITICAL
    return Regime.STRONG if kappa < -1.0 else Regime.MILD


@dataclass(frozen=True)
class Interval:
    """Admissible parameter range; open endpoints unless closed is True."""

    lo: float
    hi: float
    closed: bool = False

    def contains(self, value: float) -> bool:
        if self.closed:
            return self.lo <= value <= self.hi
        return self.lo < value < self.hi


def admissible_b(focus, kappa: float) -> Interval:
    """Range of the surface parameter b for which the oval exists.

    Strong/mild: open (kappa|P|, |P|).  Critical: closed [-|P|, |P|].
    """
    reg = regime_of(kappa)
    p = detmath.norm(focus)
    if p <= 0.0:
        raise ValueError("focus must be away from the source origin")
    if reg is Regime.CRITICAL:
        return Interval(-p, p, closed=True)
    return Interval(kappa * p, p, closed=False)


@dataclass(frozen=True)
class OvalParams:
    """One refracting sheet: focus P, parameter b, relative index kappa."""

    focus: np.ndarray
    b: float
    kappa: float
    regime: Regime = field(init=False)

    def __post_init__(self):
        focus = np.asarray(self.focus, dtype=float)
        object.__setattr__(self, "focus", focus)
        object.__setattr__(self, "regime", regime_of(self.kappa))
        rng = admissible_b(focus, self.kappa)
        if not rng.contains(self.b):
            raise ValueError(
                f"parameter b={self.b} outside admissible range "
                f"({rng.lo}, {rng.hi}) for |P|={detmath.norm(focus)}"
            )

    @property
    def focus_norm(self) -> float:
        return detmath.norm(self.focus)


# ---------------------------------------------------------------------------
# vectorized kernels (X is an (N, dim) array of unit directions)
# ---------------------------------------------------------------------------

def radii(kappa: float, focus: np.ndarray, b: float, X: np.ndarray):
    """Polar radii h(x) and support mask for a node batch.

    Returns (h, ok); h is only meaningful where ok is True.  The discriminant
    is clipped to zero within a relative DISC_SLACK so rim-tangent rays
    (a measure-zero set that does occur in tests) evaluate cleanly.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return radii_from_dots(kappa, detmath.dot(focus, focus), b, detmath.dot_rows(X, focus))


def radii_from_dots(kappa: float, p2: float, b: float, dots: np.ndarray):
    """radii() from precomputed dots x . P: radius (NaN off the support), mask."""
    reg = regime_of(kappa)
    ok = support_from_dots(reg, kappa, p2, b, dots)
    on = dots if ok.all() else np.where(ok, dots, np.nan)
    return radius_from_dots(reg, kappa, p2, b, on), ok


def support_from_dots(regime: Regime, kappa: float, p2: float, b: float, dots):
    """Whether the sheet is supported at node-focus dot products d = x . P:
    a bool for a float d, a bool array for an array, with the same bits.

    Strong and mild: h solves (k^2 - 1) h^2 - 2 u h + k^2 p2 - b^2 = 0 with
    u = k^2 d - b and discriminant u^2 - c, c = (k^2 - 1)(k^2 p2 - b^2).  It
    may fall below zero by DISC_SLACK max(u^2, |c|); where u^2 is the larger
    it is >= 0 anyway (rounding is monotone), so the slack is DISC_SLACK |c|.

    For every b the computed mask holds on an interval of d, so over unit
    directions (|d| <= |P| up to rounding) it is all true exactly when it is
    true at the smallest and the largest d.  Rounding is monotone, so each
    computed test is monotone in its input.  Critical: b - d < 0 is
    false-then-true in d.  Strong: u > 0 is false-then-true, and where it
    holds the clip test, monotone in u*u, is too.  Mild: d >= b is
    false-then-true, and the clip test passes for every d when c <= 0.
    When c > 0 and b < 0, u >= (k^2 - 1) b > 0 on d >= b and grows with d,
    so the clip test is false-then-true there.  When c > 0 and b > 0,
    b > |k| |P| and so b - k^2 d > (1 - |k|) b > 0 for d <= |P|: u*u falls
    with d and the clip test is true-then-false.  Their relative margins
    1 - k^2 and 1 - |k| exceed 1e-14 whenever |kappa + 1| > CRITICAL_TOL,
    well above the few ulps of rounding in u and in a unit node's d.
    """
    if regime is Regime.CRITICAL:
        return b - dots < 0.0
    k2 = kappa * kappa
    u = k2 * dots - b
    c = (k2 - 1.0) * (k2 * p2 - b * b)
    inside = u > 0.0 if regime is Regime.STRONG else dots >= b
    return inside & (u * u - c >= -DISC_SLACK * abs(c))


def radius_from_dots(regime: Regime, kappa: float, p2: float, b: float, dots):
    """Polar radius h at dot products d = x . P; meaningful only where
    support_from_dots holds: the smaller root (strong), the larger (mild)."""
    if regime is Regime.CRITICAL:
        return (b * b - p2) / (2.0 * (b - dots))
    k2 = kappa * kappa
    u = k2 * dots - b
    root = np.sqrt(np.maximum(u * u - (k2 - 1.0) * (k2 * p2 - b * b), 0.0))
    if regime is Regime.STRONG:
        return (u - root) / (k2 - 1.0)
    return (root - u) / (1.0 - k2)


def parameter_from_dots(regime: Regime, kappa: float, p2: float, h, dots):
    """Parameter b of the sheet through the point z = h x at dot products
    d = x . P, the inverse of radius_from_dots: h + kappa |z - P|
    (critical: h - |z - P|), with |z - P|^2 = h^2 - 2 h d + |P|^2."""
    dist = np.sqrt(np.maximum(h * h - 2.0 * h * dots + p2, 0.0))
    return h - dist if regime.lossless else h + kappa * dist


def polar_radius(oval: OvalParams, x) -> float:
    """Radius h(x) of the sheet along unit direction x."""
    x = np.asarray(x, dtype=float)
    h, ok = radii(oval.kappa, oval.focus, oval.b, x[None, :])
    if not ok[0]:
        raise SupportConditionError(
            f"x.P = {float(x @ oval.focus)} violates the support condition (b = {oval.b})"
        )
    return float(h[0])


def support_cut(oval: OvalParams) -> float:
    """Cosine threshold of the strong sheet's polar domain.

    The sheet exists for x . P/|P| >= cut, with cut in (1/kappa, 1].
    """
    if oval.regime is not Regime.STRONG:
        raise ValueError(f"support cut applies to the strong regime only, got {oval.regime}")
    k2 = oval.kappa * oval.kappa
    p = oval.focus_norm
    return float(
        (oval.b + np.sqrt((k2 - 1.0) * (k2 * p * p - oval.b * oval.b))) / (k2 * p)
    )


def normal_at(oval: OvalParams, x) -> np.ndarray:
    """Unit surface normal at z = h(x) x, oriented into medium II.

    The implicit equation gives the (unnormalized) normal  x - kappa m  with
    m the unit vector from z toward the focus.  Its x-component 1 - kappa x.m
    is strictly positive on admissible inputs, so dh/db = 1/(x . n) > 0.
    """
    x = np.asarray(x, dtype=float)
    h = polar_radius(oval, x)
    z = h * x
    to_focus = oval.focus - z
    dist = float(np.linalg.norm(to_focus))
    if dist <= 1e-15 * oval.focus_norm:
        raise ValueError("surface point coincides with the focus")
    n = x - oval.kappa * (to_focus / dist)
    return n / np.linalg.norm(n)


def defect_many(kappa: float, focus: np.ndarray, b: float, X: np.ndarray) -> np.ndarray:
    """Signed residual of the implicit surface equation at z = h(x) x over a
    batch of supported directions.

    Strong/mild: |z| + kappa |z - P| - b.  Critical: |z| - |z - P| - b.
    Positive when the point sits outside the sheet in the +b direction.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    h, ok = radii(kappa, focus, b, X)
    if not np.all(ok):
        raise SupportConditionError("batch contains unsupported directions")
    dist = np.linalg.norm(focus[None, :] - h[:, None] * X, axis=1)
    if regime_of(kappa) is Regime.CRITICAL:
        return h - dist - b
    return h + kappa * dist - b
