"""Vector Snell law and Fresnel energy coefficients for kappa = n2/n1 < 0.

Refraction across the interface satisfies  x - kappa m = lambda nu  with
lambda = Phi(x . nu),  Phi(t) = t + |kappa| sqrt(1 - (1 - t^2)/kappa^2).

The reflected energy fraction depends only on c = x . m:

    r = alpha p(c)^2 + beta q(c)^2
    p(c) = (sigma + kappa - (1 + kappa sigma) c) / (sigma - kappa + (1 - kappa sigma) c)
    q(c) = (1 + kappa sigma - (sigma + kappa) c) / (1 - kappa sigma + (sigma - kappa) c)

with sigma = z2/z1 the impedance ratio and (alpha, beta) the parallel /
perpendicular polarization energy split.  Refraction is only possible for
c >= 1/kappa (strong regime) or c >= kappa (mild); shrinking the window by a
margin eps yields a uniform reflectance bound strictly below 1, because p and
q are monotone on the window.  At kappa = -1 all energy is transmitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ovals import Regime, regime_of


class TotalInternalReflectionError(ValueError):
    """Incidence admits no transmitted ray."""


class InadmissibleIncidenceError(ValueError):
    """Refraction cosine x . m falls outside the admissible window."""


@dataclass(frozen=True)
class MediumPair:
    """Interface data: relative index kappa < 0, impedance ratio sigma > 0,
    and the parallel-polarization energy share alpha (beta = 1 - alpha)."""

    kappa: float
    sigma: float = 1.0
    alpha: float = 0.5
    regime: Regime = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "regime", regime_of(self.kappa))  # validates kappa < 0
        if not (self.sigma > 0.0):
            raise ValueError(f"impedance ratio must be positive, got {self.sigma}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"polarization share must lie in [0, 1], got {self.alpha}")

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha


@dataclass(frozen=True)
class AdmissibilityMargin:
    """Margin eps > 0 shrinking the refraction cosine window to [t_min, 1]."""

    epsilon: float

    def __post_init__(self):
        if not (self.epsilon > 0.0):
            raise ValueError(f"margin must be positive, got {self.epsilon}")

    def window(self, kappa: float) -> tuple[float, float]:
        reg = regime_of(kappa)
        if reg.lossless:
            # the margin only keeps reflectance below 1; nothing reflects here
            return (reg.window_floor(kappa), 1.0)
        t_min = reg.window_floor(kappa) + self.epsilon
        if t_min >= 1.0:
            raise ValueError(
                f"margin {self.epsilon} empties the admissible window for kappa={kappa}"
            )
        return (t_min, 1.0)


def phi(t, kappa: float):
    """Snell multiplier Phi(t) = t + sqrt(t^2 - (1 - kappa^2)), elementwise.

    Raises TotalInternalReflectionError when the radicand is negative (only
    possible for |kappa| < 1, where it requires t^2 >= 1 - kappa^2).
    """
    regime_of(kappa)
    t = np.asarray(t, dtype=float)
    radicand = t * t - (1.0 - kappa * kappa)
    if np.any(radicand < -1e-15):
        raise TotalInternalReflectionError(
            f"no transmitted ray: t={t!r} outside validity for kappa={kappa}"
        )
    return t + np.sqrt(np.maximum(radicand, 0.0))


def refract(x, nu, kappa: float) -> np.ndarray:
    """Refracted unit direction m solving x - kappa m = Phi(x . nu) nu."""
    x = np.asarray(x, dtype=float)
    nu = np.asarray(nu, dtype=float)
    t = float(x @ nu)
    if t <= 0.0:
        raise ValueError(f"incidence cosine x . nu must be positive, got {t}")
    lam = phi(t, kappa)
    return (x - lam * nu) / kappa


def p_coefficient(c, medium: MediumPair):
    """Parallel-polarization amplitude ratio p(c), for a float or an array c."""
    k, s = medium.kappa, medium.sigma
    return (s + k - (1.0 + k * s) * c) / (s - k + (1.0 - k * s) * c)


def q_coefficient(c, medium: MediumPair):
    """Perpendicular-polarization amplitude ratio q(c), for a float or an array c."""
    k, s = medium.kappa, medium.sigma
    return (1.0 + k * s - (s + k) * c) / (1.0 - k * s + (s - k) * c)


def reflectance(c, medium: MediumPair, margin: AdmissibilityMargin | None = None):
    """Reflected energy fraction r(c) = alpha p^2 + beta q^2 at c = x . m.

    The critical regime transmits everything, so r = 0 there regardless of
    sigma.  Outside the admissible window (the margin's window when given,
    otherwise the physical one) an InadmissibleIncidenceError is raised: the
    caller is never supposed to query there, so failing loudly beats
    silently returning r = 1.
    """
    if medium.regime.lossless:
        return np.zeros_like(c, dtype=float)
    kappa = medium.kappa
    t_min = medium.regime.window_floor(kappa) if margin is None else margin.window(kappa)[0]
    # 1e-12 slack: rim-tangent rays land on the window edge up to roundoff;
    # fmin / fmax skip NaN entries, which fail every comparison
    lo = np.fmin.reduce(c, axis=None, initial=np.inf)
    hi = np.fmax.reduce(c, axis=None, initial=-np.inf)
    if lo < t_min - 1e-12 or hi > 1.0 + 1e-12:
        raise InadmissibleIncidenceError(
            f"refraction cosine outside [{t_min}, 1]: range [{lo}, {hi}]"
        )
    p = p_coefficient(c, medium)
    q = q_coefficient(c, medium)
    return medium.alpha * p * p + medium.beta * q * q


def transmittance(c, medium: MediumPair):
    """Transmitted energy fraction t = 1 - r (energy conservation)."""
    return 1.0 - reflectance(c, medium)


def reflectance_bound(medium: MediumPair, margin: AdmissibilityMargin) -> float:
    """Uniform reflectance bound C over the window [t_min, 1]; C < 1.

    p and q are monotone on the window, so each squared term peaks at an
    endpoint; the bound sums the per-term endpoint maxima.  (Bounding by the
    larger of the two endpoint values of r itself is NOT valid: the weighted
    sum can peak in the interior when p and q cross zero at different
    cosines.)
    """
    if medium.regime.lossless:
        return 0.0
    t_min, t_max = margin.window(medium.kappa)
    ends = np.array([t_min, t_max])
    p2 = p_coefficient(ends, medium) ** 2
    q2 = q_coefficient(ends, medium) ** 2
    return float(medium.alpha * p2.max() + medium.beta * q2.max())
