"""Spherical source apertures and quadrature rules over them.

The light source sits at the origin and emits into a cap-shaped set of unit
directions (an arc for n=2, a spherical cap for n=3).  Everything downstream
integrates against the surface measure of that cap, so this module owns the
node/weight sets:

  n=2  midpoint rule on uniform sub-arcs of the cap arc,
  n=3  product rule, Gauss-Legendre in cos(polar) x uniform midpoints in
       azimuth (exact for zonal polynomials), polar-major node ordering.

Node counts grow by 4x per level so refinement studies have a fixed ratio.
Rules are built from IEEE basic operations only (see detmath), so their bits
do not depend on the platform's LAPACK or libm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import detmath

# Closed-cap membership slack on the cosine; absorbs cos(pi/2) != 0 roundoff.
COS_SLACK = 1e-12


def unit(v: np.ndarray) -> np.ndarray:
    """Normalize a vector, rejecting zero input."""
    v = np.asarray(v, dtype=float)
    n = detmath.norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return v / n


def require_unit(v, name: str = "direction") -> np.ndarray:
    """Return v as a float array after checking |v| = 1 within 1e-12."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size not in (2, 3):
        raise ValueError(f"{name} must be a 2- or 3-vector, got shape {v.shape}")
    n = detmath.norm(v)
    if abs(n - 1.0) > 1e-12:
        raise ValueError(f"{name} must be a unit vector (|v| = {n!r})")
    return v


@dataclass(frozen=True)
class SourceDomain:
    """Cap of unit directions {x : x . axis >= cos(half_angle)}.

    half_angle is restricted to (0, pi) so the closure is a proper cap with a
    measure-zero boundary.
    """

    axis: np.ndarray
    half_angle: float
    dim: int

    @property
    def cos_half_angle(self) -> float:
        return detmath.cos_sin(self.half_angle)[0]

    def contains(self, x) -> bool:
        x = require_unit(x, "x")
        if x.size != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {x.size}")
        return detmath.dot(x, self.axis) >= self.cos_half_angle - COS_SLACK


def make_cap(axis, half_angle: float, dim: int | None = None) -> SourceDomain:
    """Build the cap domain, validating axis and opening angle."""
    axis = require_unit(axis, "axis")
    if dim is None:
        dim = axis.size
    if dim not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {dim}")
    if axis.size != dim:
        raise ValueError(f"axis has {axis.size} components, expected {dim}")
    if not (0.0 < half_angle < np.pi):
        raise ValueError(f"half_angle must lie strictly in (0, pi), got {half_angle}")
    return SourceDomain(axis=axis, half_angle=float(half_angle), dim=int(dim))


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes (N, dim) and positive weights (N,) approximating the cap measure.

    The nodes are column-major, as the kernels read them one coordinate
    column at a time (detmath.dot_rows).  grid_shape records the (polar,
    azimuth) layout for n=3 (polar-major ordering) and (N,) for n=2; it
    drives neighbor pairing and mesh export.
    """

    domain: SourceDomain
    nodes: np.ndarray
    weights: np.ndarray
    level: int
    grid_shape: tuple

    @property
    def count(self) -> int:
        return self.nodes.shape[0]


def _orthonormal_frame(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors completing axis to a right-handed frame (n=3)."""
    helper = np.array([0.0, 0.0, 1.0])
    if abs(axis[2]) > 0.9:
        helper = np.array([1.0, 0.0, 0.0])
    e1 = unit(np.cross(helper, axis))
    e2 = np.cross(axis, e1)
    return e1, e2


def build_quadrature(domain: SourceDomain, level: int) -> QuadratureRule:
    """Deterministic rule at the given refinement level (node count 4x/level)."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    if domain.dim == 2:
        count = 4**level
        theta0 = domain.half_angle
        step = 2.0 * theta0 / count
        # the axis rotated by each sub-arc midpoint offset
        c, s = detmath.cos_sin(-theta0 + (np.arange(count) + 0.5) * step)
        a0, a1 = domain.axis
        nodes = np.empty((count, 2), order="F")
        nodes[:, 0], nodes[:, 1] = c * a0 - s * a1, c * a1 + s * a0
        weights = np.full(count, step)
        return QuadratureRule(domain, nodes, weights, int(level), (count,))

    n_polar = 2**level
    n_az = 2 ** (level + 1)
    u_lo = domain.cos_half_angle
    gl_nodes, gl_weights = detmath.gauss_legendre(n_polar)
    u = 0.5 * (u_lo + 1.0) + 0.5 * (1.0 - u_lo) * gl_nodes
    wu = 0.5 * (1.0 - u_lo) * gl_weights
    phi = -np.pi + (np.arange(n_az) + 0.5) * (2.0 * np.pi / n_az)
    wphi = 2.0 * np.pi / n_az

    sin_theta = np.sqrt(np.clip(1.0 - u * u, 0.0, None))
    e1, e2 = _orthonormal_frame(domain.axis)
    # polar-major layout: node[i_polar * n_az + i_az]
    cu = np.repeat(u, n_az)
    su = np.repeat(sin_theta, n_az)
    cos_phi, sin_phi = detmath.cos_sin(phi)
    sc = su * np.tile(cos_phi, n_polar)
    ss = su * np.tile(sin_phi, n_polar)
    nodes = np.empty((cu.size, 3), order="F")
    for k in range(3):
        nodes[:, k] = sc * e1[k] + ss * e2[k] + cu * domain.axis[k]
    weights = np.repeat(wu, n_az) * wphi
    return QuadratureRule(domain, nodes, weights, int(level), (n_polar, n_az))


def cap_measure(rule: QuadratureRule) -> float:
    """Total weight = approximate surface measure of the cap (exactly rounded)."""
    return math.fsum(rule.weights)


def neighbor_pairs(rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs of adjacent nodes (consecutive along each grid direction).

    Used for finite-difference slope estimates; azimuth wraps for n=3.
    """
    if rule.domain.dim == 2:
        idx = np.arange(rule.count)
        return idx[:-1], idx[1:]
    n_polar, n_az = rule.grid_shape
    grid = np.arange(rule.count).reshape(n_polar, n_az)
    a_az = grid.ravel()
    b_az = np.roll(grid, -1, axis=1).ravel()
    a_po = grid[:-1, :].ravel()
    b_po = grid[1:, :].ravel()
    return np.concatenate([a_az, a_po]), np.concatenate([b_az, b_po])
