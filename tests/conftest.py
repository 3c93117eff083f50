"""Shared fixtures: admissible-parameter samplers, solvable configurations,
closed-form sheet extremes, the all-node coordinate energy and the
field-trace-audit chain."""

import numpy as np
import pytest

import negrefractor as nr
from negrefractor import ovals, refractor
from negrefractor.ovals import Regime
from negrefractor.raytrace import energy_audit, trace_field
from negrefractor.refractor import evaluate_field

DEG = np.pi / 180.0
CAP30 = 2.0 * np.pi * (1.0 - np.cos(30 * DEG))


def sample_ovals(regime, n_ovals, seed, kappa_range=None, p_range=(0.5, 2.0),
                 b_margin=1e-3):
    """Random admissible (kappa, P, b) triples for one regime."""
    rng = np.random.default_rng(seed)
    if regime is Regime.STRONG:
        lo, hi = kappa_range or (-3.0, -1.05)
        kappas = rng.uniform(lo, hi, n_ovals)
    elif regime is Regime.MILD:
        lo, hi = kappa_range or (-0.95, -0.05)
        kappas = rng.uniform(lo, hi, n_ovals)
    else:
        kappas = np.full(n_ovals, -1.0)
    dirs = rng.normal(size=(n_ovals, 3))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    pnorms = rng.uniform(*p_range, n_ovals)
    P = dirs * pnorms[:, None]
    if regime is Regime.CRITICAL:
        b_lo, b_hi = -pnorms, pnorms
    else:
        b_lo, b_hi = kappas * pnorms, pnorms
    span = b_hi - b_lo
    b = b_lo + span * rng.uniform(b_margin, 1.0 - b_margin, n_ovals)
    return kappas, P, b


def sample_directions_in_support(kappa, P, b, n_dirs, rng, cos_margin=0.02):
    """Unit directions inside the sheet's polar domain (away from its rim)."""
    p = float(np.linalg.norm(P))
    if kappa < -1.0:
        oval = nr.OvalParams(P, b, kappa)
        c_lo = nr.ovals.support_cut(oval)
    elif kappa == -1.0:
        c_lo = b / p
    else:
        c_lo = max(b / p, -1.0)
    span = 1.0 - c_lo
    cosu = c_lo + span * rng.uniform(cos_margin, 1.0, n_dirs)
    phi = rng.uniform(-np.pi, np.pi, n_dirs)
    sinu = np.sqrt(np.maximum(1.0 - cosu * cosu, 0.0))
    axis = P / p
    helper = np.array([0.0, 0.0, 1.0])
    if abs(axis @ helper) > 0.9:
        helper = np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return (
        np.outer(sinu * np.cos(phi), e1)
        + np.outer(sinu * np.sin(phi), e2)
        + np.outer(cosu, axis)
    )


def separated_targets(rng, m, max_angle, min_sep, radial=(0.97, 1.03)):
    """Random targets near the cap axis with pairwise separation >= min_sep."""
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


def solvable_config(kappa, m, seed, level=8, share=0.6, epsilon=0.4,
                    max_angle=5 * DEG, min_sep=0.03):
    """A feasible configuration of the standard desk-scale shape: 30-degree
    cap, unit-distance targets near the axis, uniform source."""
    rng = np.random.default_rng(seed)
    cap = nr.make_cap([0.0, 0.0, 1.0], 30 * DEG, 3)
    pts = separated_targets(rng, m, max_angle, min_sep)
    rad0 = float(np.linalg.norm(pts[0]))
    if kappa < -1.0:
        tau, r0, b1 = 1.2, 0.08, kappa * rad0 + 0.004
    elif kappa == -1.0:
        tau, r0, b1 = 0.3, 0.3, -0.9 * rad0
    else:
        tau, r0 = 0.3, 0.17
        b1 = kappa * rad0 + 0.8 * r0 * (1.0 + kappa)
    g = rng.uniform(0.5, 1.5, m)
    g = g / g.sum() * share * CAP30
    return nr.ProblemConfig(
        domain=cap,
        density=nr.EmissionDensity.uniform(1.0),
        medium=nr.MediumPair(kappa=kappa, sigma=1.0, alpha=0.5),
        margin=nr.AdmissibilityMargin(epsilon),
        targets=nr.TargetSpec(pts, g),
        b1=b1,
        tau=tau,
        r0=r0,
        quadrature_level=level,
    )


def symmetric_pair_config(kappa, level=6, offset_deg=5.0, g=None):
    """Two targets mirrored across the x=0 plane (tie locus on the grid seam)."""
    a = offset_deg * DEG
    P1 = np.array([np.sin(a), 0.0, np.cos(a)])
    P2 = np.array([-np.sin(a), 0.0, np.cos(a)])
    cap = nr.make_cap([0.0, 0.0, 1.0], 30 * DEG, 3)
    if kappa < -1.0:
        tau, r0, b1 = 1.2, 0.085, kappa + 0.0028
        g = 0.3 if g is None else g
    elif kappa == -1.0:
        tau, r0, b1 = 0.3, 0.3, -0.9
        g = 0.3 if g is None else g
    else:
        tau, r0 = 0.3, 0.17
        b1 = kappa + 0.8 * r0 * (1.0 + kappa)
        g = 0.25 if g is None else g
    return nr.ProblemConfig(
        domain=cap,
        density=nr.EmissionDensity.uniform(1.0),
        medium=nr.MediumPair(kappa=kappa, sigma=1.0, alpha=0.5),
        margin=nr.AdmissibilityMargin(0.4),
        targets=nr.TargetSpec(np.array([P1, P2]), np.array([g, g])),
        b1=b1,
        tau=tau,
        r0=r0,
        quadrature_level=level,
    )


@pytest.fixture(scope="session")
def strong_pair_solution():
    cfg = symmetric_pair_config(-1.5, level=7)
    sol = nr.solve_discrete(cfg)
    assert sol.converged
    return cfg, sol


def duplicate_sheet_state(third_sheet=False):
    """Two identical sheets on one target point over a 30-degree cap at
    level 4 (512 nodes): every node is a tie.  With `third_sheet`, a sheet
    aimed 5 degrees off axis takes 296 nodes and 216 ties remain."""
    P = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [np.sin(5 * DEG), 0.0, np.cos(5 * DEG)]])
    m = 3 if third_sheet else 2
    state = nr.RefractorState(
        nr.MediumPair(-1.5), nr.TargetSpec(P[:m], np.full(m, 0.1)), np.full(m, -1.49),
    )
    rule = nr.build_quadrature(nr.make_cap([0.0, 0.0, 1.0], 30 * DEG, 3), 4)
    return state, rule


def sheet_extremes(kappa, p, b):
    """Closed-form (h_min, h_max, dist_min, dist_max) of the polar radius h
    and the focus distance |P - h x| of a strong or mild sheet with |P| = p.

    Strong: h_max sits at the support rim, and dist is linear in h along
    the sheet (h + kappa dist = b), so dist_max = (h_max - b) / (-kappa).
    """
    if kappa < -1.0:
        h_max = float(np.sqrt((kappa * kappa * p * p - b * b) / (kappa * kappa - 1.0)))
        return ((kappa * p - b) / (kappa - 1.0), h_max,
                (b - p) / (kappa - 1.0), (h_max - b) / (-kappa))
    return ((b - kappa * p) / (1.0 - kappa), (b - kappa * p) / (1.0 + kappa),
            (p - b) / (1.0 - kappa), float(np.sqrt((p * p - b * b) / (1.0 - kappa * kappa))))


def reference_energy(ws, b):
    """G_j(b) of a begun `solver._CoordinateWorkspace`, summed over every
    node: the coordinate energy as a single pass over the whole rule, which
    the candidate-node path must reproduce."""
    h, ok = ovals.radii_from_dots(ws.kappa, ws.p2, b, ws.dots)
    if not np.all(ok):
        raise refractor.ConfigurationError(f"sheet {ws.j} left its support region at b={b}")
    if ws.regime.max_envelope:
        T = np.maximum(h, ws.other) * (1.0 - refractor.TIE_TOL)
        mine = (h >= T) & (ws.low < T)
    else:
        T = np.minimum(h, ws.other) * (1.0 + refractor.TIE_TOL)
        mine = (h <= T) & (ws.low > T)
    if not np.any(mine):
        return 0.0
    if ws.lossless:
        return float(np.sum(ws.wf[mine]))
    hm, dm = h[mine], ws.dots[mine]
    dist = np.sqrt(np.maximum(ws.p2 - 2.0 * hm * dm + hm * hm, 0.0))
    t = nr.fresnel.transmittance((dm - hm) / dist, ws.config.medium)
    return float(np.sum(ws.wf[mine] * t))


def audit_state(state, rule, density):
    """Evaluate a state's field, trace it and audit it: (field, traced, audit)."""
    field = evaluate_field(state, rule)
    traced = trace_field(state, rule, field)
    return field, traced, energy_audit(state, rule, density, field, traced)
