"""Forward ray tracing: focusing, tie handling, and the energy ledger."""

import math

import numpy as np
import pytest

import negrefractor as nr
from negrefractor import detmath, fresnel, ovals, raytrace, refractor
from negrefractor.raytrace import trace_field, trace_one
from negrefractor.refractor import RefractorState, assign_envelope, evaluate_field, sheet_radii
from conftest import audit_state, duplicate_sheet_state, solvable_config, symmetric_pair_config


def _single_state(kappa=-1.5, b=-1.49):
    return RefractorState(
        nr.MediumPair(kappa, 1.0, 0.5),
        nr.TargetSpec(np.array([[0.0, 0.0, 1.0]]), np.array([0.1])),
        np.array([b]),
    )


def test_axial_ray_hits_target_exactly():
    state = _single_state()
    res = trace_one(state, np.array([0.0, 0.0, 1.0]))
    assert not res.skipped
    assert np.allclose(res.m, [0.0, 0.0, 1.0], atol=1e-15)
    assert res.focus_error <= 1e-14
    assert res.r + res.t == 1.0


def test_offaxis_rays_focus():
    state = _single_state()
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = np.array([0.0, 0.0, 1.0]) + 0.4 * rng.normal(size=3) * np.array([1, 1, 0])
        x = v / np.linalg.norm(v)
        res = trace_one(state, x)
        assert res.focus_error <= 1e-8


def test_tie_ray_is_skipped():
    P = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    dup = RefractorState(
        nr.MediumPair(-1.5), nr.TargetSpec(P, np.array([0.1, 0.1])),
        np.array([-1.49, -1.49]),
    )
    res = trace_one(dup, np.array([0.1, 0.0, np.sqrt(0.99)]))
    assert res.skipped


def test_audit_ledger_and_cross_binning():
    cfg = symmetric_pair_config(-1.5, level=6)
    sol = nr.solve_discrete(cfg)
    rule = cfg.rule()
    _, _, audit = audit_state(sol.state, rule, cfg.density)
    incident = float(np.sum(rule.weights))
    # transported + reflected reassemble the incident flux
    assert abs(audit.per_target.sum() + audit.reflected - incident) <= 1e-12 * incident
    # focus-error binning reproduces the quadrature measures
    assert audit.max_discrepancy <= 1e-12 * max(audit.measures.max(), 1.0)
    assert audit.max_focus_error <= 1e-8
    assert audit.miss_count == 0


def test_audit_critical_reflects_nothing():
    cfg = symmetric_pair_config(-1.0, level=6)
    sol = nr.solve_discrete(cfg)
    rule = cfg.rule()
    _, _, audit = audit_state(sol.state, rule, cfg.density)
    assert audit.reflected == 0.0
    assert audit.per_target.sum() == pytest.approx(float(np.sum(rule.weights)), rel=1e-14)


def test_trace_field_matches_trace_one():
    cfg = symmetric_pair_config(-1.5, level=4)
    state = RefractorState(cfg.medium, cfg.targets, np.array([cfg.b1, cfg.b1 * 0.999]))
    rule = cfg.rule()
    traced = trace_field(state, rule, evaluate_field(state, rule))
    for i in range(0, rule.count, 37):
        one = trace_one(state, rule.nodes[i])
        assert one.active == traced.assigned[i]
        if not one.skipped:
            assert np.allclose(one.m, traced.m[i], atol=1e-13)
            assert one.focus_error == pytest.approx(traced.focus_error[i], abs=1e-13)
            assert one.r == pytest.approx(traced.r[i], abs=1e-14)


def test_audit_with_ties_still_balances():
    # duplicate sheets: every node is a tie; energy is still fully accounted
    dup, rule = duplicate_sheet_state()
    _, _, audit = audit_state(dup, rule, nr.EmissionDensity.uniform(1.0))
    assert audit.skipped_fraction == 1.0
    incident = float(np.sum(rule.weights))
    assert abs(audit.per_target.sum() + audit.reflected - incident) <= 1e-12 * incident
    assert audit.max_discrepancy <= 1e-15


def _reference_trace_field(state, rule):
    """`trace_field` with one masked Snell pass per target and the focus
    errors of all nodes to all targets as one (N, m) matrix, reduced
    afterwards: the whole-array computation the ray blocks must reproduce
    bit for bit."""
    X = rule.nodes
    H = sheet_radii(state, X)
    rho, assigned, tie = assign_envelope(H, state.regime)
    Z = rho[:, None] * X
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

    m_ok = np.where(ok[:, None], m_dir, 0.0)
    rel = [state.targets.points[None, :, k] - Z[:, k, None] for k in range(X.shape[1])]
    s = rel[0] * m_ok[:, :1]
    for k in range(1, len(rel)):
        s += rel[k] * m_ok[:, k:k + 1]
    np.maximum(s, 0.0, out=s)
    sq = np.zeros_like(s)
    for k, rel_k in enumerate(rel):
        rel_k -= s * m_dir[:, k:k + 1]
        rel_k *= rel_k
        sq += rel_k
    focus_err = np.full((rule.count, state.targets.count), np.nan)
    focus_err[ok] = np.sqrt(sq[ok])

    idx = np.arange(rule.count)
    nearest = assigned.copy()
    nearest_error = np.full(rule.count, np.nan)
    if np.any(ok):
        nearest[ok] = np.nanargmin(focus_err[ok], axis=1)
        nearest_error[ok] = focus_err[idx[ok], nearest[ok]]

    # rays reflect at the Snell cosine, ties at the assigned sheet's
    # geometric cosine
    c = detmath.dot_rows(X, m_ok)
    r = np.zeros(rule.count)
    if state.medium.regime is not ovals.Regime.CRITICAL:
        r[ok] = np.asarray(fresnel.reflectance(c[ok], state.medium))
        if np.any(tie):
            c_tie = refractor.refraction_cosines(
                state, X[tie], detmath.norm_rows(Z[tie]), assigned[tie]
            )
            r[tie] = np.asarray(fresnel.reflectance(c_tie, state.medium), dtype=float)
    return raytrace.RayTrace(
        Z, m_dir, assigned, tie, focus_err[idx, assigned], r, 1.0 - r, nearest, nearest_error
    )


def _blocked_trace_cases():
    # solved four-target states in all three regimes, a solved mirrored
    # pair, and duplicate-sheet states with some and with only tie nodes
    for kappa in (-1.5, -0.5, -1.0):
        cfg = solvable_config(kappa, 4, seed=52, level=5)
        rule = cfg.rule()
        yield f"solved{kappa}", nr.solve_discrete(cfg, rule).state, rule
    cfg = symmetric_pair_config(-1.5, level=5)
    rule = cfg.rule()
    yield "mirrored", nr.solve_discrete(cfg, rule).state, rule
    yield "mixed_ties", *duplicate_sheet_state(third_sheet=True)
    yield "all_ties", *duplicate_sheet_state()


@pytest.mark.parametrize("block", [1000, 7, raytrace._FOCUS_BLOCK])
def test_blocked_trace_field_matches_whole_array_reference(monkeypatch, block):
    monkeypatch.setattr(raytrace, "_FOCUS_BLOCK", block)
    for name, state, rule in _blocked_trace_cases():
        assert rule.count % block, (name, rule.count, block)
        ref = _reference_trace_field(state, rule)
        got = trace_field(state, rule, evaluate_field(state, rule))
        assert type(got) is raytrace.RayTrace
        for field, a, b in zip(raytrace.RayTrace._fields, got, ref):
            assert a.dtype == b.dtype and a.shape == b.shape, (name, field)
            assert a.shape[0] == rule.count, (name, field)
            assert np.array_equal(a, b, equal_nan=True), (name, field)
        if name == "mixed_ties":
            assert 0 < got.tie.sum() < rule.count
            assert np.array_equal(got.nearest[got.tie], got.assigned[got.tie])


def _reference_audit(state, rule, density):
    """`energy_audit` on the whole-array trace with its own envelope and its
    own measures: the computation the ray blocks must reproduce."""
    traced = _reference_trace_field(state, rule)
    fvals = density.values_on(rule)
    w = rule.weights
    best_err = traced.nearest_error[~traced.tie]
    transported = np.bincount(traced.nearest, weights=w * fvals * traced.t,
                              minlength=state.targets.count)
    measures = refractor.measures(state, rule, density)
    scale = max(float(state.targets.norms.min()), 1e-300)
    return raytrace.AuditReport(
        per_target=transported,
        reflected=math.fsum(w * fvals * traced.r),
        incident=math.fsum(w * fvals),
        skipped_fraction=float(np.sum(traced.tie)) / rule.count,
        measures=measures,
        max_discrepancy=float(np.max(np.abs(transported - measures))),
        max_focus_error=float(best_err.max()) if best_err.size else 0.0,
        miss_count=int(np.sum(best_err > raytrace.MISS_FRACTION * scale)) if best_err.size else 0,
    )


@pytest.mark.parametrize("block", [100, 7, raytrace._FOCUS_BLOCK])
def test_blocked_audit_matches_whole_array_reference(monkeypatch, block):
    # three sheets, 512 nodes of which 216 are ties: neither count is a
    # multiple of the block, and the last block of rays is a partial one
    state, rule = duplicate_sheet_state(third_sheet=True)
    density = nr.EmissionDensity.uniform(1.0)
    ref = _reference_audit(state, rule, density).to_dict()
    monkeypatch.setattr(raytrace, "_FOCUS_BLOCK", block)
    got = audit_state(state, rule, density)[2].to_dict()
    assert got == ref
    assert 0 < ref["skipped_fraction"] < 1 and len(ref["per_target"]) == 3
    assert rule.count % block and int(rule.count * (1 - ref["skipped_fraction"])) % block
