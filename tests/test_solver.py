"""Validation, search ranges, initialization, the discrete solve, certificates,
the candidate-node coordinate energy, randomized solver invariants, and the
dyadic refinement driver."""

import copy
import hashlib
import json
import math
import re
import statistics
import tracemalloc
import warnings
from dataclasses import fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import negrefractor as nr
from negrefractor import cli, detmath, ovals, refractor, solver
from negrefractor.raytrace import energy_audit, trace_field
from negrefractor.solver import (
    DiskPatch,
    RadonProblem,
    ValidationFailure,
    dyadic_atoms,
    init_state,
    refine_radon,
    solve_discrete,
    validate,
    verify_weak,
)
from conftest import CAP30, DEG, reference_energy, solvable_config, symmetric_pair_config


def _replace(cfg, **kw):
    from dataclasses import replace
    return replace(cfg, **kw)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_validate_passes_feasible_configs():
    for kappa in (-1.5, -0.5, -1.0):
        cfg = symmetric_pair_config(kappa)
        rep = validate(cfg)
        assert rep.passed, [(r.name, r.detail) for r in rep.records if r.status == "fail"]


def test_validate_rejects_exact_energy_balance():
    # with any reflection loss the emitted flux must strictly exceed the target mass
    cfg = symmetric_pair_config(-1.5)
    rep0 = validate(cfg)
    assert rep0.c_eps > 0.0
    g_exact = CAP30 / 2.0
    cfg_bad = _replace(
        cfg, targets=nr.TargetSpec(cfg.targets.points, np.array([g_exact, g_exact]))
    )
    rep = validate(cfg_bad)
    assert not rep.passed
    assert any(r.name == "A5" and r.status == "fail" for r in rep.records)
    with pytest.raises(ValidationFailure):
        solve_discrete(cfg_bad)


def test_validate_angular_admissibility():
    cfg = symmetric_pair_config(-1.5)
    rep = validate(cfg)
    assert any(r.name == "A4" and r.status == "ok" for r in rep.records)
    # a target far outside the cone violates the angular condition
    bad_targets = nr.TargetSpec(
        np.array([[0.0, 0.0, 1.0], [0.0, np.sin(2.6), np.cos(2.6)]]),
        np.array([0.2, 0.2]),
    )
    rep = validate(_replace(cfg, targets=bad_targets))
    assert any(r.name == "A4" and r.status == "fail" for r in rep.records)


def test_margin_that_empties_the_window_is_reported():
    # kappa = -1.5: the window floor 1/kappa plus 1.7 lies above 1
    cfg = _replace(solvable_config(-1.5, 2, seed=3, level=4), margin=nr.AdmissibilityMargin(1.7))
    rep = validate(cfg)
    assert not rep.passed
    failed = {r.name: r.detail for r in rep.records if r.status == "fail"}
    assert "empties the admissible window" in failed["A4"]
    assert "A5" in failed
    assert not any(r.name == "margin-erosion" for r in rep.records)
    assert rep.c_eps == 1.0 and rep.surplus_ratio == 0.0
    cli.canonical_json(rep.to_dict())  # every number is finite
    with pytest.raises(ValidationFailure):
        solve_discrete(cfg)


def test_margin_erosion_needs_r0_below_every_target():
    # r0 >= min |P| has no erosion bound (-inf after a division by zero at
    # r0 = |P|, values above 1 beyond), and the r0 record fails it
    cfg = symmetric_pair_config(-1.5)
    for r0 in (1.0, 1.5, 3.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = validate(_replace(cfg, r0=r0))
        assert not any(r.name == "margin-erosion" for r in rep.records), r0
        assert any(r.name == "A0-2" and r.status == "fail" for r in rep.records)
    rec = [r for r in validate(cfg).records if r.name == "margin-erosion"]
    assert cfg.r0 == 0.085 and rec == [solver.CheckRecord(
        "margin-erosion", "ok",
        "conservative min x.m = 0.6766991443386651 vs window floor -0.2666666666666666",
    )]


def test_validate_critical_surplus_reduces_to_mass():
    cfg = symmetric_pair_config(-1.0)
    rep = validate(cfg)
    assert rep.c_eps == 0.0
    # all-but-exactly the full cap energy is still fine at kappa = -1
    g = 0.499 * CAP30
    rep2 = validate(
        _replace(cfg, targets=nr.TargetSpec(cfg.targets.points, np.array([g, g])))
    )
    assert all(r.status != "fail" for r in rep2.records if r.name == "C5")


def test_validate_strong_anchor_window_warns_not_fails():
    cfg = symmetric_pair_config(-1.5)
    rep = validate(cfg)
    rec = [r for r in rep.records if r.name == "anchor-window"]
    assert rec and rec[0].status == "warn"
    assert rep.passed


def test_validate_mild_anchor_window_is_hard():
    cfg = symmetric_pair_config(-0.5)
    bad = _replace(cfg, b1=cfg.medium.kappa + 0.99 * (1.0 + cfg.medium.kappa))
    rep = validate(bad)
    assert any(r.name == "anchor-window" and r.status == "fail" for r in rep.records)


def test_validate_sigma_critical_warning():
    cfg = symmetric_pair_config(-1.0)
    rep = validate(_replace(cfg, medium=nr.MediumPair(-1.0, 1.3, 0.5)))
    assert any(r.name == "impedance-critical" and r.status == "warn" for r in rep.records)
    assert rep.passed


def _atoms_config(level):
    """The 60 atoms of refine_radon's level 4 on criterion 9's patch, as a
    discrete problem at the given quadrature level."""
    prob = _disk_problem(level=level)
    points, masses, _, _ = dyadic_atoms(prob.patch, 4)
    return solver.ProblemConfig(
        domain=prob.domain, density=prob.density, medium=prob.medium,
        margin=prob.margin, targets=nr.TargetSpec(points, masses), b1=prob.b1,
        tau=prob.tau, r0=prob.r0, quadrature_level=level, tolerances=prob.tolerances,
    )


def test_validate_memory_does_not_scale_with_nodes_times_targets():
    # at quadrature level 7 one (m, N) float64 array would be 15.7 MB
    cfg = _atoms_config(7)
    rule = cfg.rule()
    assert (cfg.targets.count, rule.count) == (60, 32768)
    validate(cfg, rule)
    tracemalloc.start()
    try:
        validate(cfg, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_trace_memory_does_not_scale_with_nodes_times_targets():
    # at quadrature level 8 one (N, m) float64 array would be 60 MiB; the
    # trace and audit of the parked state must peak below three quarters
    # of it
    cfg = _atoms_config(8)
    rule = cfg.rule()
    assert (cfg.targets.count, rule.count) == (60, 131072)
    state = init_state(cfg, rule)
    field = refractor.evaluate_field(state, rule)
    tracemalloc.start()
    try:
        energy_audit(state, rule, cfg.density, field, trace_field(state, rule, field))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 45 * 2**20, peak


def _trace_csv_peak(level, path):
    """tracemalloc peak of writing the trace CSV of the parked 60-atom state."""
    cfg = _atoms_config(level)
    rule = cfg.rule()
    state = init_state(cfg, rule)
    traced = trace_field(state, rule, refractor.evaluate_field(state, rule))
    tracemalloc.start()
    try:
        cli.write_trace_csv(traced, rule, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_bytes().count(b"\n") == 1 + rule.count
    return peak


def test_trace_csv_memory_does_not_grow_with_nodes(tmp_path):
    # the writer holds one block of rows at a time: the same 2.5 MiB at
    # 32,768 and at 131,072 nodes.  The object-array writer it replaced
    # peaked at 8.2 and 21.4 MiB here, with (N, 9) and (N, 3) copies of the
    # columns and an (N,) array of "true"/"false"
    small = _trace_csv_peak(7, tmp_path / "small.csv")
    large = _trace_csv_peak(8, tmp_path / "large.csv")
    assert large < 4 * 2**20, large
    assert large < small + 2**20, (small, large)


# ---------------------------------------------------------------------------
# search ranges
# ---------------------------------------------------------------------------

def _coordinate_range(config, rule, j, C1_est):
    """Reference search range of b_j on a rule: the scalar body the table
    replaced, one target at a time, with its least aperture cosine, its
    strong floor r0(1 + kappa) + kappa|P| and its two refusals."""
    k = config.medium.kappa
    p = float(config.targets.norms[j])
    reg = config.medium.regime
    adm = ovals.admissible_b(config.targets.points[j], k)
    cos_min_j = float(detmath.dot_rows(rule.nodes, config.targets.points[j] / p).min())
    if reg is ovals.Regime.STRONG:
        if not (0.0 < C1_est < p):
            raise solver.InfeasibleGeometryError(
                f"radius estimate {C1_est} for target {j} must lie in (0, {p})"
            )
        lo = max(adm.lo + solver._EDGE * p, config.r0 * (1.0 + k) + k * p)
        k2 = k * k
        cap = p * (cos_min_j - math.sqrt((k2 - 1.0) * max(1.0 - cos_min_j * cos_min_j, 0.0)))
        hi = min(cap - 1e-9 * p, adm.hi - solver._EDGE * p)
    elif reg is ovals.Regime.MILD:
        p1 = float(config.targets.norms[0])
        floor = k * p + (1.0 + k) * (config.b1 - k * p1) / (1.0 - k)
        lo = max(adm.lo + solver._EDGE * p, floor)
        hi = min((config.tau - k) * p, cos_min_j * p - 1e-9 * p)
    else:
        lo = adm.lo + solver._CUT_MARGIN * p
        hi = min(adm.hi - solver._EDGE * p, cos_min_j * p - solver._CUT_MARGIN * p)
    if not (lo < hi):
        raise solver.InfeasibleGeometryError(
            f"empty search range for target {j}: [{lo}, {hi}]"
        )
    return lo, hi


@settings(derandomize=True, deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_search_ranges_equal_the_scalar_reference(data):
    # bit for bit on every target, the anchor's too, in every regime; a
    # range the reference refuses as empty is empty in the table, and the
    # strong floor r0(1 + kappa) + kappa|P|, also where the product
    # underflows, never lifts a strong range
    regime = data.draw(st.sampled_from(list(ovals.Regime)))
    kappa = data.draw(_KAPPAS[regime.value])
    r0 = data.draw(st.one_of(st.sampled_from([5e-324, 1e-310, 1e-300]),
                             st.floats(0.0, 10.0, exclude_min=True)))
    tau, b1 = data.draw(st.floats(-1.0, 3.0)), data.draw(st.floats(-3.0, 3.0))
    m = data.draw(st.integers(1, 4))
    angles = data.draw(st.lists(st.tuples(st.floats(0.0, 3.0), st.floats(-3.2, 3.2),
                                          st.floats(0.3, 3.0)), min_size=m, max_size=m))
    points = np.array([[r * math.sin(t) * math.cos(a), r * math.sin(t) * math.sin(a),
                        r * math.cos(t)] for t, a, r in angles])
    level = data.draw(st.integers(2, 4))
    cfg = _replace(symmetric_pair_config(-1.5), medium=nr.MediumPair(kappa, 1.0, 0.5),
                   targets=nr.TargetSpec(points, np.full(m, 0.1)),
                   b1=b1, tau=tau, r0=r0, quadrature_level=level)
    rule = cfg.rule()
    lo, hi = solver._search_ranges(cfg, rule)
    assert lo.shape == hi.shape == (m,)
    for j in range(m):
        p = float(cfg.targets.norms[j])
        if regime is ovals.Regime.STRONG:
            assert r0 * (1.0 + kappa) + kappa * p <= kappa * p + solver._EDGE * p
        try:
            ref = _coordinate_range(cfg, rule, j, 0.5 * p)
        except solver.InfeasibleGeometryError as exc:
            assert "empty search range" in str(exc)
            assert not lo[j] < hi[j]
            continue
        assert (float(lo[j]).hex(), float(hi[j]).hex()) == (ref[0].hex(), ref[1].hex())


def _sweep_from_parked(cfg, rho=None):
    """One sweep of `_sweep_stage` on the config's rule from the parked
    state; with `rho`, the entry field reads that radius at every node, so
    the sweep's radius estimate C1 is `rho`.  Returns the new b and the
    sweep record."""
    cfg = _replace(cfg, tolerances=solver.Tolerances(max_outer=1))
    rule = cfg.rule()
    state = init_state(cfg, rule)
    wf = rule.weights * cfg.density.values_on(rule)
    field_of, calls = refractor.field_of, []

    def entry(*args):
        field = field_of(*args)
        calls.append(1)
        if rho is None or len(calls) > 1:
            return field
        return replace(field, rho=np.full_like(field.rho, rho))

    sweeps = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refractor, "field_of", entry)
        new, _, _, _ = solver._sweep_stage(cfg, rule, state, wf, 1e-4 * cfg.targets.total, sweeps)
    return new.b, sweeps[0]


def _refused_radius(cfg, rho):
    p = float(cfg.targets.norms[1])
    message = f"radius estimate {float(rho)} for target 1 must lie in (0, {p})"
    with pytest.raises(solver.InfeasibleGeometryError, match=re.escape(message)):
        _sweep_from_parked(cfg, rho)


def test_bracket_worked_points():
    # the entry field's least radius C1 only decides whether a strong visit
    # may search: inside (0, |P|) the sweep does not depend on it, from |P|
    # on its first visit is refused
    cfg = symmetric_pair_config(-1.5)
    cfg = _replace(
        cfg,
        medium=nr.MediumPair(-2.0, 1.0, 0.5),
        targets=nr.TargetSpec(
            np.array([[0.0, 0.0, 1.0], [0.05, 0.0, np.sqrt(1 - 0.0025)]]),
            np.array([0.2, 0.2]),
        ),
        b1=-1.9,
    )
    p = float(cfg.targets.norms[1])
    lo, hi = solver._search_ranges(cfg, cfg.rule())
    adm = nr.admissible_b(cfg.targets.points[1], -2.0)
    assert adm.lo < lo[1] < hi[1] < adm.hi
    b, sweep = _sweep_from_parked(cfg, 0.2)
    assert sweep["C1_est"] == 0.2 and sweep["bisection_evals"][0] > 1
    assert lo[1] <= b[1] <= hi[1]
    for rho in (1e-12, 0.999 * p):
        got_b, got = _sweep_from_parked(cfg, rho)
        assert got_b.tobytes() == b.tobytes()
        assert got["bisection_evals"] == sweep["bisection_evals"]
    for rho in (p, np.nextafter(p, np.inf), 1.5 * p):
        _refused_radius(cfg, rho)


def test_bracket_degenerate_radius_limit():
    # as C1 -> 0 the strong range still exists, starts at kappa|P|, and the
    # sweep searches it as it does under a mid-size estimate
    cfg = symmetric_pair_config(-1.5)
    p = float(cfg.targets.norms[1])
    lo, hi = solver._search_ranges(cfg, cfg.rule())
    assert lo[1] == pytest.approx(cfg.medium.kappa * p, abs=1e-9)
    assert lo[1] < hi[1]
    b, sweep = _sweep_from_parked(cfg, 1e-12)
    got_b, got = _sweep_from_parked(cfg, 0.5 * p)
    assert got_b.tobytes() == b.tobytes()
    assert got["bisection_evals"] == sweep["bisection_evals"]


def test_bracket_requires_positive_radius():
    cfg = symmetric_pair_config(-1.5)
    for rho in (0.0, -1e-12, float("nan")):
        _refused_radius(cfg, rho)


def test_sweeps_refuse_an_empty_search_range_at_stage_entry():
    # as |P| shrinks, a mild range's floor k|P| + (1 + k)(b1 - k|P_1|)/(1 - k)
    # rises while its cone cap (tau - k)|P| falls: near targets have an
    # empty range, and the sweeps refuse the first of them before any visit
    cfg = symmetric_pair_config(-0.5)
    P1, P2 = cfg.targets.points
    cfg = _replace(cfg, targets=nr.TargetSpec(np.array([P1, P2, 0.01 * P2, 0.01 * P1]),
                                              np.full(4, 0.1)))
    rule = cfg.rule()
    lo, hi = solver._search_ranges(cfg, rule)
    assert lo[1] < hi[1] and not lo[2] < hi[2] and not lo[3] < hi[3]
    state = nr.RefractorState(cfg.medium, cfg.targets, solver._parked(cfg, rule))
    visits = []
    begin = solver._CoordinateWorkspace.begin

    def counted(ws, j):
        visits.append(j)
        return begin(ws, j)

    message = f"empty search range for target 2: [{lo[2]}, {hi[2]}]"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver._CoordinateWorkspace, "begin", counted)
        with pytest.raises(solver.InfeasibleGeometryError, match=re.escape(message)):
            solver._sweep_stage(cfg, rule, state, rule.weights * cfg.density.values_on(rule),
                                1e-4 * cfg.targets.total, [])
    assert visits == []


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def test_init_single_target_passthrough():
    cfg = symmetric_pair_config(-1.5)
    cfg = _replace(
        cfg, targets=nr.TargetSpec(cfg.targets.points[:1], cfg.targets.weights[:1])
    )
    state = init_state(cfg)
    assert state.b.shape == (1,) and state.b[0] == cfg.b1


@pytest.mark.parametrize("kappa", [-1.5, -0.5, -1.0])
def test_init_one_target_is_b1_checked_by_one_measures_call(kappa, monkeypatch):
    # one target takes the same path as many: [b1], evaluated once on the rule
    cfg = symmetric_pair_config(kappa)
    cfg = _replace(cfg, targets=nr.TargetSpec(cfg.targets.points[:1], cfg.targets.weights[:1]))
    calls = []
    measures = refractor.measures

    def counted(*args, **kwargs):
        calls.append(1)
        return measures(*args, **kwargs)

    monkeypatch.setattr(refractor, "measures", counted)
    state = init_state(cfg, cfg.rule())
    assert state.b.tolist() == [cfg.b1] and len(calls) == 1


@pytest.mark.parametrize("kappa", [-1.5, -0.5, -1.0])
@pytest.mark.parametrize("m", [1, 2])
def test_init_anchor_missing_the_aperture_names_sheet_0(kappa, m):
    # b1 = 0.9|P| is admissible, but the anchor's support misses part of the
    # aperture; validate would refuse the config first, init_state raises
    cfg = symmetric_pair_config(kappa)
    cfg = _replace(cfg, b1=0.9, targets=nr.TargetSpec(cfg.targets.points[:m], cfg.targets.weights[:m]))
    assert ovals.admissible_b(cfg.targets.points[0], kappa).contains(cfg.b1)
    with pytest.raises(refractor.ConfigurationError, match="sheet 0 not evaluable"):
        init_state(cfg)


@pytest.mark.parametrize("kappa", [-1.5, -0.5, -1.0])
def test_init_inadmissible_b1_is_refused(kappa):
    cfg = _replace(symmetric_pair_config(kappa), b1=1.5)
    with pytest.raises(ValueError, match="inadmissible"):
        init_state(cfg)


def test_init_infeasible_when_a_parked_sheet_keeps_energy():
    # critical regime: this b1 passes validate, but the anchor sheet sits so
    # far out that parked non-anchor sheets still own nodes
    cfg = solvable_config(-1.0, 3, seed=5, level=5)
    rule = cfg.rule()
    cfg = _replace(cfg, b1=0.9 * float(detmath.dot_rows(rule.nodes, cfg.targets.points[0]).min()))
    assert validate(cfg, rule).passed
    with pytest.raises(solver.InfeasibleGeometryError,
                       match=r"initialization leaves non-anchor energy \[.*\]; lower b1"):
        init_state(cfg, rule)


@pytest.mark.parametrize("kappa", [-1.5, -0.5, -1.0])
def test_init_anchor_takes_everything(kappa):
    cfg = symmetric_pair_config(kappa)
    rule = cfg.rule()
    state = init_state(cfg, rule)
    G = refractor.measures(state, rule, cfg.density)
    assert np.all(G[1:] == 0.0)
    assert G[0] == pytest.approx(math.fsum(G), rel=1e-15)


def test_init_mild_sheet_ordering_holds_nodewise():
    # anchor sheet below every parked sheet across the whole aperture
    cfg = symmetric_pair_config(-0.5)
    rule = cfg.rule()
    state = init_state(cfg, rule)
    assert state.b[1] == pytest.approx(
        (cfg.tau - cfg.medium.kappa) * cfg.targets.norms[1], rel=1e-15
    )
    H = refractor.sheet_radii(state, rule.nodes)
    assert np.all(H[0] <= H[1])


def test_init_strong_parking_retries_only_what_parking_causes(monkeypatch):
    # an error that no parked sheet can cause is not retried under another name
    calls = []

    def broken(*args, **kwargs):
        calls.append(1)
        raise ValueError("not a parking failure")

    monkeypatch.setattr(refractor, "measures", broken)
    with pytest.raises(ValueError, match="not a parking failure") as info:
        init_state(symmetric_pair_config(-1.5))
    assert type(info.value) is ValueError and len(calls) == 1


def _halving_parking(config, rule=None):
    """Reference strong parking by search: halve a radius c from the
    anchor's least radius, set b_j = c(1 - kappa) + kappa|P_j|, and keep the
    first b whose sheets are admissible, evaluable and receive no energy."""
    rule = rule or config.rule()
    tgt, k = config.targets, config.medium.kappa
    h1, _ = ovals.radii(k, tgt.points[0], config.b1, rule.nodes)
    c_init = float(h1.min())
    b = np.full(tgt.count, config.b1)
    for _ in range(80):
        b[1:] = c_init * (1.0 - k) + k * tgt.norms[1:]
        c_init *= 0.5
        if not all(ovals.admissible_b(P, k).contains(bj) for P, bj in zip(tgt.points[1:], b[1:])):
            continue
        state = nr.RefractorState(config.medium, tgt, b.copy())
        try:
            G = refractor.measures(state, rule, config.density)
        except (refractor.ConfigurationError, nr.fresnel.InadmissibleIncidenceError):
            continue
        if np.all(G[1:] == 0.0):
            return state
    raise solver.InfeasibleGeometryError("could not park the non-anchor sheets below the anchor")


def _solve_bytes(monkeypatch, run, park):
    """Report bytes of every solve `run` makes and of its own report, with
    `park` as init_state; and the parked parameters."""
    solve, reports, parked = solver.solve_discrete, [], []

    def parking(config, rule=None):
        parked.append(park(config, rule))
        return parked[-1]

    def recorded(*args, **kwargs):
        sol = solve(*args, **kwargs)
        reports.append(cli.report_bytes(sol.to_dict()))
        return sol

    monkeypatch.setattr(solver, "init_state", parking)
    monkeypatch.setattr(solver, "solve_discrete", recorded)
    reports.append(cli.report_bytes(run().to_dict()))
    monkeypatch.setattr(solver, "solve_discrete", solve)
    return reports, [state.b for state in parked]


_STRONG_RUNS = {
    "pair-strong": lambda: solver.solve_discrete(symmetric_pair_config(-1.5)),
    "stiff": lambda: solver.solve_discrete(solvable_config(-1.5, 10, seed=1027, level=5)),
    "radon": lambda: solver.refine_radon(_disk_problem(level=7), levels=3),
}


@pytest.mark.parametrize("run", _STRONG_RUNS.values(), ids=_STRONG_RUNS.keys())
def test_parking_at_the_floor_keeps_whole_solves_identical(monkeypatch, run):
    # the sweeps cannot tell where a strong sheet was parked: every solve's
    # report, its b and bisection_evals included, is the same from either park
    closed, floors = _solve_bytes(monkeypatch, run, init_state)
    halved, searched = _solve_bytes(monkeypatch, run, _halving_parking)
    assert halved == closed
    # and the starts differ: the floor lies below every searched park
    assert len(floors) == len(searched) and all(
        np.all(f[1:] < s[1:]) for f, s in zip(floors, searched))


@pytest.mark.parametrize("run", _STRONG_RUNS.values(), ids=_STRONG_RUNS.keys())
def test_strong_parking_stays_out_of_the_anchor_tie_band(monkeypatch, run):
    # a parked row lies below the anchor row by more than the tie band at
    # every node, so it owns no node and ties with none
    rows = []

    def parking(config, rule=None):
        state = init_state(config, rule)
        rows.append(refractor.sheet_radii(state, (rule or config.rule()).nodes))
        return state

    monkeypatch.setattr(solver, "init_state", parking)
    run()
    assert rows and all(np.all(H[1:] < H[0] * (1.0 - refractor.TIE_TOL)) for H in rows)


@settings(derandomize=True, deadline=None, max_examples=60,
          suppress_health_check=[HealthCheck.too_slow])
@given(kappa=st.floats(-8.0, -1.0 - 1e-9), pair=st.booleans())
def test_init_strong_parking_lands_on_the_admissible_floor(kappa, pair):
    # wherever the halving search parks, init_state parks at the floor of
    # the admissible range with a single field evaluation
    cfg = (symmetric_pair_config(kappa, level=4) if pair
           else solvable_config(kappa, 5, seed=3, level=4))
    rule = cfg.rule()
    try:
        _halving_parking(cfg, rule)
    except ValueError:  # the search found no park, so there is none to match
        return
    calls = []
    measures = refractor.measures

    def counted(*args):
        calls.append(1)
        return measures(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refractor, "measures", counted)
        state = init_state(cfg, rule)
    p = cfg.targets.norms[1:]
    assert len(calls) == 1
    assert state.b[0] == cfg.b1 and np.array_equal(state.b[1:], kappa * p + solver._EDGE * p)


# ---------------------------------------------------------------------------
# discrete solve
# ---------------------------------------------------------------------------

def test_solve_single_target_trivial():
    cfg = symmetric_pair_config(-1.5)
    cfg = _replace(
        cfg, targets=nr.TargetSpec(cfg.targets.points[:1], np.array([0.3]))
    )
    sol = solve_discrete(cfg)
    assert sol.converged
    assert sol.measures[0] >= 0.3
    assert sol.anchor_surplus >= 0.0


def test_solve_symmetric_pair_all_regimes():
    for kappa in (-1.5, -0.5, -1.0):
        cfg = symmetric_pair_config(kappa, level=7)
        sol = solve_discrete(cfg)
        assert sol.converged, (kappa, sol.status)
        assert abs(sol.residuals[1]) <= sol.measure_tol_abs
        assert sol.measures[0] >= cfg.targets.weights[0] - sol.measure_tol_abs
        assert sol.min_rho > 0.0 and sol.max_rho <= cfg.r0 * (1 + 1e-12)


def test_solve_matches_brute_force_scan(strong_pair_solution):
    cfg, sol = strong_pair_solution
    rule = cfg.rule()
    ws = solver._CoordinateWorkspace(
        cfg, rule,
        refractor.sheet_radii(sol.state, rule.nodes),
        rule.weights * cfg.density.values_on(rule),
    )
    ws.begin(1)
    lo, hi = (float(end[1]) for end in solver._search_ranges(cfg, rule))
    step = 1e-4 * (hi - lo)
    grid = lo + step * np.arange(int((hi - lo) / step) + 1)
    # a pass over every node per point, as in criterion 6
    errs = np.array([abs(reference_energy(ws, float(b)) - cfg.targets.weights[1]) for b in grid])
    b_scan = float(grid[int(np.argmin(errs))])
    b_tol = cfg.tolerances.b_tol * float(cfg.targets.norms[1])
    assert abs(sol.b[1] - b_scan) <= 2 * b_tol + step


def test_solve_report_is_deterministic():
    a = solve_discrete(symmetric_pair_config(-1.5, level=6))
    b = solve_discrete(symmetric_pair_config(-1.5, level=6))
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.measures, b.measures)
    assert a.to_dict() == b.to_dict()


def test_feasible_set_membership_throughout():
    for kappa in (-1.5, -0.5):
        cfg = symmetric_pair_config(kappa, level=6)
        sol = solve_discrete(cfg)
        # the sweep history never overshoots the targets beyond tolerance
        for s in sol.sweeps:
            assert s["max_overshoot"] <= sol.measure_tol_abs
        assert np.all(sol.measures[1:] <= cfg.targets.weights[1:] + sol.measure_tol_abs)


def test_anchor_parameter_never_modified():
    for kappa in (-1.5, -0.5, -1.0):
        cfg = solvable_config(kappa, 5, seed=77, level=6)
        sol = solve_discrete(cfg)
        assert sol.b[0] == cfg.b1


def test_sweep_residuals_mostly_non_increasing():
    # heuristic health check: within each ladder stage the residual falls in
    # at least 90% of consecutive sweeps
    hits = total = 0
    for kappa in (-1.5, -0.5, -1.0):
        cfg = solvable_config(kappa, 5, seed=78, level=7)
        sol = solve_discrete(cfg)
        by_level = {}
        for s in sol.sweeps:
            by_level.setdefault(s["level"], []).append(s["max_residual"])
        for seq in by_level.values():
            for a, b in zip(seq, seq[1:]):
                total += 1
                hits += b <= a * (1.0 + 1e-12)
    if total:
        assert hits / total >= 0.9


def test_accepted_parameters_stay_in_valid_brackets():
    # admissibility always; the final rule's search range too
    for kappa in (-1.5, -0.5, -1.0):
        cfg = solvable_config(kappa, 5, seed=79, level=7)
        rule = cfg.rule()
        sol = solve_discrete(cfg, rule)
        assert sol.converged
        lo, hi = solver._search_ranges(cfg, rule)
        for j in range(1, 5):
            adm = nr.admissible_b(cfg.targets.points[j], kappa)
            assert adm.contains(float(sol.b[j]))
            assert lo[j] <= sol.b[j] <= hi[j]


def test_unreachable_target_ends_bracket_exhausted(monkeypatch):
    # a range too narrow to reach the target, and one sweep per stage
    cfg = _replace(symmetric_pair_config(-1.5, level=5), tolerances=solver.Tolerances(max_outer=1))
    real = solver._search_ranges

    def narrow(config, rule):
        lo, hi = real(config, rule)
        return lo, lo + 1e-6 * (hi - lo)

    monkeypatch.setattr(solver, "_search_ranges", narrow)
    sol = solve_discrete(cfg)
    assert sol.status == "bracket_exhausted"
    assert sol.sweeps[-1]["exhausted"] and sol.sweeps[-1]["level"] == 5


@pytest.mark.parametrize("kappa", [-1.5, -0.5, -1.0])
def test_report_field_is_the_field_of_the_solved_state(kappa):
    cfg = solvable_config(kappa, 4, seed=80, level=6)
    rule = cfg.rule()
    sol = solve_discrete(cfg, rule)
    assert sum(s["level"] == rule.level for s in sol.sweeps) > 1
    fresh = refractor.evaluate_field(sol.state, rule)
    for name in ("rho", "assigned", "tie", "transmittance"):
        got, want = getattr(sol.field, name), getattr(fresh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert sol.measures.tobytes() == refractor.measures(sol.state, rule, cfg.density).tobytes()


def test_sweeps_evaluate_the_sheets_once_per_ladder_stage(monkeypatch):
    calls = []
    original = refractor.sheet_radii

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(refractor, "sheet_radii", counted)
    monkeypatch.setattr(solver, "sheet_radii", counted)
    after_init = []
    init = solver.init_state

    def init_state(*args, **kwargs):
        state = init(*args, **kwargs)
        after_init.append(len(calls))
        return state

    monkeypatch.setattr(solver, "init_state", init_state)
    sol = solve_discrete(solvable_config(-0.5, 4, seed=80, level=6))
    stages = len({s["level"] for s in sol.sweeps})
    assert stages == 4 and len(sol.sweeps) > 2 * stages
    assert len(calls) - after_init[0] == stages


# ---------------------------------------------------------------------------
# bisection ends and final statuses
# ---------------------------------------------------------------------------

class _StepWorkspace:
    """Stand-in for the coordinate workspace: the energy counts the steps
    at or below b (increasing) or at or above b (decreasing), less the
    `falls` counted the same way, and every probed b is recorded.  It
    predicts `prediction` and is supported everywhere."""

    def __init__(self, steps, increasing, prediction=None, falls=()):
        self.steps, self.increasing, self.probes = np.atleast_1d(steps), increasing, []
        self.prediction, self.falls = prediction, np.asarray(falls, dtype=float)

    def at_least(self, b, target, strict=False):
        self.probes.append(b)
        hit = (lambda s: b >= s) if self.increasing else (lambda s: b <= s)
        g = float(np.sum(hit(self.steps)) - np.sum(hit(self.falls)))
        return g > target if strict else g >= target

    def predict(self, b, g, target):
        return self.prediction

    def supported(self, bs):
        return True


class _RecordingWorkspace:
    """A coordinate workspace whose probed b values are recorded, and whose
    prediction `shift` moves (None: the workspace's own)."""

    def __init__(self, ws, shift=None):
        self.ws, self.probes, self.shift = ws, [], shift

    def at_least(self, b, target, strict=False):
        self.probes.append(b)
        return self.ws.at_least(b, target, strict)

    def predict(self, b, g, target):
        s = self.ws.predict(b, g, target)
        return s if s is None or self.shift is None else self.shift(s)

    def supported(self, bs):
        return self.ws.supported(bs)


def _cold_bisection(ws, below, above, target, b_tol, strict):
    """The plain bisection: both ends, then every halving from the ends
    down; the reference for predicted visits."""
    below_over = ws.at_least(below, target, strict=True)
    if not ws.at_least(above, target):
        return above, 2, True
    if below_over:
        return below, 2, True
    evals = 2
    while abs(above - below) > b_tol:
        mid = 0.5 * (below + above)
        if mid == below or mid == above:
            break
        evals += 1
        if ws.at_least(mid, target, strict):
            above = mid
        else:
            below = mid
    return below, evals, False


def _two_branch_bisection(ws, lo, hi, target, b_tol, increasing):
    """The bisection as written per envelope sense before it took one
    shape: the reference that `solver._bisect_coordinate` must reproduce."""
    if increasing:
        lo_over = ws.at_least(lo, target, strict=True)
        if not ws.at_least(hi, target):
            return hi, 2, True
        if lo_over:
            return lo, 2, True
    else:
        lo_under = not ws.at_least(lo, target)
        hi_over = ws.at_least(hi, target, strict=True)
        if lo_under:
            return lo, 2, True
        if hi_over:
            return hi, 2, True
    evals = 2
    a, c = lo, hi
    while c - a > b_tol:
        mid = 0.5 * (a + c)
        if mid <= a or mid >= c:
            break
        evals += 1
        if increasing:
            reached = ws.at_least(mid, target)
        else:
            reached = not ws.at_least(mid, target, strict=True)
        if reached:
            c = mid
        else:
            a = mid
    return (a if increasing else c), evals, False


def _assert_bisection_matches_reference(make_ws, lo, hi, target, b_tol, increasing):
    """Bisect [lo, hi] as `_sweep_stage` does and as the reference does, on
    fresh workspaces; returns the reference's result and probes."""
    ref_ws, new_ws = make_ws(), make_ws()
    ref = _two_branch_bisection(ref_ws, lo, hi, target, b_tol, increasing)
    below, above = (lo, hi) if increasing else (hi, lo)
    assert solver._bisect_coordinate(new_ws, below, above, target, b_tol, not increasing) == ref
    # the same probes; the min envelope now probes hi before lo
    assert sorted(new_ws.probes) == sorted(ref_ws.probes)
    return ref, ref_ws.probes


@pytest.mark.parametrize("increasing", [True, False])
@pytest.mark.parametrize("step, end", [(3.0, 2.0), (0.5, 1.0)])
def test_bisection_returns_the_exhausted_end(increasing, step, end):
    # a step beyond hi: an increasing energy never reaches the target on
    # [lo, hi], a decreasing one stays above it; a step below lo: an
    # increasing energy exceeds the target at lo, a decreasing one is below it
    ws = _StepWorkspace(step, increasing)
    below, above = (1.0, 2.0) if increasing else (2.0, 1.0)
    assert solver._bisect_coordinate(ws, below, above, 0.5, 1e-9, not increasing) == (end, 2, True)
    assert len(ws.probes) == 2


@pytest.mark.parametrize("increasing", [True, False])
def test_bisection_stops_at_adjacent_floats(increasing):
    # b_tol = 0: only the midpoint test ends the loop, once the bracket is
    # two adjacent floats; in [1, 2) that takes 52 halvings
    ws = _StepWorkspace(1.3, increasing)
    below, above = (1.0, 2.0) if increasing else (2.0, 1.0)
    b, evals, exhausted = solver._bisect_coordinate(ws, below, above, 0.5, 0.0, not increasing)
    # the feasible side of the step: energy 0 <= target, next to the crossing
    assert b == np.nextafter(1.3, -np.inf if increasing else np.inf)
    assert not exhausted
    assert evals == len(ws.probes) == 2 + 52


@pytest.mark.parametrize("increasing", [True, False])
@pytest.mark.parametrize("b_tol", [0.0, 1e-9])
@pytest.mark.parametrize("steps", [
    (1.3,), (1.1, 1.25, 1.5, 1.9), (0.5, 1.2, 1.2, 1.7, 3.0), (1.0, 1.5, 2.0),
])
def test_bisection_matches_the_two_branch_reference_on_steps(increasing, b_tol, steps):
    # integer targets hit a step value exactly, where `strict` decides; the
    # lowest and highest ones exhaust an end whenever a step lies off [1, 2]
    exhausted = set()
    for target in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0):
        (_, _, flag), _ = _assert_bisection_matches_reference(
            lambda: _StepWorkspace(steps, increasing), 1.0, 2.0, target, b_tol, increasing
        )
        exhausted.add(flag)
    assert exhausted == {True, False}


def _solve_with_final_field(monkeypatch, cfg, change):
    """solve_discrete with each ladder stage's field and measures passed
    through `change(field, G)`."""
    original = solver._sweep_stage

    def crafted(*args):
        state, field, G, status = original(*args)
        return (state, *change(field, G.copy()), status)

    monkeypatch.setattr(solver, "_sweep_stage", crafted)
    return solve_discrete(cfg)


def _deficit(field, G):
    G[0] = 0.0
    return field, G


def _too_far(field, G):
    rho = field.rho.copy()
    rho[0] = 1.0  # beyond the config's r0 = 0.085
    return replace(field, rho=rho), G


def _through_origin(field, G):
    rho = field.rho.copy()
    rho[0] = 0.0
    return replace(field, rho=rho), G


@pytest.mark.parametrize("change, status", [
    (_deficit, "anchor_deficit"),
    (_too_far, "radius_exceeded"),
    (_through_origin, "degenerate_radius"),
])
def test_converged_solve_checks_the_final_field(monkeypatch, change, status):
    cfg = symmetric_pair_config(-1.5)
    assert solve_discrete(cfg).converged
    sol = _solve_with_final_field(monkeypatch, cfg, change)
    assert sol.status == status
    assert not sol.converged
    assert sol.min_rho == float(sol.field.rho.min())
    assert sol.max_rho == float(sol.field.rho.max())


# ---------------------------------------------------------------------------
# weak-solution certificate
# ---------------------------------------------------------------------------

def test_verify_weak_roundtrip(strong_pair_solution):
    cfg, sol = strong_pair_solution
    ok, cert = verify_weak(cfg, sol.measures)
    assert ok
    names = {e["name"] for e in cert}
    assert "G[1]>=g[1]-tol" in names and "sum G == total" in names


def test_verify_weak_detects_perturbation():
    # b_tol sized so the solve still converges but a 10 b_tol push moves the
    # measure well past the tolerance (the response slope is steep)
    cfg = symmetric_pair_config(-1.5, level=6)
    cfg = _replace(cfg, tolerances=nr.Tolerances(b_tol=1e-8))
    sol = solve_discrete(cfg)
    assert sol.converged
    b_tol = 1e-8 * float(cfg.targets.norms[1])
    moved = sol.state.with_b(sol.b + np.array([0.0, 10 * b_tol]))
    ok, cert = verify_weak(cfg, refractor.measures(moved, cfg.rule(), cfg.density))
    assert not ok
    bad = [e for e in cert if not e["ok"]]
    assert any("G[1]" in e["name"] for e in bad)


def test_verify_weak_single_target():
    cfg = symmetric_pair_config(-1.5)
    cfg = _replace(cfg, targets=nr.TargetSpec(cfg.targets.points[:1], np.array([0.3])))
    sol = solve_discrete(cfg)
    ok, _ = verify_weak(cfg, sol.measures)
    assert ok


# ---------------------------------------------------------------------------
# dyadic refinement
# ---------------------------------------------------------------------------

def _disk_problem(level=6, mass=0.45, radius=0.05, kappa=-1.5, shift=(0.0, 0.0)):
    # slightly off the cap axis: a centered disk makes the atom set exactly
    # 4-fold symmetric and the degenerate sheet pairs flip nodes in groups,
    # which caps the achievable measure resolution; `shift` moves it in-plane
    center = np.array([0.011 + shift[0], 0.007 + shift[1], 1.0])
    probe = DiskPatch(center=center, normal=np.array([0.0, 0.0, 1.0]),
                      radius=radius, density=1.0)
    patch = DiskPatch(
        center=center, normal=probe.normal, radius=radius,
        density=mass / probe.total_mass(),
    )
    anchor_norm = float(np.linalg.norm(patch.anchor_point))
    # the anchor parameters of `solvable_config`
    if kappa < -1.0:
        tau, r0, b1 = 1.2, 0.08, kappa * anchor_norm + 0.004
    elif kappa == -1.0:
        tau, r0, b1 = 0.3, 0.3, -0.9 * anchor_norm
    else:
        tau, r0 = 0.3, 0.17
        b1 = kappa * anchor_norm + 0.8 * r0 * (1.0 + kappa)
    return RadonProblem(
        domain=nr.make_cap([0.0, 0.0, 1.0], 30 * DEG, 3),
        density=nr.EmissionDensity.uniform(1.0),
        medium=nr.MediumPair(kappa, 1.0, 0.5),
        margin=nr.AdmissibilityMargin(0.4),
        patch=patch,
        b1=b1,
        tau=tau,
        r0=r0,
        quadrature_level=level,
        tolerances=nr.Tolerances(b_tol=1e-13),
    )


def test_dyadic_atoms_geometry():
    prob = _disk_problem()
    total = prob.patch.total_mass()
    prev_pts = None
    for level in (1, 2, 3, 4):
        pts, masses, cells, n_side = dyadic_atoms(prob.patch, level)
        assert n_side == 2 ** (level - 1)
        assert abs(float(np.sum(masses)) - total) <= 1e-12 * total
        assert np.all(masses > 0.0)
        # anchor atom first and fixed across levels
        assert np.allclose(pts[0], prob.patch.anchor_point, atol=0)
        # cell diameters halve per level (chart square side 2r)
        diam = np.sqrt(2.0) * 2.0 * prob.patch.radius / n_side
        assert diam <= np.sqrt(2.0) * 2.0 * prob.patch.radius * 2.0 ** (1 - level) + 1e-15
        prev_pts = pts


def test_refine_level_one_is_single_atom_solve():
    prob = _disk_problem(level=5)
    rep = refine_radon(prob, levels=1)
    assert rep.converged
    assert rep.levels[0]["atoms"] == 1
    assert rep.levels[0]["status"] == "converged"
    assert rep.mass_error <= 1e-12 * prob.patch.total_mass()


def test_refine_two_levels_feasible_and_conservative(monkeypatch):
    prob = _disk_problem(level=7)
    atomized = []
    real = solver.dyadic_atoms

    def counted(patch, level):
        atomized.append(level)
        return real(patch, level)

    monkeypatch.setattr(solver, "dyadic_atoms", counted)
    rep = refine_radon(prob, levels=2)
    # each level once, and the anchor's test cell once per call
    assert sorted(atomized) == sorted([1, 2, solver._TEST_LEVEL])
    assert rep.converged
    assert len(rep.sup_diffs) == 1 and rep.sup_diffs[0] > 0.0
    for row in rep.levels:
        assert abs(row["mass_total"] - prob.patch.total_mass()) <= 1e-12


def test_refine_stops_at_the_first_failing_level(monkeypatch):
    real = solver.solve_discrete

    def stall_at_four_atoms(config, rule, start=None):
        report = real(config, rule, start=start)
        return replace(report, status="stalled") if config.targets.count == 4 else report

    monkeypatch.setattr(solver, "solve_discrete", stall_at_four_atoms)
    rep = refine_radon(_disk_problem(level=5), levels=3)
    assert rep.status == "level-2-stalled" and not rep.converged
    assert [row["atoms"] for row in rep.levels] == [1, 4]
    assert rep.levels[-1]["status"] == "stalled"
    assert rep.levels[-1]["start"] == "cold after warm stalled"
    assert len(rep.sup_diffs) == 1


@pytest.mark.parametrize("kappa", [-1.5, -0.5, -1.0])
def test_warm_start_at_the_parked_state_is_the_cold_solve(kappa):
    # a start is where the ladder begins and nothing else: from init_state's
    # own parameters the report is the cold one byte for byte; a start must
    # keep the anchor at b1
    cfg = symmetric_pair_config(kappa, level=5)
    rule = cfg.rule()
    cold = solve_discrete(cfg, rule)
    warm = solve_discrete(cfg, rule, start=init_state(cfg, rule).b)
    assert cli.report_bytes(warm.to_dict()) == cli.report_bytes(cold.to_dict())
    with pytest.raises(ValueError, match="anchor"):
        solve_discrete(cfg, rule, start=cold.b + np.array([1e-6, 0.0]))


def test_warm_level_that_fails_is_solved_again_cold(monkeypatch):
    # a warm level that does not converge is solved again from init_state,
    # and then reports what a run of cold solves reports, but for its start
    real, prob = solver.solve_discrete, _disk_problem(level=7)
    calls, solves = [], []

    def warm_fails(config, rule, start=None):
        calls.append((config.targets.count, start is not None))
        report = real(config, rule, start=start)
        if start is not None:
            return replace(report, status="max_outer_exceeded")
        solves.append(report)
        return report

    monkeypatch.setattr(solver, "solve_discrete", warm_fails)
    rep = refine_radon(prob, levels=3)
    assert calls == [(1, False), (4, True), (4, False), (16, True), (16, False)]
    assert [row["start"] for row in rep.levels] == [
        "parked", "cold after warm max_outer_exceeded", "cold after warm max_outer_exceeded"]
    fallback = solves[:]

    solves.clear()
    monkeypatch.setattr(solver, "solve_discrete",
                        lambda config, rule, start=None: warm_fails(config, rule))
    cold = refine_radon(prob, levels=3)
    assert rep.converged and rep.sup_diffs == cold.sup_diffs
    for row, cold_row in zip(rep.levels, cold.levels):
        assert {**row, "start": None} == {**cold_row, "start": None}
    for got, ref in zip(fallback, solves, strict=True):
        assert got.measures.tobytes() == ref.measures.tobytes()


@pytest.mark.parametrize("seed", [1, 10])
def test_jittered_centre_converges_warm(seed):
    # a 1e-4 in-plane move of criterion 9's patch centre stalled level 3 of
    # cold-started levels on these seeds; warm-started levels converge
    shift = np.random.default_rng([seed, 9]).uniform(-1e-4, 1e-4, 2)
    rep = refine_radon(_disk_problem(level=7, shift=shift), levels=3)
    assert rep.converged, rep.status
    assert [row["start"] for row in rep.levels] == ["parked", "warm", "warm"]
    assert rep.sup_diffs[0] > rep.sup_diffs[1]


@pytest.mark.parametrize("kappa", [-1.5, -0.5, -1.0])
def test_warm_child_start_properties(kappa):
    prob = _disk_problem(level=7, kappa=kappa)
    shared = {f.name: getattr(prob, f.name)
              for f in fields(solver.ProblemConfig) if f.name != "targets"}

    def level_config(level):
        points, masses, cells, _ = dyadic_atoms(prob.patch, level)
        return solver.ProblemConfig(targets=nr.TargetSpec(points, masses), **shared), cells

    parent_cfg, parent_cells = level_config(2)
    config, cells = level_config(3)
    rule = nr.build_quadrature(prob.domain, prob.quadrature_level)
    ladder = solver._ladder(config, rule)
    parent = solve_discrete(parent_cfg, rule).field
    b = solver._child_start(config, ladder, parent, parent_cells, cells)
    parent_index = [tuple(x) for x in parent_cells.tolist()].index
    parents = [parent_index(tuple((cells[c] // 2).tolist())) for c in range(len(cells))]
    assert b[0] == config.b1
    tgt = config.targets
    sense = refractor.envelope_sense(config.medium.regime)
    ranges = [solver._search_ranges(config, r) for r in ladder]
    unclipped = 0
    for c in range(1, tgt.count):
        lo, hi = max(r[0][c] for r in ranges), min(r[1][c] for r in ranges)
        assert lo <= b[c] <= hi, (c, lo, b[c], hi)
        if lo < b[c] < hi:
            unclipped += 1
            mine = parent.assigned == parents[c]
            h, ok = ovals.radii(config.medium.kappa, tgt.points[c], float(b[c]),
                                rule.nodes[mine])
            assert ok.all()
            reached = int(np.count_nonzero(sense.reaches(h, parent.rho[mine])))
            assert abs(reached - solver._START_SHARE * mine.sum()) <= 1.0, (c, reached)
    assert unclipped
    state = refractor.RefractorState(config.medium, tgt, b)
    for r in ladder:
        refractor.sheet_radii(state, r.nodes)  # every sheet supported

    # parent 1 cedes its nodes to parent 0: its children start parked, and
    # those of parents 2 and 3 as before
    orphan = replace(parent, assigned=np.where(parent.assigned == 1, 0, parent.assigned))
    b_orphan = solver._child_start(config, ladder, orphan, parent_cells, cells)
    parked = solver._parked(config, rule)
    assert 1 in parents and {2, 3} & set(parents)
    for c in range(1, tgt.count):
        if parents[c] == 1:
            assert b_orphan[c] == parked[c]
        elif parents[c] > 1:
            assert b_orphan[c] == b[c]


def test_anchor_must_avoid_cell_boundaries():
    patch = DiskPatch(
        center=np.array([0.0, 0.0, 1.0]),
        normal=np.array([0.0, 0.0, 1.0]),
        radius=0.05,
        density=1.0,
        anchor_uv=(0.0, 0.0),  # dead center: on the level-2 cell corner
    )
    # atoms are still produced (the anchor cell is whichever box contains the
    # point after clipping), and the anchor survives at every level
    for level in (1, 2, 3):
        pts, masses, _, _ = dyadic_atoms(patch, level)
        assert np.allclose(pts[0], patch.anchor_point, atol=0)


def _projected_test_cells(patch, points):
    """Reference test cell of each atom: project the atom's point back into
    the patch chart and floor it on the test grid, clipped to the grid; the
    anchor's cell is floored from its chart coordinates."""
    side = 2 ** (solver._TEST_LEVEL - 1)
    step = 2.0 * patch.radius / side
    e1, e2 = patch.frame()
    rel = points - patch.center[None, :]
    uv = np.column_stack([rel @ e1, rel @ e2])
    t = np.clip(((uv + patch.radius) / step).astype(int), 0, side - 1)
    auv = np.array(patch.anchor_uv, dtype=float) * patch.radius
    a = [min(int((c + patch.radius) / step), side - 1) for c in auv]
    return t[:, 0] * side + t[:, 1], a[0] * side + a[1]


@pytest.mark.parametrize("normal, anchor_uv", [
    ((0.0, 0.0, 1.0), (0.11, 0.07)),   # criterion 9's patch
    ((0.3, -0.2, 1.0), (0.11, 0.07)),  # tilted
    ((0.0, 0.0, 1.0), (0.0, 0.0)),     # anchor on the cell corner
])
def test_test_cells_are_the_projected_cells(normal, anchor_uv):
    patch = DiskPatch(center=np.array([0.011, 0.007, 1.0]), normal=np.array(normal),
                      radius=0.05, density=1.0, anchor_uv=anchor_uv)
    anchor_cell = dyadic_atoms(patch, solver._TEST_LEVEL)[2][0]
    for level in range(1, 6):
        points, _, cells, n_side = dyadic_atoms(patch, level)
        ref, anchor = _projected_test_cells(patch, points)
        got = solver._test_cells(anchor_cell, cells, n_side)
        assert got[0] == anchor
        assert np.array_equal(got[1:], ref[1:]), level


# ---------------------------------------------------------------------------
# candidate-node coordinate energy
# ---------------------------------------------------------------------------

_PROPERTY = settings(
    derandomize=True, deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
_REGIMES = (-1.5, -0.5, -1.0)


@lru_cache(maxsize=None)
def _solved_workspace(kappa):
    """Workspace over a solved five-target state at level 6, and each
    coordinate's bisection range."""
    cfg = solvable_config(kappa, 5, seed=31, level=6)
    rule = cfg.rule()
    sol = solve_discrete(cfg, rule)
    H = refractor.sheet_radii(sol.state, rule.nodes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_CULL_MIN", 0)  # tiles on this level-6 rule too
        ws = solver._CoordinateWorkspace(cfg, rule, H, rule.weights * cfg.density.values_on(rule))
    lo, hi = solver._search_ranges(cfg, rule)
    return cfg, ws, list(zip(lo.tolist(), hi.tolist()))


def _begin(kappa, j):
    cfg, ws, ranges = _solved_workspace(kappa)
    ws.begin(j)
    return cfg, ws, ranges[j]


# The workspace as it was before visits culled tiles: `begin` computed every
# node's switch value, and the candidates, the early decisions and the
# prediction read all of them.  The culled workspace must reproduce it.

def _all_node_switch(ws):
    """Every node's switch value s(r*) at a begun workspace."""
    sense = ws.sense
    edge = ws.other * sense.tie
    r = np.where(sense.reaches(ws.low, edge), ws.low / sense.tie, edge)
    return ovals.parameter_from_dots(ws.regime, ws.kappa, ws.p2, r, ws.dots)


def _all_node_candidates(ws, switch, b):
    """The candidates at b, read off every node's switch value."""
    return ws.sense.reaches(b + ws.slack, switch).nonzero()[0]


def _all_node_at_least(ws, nodes, b, target, strict=False):
    """`at_least` on the all-node candidates `nodes`, with the early
    decision on their head and their count."""
    ws._check_support(b)
    n = len(nodes)
    cut = 0
    if n >= solver._EARLY_MIN:
        last = ws.reach.searchsorted(2.0 * target)
        cut = int(nodes.searchsorted(last, side="right"))
    if 0 < cut < n:
        head = ws._terms(b, nodes[:cut])
        bound = float(head.sum()) * (1.0 - 4.0 * n * solver._EPS)
        if bound > target or (bound == target and not strict):
            return True
        terms = np.concatenate((head, ws._terms(b, nodes[cut:])))
    else:
        terms = ws._terms(b, nodes)
    g = float(terms.sum())
    return g > target if strict else g >= target


def _all_node_predict(ws, switch, b, g, target):
    """`predict` over every node's switch value."""
    up = (g < target) == ws.regime.max_envelope
    side = (switch > b) if up else (switch < b)
    s, wf = switch[side], ws.wf[side]
    key = s if up else -s
    need, n, k = abs(target - g), len(s), 16
    while True:
        near = np.argpartition(key, k - 1)[:k] if k < n else np.arange(n)
        near = near[np.argsort(key[near])]
        hit = int(np.cumsum(wf[near]).searchsorted(need))
        if hit < len(near):
            return float(s[near[hit]])
        if k >= n:
            return None
        k *= 8


@pytest.mark.parametrize("kappa", _REGIMES)
def test_bisection_matches_the_two_branch_reference_on_workspaces(kappa):
    # targets equal to the energy at probed points: exact hits of G_j
    for j in range(1, 5):
        cfg, ws, (lo, hi) = _begin(kappa, j)
        for b_tol in (cfg.tolerances.b_tol * float(cfg.targets.norms[j]), 0.0):
            _, probes = _assert_bisection_matches_reference(
                lambda: _RecordingWorkspace(ws), lo, hi,
                float(cfg.targets.weights[j]), b_tol, ws.regime.max_envelope,
            )
            for b in (probes[0], probes[1], probes[len(probes) // 2], probes[-1]):
                _assert_bisection_matches_reference(
                    lambda: _RecordingWorkspace(ws), lo, hi, ws.energy(b), b_tol, ws.regime.max_envelope,
                )


def _assert_probe_matches(ws, b, targets):
    ref = reference_energy(ws, b)
    assert ws.energy(b).hex() == ref.hex()
    for target in targets:
        assert ws.at_least(b, target) == (ref >= target)
        assert ws.at_least(b, target, strict=True) == (ref > target)
    h, _ = ovals.radii_from_dots(ws.kappa, ws.p2, b, ws.dots)
    assert ws.radii_row(b).tobytes() == h.tobytes()


def _ulp_step(x, ulps):
    """x moved by the given number of ulps."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, np.inf if ulps > 0 else -np.inf))
    return x


def _targets_around(ref, weight):
    near = [ref, np.nextafter(ref, np.inf), np.nextafter(ref, -np.inf)]
    return near + [ref * f for f in (0.5, 0.1, 1e-3)] + [weight, 0.0]


@_PROPERTY
@given(kappa=st.sampled_from(_REGIMES), j=st.integers(1, 4),
       u=st.floats(0.0, 1.0), scale=st.floats(1e-3, 2.0))
def test_candidate_energy_matches_full_node_reference(kappa, j, u, scale):
    cfg, ws, (lo, hi) = _begin(kappa, j)
    b = min(max(lo + u * (hi - lo), lo), hi)
    ref = reference_energy(ws, b)
    _assert_probe_matches(ws, b, _targets_around(ref, cfg.targets.weights[j]) + [scale * ref])


@_PROPERTY
@given(kappa=st.sampled_from(_REGIMES), j=st.integers(1, 4), pick=st.floats(0.0, 1.0),
       ulps=st.integers(-2, 2))
def test_candidate_energy_matches_at_switch_values(kappa, j, pick, ulps):
    # a node's switch value is where its ownership flips: the tightest spot
    # for the candidate superset
    cfg, ws, (lo, hi) = _begin(kappa, j)
    switch = _all_node_switch(ws)
    inside = np.sort(switch[(switch >= lo) & (switch <= hi)])
    assert inside.size
    b = _ulp_step(float(inside[min(int(pick * inside.size), inside.size - 1)]), ulps)
    b = min(max(b, lo), hi)
    ref = reference_energy(ws, b)
    _assert_probe_matches(ws, b, _targets_around(ref, cfg.targets.weights[j]))


@_PROPERTY
@given(regime=st.sampled_from(list(ovals.Regime)), m=st.integers(1, 5), data=st.data())
def test_ownership_of_the_field_is_the_kernel_row_by_row(regime, m, data):
    # the field's lowest-index argmax on the band and the kernel's fold over
    # rows give the same owner and the same ties, on exact duplicate rows and
    # on radii within 2 ulps of the band edge rho c
    n = 8
    sense = refractor.envelope_sense(regime)
    radii = st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)
    H = np.array(data.draw(st.lists(radii, min_size=m, max_size=m)))
    for j in range(1, m):
        copy = data.draw(st.integers(-1, j - 1))
        if copy >= 0:
            H[j] = H[copy]
    rho = sense.fold.reduce(H, axis=0)
    top = np.argmax(H == rho, axis=0)  # keep one row on the envelope
    steps = data.draw(st.lists(st.lists(st.sampled_from([None, -2, -1, 0, 1, 2]),
                                        min_size=n, max_size=n), min_size=m, max_size=m))
    for j, row in enumerate(steps):
        for i, ulps in enumerate(row):
            if ulps is not None and j != top[i]:
                H[j, i] = _ulp_step(float(rho[i] * sense.tie), ulps)
    assert np.array_equal(sense.fold.reduce(H, axis=0), rho)

    _, assigned, tie = refractor.assign_envelope(H, regime)
    no_sheet = np.full(n, sense.empty)
    in_band = []
    for j in range(m):
        low = sense.fold.reduce(H[:j], axis=0, initial=sense.empty)
        other = sense.fold.reduce(np.delete(H, j, axis=0), axis=0, initial=sense.empty)
        assert np.array_equal(refractor.owned(H[j], low, other, sense), assigned == j)
        in_band.append(refractor.owned(H[j], no_sheet, other, sense))
    assert np.array_equal(np.sum(in_band, axis=0) > 1, tie)


@_PROPERTY
@given(kappa=st.sampled_from(_REGIMES), j=st.integers(1, 4), pick=st.floats(0.0, 1.0),
       ulps=st.integers(-2, 2))
def test_ownership_of_workspace_terms_is_the_field(kappa, j, pick, ulps):
    # `_terms` keeps the nodes the field assigns to sheet j once row j of H
    # is the sheet at b, over all nodes and over the candidates, at b on or
    # next to a switch value
    cfg, ws, (lo, hi) = _begin(kappa, j)
    switch = _all_node_switch(ws)
    inside = np.sort(switch[(switch >= lo) & (switch <= hi)])
    b = _ulp_step(float(inside[min(int(pick * inside.size), inside.size - 1)]), ulps)
    b = min(max(b, lo), hi)
    H = ws.H.copy()
    H[j] = ws.radii_row(b)
    field_nodes = np.flatnonzero(refractor.assign_envelope(H, ws.regime)[1] == j)
    kept = []

    def recorded(h, low, other, sense):
        kept.append(refractor.owned(h, low, other, sense))
        return kept[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "owned", recorded)
        for nodes in (np.arange(ws.rule.count), ws._nodes(b)):
            ws._terms(b, nodes)
            assert np.array_equal(nodes[kept[-1]], field_nodes), (kappa, j, b)


@pytest.mark.parametrize("kappa", _REGIMES)
def test_candidate_energy_matches_reference_off_the_search_range(kappa):
    # a visit's start b_j may lie off this rule's range: the superset holds
    # at any b where the sheet is supported, and elsewhere both raise alike
    off = np.array([1e-9, 1e-6, 1e-3, 0.03, 0.1, 0.3, 1.0, 3.0])
    for j in range(1, 5):
        cfg, ws, (lo, hi) = _begin(kappa, j)
        for b in np.concatenate([lo - off * (hi - lo), hi + off * (hi - lo)]).tolist():
            try:
                ref = reference_energy(ws, b)
            except refractor.ConfigurationError as exc:
                with pytest.raises(refractor.ConfigurationError, match=re.escape(str(exc))):
                    ws.energy(b)
            else:
                assert ws.energy(b).hex() == ref.hex(), (kappa, j, b)


def test_early_decisions_are_taken():
    # at the top of its range sheet j owns most nodes: a head of the
    # candidates decides the probe and the other terms are never computed
    cfg, ws, (lo, hi) = _begin(-1.5, 1)
    calls = []
    terms = ws._terms
    ws._terms = lambda b, nodes: calls.append(len(nodes)) or terms(b, nodes)
    try:
        assert ws.at_least(hi, float(cfg.targets.weights[1]))
    finally:
        del ws._terms
    assert len(calls) == 1 and 0 < calls[0] < len(ws._nodes(hi))


@pytest.mark.parametrize("kappa", _REGIMES)
def test_probes_take_the_regime_from_the_workspace(monkeypatch, kappa):
    # regime_of runs as often in a visit of 19 probes as in one of 49
    cfg, ws, (lo, hi) = _begin(kappa, 2)
    target = float(cfg.targets.weights[2])
    calls = []
    regime_of = ovals.regime_of

    def counted(k):
        calls.append(k)
        return regime_of(k)

    monkeypatch.setattr(ovals, "regime_of", counted)
    monkeypatch.setattr(nr.fresnel, "regime_of", counted)
    counts = {}
    for b_tol in (1e-5 * (hi - lo), 1e-14 * (hi - lo)):
        calls.clear()
        ws.begin(2)
        ws.energy(0.5 * (lo + hi))
        ends = (lo, hi) if ws.regime.max_envelope else (hi, lo)
        b, evals, _ = solver._bisect_coordinate(ws, *ends, target, b_tol, not ws.regime.max_envelope)
        ws.radii_row(b)
        counts[evals] = len(calls)
    assert len(counts) == 2 and len(set(counts.values())) == 1, counts


@pytest.mark.parametrize("run, kinds", [
    *[((lambda kappa=kappa: solve_discrete(symmetric_pair_config(kappa))), ("parked", "carried"))
      for kappa in _REGIMES],
    (lambda: refine_radon(_disk_problem(level=7), levels=3), ("warm", "carried")),
], ids=["pair-strong", "pair-mild", "pair-critical", "radon"])
def test_start_candidate_energy_matches_reference_in_whole_solves(monkeypatch, run, kinds):
    # every visit's start energy runs on the candidates of `begin`, and must
    # be a pass over every node bit for bit: at stage entry, where b_j is
    # parked by init_state, started warm from a coarser dyadic level's
    # surface or carried over from a coarser ladder rule, and on every later
    # sweep; `..._off_the_search_range` covers starts off the range
    init, stage, solve = solver.init_state, solver._sweep_stage, solver.solve_discrete
    energy = solver._CoordinateWorkspace.energy
    parked, warm, carried, entry = [], [], [], {}
    starts = {"parked": 0, "warm": 0, "carried": 0, "sweep": 0}

    def parking(*args):
        parked.append(init(*args))
        return parked[-1]

    def solving(config, rule=None, start=None):
        warm.extend([] if start is None else [start])
        return solve(config, rule, start=start)

    def staged(config, rule, state, *rest):
        if any(state is p for p in parked):
            kind = "parked"
        elif any(state is c for c in carried):
            kind = "carried"
        else:
            assert any(np.array_equal(state.b, w) for w in warm)
            kind = "warm"
        entry.update(dict.fromkeys(range(1, state.b.size), kind))
        out = stage(config, rule, state, *rest)
        carried.append(out[0])
        return out

    def checked(ws, b):
        got = energy(ws, b)
        assert got.hex() == reference_energy(ws, b).hex(), (ws.j, b)
        starts[entry.pop(ws.j, "sweep")] += 1
        return got

    monkeypatch.setattr(solver, "init_state", parking)
    monkeypatch.setattr(solver, "solve_discrete", solving)
    monkeypatch.setattr(solver, "_sweep_stage", staged)
    monkeypatch.setattr(solver._CoordinateWorkspace, "energy", checked)
    run()
    assert all(starts[kind] for kind in kinds), starts


@pytest.mark.parametrize("kappa", [-1.5, -0.5])  # max and min envelopes
def test_begin_envelopes_equal_full_reductions(monkeypatch, kappa):
    # every visit of every sweep of a short solve, while the sweeps rewrite
    # rows of H: the cached envelopes equal np.max / np.min over H's rows
    visits = []
    begin = solver._CoordinateWorkspace.begin

    def checked(ws, j):
        begin(ws, j)
        H = ws.H
        if ws.regime.max_envelope:
            low = np.max(H[:j], axis=0, initial=-np.inf)
            high = np.max(H[j + 1:], axis=0, initial=-np.inf)
            other = np.maximum(low, high)
        else:
            low = np.min(H[:j], axis=0, initial=np.inf)
            high = np.min(H[j + 1:], axis=0, initial=np.inf)
            other = np.minimum(low, high)
        for got, ref in ((ws.low, low), (ws.high, high), (ws.other, other)):
            assert got.tobytes() == ref.tobytes()
        visits.append((j, H.copy()))

    monkeypatch.setattr(solver._CoordinateWorkspace, "begin", checked)
    cfg = solvable_config(kappa, 4, seed=61, level=4)
    sol = solve_discrete(cfg)
    assert sol.state.regime.max_envelope == (kappa < -1.0)
    assert len(visits) == 3 * len(sol.sweeps) >= 6
    assert [j for j, _ in visits[:6]] == [1, 2, 3, 1, 2, 3]
    # rows were rewritten between visits, so the cache had something to track
    assert any(not np.array_equal(a[1], b[1]) for a, b in zip(visits, visits[1:]))


# ---------------------------------------------------------------------------
# predicted bisection visits
#
# A warm visit is one `_bisect_coordinate` makes from the sweep's start
# (b_j, G_j(b_j)) and the crossing it predicts; a cold one is the plain loop,
# kept here as `_cold_bisection`.
# ---------------------------------------------------------------------------

def _predicted_visit(make_ws, key, start=(0.0, 0.0)):
    """One `_bisect_coordinate` visit from `start`, checked against
    `_cold_bisection` on a fresh workspace: the same b, count and exhausted
    flag, and no point asked twice.  Returns the real and the cold probes
    and the exhausted flag."""
    ws, cold = make_ws(), make_ws()
    ref = _cold_bisection(cold, *key)
    assert solver._bisect_coordinate(ws, *key, start) == ref
    assert len(set(ws.probes)) == len(ws.probes)
    return ws.probes, cold.probes, ref[2]


def _crossing_step(steps, increasing, target, strict):
    """The step at which the count of steps passed reaches the target (exceeds
    it if strict) as b moves from below to above (an infinite b if it starts
    there); None if it never does."""
    order = [-math.inf if increasing else math.inf] + sorted(steps, reverse=not increasing)
    need = math.floor(target) + 1 if strict else math.ceil(target)
    return order[need] if need < len(order) else None


@_PROPERTY
@given(increasing=st.booleans(), b_tol=st.sampled_from([0.0, 1e-9]),
       steps=st.lists(st.one_of(st.sampled_from([1.0, 1.25, 1.3, 1.5, 1.75, 2.0]),
                                st.floats(0.9, 2.1)), min_size=1, max_size=4),
       target=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
       kind=st.sampled_from(["right", "wrong", "absent"]), wrong=st.floats(0.5, 2.5))
def test_predicted_bisection_matches_cold_on_steps(increasing, b_tol, steps, target, kind, wrong):
    # integer targets hit a step value exactly, where `strict` decides; a
    # wrong prediction may still fall in the right leaf
    key = ((1.0, 2.0) if increasing else (2.0, 1.0)) + (target, b_tol, not increasing)
    right = _crossing_step(steps, increasing, target, not increasing)
    prediction = {"right": right, "wrong": wrong, "absent": None}[kind]
    new, cold, exhausted = _predicted_visit(
        lambda: _StepWorkspace(steps, increasing, prediction), key)
    if kind == "absent":
        assert new == cold
    elif kind == "right" and not exhausted:
        assert len(new) <= 4 and set(new) <= set(cold)


@pytest.mark.parametrize("increasing", [True, False])
@pytest.mark.parametrize("target, exhausted", [(1.0, False), (0.5, False), (2.0, True), (2.5, True)])
def test_predicted_bisection_matches_cold_past_the_peak(increasing, target, exhausted):
    # G rises over 1.1, 1.2, 1.3 to 3 and falls over 1.6, 1.7 to 1 at the
    # far end (mirrored when decreasing): a target at most G(above) is met on
    # the rise, one between G(above) and the peak exhausts the cold loop at
    # `above`, and only the probe of `above` refutes the prediction there
    steps, falls = [1.1, 1.2, 1.3], [1.6, 1.7]
    if not increasing:
        steps, falls = [3.0 - s for s in steps], [3.0 - s for s in falls]
    key = ((1.0, 2.0) if increasing else (2.0, 1.0)) + (target, 1e-9, not increasing)
    prediction = _crossing_step(steps, increasing, target, not increasing)
    new, _, flag = _predicted_visit(
        lambda: _StepWorkspace(steps, increasing, prediction, falls), key)
    assert flag == exhausted and len(new) == 4


@pytest.mark.parametrize("increasing", [True, False])
def test_predicted_bisection_certifies_adjacent_floats(increasing):
    # b_tol = 0: 52 halvings to adjacent floats, certified by four probes
    # when the prediction is the step; one 1e-12 off walks into another leaf,
    # which its probes refute, and the plain loop takes over
    key = ((1.0, 2.0) if increasing else (2.0, 1.0)) + (0.5, 0.0, not increasing)
    for prediction, probes in ((1.3, 4), (1.3 + 1e-12, 4 + 54 - 2)):
        new, cold, _ = _predicted_visit(lambda: _StepWorkspace(1.3, increasing, prediction), key)
        assert len(cold) == 54 and len(new) <= probes


@_PROPERTY
@given(kappa=st.sampled_from(_REGIMES), j=st.integers(1, 4), u=st.floats(0.0, 1.0),
       fine=st.booleans(), hit=st.booleans(),
       shift=st.one_of(st.none(), st.floats(-1e-3, 1e-3), st.sampled_from([-1e-15, 1e-15])))
def test_predicted_bisection_matches_cold_on_workspaces(kappa, j, u, fine, hit, shift):
    # the solved state's targets, or G_j at a cold solution (an exact hit);
    # the visit starts anywhere on the range, and its prediction is the
    # workspace's own or moved relative to the range
    cfg, ws, (lo, hi) = _begin(kappa, j)
    b_tol = cfg.tolerances.b_tol * float(cfg.targets.norms[j]) if fine else 0.0
    ends = (lo, hi) if ws.regime.max_envelope else (hi, lo)
    target = float(cfg.targets.weights[j])
    if hit:
        target = ws.energy(_cold_bisection(ws, *ends, target, b_tol, not ws.regime.max_envelope)[0])
    start = min(max(lo + u * (hi - lo), lo), hi)
    moved = None if shift is None else (lambda s: s + shift * (hi - lo))
    _predicted_visit(lambda: _RecordingWorkspace(ws, moved),
                     ends + (target, b_tol, not ws.regime.max_envelope), (start, ws.energy(start)))


def test_predicted_bisection_exhausts_past_a_solved_strong_peak():
    # on the solved strong state G_1 jumps to its peak early in the range
    # and falls to G_1(hi) at the top: a target between the two is predicted
    # on the rise, and the probe of `above` refutes the walk; both paths
    # exhaust at hi after the four probes
    cfg, ws, (lo, hi) = _begin(-1.5, 1)
    peak = max(ws.energy(float(b)) for b in np.linspace(lo, hi, 401))
    target = 0.5 * (peak + ws.energy(hi))
    assert target > ws.energy(hi) and ws.predict(lo, ws.energy(lo), target) is not None
    key = (lo, hi, target, cfg.tolerances.b_tol * float(cfg.targets.norms[1]), False)
    assert _cold_bisection(ws, *key) == (hi, 2, True)
    probes, _, _ = _predicted_visit(lambda: _RecordingWorkspace(ws), key, (lo, ws.energy(lo)))
    assert len(probes) == 4


def test_predictions_hit_on_solved_workspaces():
    # restarted at its own solution, every coordinate of every regime is
    # certified by its four probes, at the solver's b_tol and at the radon
    # benchmark's; at b_tol = 0 the leaf is two adjacent floats, and the
    # crossing node's switch value may lie an ulp on the start's other side
    for kappa in _REGIMES:
        for j in range(1, 5):
            cfg, ws, (lo, hi) = _begin(kappa, j)
            ends = (lo, hi) if ws.regime.max_envelope else (hi, lo)
            p = float(cfg.targets.norms[j])
            for b_tol in (cfg.tolerances.b_tol * p, 1e-13 * p):
                key = ends + (float(cfg.targets.weights[j]), b_tol, not ws.regime.max_envelope)
                b = float(_cold_bisection(ws, *key)[0])
                new, cold, _ = _predicted_visit(lambda: _RecordingWorkspace(ws), key,
                                                (b, ws.energy(b)))
                assert len(new) == 4 and len(cold) > 30, (kappa, j, b_tol)


@pytest.mark.parametrize("kappa", _REGIMES)
def test_warm_bisection_raises_where_cold_does(kappa):
    # an end past the support raises in the cold loop; a predicted visit
    # raises the same error, whatever its prediction
    for j in range(1, 5):
        cfg, ws, (lo, hi) = _begin(kappa, j)
        target = float(cfg.targets.weights[j])
        b_tol = cfg.tolerances.b_tol * float(cfg.targets.norms[j])
        ends = (lo, hi) if ws.regime.max_envelope else (hi, lo)
        bad = (ends[0], 2.0 * ends[1] - ends[0]) if ws.regime.max_envelope else (2.0 * ends[0] - ends[1], ends[1])
        bad += (target, b_tol, not ws.regime.max_envelope)
        with pytest.raises(refractor.ConfigurationError) as cold:
            _cold_bisection(ws, *bad)
        start = 0.5 * (lo + hi)
        for shift in (None, lambda s: s + (hi - lo), lambda s: s - (hi - lo)):
            with pytest.raises(refractor.ConfigurationError) as got:
                solver._bisect_coordinate(_RecordingWorkspace(ws, shift), *bad,
                                          (start, ws.energy(start)))
            assert str(got.value) == str(cold.value)


def _count_probes(monkeypatch):
    """Count real coordinate-energy probes while `counting[0]` is true."""
    calls, counting = [0], [True]
    at_least = solver._CoordinateWorkspace.at_least

    def counted(ws, b, target, strict=False):
        calls[0] += counting[0]
        return at_least(ws, b, target, strict)

    monkeypatch.setattr(solver._CoordinateWorkspace, "at_least", counted)
    return calls, counting


@pytest.mark.parametrize("run, share", [
    *[(lambda kappa=kappa: solve_discrete(symmetric_pair_config(kappa)), 0.5)
      for kappa in _REGIMES],
    (lambda: solve_discrete(solvable_config(-1.5, 10, seed=1027, level=5)), 0.5),
    (lambda: refine_radon(_disk_problem(level=7), levels=3), 0.25),
], ids=["pair-strong", "pair-mild", "pair-critical", "stiff", "radon"])
def test_warm_bisection_keeps_whole_solves_identical(monkeypatch, run, share):
    # every predicted visit against a cold re-run, and the report against a
    # solve whose visits are all cold; the real probes are a fraction of the
    # counted ones, so the predictions cannot stop hitting unnoticed
    calls, counting = _count_probes(monkeypatch)
    predicted = solver._bisect_coordinate
    monkeypatch.setattr(solver, "_bisect_coordinate",
                        lambda ws, *key: _cold_bisection(ws, *key[:5]))
    cold = run().to_dict()
    cold_calls, calls[0] = calls[0], 0
    visits = []

    def checked(ws, below, above, target, b_tol, strict, start):
        got = predicted(ws, below, above, target, b_tol, strict, start)
        counting[0] = False
        assert got == _cold_bisection(ws, below, above, target, b_tol, strict)
        counting[0] = True
        visits.append(got)
        return got

    monkeypatch.setattr(solver, "_bisect_coordinate", checked)
    assert json.dumps(run().to_dict()) == json.dumps(cold)
    if "sweeps" in cold:
        assert cold_calls == sum(c - 1 for s in cold["sweeps"] for c in s["bisection_evals"])
    assert visits and calls[0] < share * cold_calls


# ---------------------------------------------------------------------------
# support decided by the extreme-d nodes
# ---------------------------------------------------------------------------

def _support_upper_end(kappa, p, d_min):
    """Largest b with every direction of x . P >= d_min inside the support."""
    if kappa < -1.0:
        return d_min - np.sqrt((kappa * kappa - 1.0) * (p * p - d_min * d_min))
    return d_min


# each regime's kappa: its working range and, off the critical one, within
# 1e-13 of -1; mild also near 0
_KAPPAS = {
    "strong": st.one_of(st.floats(-3.05, -1.05), st.floats(-1.0 - 1e-13, -1.0 - 1.5e-14)),
    "mild": st.one_of(st.floats(-0.95, -0.05), st.floats(-1.0 + 1.5e-14, -1.0 + 1e-13),
                      st.floats(1.0, 12.0).map(lambda e: -(10.0 ** -e))),
    "critical": st.just(-1.0),
}


def _support_edges(kappa, p2, b):
    """The dot products d where a test of `ovals.support_from_dots` can
    turn: d = b and, off the critical regime, u = k^2 d - b = 0 and u^2 = c."""
    if ovals.regime_of(kappa) is ovals.Regime.CRITICAL:
        return [b]
    k2 = kappa * kappa
    c = (k2 - 1.0) * (k2 * p2 - b * b)
    roots = [(b - math.sqrt(c)) / k2, (b + math.sqrt(c)) / k2] if c >= 0.0 else []
    return [b, b / k2] + roots


@_PROPERTY
@given(
    case=st.sampled_from(["strong", "mild", "critical"]).flatmap(
        lambda regime: st.tuples(st.just(regime), _KAPPAS[regime])),
    p=st.floats(0.3, 3.0), c_min=st.floats(0.5, 0.999),
    where=st.sampled_from(["inside", "rim", "outside", "below", "above", "c_zero"]),
    u=st.floats(0.0, 1.0), rel=st.floats(1e-16, 1e-8), ulps=st.integers(-4, 4),
    cosines=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
)
def test_two_node_support_check_equals_full_mask(case, p, c_min, where, u, rel, ulps, cosines):
    # b anywhere: on the range, at and past the support end of the least d,
    # beyond both admissible ends and where c = 0; dots at every edge of the
    # support tests, ulps apart, on the unit nodes' span [-|P|, |P|]
    regime, kappa = case
    p2 = p * p
    d_min = c_min * p
    top = _support_upper_end(kappa, p, d_min)
    adm = nr.admissible_b(np.array([0.0, 0.0, p]), kappa)
    b = {
        "inside": adm.lo + u * (top - adm.lo),
        "rim": _ulp_step(top, ulps),
        "outside": top + rel * p,
        "below": adm.lo - (rel + 2.0 * u) * p,
        "above": adm.hi + (rel + 2.0 * u) * p,
        "c_zero": _ulp_step(kappa * p if u < 0.5 else -kappa * p, ulps),
    }[where]
    dots = d_min + np.array(cosines) * (p - d_min)
    dots[0] = d_min
    edges = [_ulp_step(e, k) for e in _support_edges(kappa, p2, b) for k in range(-3, 4)]
    dots = np.sort(np.concatenate([dots, edges, [-p, p]]))
    dots = dots[(dots >= -p) & (dots <= p)]
    _, ok = ovals.radii_from_dots(kappa, p2, b, dots)
    # the mask holds on an interval of d, so the two extreme d decide it
    on = np.flatnonzero(ok)
    assert on.size == 0 or on[-1] - on[0] + 1 == on.size
    ends = np.array([dots[0], dots[-1]])
    assert ovals.radii_from_dots(kappa, p2, b, ends)[1].all() == ok.all()


@_PROPERTY
@given(kappa=st.sampled_from(_REGIMES), j=st.integers(1, 4), rel=st.floats(-1e-6, 1e-6),
       where=st.sampled_from(["rim", "below", "above"]), u=st.floats(0.0, 2.0))
def test_workspace_support_check_matches_reference(kappa, j, rel, where, u):
    # at the support end of the least d, or at or beyond an end of the
    # admissible range (b <= kappa |P| or b >= |P| off the critical regime)
    cfg, ws, _ = _begin(kappa, j)
    p = np.sqrt(ws.p2)
    adm = nr.admissible_b(ws.P, kappa)
    b = {
        "rim": _support_upper_end(kappa, p, float(ws.dots.min())) + rel * p,
        "below": adm.lo - u * p,
        "above": adm.hi + u * p,
    }[where]
    try:
        ref = reference_energy(ws, b)
    except refractor.ConfigurationError as exc:
        for probe in (ws.energy, lambda b: ws.at_least(b, 0.0)):
            with pytest.raises(refractor.ConfigurationError, match=re.escape(str(exc))):
                probe(b)
        return
    _assert_probe_matches(ws, b, _targets_around(ref, cfg.targets.weights[j]))


@_PROPERTY
@given(kappa=st.sampled_from(_REGIMES), j=st.integers(1, 4),
       where=st.sampled_from(["rim", "below", "above", "inside"]), u=st.floats(0.0, 2.0),
       ulps=st.integers(-3, 3))
def test_scalar_support_check_equals_the_array_path(kappa, j, where, u, ulps):
    # a float b takes the scalar path and an array of b the array path, with
    # the same booleans, at and around the support end of the least d, past
    # the admissible ends and inside the search range
    cfg, ws, (lo, hi) = _begin(kappa, j)
    p = math.sqrt(ws.p2)
    adm = nr.admissible_b(ws.P, kappa)
    b = _ulp_step(float({
        "rim": _support_upper_end(kappa, p, ws.d_min),
        "below": adm.lo - u * p,
        "above": adm.hi + u * p,
        "inside": lo + 0.5 * u * (hi - lo),
    }[where]), ulps)
    grid = [b, _ulp_step(b, 1), _ulp_step(b, -1), lo, hi]
    for x in grid:
        got = ws.supported(x)
        assert type(got) is bool and got == ws.supported(np.float64(x)) == ws.supported(np.array([x]))
    assert ws.supported(np.array(grid)) == all(ws.supported(x) for x in grid)


# ---------------------------------------------------------------------------
# tile culling
#
# A visit computes switch values only on the tiles of `solver._TILE`
# consecutive nodes whose bounds let a candidate through; the all-node
# workspace above is the reference of every probe.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tile_rule(dim, level):
    axis = [0.0, 0.0, 1.0] if dim == 3 else [0.0, 1.0]
    return nr.build_quadrature(nr.make_cap(axis, 30 * DEG, dim), level)


def _tile_config(dim, level, kappa, m, seed):
    """m targets near the cap axis at about unit distance, in 2-D or 3-D,
    with `solvable_config`'s b1, tau and r0 for the regime."""
    rng = np.random.default_rng(seed)
    ang, az = rng.uniform(0.0, 5 * DEG, m), rng.uniform(-np.pi, np.pi, m)
    rad = rng.uniform(0.97, 1.03, m)
    if dim == 3:
        pts = rad[:, None] * np.stack([np.sin(ang) * np.cos(az), np.sin(ang) * np.sin(az), np.cos(ang)], 1)
    else:
        pts = rad[:, None] * np.stack([np.sin(ang) * np.sign(az), np.cos(ang)], 1)
    if kappa < -1.0:
        tau, r0, b1 = 1.2, 0.08, kappa * rad[0] + 0.004
    elif kappa == -1.0:
        tau, r0, b1 = 0.3, 0.3, -0.9 * rad[0]
    else:
        tau, r0 = 0.3, 0.17
        b1 = kappa * rad[0] + 0.8 * r0 * (1.0 + kappa)
    return nr.ProblemConfig(
        domain=_tile_rule(dim, level).domain, density=nr.EmissionDensity.uniform(1.0),
        medium=nr.MediumPair(kappa, 1.0, 0.5), margin=nr.AdmissibilityMargin(0.4),
        targets=nr.TargetSpec(pts, np.full(m, 0.1)), b1=b1, tau=tau, r0=r0,
        quadrature_level=level,
    )


def _culled_candidates(ws, b, culled=solver._CoordinateWorkspace):
    """The culled workspace's candidates at b, taken on a plain copy so that
    the visit's own evaluated tiles and records stay as they were."""
    plain = copy.copy(ws)
    plain.__class__ = culled
    return plain._nodes(b)


@pytest.mark.parametrize("level", range(1, 9))
@pytest.mark.parametrize("dim", [2, 3])
@settings(derandomize=True, deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(case=st.sampled_from(["strong", "mild", "critical"]).flatmap(
           lambda regime: st.tuples(st.just(regime), _KAPPAS[regime])),
       m=st.integers(2, 5), seed=st.integers(0, 2**16), data=st.data())
def test_tile_bounds_never_skip_a_candidate(dim, level, case, m, seed, data):
    # sheets parked at the floor of their range, at its cap or inside it; b
    # at the ends of the visited sheet's range, inside it and ulps around
    # its switch values: no skipped tile holds a candidate of the all-node
    # switch, and the culled candidates are the all-node ones
    kappa = case[1]
    cfg = _tile_config(dim, level, kappa, m, seed)
    rule = _tile_rule(dim, level)
    lo, hi = solver._search_ranges(cfg, rule)
    assume(bool(np.all(lo[1:] < hi[1:])))
    picks = data.draw(st.lists(st.sampled_from(["floor", "cap", "inside"]), min_size=m, max_size=m))
    u = data.draw(st.floats(0.0, 1.0))
    b = np.array([cfg.b1] + [{"floor": lo[k], "cap": hi[k], "inside": lo[k] + u * (hi[k] - lo[k])}[picks[k]]
                             for k in range(1, m)])
    try:
        H = refractor.sheet_radii(nr.RefractorState(cfg.medium, cfg.targets, b), rule.nodes)
    except refractor.ConfigurationError:
        assume(False)
    j = data.draw(st.integers(1, m - 1))
    if data.draw(st.booleans()):
        # the other rows anywhere from far inside to far past sheet j's rim,
        # varying within tiles: the bounds hold for any envelope
        rng = np.random.default_rng(seed)
        wide = np.exp(rng.uniform(-7.0, 7.0, (m, 1)) + rng.normal(0.0, 0.5, H.shape))
        H = np.where(np.arange(m)[:, None] == j, H, wide)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_CULL_MIN", 0)  # tiles on every rule, not only the large ones
        ws = solver._CoordinateWorkspace(cfg, rule, H, rule.weights * cfg.density.values_on(rule))
    ws.begin(j)
    assert ws.width == min(rule.count, solver._TILE)
    switch = _all_node_switch(ws)
    inside = np.sort(switch[(switch >= lo[j]) & (switch <= hi[j])])
    probes = [lo[j], hi[j], lo[j] + u * (hi[j] - lo[j]), b[j]]
    for pick, ulps in data.draw(st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(-3, 3)),
                                         max_size=4 if inside.size else 0)):
        probes.append(_ulp_step(float(inside[min(int(pick * inside.size), inside.size - 1)]), ulps))
    for probe in map(float, probes):
        if not ws.supported(probe):
            continue
        cands = _all_node_candidates(ws, switch, probe)
        live = ws._live(ws.sense.sign * probe + ws.margin)
        assert np.isin(cands, live).all(), (probe, np.setdiff1d(cands, live)[:5])
        got = _culled_candidates(ws, probe)
        assert got.dtype == cands.dtype and np.array_equal(got, cands), probe


class _AllNodeWorkspace(solver._CoordinateWorkspace):
    """The all-node workspace, for whole solves without a pinned digest."""

    def begin(self, j):
        super().begin(j)
        self.all_switch = _all_node_switch(self)

    def _nodes(self, b):
        return _all_node_candidates(self, self.all_switch, b)

    def at_least(self, b, target, strict=False):
        return _all_node_at_least(self, self._nodes(b), b, target, strict)

    def predict(self, b, g, target):
        return _all_node_predict(self, self.all_switch, b, g, target)


class _CheckedWorkspace(solver._CoordinateWorkspace):
    """The culled workspace, checking every probe against the all-node
    reference at the same state: each candidate array, `at_least` answer,
    start energy and prediction.  `evaluated` collects (m, N, the nodes
    whose switch values the visit computed) per visit."""

    evaluated = []

    def begin(self, j):
        super().begin(j)
        self.all_switch = _all_node_switch(self)
        self.evaluated.append([self.H.shape[0], self.rule.count, 0])

    def _cover(self, x):
        reached = self.reached
        super()._cover(x)
        if self.reached != reached:
            self.evaluated[-1][2] += self.idx.size

    def _candidates(self, b):
        ref = _all_node_candidates(self, self.all_switch, b)
        got = _culled_candidates(self, b)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), (self.j, b)
        return ref

    def energy(self, b):
        got = super().energy(b)
        assert got.hex() == float(self._terms(b, self._candidates(b)).sum()).hex(), (self.j, b)
        return got

    def at_least(self, b, target, strict=False):
        got = super().at_least(b, target, strict)
        assert got == _all_node_at_least(self, self._candidates(b), b, target, strict), (self.j, b)
        return got

    def predict(self, b, g, target):
        got = super().predict(b, g, target)
        ref = _all_node_predict(self, self.all_switch, b, g, target)
        assert (got, ref) == (None, None) or got.hex() == ref.hex(), (self.j, b, g, target)
        return got


_DATA = Path(__file__).parent / "data"


def _pinned(name):
    from test_acceptance import DIGESTS
    return json.loads(DIGESTS.read_text())[name]


def _digest(report):
    return hashlib.sha256(cli.report_bytes(report.to_dict())).hexdigest()


def _golden_solve(tmp_path):
    out = tmp_path / "report.json"
    assert cli.main(["solve", str(_DATA / "m2_symmetric.json"), "--out", str(out)]) == 0
    return [cli.report_bytes(json.loads(out.read_text())["report"])]


def _stiff_solve(tmp_path):
    return [cli.report_bytes(solve_discrete(solvable_config(-1.5, 10, seed=1027, level=5)).to_dict())]


def _criterion_5(kappa):
    return lambda tmp_path: [_digest(solve_discrete(solvable_config(kappa, m, seed=1000 + m, level=8)))
                             for m in (2, 5, 10)]


def _radon(tmp_path):
    from test_acceptance import refine_case
    return [_digest(refine_case()[1])]


_GOLDEN = cli.report_bytes(json.loads((_DATA / "m2_symmetric_report.json").read_text())["report"])


@pytest.mark.parametrize("run, expected", [
    (_golden_solve, lambda tmp_path: [_GOLDEN]),
    (_stiff_solve, None),
    *[(_criterion_5(kappa), lambda tmp_path, kappa=kappa: [
        _pinned(f"criterion_5 kappa={kappa} m={m}") for m in (2, 5, 10)]) for kappa in _REGIMES],
    (_radon, lambda tmp_path: [_pinned("criterion_9")]),
], ids=["golden", "stiff", "criterion-5-strong", "criterion-5-mild", "criterion-5-critical", "radon"])
def test_tile_culled_visits_equal_the_all_node_reference(monkeypatch, tmp_path, run, expected):
    # every probe of every visit against the all-node reference, and the
    # report bytes (every bisection_evals list with them) against the
    # pinned digests, or for the stiff case against all-node visits
    if expected is None:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver, "_CoordinateWorkspace", _AllNodeWorkspace)
            want = run(tmp_path)
    else:
        want = expected(tmp_path)
    monkeypatch.setattr(_CheckedWorkspace, "evaluated", [])
    monkeypatch.setattr(solver, "_CoordinateWorkspace", _CheckedWorkspace)
    assert run(tmp_path) == want
    visits = _CheckedWorkspace.evaluated
    assert visits
    if run is _radon:
        # the culling is real: on the 60-atom level-7 stage the median
        # visit computes switch values on few nodes
        stage = [count for m, n, count in visits if (m, n) == (60, 32768)]
        assert len(stage) > 1000 and statistics.median(stage) <= 0.15 * 32768, statistics.median(stage)


# the traced peak of one visit at (60, 131072) that the all-node workspace
# took, where `begin` computed every node's switch value
_ALL_NODE_VISIT_PEAK = 7_611_210  # bytes; Python 3.11.7, numpy 2.4.6


def test_tile_culled_visit_memory_stays_within_the_all_node_peak():
    # a visit after the sweep's first, which keeps the envelopes of the
    # later rows, as `_sweep_stage` makes it from the parked state: begin,
    # start energy, predicted bisection and the new row of H
    cfg = _atoms_config(8)
    rule = cfg.rule()
    assert (cfg.targets.count, rule.count) == (60, 131072)
    state = init_state(cfg, rule)
    ws = solver._CoordinateWorkspace(cfg, rule, refractor.sheet_radii(state, rule.nodes),
                                     rule.weights * cfg.density.values_on(rule))
    lo, hi = solver._search_ranges(cfg, rule)
    ws.begin(1)
    b, p = float(state.b[2]), float(cfg.targets.norms[2])
    tracemalloc.start()
    try:
        ws.begin(2)
        bj, evals, _ = solver._bisect_coordinate(ws, float(lo[2]), float(hi[2]), float(cfg.targets.weights[2]),
                                                 cfg.tolerances.b_tol * p, False, (b, ws.energy(b)))
        ws.radii_row(bj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert evals > 30 and peak <= _ALL_NODE_VISIT_PEAK, peak


# ---------------------------------------------------------------------------
# randomized solver invariants
# ---------------------------------------------------------------------------

DOCUMENTED_STATUSES = {
    "converged", "max_outer_exceeded", "bracket_exhausted", "stalled",
    "anchor_deficit", "radius_exceeded", "degenerate_radius",
}


def _desk_config(regime, k, m, seed, level):
    """A configuration of the standard desk-scale shape that passes
    validation: k in [0, 1] picks kappa inside the range where tau, r0 and b1
    of `solvable_config` stay admissible in the regime."""
    kappa = {"strong": -2.0 + 0.55 * k, "mild": -0.5 + 0.2 * k, "critical": -1.0}[regime]
    return solvable_config(kappa, m, seed, level=level)


@st.composite
def feasible_configs(draw):
    return _desk_config(
        draw(st.sampled_from(["strong", "mild", "critical"])), draw(st.floats(0.0, 1.0)),
        draw(st.integers(2, 4)), draw(st.integers(0, 2**32 - 1)), draw(st.integers(3, 5)),
    )


@settings(derandomize=True, deadline=None, max_examples=12,
          suppress_health_check=[HealthCheck.too_slow])
@given(cfg=feasible_configs())
def test_random_solves_keep_their_invariants(cfg):
    rule = cfg.rule()
    assert validate(cfg, rule).passed
    sol = solve_discrete(cfg, rule)
    assert sol.status in DOCUMENTED_STATUSES
    assert sol.b[0] == cfg.b1
    audit = energy_audit(sol.state, rule, cfg.density, sol.field,
                         trace_field(sol.state, rule, sol.field))
    ledger = abs(audit.per_target.sum() + audit.reflected - audit.incident)
    assert ledger <= 1e-12 * audit.incident


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "the first sweep of a ladder stage starts from measures taken on the "
        "coarser rule and can leave a non-anchor measure above its target, and "
        "when one node weight exceeds the tolerance the sweeps can trade a node "
        "back and forth with an overshoot on every sweep"
    ),
)
def test_random_solves_stay_feasible():
    # the same sampler as above, drawn with a fixed numpy seed (a failing
    # hypothesis test would also write a patch file on every run)
    rng = np.random.default_rng(2026)
    worst = []
    for regime in ("strong", "mild", "critical") * 3:
        cfg = _desk_config(regime, rng.uniform(), int(rng.integers(2, 5)),
                           int(rng.integers(2**32)), int(rng.integers(3, 6)))
        sol = solve_discrete(cfg)
        over = max(sweep["max_overshoot"] for sweep in sol.sweeps)
        worst.append(over / sol.measure_tol_abs)
    assert max(worst) <= 1.0, worst
