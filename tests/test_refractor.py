"""Envelope surface: assignment, ties, measures, and response to parameters."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import negrefractor as nr
from negrefractor import fresnel, ovals, refractor
from negrefractor.raytrace import trace_field, trace_one
from negrefractor.refractor import (
    ConfigurationError,
    EmissionDensity,
    RefractorState,
    assign_envelope,
    evaluate_field,
    lipschitz_estimate,
    measures,
    sheet_radii,
)
from conftest import DEG, duplicate_sheet_state, sheet_extremes, symmetric_pair_config


def _single_state(kappa=-1.5, b=None):
    P = np.array([[0.0, 0.0, 1.0]])
    if b is None:
        b = {-1.5: -1.49, -0.5: -0.4, -1.0: -0.9}[kappa]
    return RefractorState(
        nr.MediumPair(kappa, 1.0, 0.5), nr.TargetSpec(P, np.array([0.1])), np.array([b])
    )


def test_single_sheet_active_everywhere():
    state = _single_state()
    cap = nr.make_cap([0.0, 0.0, 1.0], 30 * DEG, 3)
    rule = nr.build_quadrature(cap, 4)
    fe = evaluate_field(state, rule)
    assert np.all(fe.assigned == 0)
    assert not np.any(fe.tie)
    for x in rule.nodes[::57]:
        ray = trace_one(state, x)
        assert ray.active == 0 and not ray.skipped


def test_duplicate_sheets_tie_everywhere():
    P = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    state = RefractorState(
        nr.MediumPair(-1.5), nr.TargetSpec(P, np.array([0.1, 0.1])),
        np.array([-1.49, -1.49]),
    )
    x = np.array([0.1, 0.0, np.sqrt(0.99)])
    H = sheet_radii(state, x[None])
    rho, assigned, tie = assign_envelope(H, state.regime)
    assert tie[0] and assigned[0] == 0
    assert np.all(H[:, 0] >= rho[0] * (1.0 - nr.refractor.TIE_TOL))


def test_mirror_pair_tie_on_symmetry_circle():
    cfg = symmetric_pair_config(-1.5)
    state = RefractorState(cfg.medium, cfg.targets, np.array([cfg.b1, cfg.b1]))
    for t in (0.0, 0.1, 0.3):
        x = np.array([0.0, np.sin(t), np.cos(t)])
        assert trace_one(state, x).skipped
    # off the circle the assignment is mirror-symmetric; under the max
    # envelope a direction tilted toward one target belongs to the other
    # sheet (strong-regime rays cross the axis)
    xp = np.array([np.sin(0.2), 0.0, np.cos(0.2)])
    xm = np.array([-np.sin(0.2), 0.0, np.cos(0.2)])
    assert trace_one(state, xp).active == 1 and trace_one(state, xm).active == 0

    cfgm = symmetric_pair_config(-0.5)
    statem = RefractorState(cfgm.medium, cfgm.targets, np.array([cfgm.b1, cfgm.b1]))
    assert trace_one(statem, xp).active == 0 and trace_one(statem, xm).active == 1


def test_assignment_covers_domain():
    cfg = symmetric_pair_config(-1.5)
    state = RefractorState(cfg.medium, cfg.targets, np.array([cfg.b1, cfg.b1 * 0.9993]))
    rule = cfg.rule()
    fe = evaluate_field(state, rule)
    assert set(np.unique(fe.assigned)) <= {0, 1}
    assert np.all((fe.assigned == 0) | (fe.assigned == 1))


def test_surface_normal_delegates_and_flags_ties():
    state = _single_state()
    x = np.array([0.05, 0.02, np.sqrt(1 - 0.05**2 - 0.02**2)])
    nu = trace_one(state, x).nu
    assert np.allclose(nu, ovals.normal_at(state.sheet(0), x), atol=0)
    axial = trace_one(state, np.array([0.0, 0.0, 1.0])).nu
    assert np.allclose(axial, [0.0, 0.0, 1.0], atol=1e-14)

    P = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    dup = RefractorState(
        nr.MediumPair(-1.5), nr.TargetSpec(P, np.array([0.1, 0.1])),
        np.array([-1.49, -1.49]),
    )
    ray = trace_one(dup, x)
    assert ray.skipped and ray.nu is None and ray.m is None
    assert np.isnan(ray.t) and np.isnan(ray.r)


def test_transmission_axial_and_critical():
    assert trace_one(_single_state(-1.5), np.array([0.0, 0.0, 1.0])).t == 1.0
    state = _single_state(-1.0)
    x = np.array([0.2, -0.1, np.sqrt(1 - 0.05)])
    assert trace_one(state, x).t == 1.0
    cap = nr.make_cap([0.0, 0.0, 1.0], 30 * DEG, 3)
    assert np.all(evaluate_field(state, nr.build_quadrature(cap, 3)).transmittance == 1.0)


def test_transmission_matches_snell_path():
    # geometric direction-to-target (measures) vs vector-Snell refraction
    # (ray trace), on every node that is not a tie, in all three regimes
    for kappa in (-1.5, -0.5, -1.0):
        cfg = symmetric_pair_config(kappa, level=5)
        state = RefractorState(cfg.medium, cfg.targets, np.array([cfg.b1, cfg.b1]))
        rule = cfg.rule()
        fe = evaluate_field(state, rule)
        traced = trace_field(state, rule, fe)
        assigned, ok, t = traced.assigned, ~traced.tie, traced.t
        assert np.count_nonzero(ok) > 0.9 * rule.count
        assert set(np.unique(assigned[ok])) == {0, 1}
        assert np.allclose(fe.transmittance[ok], t[ok], rtol=0.0, atol=1e-12)


def test_measure_critical_equals_cap_area():
    state = _single_state(-1.0)
    cap = nr.make_cap([0.0, 0.0, 1.0], 30 * DEG, 3)
    rule = nr.build_quadrature(cap, 5)
    G = measures(state, rule, EmissionDensity.uniform(1.0))[0]
    assert G == pytest.approx(math.fsum(rule.weights), rel=1e-14)


def test_measure_refinement_oracle():
    # single-sheet transmitted energy against a 4x-refined rule
    state = RefractorState(
        nr.MediumPair(-1.5, 1.2, 0.5),
        nr.TargetSpec(np.array([[0.0, 0.0, 1.0]]), np.array([0.1])),
        np.array([-1.49]),
    )
    cap = nr.make_cap([0.0, 0.0, 1.0], 30 * DEG, 3)
    f = EmissionDensity.uniform(1.0)
    coarse = measures(state, nr.build_quadrature(cap, 5), f)[0]
    fine = measures(state, nr.build_quadrature(cap, 6), f)[0]
    assert abs(coarse - fine) / fine <= 1e-6


def test_symmetric_pair_equal_measures():
    cfg = symmetric_pair_config(-1.5)
    state = RefractorState(cfg.medium, cfg.targets, np.array([cfg.b1, cfg.b1]))
    G = measures(state, cfg.rule(), cfg.density)
    assert G[0] == pytest.approx(G[1], rel=1e-12)


def test_partition_identity_and_flux_bounds():
    cfg = symmetric_pair_config(-1.5)
    state = RefractorState(cfg.medium, cfg.targets, np.array([cfg.b1, cfg.b1 * 0.999]))
    rule = cfg.rule()
    G = measures(state, rule, cfg.density)
    total = math.fsum(measures(state, rule, cfg.density))
    assert float(np.sum(G)) == total  # same sums reordered
    flux = float(np.sum(rule.weights))
    c_eps = fresnel.reflectance_bound(cfg.medium, cfg.margin)
    assert (1.0 - c_eps) * flux <= total <= flux


def test_lipschitz_critical_sheet():
    # |P|=1, b=0 semi-hyperboloid: slope bound 1/2 (plus discretization slack)
    state = _single_state(-1.0, b=0.0)
    cap = nr.make_cap([0.0, 0.0, 1.0], 30 * DEG, 3)
    vals = [lipschitz_estimate(state, nr.build_quadrature(cap, lv)) for lv in (5, 6, 7)]
    assert vals[-1] <= 0.5 * 1.1
    # finite-difference slope estimates sharpen monotonically
    assert vals[1] >= vals[0] - 1e-6
    assert vals[2] >= vals[1] - 1e-6


def test_lipschitz_tiny_cap_flattens():
    state = _single_state(-1.5)
    small = nr.make_cap([0.0, 0.0, 1.0], 0.01, 3)
    big = nr.make_cap([0.0, 0.0, 1.0], 30 * DEG, 3)
    l_small = lipschitz_estimate(state, nr.build_quadrature(small, 5))
    l_big = lipschitz_estimate(state, nr.build_quadrature(big, 5))
    assert l_small < 0.1 * l_big  # smooth extremum on the axis


def test_lipschitz_two_dimensional_critical_sheet():
    # in the plane, nodes are consecutive in angle; the |P| = 1, b = 0 sheet
    # h = 1/(2 cos t) has its steepest slope sin t/(2 cos^2 t) = 1/3 at the
    # 30-degree rim
    state = RefractorState(
        nr.MediumPair(-1.0, 1.0, 0.5),
        nr.TargetSpec(np.array([[0.0, 1.0]]), np.array([0.1])),
        np.array([0.0]),
    )
    rule = nr.build_quadrature(nr.make_cap([0.0, 1.0], 30 * DEG, 2), 7)
    assert lipschitz_estimate(state, rule) == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_envelope_within_sheet_bounds():
    cfg = symmetric_pair_config(-1.5)
    state = RefractorState(cfg.medium, cfg.targets, np.array([cfg.b1, cfg.b1 * 0.999]))
    rule = cfg.rule()
    fe = evaluate_field(state, rule)
    bds = [sheet_extremes(state.medium.kappa, p, bj)
           for p, bj in zip(state.targets.norms, state.b)]
    assert np.all(fe.rho >= min(b[0] for b in bds) - 1e-12)
    assert np.all(fe.rho <= max(b[1] for b in bds) + 1e-12)


def test_monotone_measure_response():
    # strong regime: growing one sheet's parameter grows its share
    cfg = symmetric_pair_config(-1.5)
    rule = cfg.rule()
    b = np.array([cfg.b1, cfg.b1 - 2e-4])
    state = RefractorState(cfg.medium, cfg.targets, b)
    base = measures(state, rule, cfg.density)
    for db in (1e-5, 1e-4):
        up = measures(state.with_b(b + np.array([0.0, db])), rule, cfg.density)
        assert up[1] >= base[1]
        assert up[0] <= base[0]
    # mild regime: the response flips (min envelope)
    cfgm = symmetric_pair_config(-0.5)
    rulem = cfgm.rule()
    bm = np.array([cfgm.b1, cfgm.b1 + 2e-4])
    statem = RefractorState(cfgm.medium, cfgm.targets, bm)
    basem = measures(statem, rulem, cfgm.density)
    upm = measures(statem.with_b(bm + np.array([0.0, 1e-4])), rulem, cfgm.density)
    assert upm[1] <= basem[1]


def test_uniform_convergence_under_parameter_limits():
    cfg = symmetric_pair_config(-1.5)
    rule = cfg.rule()
    b = np.array([cfg.b1, cfg.b1 - 1e-4])
    state = RefractorState(cfg.medium, cfg.targets, b)
    H = sheet_radii(state, rule.nodes)
    rho_lim, _, _ = assign_envelope(H, state.regime)
    delta = np.array([0.0, 1e-4])
    sups = []
    for k in (1, 3, 5, 8):
        st = state.with_b(b + delta * 2.0**-k)
        Hk = sheet_radii(st, rule.nodes)
        rho_k, _, _ = assign_envelope(Hk, st.regime)
        sups.append(float(np.max(np.abs(rho_k - rho_lim))))
    assert sups[0] > sups[-1]
    assert sups[-1] <= 1e-4 * 2.0**-8 / (1.0 - cfg.medium.kappa) * 10


def test_measure_continuity_in_parameters():
    cfg = symmetric_pair_config(-1.5)
    rule = cfg.rule()
    b = np.array([cfg.b1, cfg.b1 - 1e-4])
    state = RefractorState(cfg.medium, cfg.targets, b)
    base = measures(state, rule, cfg.density)[1]
    diffs = []
    for db in (1e-6, 1e-7, 1e-8):
        moved = measures(state.with_b(b + np.array([0.0, db])), rule, cfg.density)[1]
        diffs.append(abs(moved - base))
    assert diffs[0] >= diffs[1] >= diffs[2]
    assert diffs[2] <= 1e-4


def test_assignment_stable_under_tiny_perturbation():
    # away from the tie band the node assignment is insensitive at 1e-12 scale
    cfg = symmetric_pair_config(-1.5)
    state = RefractorState(cfg.medium, cfg.targets, np.array([cfg.b1, cfg.b1 * 0.9995]))
    rule = cfg.rule()
    fe = evaluate_field(state, rule)
    H = sheet_radii(state, rule.nodes)
    gap = np.abs(H[0] - H[1]) / fe.rho
    safe = gap > 1e-9
    rng = np.random.default_rng(4)
    tweak = rng.normal(size=rule.nodes.shape)
    X = rule.nodes + 1e-12 * tweak
    X /= np.linalg.norm(X, axis=1)[:, None]
    Hp = np.vstack([
        ovals.radii(state.medium.kappa, state.targets.points[j], float(state.b[j]), X)[0]
        for j in range(2)
    ])
    _, assigned_p, _ = assign_envelope(Hp, state.regime)
    assert np.array_equal(assigned_p[safe], fe.assigned[safe])


def test_density_types():
    cap = nr.make_cap([0.0, 0.0, 1.0], 0.5, 3)
    rule = nr.build_quadrature(cap, 3)
    with pytest.raises(ValueError):
        EmissionDensity.uniform(0.0)
    with pytest.raises(ValueError):
        EmissionDensity.from_table(np.zeros(rule.count))
    tab = EmissionDensity.from_table(np.full(rule.count, 2.0))
    assert np.array_equal(tab.values_on(rule), np.full(rule.count, 2.0))
    with pytest.raises(ValueError):
        EmissionDensity.from_table(np.ones(5)).values_on(rule)
    assert np.array_equal(EmissionDensity.uniform(3.0).values_on(rule), np.full(rule.count, 3.0))


def test_state_validation():
    P = np.array([[0.0, 0.0, 1.0]])
    with pytest.raises(ValueError):
        RefractorState(nr.MediumPair(-1.5), nr.TargetSpec(P, np.array([1.0])), np.array([2.0]))
    with pytest.raises(ValueError):
        nr.TargetSpec(P, np.array([-1.0]))
    with pytest.raises(ValueError):
        nr.TargetSpec(np.zeros((1, 3)), np.array([1.0]))


def test_sheet_radii_names_the_unsupported_node():
    # a mild sheet exists only where x . P >= b: not along x = e1 here
    state = _single_state(-0.5, b=0.5)
    X = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [1.0, 0.0, 0.0]])
    with pytest.raises(ConfigurationError, match="sheet 0 not evaluable at node 2"):
        sheet_radii(state, X)


def _band_assignment(H, regime):
    """The (m, N) in-band matrix form of `assign_envelope`: the lowest
    in-band row by argmax, ties by counting the rows in band."""
    sense = refractor.envelope_sense(regime)
    rho = sense.fold.reduce(H, axis=0)
    band = sense.reaches(H, rho * sense.tie)
    assigned = np.argmax(band, axis=0)
    tie = band.sum(axis=0) > 1
    return rho, assigned, tie


def _assert_same_envelope(H, regime):
    for got, ref in zip(assign_envelope(H, regime), _band_assignment(H, regime)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


# factors f of the band edge rho (1 - sign f TIE_TOL): f <= 1 is in band, f > 1 out
_EDGE_FACTORS = (0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0)


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(regime=st.sampled_from(list(ovals.Regime)), m=st.integers(1, 6),
       n=st.integers(1, 12), data=st.data())
def test_one_pass_envelope_equals_the_band_reference(regime, m, n, data):
    # bit for bit and dtype for dtype, in both envelope senses: random radii,
    # rows duplicated from earlier rows (exact ties), and radii set next to
    # the band edge, inside and just outside TIE_TOL, or NaN
    sense = refractor.envelope_sense(regime)
    H = np.array(data.draw(st.lists(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n),
                                    min_size=m, max_size=m)))
    for j in range(1, m):
        copy = data.draw(st.integers(-1, j - 1))
        if copy >= 0:
            H[j] = H[copy]
    rho = sense.fold.reduce(H, axis=0)
    for j in range(m):
        for i in range(n):
            f = data.draw(st.sampled_from((None, None) + _EDGE_FACTORS + (np.nan,)))
            if f is not None:
                H[j, i] = rho[i] * (1.0 - sense.sign * f * refractor.TIE_TOL)
    _assert_same_envelope(H, regime)


@pytest.mark.parametrize("regime", [ovals.Regime.STRONG, ovals.Regime.MILD])
@pytest.mark.parametrize("third_sheet", [False, True])
def test_one_pass_envelope_on_duplicate_sheets(regime, third_sheet):
    # exact ties on every node (two equal sheets) and on 216 of 512 (three
    # sheets), read as a max and as a min envelope, and one or two rows of it
    state, rule = duplicate_sheet_state(third_sheet)
    H = sheet_radii(state, rule.nodes)
    for rows in (1, 2, H.shape[0]):
        _assert_same_envelope(H[:rows], regime)


def test_envelope_memory_does_not_scale_with_nodes_times_targets():
    # at 60 sheets on 131,072 nodes one (m, N) bool array is 7.5 MiB; the
    # assignment keeps a few (N,) arrays instead
    H = 1.0 + 1e-12 * np.random.default_rng(3).random((60, 131072))
    for regime in (ovals.Regime.STRONG, ovals.Regime.MILD):
        tracemalloc.start()
        try:
            _, _, tie = assign_envelope(H, regime)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tie.all()
        assert peak < 6 * 2**20, peak
