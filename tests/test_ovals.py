"""Refracting sheets: worked points, the implicit-equation residual oracle,
and the closed-form bound suite."""

import numpy as np
import pytest

from negrefractor import ovals
from negrefractor.ovals import (
    Interval,
    OvalParams,
    Regime,
    SupportConditionError,
    admissible_b,
    defect_many,
    normal_at,
    polar_radius,
    regime_of,
    support_cut,
)
from conftest import sample_directions_in_support, sample_ovals, sheet_extremes

E1 = np.array([1.0, 0.0, 0.0])


def test_regime_classification():
    assert regime_of(-2.0) is Regime.STRONG
    assert regime_of(-0.5) is Regime.MILD
    assert regime_of(-1.0) is Regime.CRITICAL
    with pytest.raises(ValueError):
        regime_of(0.5)
    with pytest.raises(ValueError):
        regime_of(0.0)


def test_admissible_ranges():
    r = admissible_b(E1, -2.0)
    assert (r.lo, r.hi, r.closed) == (-2.0, 1.0, False)
    r = admissible_b(2.0 * E1, -0.5)
    assert (r.lo, r.hi, r.closed) == (-1.0, 2.0, False)
    r = admissible_b(E1, -1.0)
    assert (r.lo, r.hi, r.closed) == (-1.0, 1.0, True)
    with pytest.raises(ValueError):
        admissible_b(np.zeros(3), -2.0)


def test_inadmissible_parameter_rejected():
    with pytest.raises(ValueError):
        OvalParams(E1, 1.5, -2.0)   # above |P|
    with pytest.raises(ValueError):
        OvalParams(E1, -2.5, -2.0)  # below kappa |P|
    with pytest.raises(ValueError):
        OvalParams(E1, 1.2, -1.0)   # critical needs |b| <= |P|


@pytest.mark.parametrize("kappa,b,expected", [
    (-2.0, -1.0, 1.0 / 3.0),
    (-0.5, 0.0, 1.0 / 3.0),
    (-1.0, 0.0, 0.5),
])
def test_axial_radius_worked_points(kappa, b, expected):
    oval = OvalParams(E1, b, kappa)
    h = polar_radius(oval, E1)
    assert h == pytest.approx(expected, abs=1e-14)
    assert abs(defect_many(kappa, E1, b, E1)[0]) <= 1e-12


def test_support_cut_worked_point():
    oval = OvalParams(E1, -1.0, -2.0)
    assert support_cut(oval) == pytest.approx(0.5, abs=1e-14)


def test_support_cut_upper_limit():
    # as b approaches |P| the polar domain closes onto the axis
    vals = [support_cut(OvalParams(E1, b, -2.0)) for b in (0.9, 0.99, 0.999999)]
    assert vals[0] < vals[1] < vals[2] <= 1.0
    assert vals[2] == pytest.approx(1.0, abs=1e-3)


def test_support_cut_sandwich_worked_point():
    # I - 1/kappa = 1 at kappa=-2, |P|=1, b=-1; sandwich constants:
    kappa, p, b = -2.0, 1.0, -1.0
    val = support_cut(OvalParams(E1, b, kappa)) - 1.0 / kappa
    lower = np.sqrt(b - kappa * p) / (-kappa * p * np.sqrt(1.0 - kappa))
    upper = (1 + np.sqrt(2)) * np.sqrt(b - kappa * p) * np.sqrt(1 - kappa) / (-kappa * np.sqrt(p))
    assert lower == pytest.approx(1.0 / (2.0 * np.sqrt(3.0)), abs=1e-15)
    assert lower <= val <= upper


def test_support_cut_wrong_regime():
    with pytest.raises(ValueError):
        support_cut(OvalParams(E1, 0.0, -0.5))


def test_normal_axial_is_radial():
    for kappa, b in ((-2.0, -1.0), (-0.5, 0.0), (-1.0, 0.0)):
        nu = normal_at(OvalParams(E1, b, kappa), E1)
        assert np.allclose(nu, E1, atol=1e-14)


def test_normal_continuity_under_perturbation():
    rng = np.random.default_rng(7)
    x = np.array([0.9, 0.1, np.sqrt(1.0 - 0.81 - 0.01)])
    for kappa, b in ((-2.0, -1.0), (-0.5, 0.0)):
        base = normal_at(OvalParams(E1, b, kappa), x)
        for _ in range(20):
            dP = 1e-8 * rng.normal(size=3)
            db = 1e-8 * rng.normal()
            moved = normal_at(OvalParams(E1 + dP, b + db, kappa), x)
            assert np.linalg.norm(moved - base) < 1e-6


def test_outside_support_raises():
    oval = OvalParams(E1, -1.0, -2.0)  # cut at cosine 0.5
    with pytest.raises(SupportConditionError):
        polar_radius(oval, np.array([0.0, 0.0, 1.0]))
    mild = OvalParams(E1, 0.5, -0.5)
    with pytest.raises(SupportConditionError):
        polar_radius(mild, np.array([0.0, 1.0, 0.0]))
    crit = OvalParams(E1, 0.5, -1.0)
    with pytest.raises(SupportConditionError):
        polar_radius(crit, np.array([0.5, np.sqrt(0.75), 0.0]))


@pytest.mark.parametrize("regime", [Regime.STRONG, Regime.MILD, Regime.CRITICAL])
def test_residual_oracle_random(regime):
    rng = np.random.default_rng(11)
    kappas, P, b = sample_ovals(regime, 300, seed=5)
    worst = 0.0
    for i in range(300):
        X = sample_directions_in_support(kappas[i], P[i], b[i], 8, rng)
        d = defect_many(kappas[i], P[i], b[i], X)
        worst = max(worst, np.max(np.abs(d)) / np.linalg.norm(P[i]))
    assert worst <= 1e-10


@pytest.mark.parametrize("regime", [Regime.STRONG, Regime.MILD, Regime.CRITICAL])
def test_parameter_from_dots_inverts_the_radius(regime):
    # the parameter of the sheet through each computed surface point is b
    rng = np.random.default_rng(12)
    kappas, P, b = sample_ovals(regime, 300, seed=6)
    worst = 0.0
    for i in range(300):
        X = sample_directions_in_support(kappas[i], P[i], b[i], 8, rng)
        p2, dots = float(P[i] @ P[i]), X @ P[i]
        h = ovals.radius_from_dots(regime, kappas[i], p2, b[i], dots)
        back = ovals.parameter_from_dots(regime, kappas[i], p2, h, dots)
        worst = max(worst, np.max(np.abs(back - b[i])) / np.sqrt(p2))
    assert worst <= 1e-10


def test_defect_sign_tracks_radius_perturbation():
    # pushing the point outward along the ray gives defect ~ delta * x.n > 0
    rng = np.random.default_rng(3)
    for regime in (Regime.STRONG, Regime.MILD, Regime.CRITICAL):
        kappas, P, b = sample_ovals(regime, 50, seed=17, b_margin=0.05)
        for i in range(50):
            kappa, Pi, bi = kappas[i], P[i], b[i]
            x = sample_directions_in_support(kappa, Pi, bi, 1, rng)[0]
            oval = OvalParams(Pi, bi, kappa)
            h = polar_radius(oval, x)
            delta = 1e-5 * np.linalg.norm(Pi)
            z = (h + delta) * x
            dist = np.linalg.norm(Pi - z)
            if regime is Regime.CRITICAL:
                pert = (h + delta) - dist - bi
            else:
                pert = (h + delta) + kappa * dist - bi
            to_focus = (Pi - z) / dist
            slope = float(x @ (x - kappa * to_focus)) if regime is not Regime.CRITICAL \
                else float(x @ (x + to_focus))
            assert pert == pytest.approx(delta * slope, rel=1e-2)
            assert pert > 0.0


def test_radius_strictly_increasing_in_b():
    rng = np.random.default_rng(23)
    for regime in (Regime.STRONG, Regime.MILD, Regime.CRITICAL):
        kappas, P, b = sample_ovals(regime, 200, seed=29, b_margin=5e-3)
        for i in range(200):
            kappa, Pi, bi = kappas[i], P[i], b[i]
            x = sample_directions_in_support(kappa, Pi, bi, 1, rng)[0]
            db = 1e-7 * np.linalg.norm(Pi)
            h0 = polar_radius(OvalParams(Pi, bi, kappa), x)
            h1 = polar_radius(OvalParams(Pi, bi + db, kappa), x)
            assert h1 > h0
            # dh/db equals 1/(x . n) with n the unnormalized normal
            z = h0 * x
            n = x - kappa * (Pi - z) / np.linalg.norm(Pi - z)
            assert (h1 - h0) / db == pytest.approx(1.0 / float(x @ n), rel=1e-4)


def _bound_suite(regime, kappa_range, seed):
    rng = np.random.default_rng(seed)
    kappas, P, b = sample_ovals(regime, 200, seed=seed, kappa_range=kappa_range,
                                p_range=(1.0, 2.0))
    for i in range(200):
        kappa, Pi, bi = kappas[i], P[i], b[i]
        p = np.linalg.norm(Pi)
        h_min, h_max, dist_min, dist_max = sheet_extremes(kappa, p, bi)
        X = sample_directions_in_support(kappa, Pi, bi, 50, rng, cos_margin=0.0)
        h, ok = ovals.radii(kappa, Pi, bi, X)
        assert np.all(ok)
        assert np.all(h >= h_min - 1e-12)
        assert np.all(h <= h_max + 1e-12)
        dist = np.linalg.norm(Pi[None, :] - h[:, None] * X, axis=1)
        assert np.all(dist >= dist_min - 1e-12)
        assert np.all(dist <= dist_max + 1e-12)
        if regime is Regime.STRONG:
            # the focus-distance upper constant only bounds sheets with
            # b <= -|P| (the near-field ones)
            if bi <= -p:
                assert dist_max <= (bi - p) / kappa + 1e-12
            val = support_cut(OvalParams(Pi, bi, kappa)) - 1.0 / kappa
            lower = np.sqrt(bi - kappa * p) / (-kappa * p * np.sqrt(1.0 - kappa))
            upper = (1 + np.sqrt(2)) * np.sqrt(bi - kappa * p) * np.sqrt(1 - kappa) / (-kappa * np.sqrt(p))
            assert lower - 1e-12 <= val <= upper + 1e-12


def test_bound_suite_strong():
    # the sandwich's lower constant only holds away from kappa = -1
    _bound_suite(Regime.STRONG, (-3.0, -1.25), seed=41)


def test_bound_suite_mild():
    _bound_suite(Regime.MILD, (-0.95, -0.05), seed=43)


def test_rim_tangent_direction_evaluates():
    # directions exactly on the support rim are allowed (discriminant clipped)
    oval = OvalParams(E1, -1.0, -2.0)
    cut = support_cut(oval)
    x = np.array([cut, np.sqrt(1 - cut * cut), 0.0])
    h = polar_radius(oval, x)
    assert h == pytest.approx(sheet_extremes(-2.0, 1.0, -1.0)[1], rel=1e-7)


def test_interval_contains():
    r = Interval(-1.0, 1.0, closed=False)
    assert r.contains(0.0) and not r.contains(1.0)
    rc = Interval(-1.0, 1.0, closed=True)
    assert rc.contains(1.0) and rc.contains(-1.0)



def _edge_dots(kappa, p, b):
    """Dot products x . P around the sheet's support edges, grouped: the rim
    where the discriminant vanishes (strong, mild) or d = b (mild,
    critical), the DISC_SLACK clip edge, and the strong sign change of u.
    Each edge comes with neighbours up to four ulps and 1e-11 away.  The
    mild clip edge lies beyond |d| = |P|, out of reach of unit directions,
    but the mask is a formula in d and must agree there too."""
    k2, p2, slack = kappa * kappa, p * p, ovals.DISC_SLACK
    reg = regime_of(kappa)
    groups = {"rim": [] if reg is Regime.STRONG else [b], "clip": [], "sign": []}
    if reg is Regime.STRONG:
        c = (k2 - 1.0) * (k2 * p2 - b * b)
        groups["rim"].append((b + np.sqrt(c)) / k2)
        groups["clip"].append((b + np.sqrt(c * (1.0 - slack))) / k2)
        groups["sign"].append(b / k2)
    elif reg is Regime.MILD and (1.0 - k2) * (b * b - k2 * p2) > 0.0:
        c = (1.0 - k2) * (b * b - k2 * p2)
        for sign in (1.0, -1.0):
            groups["rim"].append((b - sign * np.sqrt(c)) / k2)
            groups["clip"].append((b - sign * np.sqrt(c * (1.0 - slack))) / k2)
    out = {}
    for name, edges in groups.items():
        near = list(edges)
        for e in edges:
            near += [e * (1.0 + r) for r in (-1e-11, -1e-12, -1e-13, 1e-13, 1e-12, 1e-11)]
            up = down = e
            for _ in range(4):
                up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
                near += [up, down]
        out[name] = np.array(near, dtype=float)
    return out


def _reference_support(kappa, p2, b, dots):
    """The support mask as a whole-array formula, with the clip slack scaled
    by the larger of the discriminant's two terms."""
    k2 = kappa * kappa
    reg = regime_of(kappa)
    if reg is Regime.CRITICAL:
        return b - dots < 0.0
    if reg is Regime.STRONG:
        u = k2 * dots - b
        disc = u * u - (k2 - 1.0) * (k2 * p2 - b * b)
        scale = np.maximum(u * u, (k2 - 1.0) * abs(k2 * p2 - b * b))
        return (disc >= -ovals.DISC_SLACK * scale) & (u > 0.0)
    v = b - k2 * dots
    disc = v * v - (1.0 - k2) * (b * b - k2 * p2)
    scale = np.maximum(v * v, (1.0 - k2) * abs(b * b - k2 * p2))
    return (dots >= b) & (disc >= -ovals.DISC_SLACK * scale)


@pytest.mark.parametrize("regime", [Regime.STRONG, Regime.MILD, Regime.CRITICAL])
def test_float_support_equals_array_mask(regime):
    # support_from_dots on one float d is radii_from_dots' mask at d, and
    # both are the reference mask, also where the mask flips: at the rim and
    # at the DISC_SLACK clip edge
    rng = np.random.default_rng({Regime.STRONG: 51, Regime.MILD: 52, Regime.CRITICAL: 53}[regime])
    flips = {"rim": 0, "clip": 0, "sign": 0}
    for _ in range(200):
        kappa = {Regime.STRONG: -rng.uniform(1.05, 3.0), Regime.MILD: -rng.uniform(0.05, 0.95),
                 Regime.CRITICAL: -1.0}[regime]
        p = float(rng.uniform(0.3, 3.0))
        adm = admissible_b(np.array([0.0, 0.0, p]), kappa)
        b = float(adm.lo + rng.uniform(0.001, 0.999) * (adm.hi - adm.lo))
        p2 = p * p
        groups = _edge_dots(kappa, p, b)
        groups["random"] = rng.uniform(-p, p, 20)
        for name, dots in groups.items():
            _, ok = ovals.radii_from_dots(kappa, p2, b, dots)
            assert np.array_equal(ok, _reference_support(kappa, p2, b, dots))
            for d, want in zip(dots.tolist(), ok.tolist()):
                got = ovals.support_from_dots(regime, kappa, p2, b, d)
                assert type(got) is bool and got == want, (kappa, p, b, d)
            if name in flips:
                flips[name] += 0 < ok.sum() < ok.size
    # the edges were hit: the mask changes value within their neighbourhoods
    assert flips["rim"] > 0
    if regime is not Regime.CRITICAL:
        assert flips["clip"] > 0
