"""Snell refraction and Fresnel energy split: conservation, bounds, windows."""

import numpy as np
import pytest

from negrefractor import ovals
from negrefractor.fresnel import (
    AdmissibilityMargin,
    InadmissibleIncidenceError,
    MediumPair,
    TotalInternalReflectionError,
    p_coefficient,
    phi,
    q_coefficient,
    reflectance,
    reflectance_bound,
    refract,
    transmittance,
)
from conftest import sample_directions_in_support, sample_ovals


def test_phi_worked_points():
    assert phi(1.0, -2.0) == pytest.approx(3.0, abs=1e-15)
    assert phi(1.0, -0.5) == pytest.approx(1.5, abs=1e-15)


def test_phi_total_internal_reflection():
    # radicand 1 - 4*(1 - 0.25) < 0 for kappa=-1/2, t=0.5
    with pytest.raises(TotalInternalReflectionError):
        phi(0.5, -0.5)


def test_refract_normal_incidence_passes_straight():
    x = np.array([0.0, 0.0, 1.0])
    for kappa in (-2.0, -0.5, -1.0):
        m = refract(x, x, kappa)
        assert np.allclose(m, x, atol=1e-15)


def test_refract_oval_normal_focuses_on_target():
    # the sheet normal sends the axial ray straight to the focus
    P = np.array([1.0, 0.0, 0.0])
    oval = ovals.OvalParams(P, -1.0, -2.0)
    x = np.array([1.0, 0.0, 0.0])
    nu = ovals.normal_at(oval, x)
    m = refract(x, nu, -2.0)
    z = ovals.polar_radius(oval, x) * x
    to_focus = (P - z) / np.linalg.norm(P - z)
    assert np.allclose(m, to_focus, atol=1e-14)


def test_snell_invariants_random():
    rng = np.random.default_rng(5)
    kappa = -1.5
    for _ in range(300):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        # admissible incidence: keep nu within 40 degrees of x
        tilt = rng.uniform(0.0, 0.7)
        axis = np.cross(x, rng.normal(size=3))
        axis /= np.linalg.norm(axis)
        nu = np.cos(tilt) * x + np.sin(tilt) * axis
        lam = phi(float(x @ nu), kappa)
        m = refract(x, nu, kappa)
        assert abs(np.linalg.norm(m) - 1.0) <= 1e-12
        assert np.linalg.norm(x - kappa * m - lam * nu) <= 1e-12
        # scalar law: |x x nu| = |kappa| |m x nu|
        assert np.linalg.norm(np.cross(x, nu)) == pytest.approx(
            1.5 * np.linalg.norm(np.cross(m, nu)), abs=1e-12
        )
        # coplanarity of x, nu, m
        assert abs(np.linalg.det(np.column_stack([x, nu, m]))) <= 1e-12


def test_reflectance_worked_points():
    assert reflectance(1.0, MediumPair(-2.0, 1.0, 0.3)) == 0.0
    assert reflectance(1.0, MediumPair(-0.7, 2.0, 0.8)) == pytest.approx(1.0 / 9.0, abs=1e-14)
    assert reflectance(0.2, MediumPair(-1.0, 1.0, 0.5)) == 0.0
    assert reflectance(-0.9, MediumPair(-1.0, 1.3, 0.5)) == 0.0  # critical ignores sigma


def test_transmittance_worked_points():
    assert transmittance(1.0, MediumPair(-2.0, 1.0)) == 1.0
    assert transmittance(1.0, MediumPair(-2.0, 2.0)) == pytest.approx(8.0 / 9.0, abs=1e-14)


def test_energy_conservation_exact():
    rng = np.random.default_rng(9)
    for _ in range(200):
        kappa = -rng.uniform(1.05, 3.0)
        med = MediumPair(kappa, np.exp(rng.uniform(-1, 1)), rng.uniform(0, 1))
        c = rng.uniform(1.0 / kappa + 0.05, 1.0)
        r = reflectance(c, med)
        t = transmittance(c, med)
        assert r + t == 1.0
        assert 0.0 <= r < 1.0


def test_reflectance_bound_worked_points():
    # sigma=1, kappa=-2, eps=0.5: window floor 0, p(0) = -1/3, bound 1/9
    med = MediumPair(-2.0, 1.0, 0.5)
    assert reflectance_bound(med, AdmissibilityMargin(0.5)) == pytest.approx(1.0 / 9.0, abs=1e-14)
    # tiny margin: bound approaches 1 from below
    c_eps = reflectance_bound(med, AdmissibilityMargin(1e-6))
    assert 0.99 < c_eps < 1.0
    # critical: everything transmitted
    assert reflectance_bound(MediumPair(-1.0, 1.0), AdmissibilityMargin(0.3)) == 0.0


def test_reflectance_bound_property():
    rng = np.random.default_rng(13)
    for _ in range(20):
        if rng.random() < 0.5:
            kappa = -rng.uniform(1.05, 3.0)
            floor = 1.0 / kappa
        else:
            kappa = -rng.uniform(0.05, 0.95)
            floor = kappa
        eps = rng.uniform(1e-3, 0.5 * (1.0 - floor))
        med = MediumPair(kappa, np.exp(rng.uniform(-1.2, 1.2)), rng.uniform(0, 1))
        margin = AdmissibilityMargin(eps)
        c_eps = reflectance_bound(med, margin)
        assert c_eps < 1.0
        cs = rng.uniform(floor + eps, 1.0, 10_000)
        r = reflectance(cs, med, margin)
        assert np.all(r >= 0.0)
        assert np.all(r <= c_eps + 1e-12)


def test_pq_monotone_on_window():
    # constant-sign finite differences justify the endpoint bound
    rng = np.random.default_rng(17)
    for _ in range(40):
        if rng.random() < 0.5:
            kappa, floor = -rng.uniform(1.05, 3.0), None
            floor = 1.0 / kappa
        else:
            kappa = -rng.uniform(0.05, 0.95)
            floor = kappa
        eps = rng.uniform(1e-3, 0.5 * (1.0 - floor))
        med = MediumPair(kappa, np.exp(rng.uniform(-1, 1)), 0.5)
        cs = np.linspace(floor + eps, 1.0, 500)
        for fn in (p_coefficient, q_coefficient):
            diffs = np.diff(fn(cs, med))
            assert np.all(diffs > 0) or np.all(diffs < 0)


def test_critical_limit_continuity():
    # with matched impedance the reflectance vanishes uniformly as kappa -> -1
    sup = []
    for kappa in (-1.1, -1.01, -1.001):
        med = MediumPair(kappa, 1.0, 0.5)
        cs = np.linspace(kappa + 0.3, 1.0, 200)
        sup.append(float(np.max(reflectance(cs, med))))
    assert sup[0] > sup[1] > sup[2]
    assert sup[2] < 1e-4


def test_out_of_window_is_loud():
    med = MediumPair(-2.0, 1.0, 0.5)
    with pytest.raises(InadmissibleIncidenceError):
        reflectance(-0.9, med)
    with pytest.raises(InadmissibleIncidenceError):
        reflectance(0.0, med, AdmissibilityMargin(0.6))  # window floor 0.1


@pytest.mark.parametrize("kappa", [-2.0, -1.5, -0.5, -1.0, -1.0 + 5e-15])
def test_regime_rules(kappa):
    reg = ovals.regime_of(kappa)
    critical = abs(kappa + 1.0) <= ovals.CRITICAL_TOL
    assert (reg is ovals.Regime.CRITICAL) == critical
    assert reg.max_envelope == (kappa < -1.0)
    assert reg.lossless == critical
    floor = -1.0 if critical else (1.0 / kappa if kappa < -1.0 else kappa)
    assert reg.window_floor(kappa) == floor
    margin = AdmissibilityMargin(0.1)
    medium = MediumPair(kappa, 1.3, 0.5)
    below = floor - 2e-12  # past the 1e-12 slack of the window check
    if critical:
        assert margin.window(kappa) == (-1.0, 1.0)
        assert reflectance(below, medium) == 0.0
        assert reflectance_bound(medium, margin) == 0.0
    else:
        assert margin.window(kappa)[0] == floor + 0.1
        assert reflectance(floor, medium) == pytest.approx(1.0, abs=1e-12)  # grazing
        with pytest.raises(InadmissibleIncidenceError):
            reflectance(below, medium)


def test_focusing_oracle_random_all_regimes():
    # refract(x, normal) must point exactly at the focus on every sheet
    rng = np.random.default_rng(21)
    for regime in (ovals.Regime.STRONG, ovals.Regime.MILD, ovals.Regime.CRITICAL):
        kappas, P, b = sample_ovals(regime, 100, seed=31)
        for i in range(100):
            kappa, Pi, bi = kappas[i], P[i], b[i]
            x = sample_directions_in_support(kappa, Pi, bi, 1, rng)[0]
            oval = ovals.OvalParams(Pi, bi, kappa)
            nu = ovals.normal_at(oval, x)
            m = refract(x, nu, kappa)
            z = ovals.polar_radius(oval, x) * x
            rel = Pi - z
            s = max(float(rel @ m), 0.0)
            assert np.linalg.norm(rel - s * m) <= 1e-8 * np.linalg.norm(Pi)


def _window_refuses(c, t_min):
    """The elementwise window check: refuse when any entry lies more than
    1e-12 outside [t_min, 1]; NaN entries fail both comparisons."""
    c = np.asarray(c, dtype=float)
    return bool(np.any(c < t_min - 1e-12) or np.any(c > 1.0 + 1e-12))


@pytest.mark.parametrize("margin", [None, AdmissibilityMargin(0.1)])
@pytest.mark.parametrize("kappa", [-2.0, -0.5])
def test_window_check_refuses_where_the_elementwise_check_does(kappa, margin):
    medium = MediumPair(kappa, 1.3, 0.4)
    t_min = margin.window(kappa)[0] if margin else medium.regime.window_floor(kappa)
    lo, hi = t_min - 1e-12, 1.0 + 1e-12
    below, above = float(np.nextafter(lo, -np.inf)), float(np.nextafter(hi, np.inf))
    mid, nan = 0.5 * (t_min + 1.0), np.nan
    cases = [
        mid, lo, hi, below, above, nan,
        np.array(mid), np.array(below), np.array(above), np.array(nan),
        np.array([]), np.array([lo, hi]), np.array([mid, below]), np.array([above, mid]),
        np.array([nan, mid]), np.array([nan, below]), np.array([above, nan]),
        np.array([nan, nan]), np.array([[mid, lo], [hi, below]]),
    ]
    for c in cases:
        if _window_refuses(c, t_min):
            with pytest.raises(InadmissibleIncidenceError):
                reflectance(c, medium, margin)
            if margin is None:
                with pytest.raises(InadmissibleIncidenceError):
                    transmittance(c, medium)
        else:
            r = reflectance(c, medium, margin)
            assert np.shape(r) == np.shape(c)
