"""Cap domains and quadrature rules: closed-form area oracles and refinement."""

import math

import numpy as np
import pytest
from scipy import integrate

from negrefractor import detmath
from negrefractor.geometry import (
    _orthonormal_frame,
    build_quadrature,
    cap_measure,
    make_cap,
    neighbor_pairs,
)


def quad_integrate(rule, values):
    """Quadrature sum of per-node integrand values."""
    return float(np.sum(rule.weights * values))


def test_full_sphere_half_angle_rejected():
    with pytest.raises(ValueError):
        make_cap([0.0, 0.0, 1.0], np.pi, 3)
    with pytest.raises(ValueError):
        make_cap([0.0, 0.0, 1.0], 0.0, 3)


def test_non_unit_axis_rejected():
    with pytest.raises(ValueError):
        make_cap([0.0, 0.0, 2.0], np.pi / 6, 3)


def test_axis_inside_cap():
    cap = make_cap([0.0, 0.0, 1.0], np.pi / 6, 3)
    assert cap.contains([0.0, 0.0, 1.0])


def test_half_circle_boundary_membership():
    cap = make_cap([1.0, 0.0], np.pi / 2, 2)
    assert cap.contains([0.0, 1.0])  # exactly on the boundary
    assert not cap.contains([-1.0, 0.0])


def test_semicircle_weight_sum():
    cap = make_cap([1.0, 0.0], np.pi / 2, 2)
    for level in (4, 10):
        rule = build_quadrature(cap, level)
        assert cap_measure(rule) == pytest.approx(np.pi, rel=1e-10)


@pytest.mark.parametrize("half_angle,expected", [
    (np.pi / 3, np.pi),                       # 2*pi*(1 - cos(pi/3))
    (np.pi / 2, 2 * np.pi),                   # hemisphere
    (np.pi / 6, 2 * np.pi * (1 - np.cos(np.pi / 6))),
])
def test_cap_area_closed_form(half_angle, expected):
    cap = make_cap([0.0, 0.0, 1.0], half_angle, 3)
    rule = build_quadrature(cap, 6)
    assert cap_measure(rule) == pytest.approx(expected, rel=1e-8)


def test_zonal_moment_against_reference_integrator():
    theta0 = np.pi / 5
    cap = make_cap([0.0, 0.0, 1.0], theta0, 3)
    rule = build_quadrature(cap, 6)
    got = quad_integrate(rule, rule.nodes @ cap.axis)
    # reference: independent adaptive quadrature of the polar integral
    ref, err = integrate.quad(lambda t: np.cos(t) * np.sin(t) * 2 * np.pi, 0.0, theta0)
    assert abs(ref - np.pi * np.sin(theta0) ** 2) < 1e-12
    assert got == pytest.approx(ref, abs=max(1e-12, 10 * err))


def test_all_nodes_satisfy_membership():
    for dim, axis in ((2, [0.0, 1.0]), (3, [0.0, 0.6, 0.8])):
        cap = make_cap(axis, 0.7, dim)
        rule = build_quadrature(cap, 4)
        assert all(rule.domain.contains(x) for x in rule.nodes)
        assert np.all(rule.weights > 0.0)
        assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-12)


def test_quadrature_linear_and_monotone():
    cap = make_cap([0.0, 0.0, 1.0], 0.9, 3)
    rule = build_quadrature(cap, 4)
    f = rule.nodes[:, 2] ** 2
    g = np.exp(rule.nodes[:, 0])
    a, b = 2.5, -1.25
    lin = quad_integrate(rule, a * f + b * g)
    assert lin == pytest.approx(a * quad_integrate(rule, f) + b * quad_integrate(rule, g), rel=1e-14)
    assert quad_integrate(rule, np.ones(rule.count)) == pytest.approx(cap_measure(rule), rel=1e-15)
    assert quad_integrate(rule, f) >= 0.0


def test_refinement_quadruples_nodes():
    cap3 = make_cap([0.0, 0.0, 1.0], 0.8, 3)
    cap2 = make_cap([1.0, 0.0], 0.8, 2)
    for cap in (cap3, cap2):
        counts = [build_quadrature(cap, lv).count for lv in (1, 2, 3, 4)]
        for lo, hi in zip(counts, counts[1:]):
            assert hi >= 4 * lo


def test_refinement_error_decreases_on_smooth_integrands():
    theta0 = np.pi / 4
    cap = make_cap([0.0, 0.0, 1.0], theta0, 3)
    integrands = [
        lambda X: np.exp(3.0 * X[:, 0] + 0.5 * X[:, 1]),
        lambda X: 1.0 / (1.5 + X[:, 0] + 0.2 * X[:, 2]),
        lambda X: np.sin(4.0 * X[:, 1]) + X[:, 2] ** 3,
    ]
    # reference values from a much finer rule of the same family
    ref_rule = build_quadrature(cap, 9)
    for f in integrands:
        ref = quad_integrate(ref_rule, f(ref_rule.nodes))
        errs = []
        for lv in (2, 3, 4, 5, 6):
            rule = build_quadrature(cap, lv)
            errs.append(abs(quad_integrate(rule, f(rule.nodes)) - ref))
        floor = 1e-12 * abs(ref)
        for e0, e1 in zip(errs, errs[1:]):
            if e0 <= floor:
                break
            assert e1 < e0


def test_small_cap_measure_vanishes_with_angle():
    areas = []
    for angle in (0.5, 0.1, 0.02):
        cap = make_cap([0.0, 0.0, 1.0], angle, 3)
        areas.append(cap_measure(build_quadrature(cap, 3)))
    assert areas[0] > areas[1] > areas[2] > 0.0


def test_neighbor_pairs_are_close():
    cap = make_cap([0.0, 0.0, 1.0], 0.6, 3)
    rule = build_quadrature(cap, 4)
    ia, ib = neighbor_pairs(rule)
    gaps = np.linalg.norm(rule.nodes[ia] - rule.nodes[ib], axis=1)
    # adjacent nodes are within a few grid spacings
    assert gaps.max() < 6.0 * (0.6 / 2**4)
    assert gaps.min() > 0.0


# ---------------------------------------------------------------------------
# platform-independent rule: Gauss-Legendre and cosine against mpmath
# ---------------------------------------------------------------------------

def _ulps(value, ref, mpmath):
    """|value - ref| in units of the spacing of doubles at ref."""
    spacing = np.spacing(abs(float(ref))) if ref != 0 else np.spacing(0.0)
    return float(abs(mpmath.mpf(float(value)) - ref) / mpmath.mpf(float(spacing)))


_GL_REFERENCE = {}


def _gl_reference(n, mpmath):
    """High-precision Gauss-Legendre roots x >= 0 and weights, by Newton on
    the three-term recurrence from the double nodes."""
    if n not in _GL_REFERENCE:
        from negrefractor.detmath import gauss_legendre

        mp = mpmath.mp.clone()
        mp.dps = 40

        def legendre(x):
            p0, p1 = mp.mpf(1), x
            for k in range(1, n):
                p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
            return p1, p0

        roots, weights = [], []
        for x0 in gauss_legendre(n)[0][n // 2:]:
            x = mp.mpf(float(x0))
            for _ in range(3):
                pn, pm = legendre(x)
                x -= pn * (1 - x * x) / (n * (pm - x * pn))
            _, pm = legendre(x)
            roots.append(x)
            weights.append(2 * (1 - x * x) / (n * pm) ** 2)
        _GL_REFERENCE[n] = roots, weights
    return _GL_REFERENCE[n]


@pytest.mark.parametrize("n", [16, 64, 256])
def test_gauss_legendre_nodes_within_one_ulp(n):
    mpmath = pytest.importorskip("mpmath")
    from negrefractor.detmath import gauss_legendre

    nodes, weights = gauss_legendre(n)
    assert nodes.shape == weights.shape == (n,)
    assert np.all(np.diff(nodes) > 0.0)
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    roots, _ = _gl_reference(n, mpmath)
    worst = max(_ulps(x, r, mpmath) for x, r in zip(nodes[n // 2:], roots))
    assert worst <= 1.0


@pytest.mark.parametrize("n", [16, 64, 128, 256])
def test_gauss_legendre_weights_no_less_accurate_than_leggauss(n):
    mpmath = pytest.importorskip("mpmath")
    from negrefractor.detmath import gauss_legendre

    _, weights = gauss_legendre(n)
    _, lg_weights = np.polynomial.legendre.leggauss(n)
    _, ref = _gl_reference(n, mpmath)
    ours = max(_ulps(w, r, mpmath) for w, r in zip(weights[n // 2:], ref))
    theirs = max(_ulps(w, r, mpmath) for w, r in zip(lg_weights[n // 2:], ref))
    assert ours <= theirs
    assert ours <= 8.0
    assert math.fsum(weights) == pytest.approx(2.0, rel=1e-15)


def test_two_prod_is_exact():
    # the operands of cli._g17 (every power of ten hi of its table times |x|
    # in [1e-200, 1e200], near 1e16/hi where that range allows) and of the
    # Gauss-Legendre recurrence (P_k and x in [-1, 1], values times 2k+1, k)
    from fractions import Fraction

    from negrefractor import cli

    rng = np.random.default_rng(20260)
    his = cli._POWER[0]
    k = np.arange(cli._K_MIN, cli._K_MAX + 1)
    x = np.clip(rng.uniform(1.0, 10.0, (8, k.size)) * 10.0 ** (16 - k.astype(float)), 1e-200, 1e200)
    a = [(x * rng.choice([-1.0, 1.0], x.shape)).ravel()]
    b = [np.broadcast_to(his, x.shape).ravel()]
    n = np.arange(1, 514, dtype=float)
    a += [rng.uniform(-1.0, 1.0, 4096), rng.uniform(-1.0, 1.0, 4 * n.size) * np.repeat(n, 4)]
    b += [rng.uniform(-1.0, 1.0, 4096), np.repeat(n, 4)]
    a, b = np.concatenate(a), np.concatenate(b)
    assert np.isin([1e-200, 1e200], np.abs(a)).all()
    p, e = detmath.two_prod(a, b)
    assert all(Fraction(u) * Fraction(v) == Fraction(s) + Fraction(t)
               for u, v, s, t in zip(a.tolist(), b.tolist(), p.tolist(), e.tolist()))


def _angles_in_use():
    deg = np.pi / 180.0
    half_angles = [30 * deg, np.deg2rad(30.0), np.pi / 3, np.pi / 2, np.pi / 6,
                   np.pi / 5, np.pi / 4, 0.9, 0.8, 0.7, 0.6, 0.5, 0.1, 0.02, 0.01]
    angles = list(half_angles)
    for level in range(1, 10):
        n_az = 2 ** (level + 1)
        angles += list(-np.pi + (np.arange(n_az) + 0.5) * (2.0 * np.pi / n_az))
    for theta0 in (30 * deg, np.pi / 2, 0.7, 0.8):
        for level in (1, 4, 6):
            count = 4**level
            step = 2.0 * theta0 / count
            angles += list(-theta0 + (np.arange(count) + 0.5) * step)
    return np.array(angles)


def test_deterministic_cos_sin_within_one_ulp():
    mpmath = pytest.importorskip("mpmath")
    from negrefractor.detmath import cos_sin

    angles = _angles_in_use()
    c, s = cos_sin(angles)
    mp = mpmath.mp.clone()
    mp.dps = 40
    worst = 0.0
    for a, ca, sa in zip(angles, c, s):
        x = mp.mpf(float(a))
        worst = max(worst, _ulps(ca, mp.cos(x), mpmath), _ulps(sa, mp.sin(x), mpmath))
    assert worst <= 1.0
    assert cos_sin(0.0) == (1.0, 0.0)


def test_rule_is_built_from_the_deterministic_kernels():
    from negrefractor.detmath import cos_sin, gauss_legendre

    cap = make_cap([0.0, 0.0, 1.0], np.pi / 6, 3)
    rule = build_quadrature(cap, 3)
    u_lo = cos_sin(np.pi / 6)[0]
    gl_nodes, _ = gauss_legendre(8)
    polar = rule.nodes.reshape(8, 16, 3)[:, 0, 2]
    assert np.array_equal(polar, 0.5 * (u_lo + 1.0) + 0.5 * (1.0 - u_lo) * gl_nodes)
    assert all(cap.contains(x) for x in rule.nodes)


def _row_major_nodes(domain, level):
    """The nodes of `build_quadrature` as a C-order array, built the way
    the rule built them before it became column-major: column_stack in
    2-D, a sum of outer products in 3-D."""
    if domain.dim == 2:
        count = 4**level
        step = 2.0 * domain.half_angle / count
        c, s = detmath.cos_sin(-domain.half_angle + (np.arange(count) + 0.5) * step)
        a0, a1 = domain.axis
        return np.column_stack([c * a0 - s * a1, c * a1 + s * a0])
    n_polar, n_az = 2**level, 2 ** (level + 1)
    u_lo = domain.cos_half_angle
    u = 0.5 * (u_lo + 1.0) + 0.5 * (1.0 - u_lo) * detmath.gauss_legendre(n_polar)[0]
    phi = -np.pi + (np.arange(n_az) + 0.5) * (2.0 * np.pi / n_az)
    su = np.repeat(np.sqrt(np.clip(1.0 - u * u, 0.0, None)), n_az)
    cos_phi, sin_phi = detmath.cos_sin(phi)
    cp, sp = np.tile(cos_phi, n_polar), np.tile(sin_phi, n_polar)
    e1, e2 = _orthonormal_frame(domain.axis)
    return np.outer(su * cp, e1) + np.outer(su * sp, e2) + np.outer(np.repeat(u, n_az), domain.axis)


@pytest.mark.parametrize("axis,level", [
    ([0.0, 0.0, 1.0], 3), ([0.0, 0.0, 1.0], 8), ([1.0, 0.0, 0.0], 3),
    ([0.6, 0.0, 0.8], 8), ([0.48, -0.6, 0.64], 5),
    ([0.0, 1.0], 1), ([0.0, 1.0], 6), ([0.6, -0.8], 4),
])
def test_node_layout_is_column_major_and_equals_the_row_major_build(axis, level):
    # every coordinate column is contiguous, and the values are the old
    # build's byte for byte
    cap = make_cap(axis, np.pi / 6, len(axis))
    nodes = build_quadrature(cap, level).nodes
    assert nodes.flags.f_contiguous
    ref = _row_major_nodes(cap, level)
    assert nodes.shape == ref.shape and nodes.dtype == ref.dtype
    assert nodes.tobytes(order="C") == ref.tobytes()
