"""Geometry catalogue checks: metrics, distances, charts, embeddings."""

import math

import numpy as np
import pytest

from excursion.errors import DegenerateChartError, ValidationError
from excursion.manifolds import (
    ChartPoint,
    Euclidean,
    FlatTorus,
    Sphere,
)

RNG = np.random.default_rng(2026)


def sphere_point(sphere, rng, margin=0.2):
    polar = rng.uniform(margin, math.pi - margin, size=sphere.dim - 1)
    azim = rng.uniform(0.0, 2.0 * math.pi)
    return sphere.point(*polar, azim)


def test_metric_euclidean_identity():
    e3 = Euclidean(3)
    p = e3.point(0.4, -1.2, 7.0)
    assert np.array_equal(e3.metric_tensor(p), np.eye(3))


def test_metric_sphere_equator_and_midlatitude():
    s2 = Sphere(2, 1.0)
    at_equator = s2.metric_tensor(s2.point(math.pi / 2, 1.3))
    assert np.array_equal(at_equator, np.diag([1.0, 1.0]))
    mid = s2.metric_tensor(s2.point(math.pi / 6, 0.0))
    assert mid == pytest.approx(np.diag([1.0, 0.25]), rel=1e-12)


def test_metric_scales_with_radius():
    s2 = Sphere(2, 3.0)
    g = s2.metric_tensor(s2.point(math.pi / 2, 0.0))
    assert g == pytest.approx(9.0 * np.eye(2), rel=1e-12)


def test_metric_positive_definite_at_random_points():
    rng = np.random.default_rng(7)
    manifolds = [Euclidean(2), FlatTorus((1.0, 2.0)), Sphere(2, 1.0), Sphere(3, 2.0)]
    checked = 0
    while checked < 1000:
        m = manifolds[checked % len(manifolds)]
        if isinstance(m, Sphere):
            p = sphere_point(m, rng, margin=1e-3)
        else:
            p = m.point(*rng.uniform(-1.0, 3.0, size=m.dim))
        eigs = np.linalg.eigvalsh(m.metric_tensor(p))
        assert eigs.min() > 0.0
        checked += 1


def test_metric_degenerate_at_pole():
    s2 = Sphere(2, 1.0)
    with pytest.raises(DegenerateChartError):
        s2.metric_tensor(s2.point(0.0, 0.0))
    with pytest.raises(DegenerateChartError):
        s2.metric_tensor(ChartPoint("south", (math.pi - 1e-14, 0.5)))
    # Every sine is 1e-11, above the pole tolerance, but the product of
    # their squares underflows to 0.
    s16 = Sphere(16, 1.0)
    p, q = s16.point(*[1e-11] * 15, 0.5), s16.point(*[1e-11] * 15, 0.6)
    with pytest.raises(DegenerateChartError):
        s16.metric_tensor(p)
    with pytest.raises(DegenerateChartError):
        s16.chart_quadratic_form(p, q)


def test_point_validation():
    s2 = Sphere(2, 1.0)
    with pytest.raises(ValidationError):
        s2.validate_point(ChartPoint("equatorial", (1.0, 1.0)))
    with pytest.raises(ValidationError):
        s2.point(0.5)
    with pytest.raises(ValidationError):
        s2.point(-0.1, 0.0)
    with pytest.raises(ValidationError):
        s2.point(3.2, 0.0)
    with pytest.raises(ValidationError):
        ChartPoint("main", (0.0, math.nan))
    with pytest.raises(ValidationError):
        Sphere(2, 0.0)
    with pytest.raises(ValidationError):
        FlatTorus(())
    with pytest.raises(ValidationError):
        FlatTorus((1.0, -2.0))
    with pytest.raises(ValidationError):
        Euclidean(0)


def test_dimension_refuses_bool_and_accepts_numpy_integers():
    for build in (Euclidean, lambda dim: Sphere(dim, 1.0)):
        with pytest.raises(ValidationError):
            build(True)
        with pytest.raises(ValidationError):
            build(2.0)
        m = build(np.int64(2))
        assert type(m.dim) is int
        assert m == build(2)


def test_distance_euclidean():
    e2 = Euclidean(2)
    assert e2.geodesic_distance(e2.point(0.0, 0.0), e2.point(3.0, 4.0)) == 5.0


def test_distance_torus_wraps():
    t1 = FlatTorus((1.0,))
    d = t1.geodesic_distance(t1.point(0.1), t1.point(0.9))
    assert d == pytest.approx(0.2, rel=1e-12)
    t2 = FlatTorus((1.0, 2.0))
    d = t2.geodesic_distance(t2.point(0.05, 1.9), t2.point(0.95, 0.1))
    assert d == pytest.approx(math.hypot(0.1, 0.2), rel=1e-12)


def test_distance_sphere_antipode():
    s2 = Sphere(2, 1.0)
    assert s2.geodesic_distance(s2.point(0.0, 0.0), s2.point(math.pi, 0.0)) == pytest.approx(
        math.pi, rel=1e-12
    )


def test_distance_sphere_equator_arc():
    s2 = Sphere(2, 1.0)
    p = s2.point(math.pi / 2, 1.0)
    q = s2.point(math.pi / 2, 1.3)
    d = s2.geodesic_distance(p, q)
    assert d == pytest.approx(0.3, rel=1e-12)
    # Cross-check against the embedded inner product route.
    ip = float(np.clip(s2.embed(p) @ s2.embed(q), -1.0, 1.0))
    assert d == pytest.approx(math.acos(ip), rel=1e-9)


def test_distance_sphere_cross_chart():
    s1 = Sphere(1, 1.0)
    p = s1.point(0.3, chart="north")
    q = s1.point(0.3, chart="south")
    d = s1.geodesic_distance(p, q)
    u, v = s1.embed(p), s1.embed(q)
    assert d == pytest.approx(math.acos(float(np.clip(u @ v, -1.0, 1.0))), abs=1e-12)
    assert d == pytest.approx(math.pi - 0.6, rel=1e-12)


def test_distance_symmetric_to_the_bit():
    rng = np.random.default_rng(11)
    t2 = FlatTorus((1.0, 0.7))
    s2 = Sphere(2, 1.3)
    for _ in range(200):
        p = t2.point(*rng.uniform(0.0, 1.0, size=2))
        q = t2.point(*rng.uniform(0.0, 1.0, size=2))
        assert t2.geodesic_distance(p, q) == t2.geodesic_distance(q, p)
        a = sphere_point(s2, rng)
        b = sphere_point(s2, rng)
        assert s2.geodesic_distance(a, b) == s2.geodesic_distance(b, a)


def test_distance_triangle_inequality():
    rng = np.random.default_rng(13)
    cases = [Euclidean(3), FlatTorus((1.0, 2.0)), Sphere(2, 1.0)]
    for m in cases:
        for _ in range(200):
            if isinstance(m, Sphere):
                p, q, r = (sphere_point(m, rng) for _ in range(3))
            else:
                pts = rng.uniform(0.0, 1.0, size=(3, m.dim))
                p, q, r = (m.point(*row) for row in pts)
            assert m.geodesic_distance(p, r) <= (
                m.geodesic_distance(p, q) + m.geodesic_distance(q, r) + 1e-12
            )


def test_quadratic_form_basics():
    e2 = Euclidean(2)
    p, q = e2.point(0.2, 0.4), e2.point(1.0, -0.6)
    assert e2.chart_quadratic_form(p, p) == 0.0
    assert e2.chart_quadratic_form(p, q) == pytest.approx(
        e2.geodesic_distance(p, q), rel=1e-14
    )
    s2 = Sphere(2, 1.0)
    with pytest.raises(Exception):
        s2.chart_quadratic_form(s2.point(1.0, 1.0, chart="north"), s2.point(1.0, 1.0, chart="south"))


def _equator_offset(s2, arc):
    """Point at geodesic distance ~arc from (pi/2, 0) along a mixed direction."""
    base = s2.point(math.pi / 2, 0.0)
    direction = np.array([0.6, 0.8])
    g_half = np.sqrt(np.diag(s2.metric_tensor(base)))
    t = arc / float(np.linalg.norm(g_half * direction))
    return base, s2.point(math.pi / 2 + t * 0.6, t * 0.8)


def test_quadratic_form_near_diagonal_value():
    s2 = Sphere(2, 1.0)
    p, q = _equator_offset(s2, 1e-3)
    assert abs(s2.chart_quadratic_form(p, q) - s2.geodesic_distance(p, q)) <= 1e-6


def test_quadratic_form_ratio_shrinks_monotonically():
    # Mixed direction (polar weight 0.2) so the metric varies along the
    # path and the deviation carries the generic first-order term.
    s2 = Sphere(2, 1.0)
    base = s2.point(math.pi / 3, 0.0)
    direction = np.array([0.2, math.sqrt(0.96)])
    g_half = np.sqrt(np.diag(s2.metric_tensor(base)))
    t0 = 1e-2 / float(np.linalg.norm(g_half * direction))
    deviations = []
    for k in range(11):
        t = t0 * 0.5**k
        q = s2.point(math.pi / 3 + t * direction[0], t * direction[1])
        ratio = s2.geodesic_distance(base, q) / s2.chart_quadratic_form(base, q)
        deviations.append(abs(ratio - 1.0))
    assert deviations[0] <= 1e-3
    assert all(b < a for a, b in zip(deviations, deviations[1:]))


def test_embed_sphere_reference_points():
    s2 = Sphere(2, 1.0)
    assert np.array_equal(s2.embed(s2.point(0.0, 0.0)), np.array([0.0, 0.0, 1.0]))
    assert s2.embed(s2.point(math.pi / 2, 0.0)) == pytest.approx(
        np.array([1.0, 0.0, 0.0]), abs=1e-12
    )
    south = s2.embed(ChartPoint("south", (0.0, 0.0)))
    assert south == pytest.approx(np.array([0.0, 0.0, -1.0]), abs=1e-12)


def test_embed_sphere_norm():
    s3 = Sphere(3, 2.5)
    rng = np.random.default_rng(5)
    for _ in range(100):
        p = sphere_point(s3, rng, margin=1e-2)
        assert np.linalg.norm(s3.embed(p)) == pytest.approx(2.5, rel=1e-12)


def test_embed_torus_reduces_coordinates():
    t2 = FlatTorus((1.0, 2.0))
    assert t2.embed(t2.point(1.25, -0.5)) == pytest.approx([0.25, 1.5], rel=1e-12)


def test_pairwise_matches_scalar():
    t2 = FlatTorus((1.0, 2.0))
    coords = np.random.default_rng(3).uniform(0.0, 1.0, size=(6, 2))
    mat = t2.pairwise_geodesic("main", coords, coords)
    for i in range(6):
        for j in range(6):
            d = t2.geodesic_distance(t2.point(*coords[i]), t2.point(*coords[j]))
            assert mat[i, j] == pytest.approx(d, abs=1e-14)
    s2 = Sphere(2, 1.0)
    ang = np.column_stack(
        [np.random.default_rng(4).uniform(0.5, 2.5, size=5), np.random.default_rng(8).uniform(0.0, 6.0, size=5)]
    )
    mat = s2.pairwise_geodesic("north", ang, ang)
    for i in range(5):
        for j in range(5):
            d = s2.geodesic_distance(s2.point(*ang[i]), s2.point(*ang[j]))
            # Arccos-of-inner-product noise floor near coincidence is
            # sqrt(machine eps); 5e-8 absolute covers it.
            assert mat[i, j] == pytest.approx(d, abs=5e-8)


def test_chordal_distance_agrees_locally():
    # Flat-embedding distance matches the wrapped one to second order.
    t1 = FlatTorus((1.0,))
    for delta in (1e-2, 1e-3):
        p, q = t1.point(0.3), t1.point(0.3 + delta)
        geo = t1.geodesic_distance(p, q)
        chord = t1.chordal_distance(p, q)
        # chord/geo = sin(pi d)/(pi d), deficit (pi d)^2/6 < 2 d^2
        assert abs(chord / geo - 1.0) <= 2.0 * delta**2
    s2 = Sphere(2, 2.0)
    p, q = s2.point(1.0, 0.5), s2.point(1.0, 0.5 + 1e-3)
    assert s2.chordal_distance(p, q) == pytest.approx(s2.geodesic_distance(p, q), rel=1e-6)

