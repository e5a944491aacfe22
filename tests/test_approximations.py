"""Analytic approximation routes: values, scalings, quadrature bridge."""

import math

import numpy as np
import pytest

from excursion.approximations import (
    ApproxResult,
    eec_approx,
    euclidean_det_integral,
    metric_sqrt_field,
    pickands_approx,
    pickands_approx_submanifold,
)
from excursion.covariance import (
    LocallyIsotropicModel,
    PoweredExponential,
    SphereSchoenberg,
    SquaredExponential,
    StableOnChart,
)
from excursion.curvatures import Ball, FullSphere, FullTorus, GreatCircle, Rectangle
from excursion.errors import (
    DegenerateChartError,
    DegenerateModelError,
    ManifoldMismatchError,
    ValidationError,
)
from excursion.kernels import gaussian_tail
from excursion.manifolds import Euclidean, FlatTorus, Sphere

TORUS_11 = FlatTorus((1.0, 1.0))
PSI_3 = 0.0013498980316300944


def test_eec_square_torus_frozen_value():
    # kappa = 1 and L = (0, 0, 1), so only the j = 2 term survives.
    model = SquaredExponential(TORUS_11, 1.0)
    res = eec_approx(model, FullTorus((1.0, 1.0)), 3.0)
    assert res.terms[0] == 0.0
    assert res.terms[1] == 0.0
    assert res.total == pytest.approx(0.0021160517453817007, rel=1e-13)
    assert res.method == "eec"
    assert res.h_value is None


def test_eec_rectangle_hand_sum():
    kappa = 4.0
    model = SquaredExponential(Euclidean(2), 0.5)
    assert model.second_spectral_moment() == kappa
    u = 2.5
    res = eec_approx(model, Rectangle((1.0, 2.0)), u)
    phi = math.exp(-u * u / 2.0)
    expected = [
        gaussian_tail(u),
        2.0 * 3.0 * phi / (2.0 * math.pi),
        4.0 * 2.0 * u * phi / (2.0 * math.pi) ** 1.5,
    ]
    for term, want in zip(res.terms, expected):
        assert term == pytest.approx(want, rel=1e-12)
    assert res.total == pytest.approx(sum(expected), rel=1e-12)


def test_eec_sphere_schoenberg_closed_form():
    model = SphereSchoenberg(Sphere(2, 1.0), (0.0, 1.0))
    assert model.second_spectral_moment() == 1.0
    u = 2.5
    res = eec_approx(model, FullSphere(2, 1.0), u)
    phi = math.exp(-u * u / 2.0)
    assert res.terms[1] == 0.0
    assert res.total == pytest.approx(
        2.0 * gaussian_tail(u) + 4.0 * math.pi * u * phi / (2.0 * math.pi) ** 1.5,
        rel=1e-12,
    )


def test_eec_terms_nonnegative_at_moderate_levels():
    model = SquaredExponential(Euclidean(2), 0.5)
    for u in (2.0, 2.5, 4.0):
        res = eec_approx(model, Rectangle((1.0, 2.0)), u)
        assert all(t >= 0.0 for t in res.terms)


def test_eec_strictly_decreasing():
    model = SquaredExponential(TORUS_11, 1.0)
    domain = FullTorus((1.0, 1.0))
    grid = np.linspace(2.0, 6.0, 33)
    totals = [eec_approx(model, domain, u).total for u in grid]
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_eec_total_tracks_top_term():
    model = SquaredExponential(Euclidean(2), 1.0)
    domain = Rectangle((1.0, 2.0))
    ratios = []
    for u in (5.0, 10.0, 20.0):
        res = eec_approx(model, domain, u)
        ratios.append(res.total / max(res.terms))
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    # The gap closes like 1/u: doubling u should about halve it.
    assert ratios[2] - 1.0 < 0.6 * (ratios[1] - 1.0)
    assert ratios[-1] < 1.25


def test_eec_rejects_bad_inputs():
    model = SquaredExponential(TORUS_11, 1.0)
    with pytest.raises(ManifoldMismatchError):
        eec_approx(model, Rectangle((1.0, 1.0)), 3.0)
    with pytest.raises(ValidationError):
        eec_approx(PoweredExponential(TORUS_11, 1.0, 1.0), FullTorus((1.0, 1.0)), 3.0)
    with pytest.raises(ValidationError):
        eec_approx(model, FullTorus((1.0, 1.0)), math.inf)


def test_pickands_square_torus_frozen_value():
    model = LocallyIsotropicModel(c=0.5, alpha=2.0, manifold=TORUS_11)
    res = pickands_approx(model, FullTorus((1.0, 1.0)), 3.0, 1.0 / math.pi, "exact")
    # Vol c^{N/alpha} H u^{2N/alpha} Psi(u) = 1 * 0.5 * pi^{-1} * 9 * Psi(3)
    hand = 1.0 * 0.5 * (1.0 / math.pi) * 9.0 * PSI_3
    assert hand == pytest.approx(0.0019335864996355427, rel=1e-12)
    assert res.total == pytest.approx(0.0019335864996355427, rel=1e-10)
    assert res.terms == (res.total,)
    assert res.h_provenance == "exact"


def test_pickands_great_circle_frozen_value():
    s2 = Sphere(2, 1.0)
    model = LocallyIsotropicModel(c=0.5, alpha=2.0, manifold=s2)
    res = pickands_approx_submanifold(
        model, GreatCircle(1.0), 3.0, 1.0 / math.sqrt(math.pi), "exact"
    )
    # k = 1 everywhere: Vol = 2 pi, c^{1/2}, u^{2k/alpha} = 3
    hand = 2.0 * math.pi * math.sqrt(0.5) * (1.0 / math.sqrt(math.pi)) * 3.0 * PSI_3
    assert hand == pytest.approx(0.01015107772185818, rel=1e-12)
    assert res.total == pytest.approx(0.01015107772185818, rel=1e-10)


def test_pickands_volume_linearity():
    model = LocallyIsotropicModel(c=1.0, alpha=1.0, manifold=TORUS_11)
    small = pickands_approx(model, FullTorus((1.0, 1.0)), 3.0, 0.8, "mc")
    big_manifold = FlatTorus((1.0, 2.0))
    big_model = LocallyIsotropicModel(c=1.0, alpha=1.0, manifold=big_manifold)
    big = pickands_approx(big_model, FullTorus((1.0, 2.0)), 3.0, 0.8, "mc")
    assert big.total == pytest.approx(2.0 * small.total, rel=1e-14)


def test_pickands_c_scaling():
    domain = FullTorus((1.0, 1.0))
    base = pickands_approx(
        LocallyIsotropicModel(c=1.0, alpha=1.0, manifold=TORUS_11), domain, 3.0, 0.8, "mc"
    )
    doubled = pickands_approx(
        LocallyIsotropicModel(c=2.0, alpha=1.0, manifold=TORUS_11), domain, 3.0, 0.8, "mc"
    )
    assert doubled.total == pytest.approx(4.0 * base.total, rel=1e-14)


def test_pickands_submanifold_matches_full_dim_at_k_equals_n():
    model = LocallyIsotropicModel(c=0.7, alpha=1.5, manifold=Euclidean(2))
    domain = Rectangle((1.0, 2.0))
    a = pickands_approx(model, domain, 3.5, 0.9, "mc")
    b = pickands_approx_submanifold(model, domain, 3.5, 0.9, "mc")
    assert a.total == b.total


def test_pickands_additivity_over_disjoint_pieces():
    model = LocallyIsotropicModel(c=1.0, alpha=1.0, manifold=Euclidean(2))
    u, h = 3.0, 0.8
    whole = pickands_approx(model, Rectangle((1.0, 1.0)), u, h, "mc")
    quarter = pickands_approx(model, Rectangle((0.5, 0.5)), u, h, "mc")
    assert 4.0 * quarter.total == whole.total
    first = pickands_approx(model, Rectangle((1.0, 2.0)), u, h, "mc")
    second = pickands_approx(model, Rectangle((0.5, 0.8)), u, h, "mc")
    union = pickands_approx(model, Rectangle((1.0, 2.4)), u, h, "mc")
    assert first.total + second.total == pytest.approx(union.total, rel=1e-12)


def test_pickands_rejects_bad_inputs():
    model = LocallyIsotropicModel(c=1.0, alpha=1.0, manifold=TORUS_11)
    domain = FullTorus((1.0, 1.0))
    with pytest.raises(ValidationError):
        pickands_approx(model, domain, 0.0, 0.8)
    with pytest.raises(ValidationError):
        pickands_approx(model, domain, -2.0, 0.8)
    with pytest.raises(ValidationError):
        pickands_approx(model, domain, 3.0, 0.0)
    with pytest.raises(ValidationError):
        pickands_approx(model, domain, 3.0, -1.0)
    with pytest.raises(ManifoldMismatchError):
        pickands_approx(model, FullTorus((2.0, 2.0)), 3.0, 0.8)
    s2_model = LocallyIsotropicModel(c=1.0, alpha=1.0, manifold=Sphere(2, 1.0))
    with pytest.raises(ValidationError):
        pickands_approx(s2_model, GreatCircle(1.0), 3.0, 1.0)


def test_leading_term_identity():
    # Smooth route and fractional route agree to leading order; the
    # frozen ratio at u = 10 was checked against a direct expansion.
    smooth = SquaredExponential(TORUS_11, 1.0)
    domain = FullTorus((1.0, 1.0))
    local = smooth.local_model()
    u = 10.0
    frac = pickands_approx(local, domain, u, 1.0 / math.pi, "exact")
    eec = eec_approx(smooth, domain, u)
    ratio = frac.total / eec.terms[2]
    assert ratio == pytest.approx(0.9902859647173267, rel=1e-10)
    assert abs(ratio - 1.0) <= 0.03


def test_result_total_must_match_terms():
    with pytest.raises(ValidationError):
        ApproxResult(u=1.0, total=0.5, terms=(0.1, 0.2), method="eec")


def test_metric_field_euclidean_and_scaling():
    field = metric_sqrt_field(Euclidean(2))
    pts = np.zeros((3, 2))
    assert np.array_equal(field(pts), np.broadcast_to(np.eye(2), (3, 2, 2)))
    scaled = metric_sqrt_field(Euclidean(2), scale=2.0)
    assert np.array_equal(scaled(pts), 2.0 * field(pts))
    with pytest.raises(ValidationError):
        metric_sqrt_field(Euclidean(2), scale=0.0)
    with pytest.raises(ValidationError):
        metric_sqrt_field(Euclidean(2), chart="polar")


def test_metric_field_sphere_values():
    s2 = Sphere(2, 2.0)
    field = metric_sqrt_field(s2)
    out = field(np.array([[math.pi / 2, 0.3], [math.pi / 6, 1.0]]))
    assert out[0] == pytest.approx(2.0 * np.eye(2), rel=1e-12)
    assert out[1] == pytest.approx(np.diag([2.0, 1.0]), rel=1e-12)
    with pytest.raises(DegenerateChartError):
        field(np.array([[5e-14, 0.0]]))


def test_metric_field_refuses_points_of_another_dimension():
    # A single column would broadcast across the diagonal unnoticed.
    for manifold in (Euclidean(2), Sphere(2, 1.0)):
        field = metric_sqrt_field(manifold)
        for points in (np.ones((3, 1)), np.ones((3, 3)), np.ones(2)):
            with pytest.raises(ValidationError, match="points must be"):
                field(points)


@pytest.mark.parametrize(
    "manifold",
    [Euclidean(3), FlatTorus((1.0, 2.0)), Sphere(1, 1.7), Sphere(2, 0.6), Sphere(3, 2.5)],
    ids=repr,
)
def test_metric_field_squares_to_metric_tensor(manifold):
    rng = np.random.default_rng(25)
    for chart in manifold.charts:
        if isinstance(manifold, Sphere):
            polar = rng.uniform(1e-3, math.pi - 1e-3, size=(200, manifold.dim - 1))
            pts = np.column_stack([polar, rng.uniform(0.0, 2.0 * math.pi, size=200)])
        else:
            pts = rng.uniform(-1.0, 3.0, size=(200, manifold.dim))
        tensors = np.stack([manifold.metric_tensor(manifold.point(*p, chart=chart)) for p in pts])
        field = metric_sqrt_field(manifold, chart)
        np.testing.assert_allclose(field(pts) ** 2, tensors, rtol=1e-15, atol=0.0)
        if manifold.dim > 1 and isinstance(manifold, Sphere):
            pole = np.array([[0.0] * (manifold.dim - 1) + [1.0]])
            with pytest.raises(DegenerateChartError, match=chart):
                field(np.vstack([pts[:3], pole]))
            with pytest.raises(DegenerateChartError, match=chart):
                manifold.metric_tensor(manifold.point(*pole[0], chart=chart))
    with pytest.raises(ValidationError):
        metric_sqrt_field(FullSphere(2, 1.0))
    with pytest.raises(ValidationError):
        metric_sqrt_field(object())


def test_det_integral_euclidean_box_volume():
    field = metric_sqrt_field(Euclidean(2))
    vol = euclidean_det_integral(field, (0.0, 0.0), (1.5, 2.0), resolution=32)
    assert vol == pytest.approx(3.0, rel=1e-12)


def test_det_integral_sphere_band():
    field = metric_sqrt_field(Sphere(2, 1.0))
    band = euclidean_det_integral(
        field, (math.pi / 3, 0.0), (2.0 * math.pi / 3, 2.0 * math.pi), resolution=(2048, 4)
    )
    assert band == pytest.approx(2.0 * math.pi, abs=1e-6)
    full = euclidean_det_integral(
        field, (0.0, 0.0), (math.pi, 2.0 * math.pi), resolution=(4096, 4)
    )
    assert full == pytest.approx(4.0 * math.pi, abs=1e-6)


def test_det_integral_c_scaling():
    n, alpha, c, lam = 2, 1.0, 1.0, 3.0
    base = euclidean_det_integral(
        metric_sqrt_field(Euclidean(n), scale=c ** (1.0 / alpha)), (0.0, 0.0), (1.0, 1.0), 8
    )
    scaled = euclidean_det_integral(
        metric_sqrt_field(Euclidean(n), scale=(lam * c) ** (1.0 / alpha)),
        (0.0, 0.0),
        (1.0, 1.0),
        8,
    )
    assert scaled == pytest.approx(lam ** (n / alpha) * base, rel=1e-12)


def test_det_integral_deterministic_and_guarded():
    field = metric_sqrt_field(Sphere(2, 1.0))
    args = ((math.pi / 3, 0.0), (2.0 * math.pi / 3, 1.0))
    a = euclidean_det_integral(field, *args, resolution=64)
    b = euclidean_det_integral(field, *args, resolution=64)
    assert a == b
    with pytest.raises(ValidationError):
        euclidean_det_integral(field, (0.0, 0.0), (1.0,), 8)
    with pytest.raises(ValidationError):
        euclidean_det_integral(field, (0.0, 0.0), (0.0, 1.0), 8)
    with pytest.raises(ValidationError):
        euclidean_det_integral(field, (0.0, 0.0), (1.0, 1.0), 0)


def test_det_integral_refuses_non_integral_resolution():
    field = metric_sqrt_field(Sphere(2, 1.0))
    args = ((0.5, 0.0), (2.5, 1.0))
    for resolution in (2.99, True, (3, 2.5), (True, 3)):
        with pytest.raises(ValidationError):
            euclidean_det_integral(field, *args, resolution=resolution)
    at_3 = euclidean_det_integral(field, *args, resolution=3)
    assert euclidean_det_integral(field, *args, resolution=np.int64(3)) == at_3
    assert euclidean_det_integral(field, *args, resolution=(3, np.int64(3))) == at_3


def test_det_integral_refuses_resolution_of_another_length():
    field = metric_sqrt_field(Sphere(2, 1.0))
    args = ((0.5, 0.0), (2.5, 1.0))
    for resolution in ((2, 3, 4), (), ((3, 3), (3, 3))):
        with pytest.raises(ValidationError, match="one per axis"):
            euclidean_det_integral(field, *args, resolution=resolution)
    assert euclidean_det_integral(field, *args, resolution=(3,)) == euclidean_det_integral(
        field, *args, resolution=3
    )


def test_stable_model_usable_in_both_roles():
    # A chart-stable kernel at alpha = 2 carries a valid expansion for
    # the fractional route while remaining simulable.
    model = StableOnChart(TORUS_11, 0.5, 2.0)
    res = pickands_approx(model, FullTorus((1.0, 1.0)), 3.0, 1.0 / math.pi, "exact")
    assert res.total == pytest.approx(0.0019335864996355427, rel=1e-10)
