"""Covariance family behaviour: values, local expansions, definiteness."""

import math

import numpy as np
import pytest

from excursion.covariance import (
    LocallyIsotropicModel,
    PoweredExponential,
    SphereSchoenberg,
    SquaredExponential,
    StableOnChart,
    expansion_ratio_check,
    local_expansion,
)
from excursion.errors import DegenerateModelError, ManifoldMismatchError, ValidationError
from excursion.manifolds import Euclidean, FlatTorus, Sphere


def random_coords(manifold, n, seed):
    rng = np.random.default_rng(seed)
    if isinstance(manifold, Sphere):
        polar = rng.uniform(0.2, math.pi - 0.2, size=(n, manifold.dim - 1))
        azim = rng.uniform(0.0, 2.0 * math.pi, size=(n, 1))
        return np.hstack([polar, azim])
    return rng.uniform(0.0, 1.0, size=(n, manifold.dim))


PSD_MODELS = [
    ("sqexp-euclidean", SquaredExponential(Euclidean(2), 0.5)),
    ("schoenberg-s2", SphereSchoenberg(Sphere(2, 1.0), (0.2, 0.5, 0.3))),
    ("stable-torus-a2", StableOnChart(FlatTorus((1.0, 1.0)), 0.5, 2.0)),
    ("stable-torus-a1", StableOnChart(FlatTorus((1.0, 1.0)), 1.0, 1.0)),
    ("stable-euclidean", StableOnChart(Euclidean(2), 1.0, 1.5)),
    ("stable-sphere", StableOnChart(Sphere(2, 1.0), 1.0, 2.0)),
    ("powexp-circle", PoweredExponential(FlatTorus((1.0,)), 1.0, 1.0)),
    ("powexp-sphere-geodesic", PoweredExponential(Sphere(2, 1.0), 1.0, 1.0)),
]


@pytest.mark.parametrize("label,model", PSD_MODELS, ids=[x[0] for x in PSD_MODELS])
def test_psd_smoke_on_random_points(label, model):
    coords = random_coords(model.manifold, 50, seed=hash(label) % 2**32)
    chart = model.manifold.charts[0]
    mat = model.covariance_matrix(chart, coords)
    eigs = np.linalg.eigvalsh(mat)
    assert eigs.min() >= -1e-8 * (np.trace(mat) / 50.0)


def test_geodesic_kernels_on_square_torus_are_indefinite():
    # Wrapped geodesic distance is not negative definite in 2D, so these
    # families are only constructible, never factorizable, there.  Small
    # regular grids already expose eigenvalues far below any jitter.
    t2 = FlatTorus((1.0, 1.0))
    xs = np.linspace(0.0, 1.0, 12, endpoint=False)
    coords = np.array([(x, y) for x in xs for y in xs])
    for model in (SquaredExponential(t2, 1.0), PoweredExponential(t2, 1.0, 1.0)):
        eigs = np.linalg.eigvalsh(model.covariance_matrix("main", coords))
        assert eigs.min() < -0.1


def test_unit_variance_on_diagonal():
    for _, model in PSD_MODELS:
        chart = model.manifold.charts[0]
        p = model.manifold.point(*random_coords(model.manifold, 1, 3)[0], chart=chart)
        assert model.covariance(p, p) == 1.0


def test_sqexp_value_at_unit_distance():
    e1 = Euclidean(1)
    model = SquaredExponential(e1, 1.0)
    val = model.covariance(e1.point(0.0), e1.point(1.0))
    assert val == pytest.approx(math.exp(-0.5), rel=1e-15)


def test_schoenberg_orthogonal_points():
    s2 = Sphere(2, 1.0)
    model = SphereSchoenberg(s2, (0.0, 1.0))
    north_ish = s2.point(1e-8, 0.0)
    equator = s2.point(math.pi / 2, 0.0)
    assert model.covariance(north_ish, equator) == pytest.approx(0.0, abs=1e-7)


def test_schoenberg_cross_chart_consistency():
    s2 = Sphere(2, 1.0)
    model = SphereSchoenberg(s2, (0.2, 0.5, 0.3))
    from excursion.manifolds import ChartPoint

    p = s2.point(1.0, 0.7)
    q_north = s2.point(2.0, 0.7)
    q_south = ChartPoint("south", (math.pi - 2.0, 0.7))
    assert model.covariance(p, q_north) == pytest.approx(
        model.covariance(p, q_south), rel=1e-12
    )


def test_rho_prime_0_values():
    assert SquaredExponential(Euclidean(2), 1.0).rho_prime_0() == -0.5
    assert SquaredExponential(Euclidean(2), 0.5).rho_prime_0() == -2.0
    model = SphereSchoenberg(Sphere(2, 1.0), (0.0, 0.0, 1.0))
    assert model.rho_prime_0() == -1.0
    assert model.second_spectral_moment() == 2.0


def test_schoenberg_validation():
    s2 = Sphere(2, 1.0)
    with pytest.raises(ValidationError):
        SphereSchoenberg(FlatTorus((1.0, 1.0)), (0.5, 0.5))
    with pytest.raises(ValidationError):
        SphereSchoenberg(s2, (0.7, -0.2, 0.5))
    with pytest.raises(ValidationError):
        SphereSchoenberg(s2, (0.2, 0.2))
    with pytest.raises(DegenerateModelError):
        SphereSchoenberg(s2, (1.0,))
    with pytest.raises(ValidationError):
        SphereSchoenberg(s2, ())
    # rho'(0) = -1 / (4 r^2) past the float range either way.
    for radius in (1e160, 1e-200):
        with pytest.raises(ValidationError, match="radius"):
            SphereSchoenberg(Sphere(2, radius), (0.5, 0.5))


# Coefficient tuples with zero terms, up to degree 8; the first is the
# kernel the sphere benchmark samples.
FEATURE_COEFFICIENTS = [
    (0.2, 0.3, 0.3, 0.2),
    (0.0, 1.0),
    (0.5, 0.0, 0.5),
    (0.0, 0.25, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0, 0.5),
    (1.0 / 9.0,) * 9,
]


def _feature_point_sets():
    s1, s2 = Sphere(1, 1.0), Sphere(2, 2.5)
    circle = np.column_stack([np.full(40, math.pi / 2), np.linspace(0.0, 6.0, 40)])
    return [
        pytest.param(s1, random_coords(s1, 40, 1), id="S1"),
        pytest.param(s2, random_coords(s2, 60, 2), id="S2"),
        pytest.param(s2, circle, id="great-circle"),
    ]


@pytest.mark.parametrize("coefficients", FEATURE_COEFFICIENTS)
@pytest.mark.parametrize("sphere, coords", _feature_point_sets())
def test_schoenberg_features_reconstruct_the_covariance(sphere, coords, coefficients):
    model = SphereSchoenberg(sphere, coefficients)
    # Monomials of degree n in N + 1 variables: n + 1 on S^1, and
    # (n + 1)(n + 2) / 2 on S^2.
    per_degree = (lambda n: n + 1) if sphere.dim == 1 else (lambda n: (n + 1) * (n + 2) // 2)
    rank = sum(per_degree(n) for n, b in enumerate(coefficients) if b > 0)
    assert model.feature_count() == rank
    for chart in sphere.charts:
        features = model.features(chart, coords)
        assert features.shape == (len(coords), rank)
        cov = model.covariance_matrix(chart, coords)
        assert np.abs(features @ features.T - cov).max() <= 1e-13, chart
        # Each row is its own point's: a subset's rows are the same floats.
        subset = coords[::3]
        assert np.array_equal(model.features(chart, subset), features[::3])


def test_schoenberg_feature_count_of_the_benchmark_kernel():
    assert SphereSchoenberg(Sphere(2, 1.0), (0.2, 0.3, 0.3, 0.2)).feature_count() == 20
    assert SphereSchoenberg(Sphere(1, 1.0), (0.2, 0.3, 0.3, 0.2)).feature_count() == 10
    with pytest.raises(ValidationError, match="coordinate array"):
        SphereSchoenberg(Sphere(2, 1.0), (0.5, 0.5)).features("north", np.zeros((3, 1)))


def test_model_parameter_validation():
    e2 = Euclidean(2)
    with pytest.raises(ValidationError):
        SquaredExponential(e2, 0.0)
    # rho'(0) = -1 / (2 l^2): l^2 overflows, or l^2 underflows to 0 or a
    # subnormal whose reciprocal is inf.
    for ell in (1e160, 1e-200, 1e-160):
        with pytest.raises(ValidationError, match="length scale"):
            SquaredExponential(e2, ell)
    with pytest.raises(ValidationError):
        PoweredExponential(e2, -1.0, 1.0)
    with pytest.raises(ValidationError):
        PoweredExponential(e2, 1.0, 2.5)
    with pytest.raises(ValidationError):
        PoweredExponential(Sphere(2, 1.0), 1.0, 1.5)
    with pytest.raises(ValidationError):
        LocallyIsotropicModel(c=1.0, alpha=0.0, manifold=e2)
    with pytest.raises(TypeError):
        PoweredExponential(e2, 1.0, 1.0, full_model=SquaredExponential(e2, 1.0))
    # A full covariance on another manifold would measure unwrapped
    # distances on a torus: at (0, 0) and (5/6, 0), 0.249 for 0.946.
    with pytest.raises(ManifoldMismatchError):
        LocallyIsotropicModel(
            FlatTorus((1.0, 1.0)), 2.0, 2.0, full_model=SquaredExponential(e2, 0.5)
        )


def test_bare_local_model_cannot_be_evaluated():
    e2 = Euclidean(2)
    bare = LocallyIsotropicModel(c=2.0, alpha=1.5, manifold=e2)
    assert local_expansion(bare) == (2.0, 1.5)
    with pytest.raises(ValidationError):
        bare.covariance(e2.point(0.0, 0.0), e2.point(1.0, 0.0))


def test_local_expansion_echo_and_conversion():
    e2 = Euclidean(2)
    assert local_expansion(PoweredExponential(e2, 1.0, 1.0)) == (1.0, 1.0)
    assert local_expansion(PoweredExponential(e2, 0.5, 1.5)) == (0.5, 1.5)
    smooth = SquaredExponential(e2, 2.0)
    c, alpha = local_expansion(smooth)
    assert alpha == 2.0
    assert c == pytest.approx(1.0 / 8.0, rel=1e-15)
    assert c == -smooth.rho_prime_0()
    converted = smooth.local_model()
    assert converted.local_expansion() == (c, alpha)
    # The attached covariance is the original kernel, bit for bit in
    # every evaluation method; the sphere's matrix is one symmetric
    # product, which holds only if the table hook gets ``b is a``.
    p, q = e2.point(0.0, 0.0), e2.point(0.3, 0.4)
    assert converted.covariance(p, q) == smooth.covariance(p, q)
    schoenberg = SphereSchoenberg(Sphere(2, 1.0), (0.2, 0.3, 0.3, 0.2))
    for model in (smooth, schoenberg):
        local = model.local_model()
        chart = model.manifold.charts[0]
        coords = random_coords(model.manifold, 40, 5)
        a, b = coords[:7], coords[7:]
        table = local.covariance_table(chart, a, b)
        assert np.array_equal(table, model.covariance_table(chart, a, b))
        matrix = local.covariance_matrix(chart, coords)
        assert np.array_equal(matrix, model.covariance_matrix(chart, coords))
        assert np.array_equal(matrix, matrix.T)


def test_expansion_ratio_near_one():
    e1 = Euclidean(1)
    model = PoweredExponential(e1, 1.0, 1.0)
    p = e1.point(0.0)
    (ratio,) = expansion_ratio_check(model, p, [e1.point(1e-6)])
    assert abs(ratio - 1.0) <= 1e-6

    smooth = SquaredExponential(e1, 1.0).local_model()
    (ratio,) = expansion_ratio_check(smooth, p, [e1.point(1e-3)])
    assert abs(ratio - 1.0) <= 1e-6


def test_expansion_ratio_deterministic_and_guarded():
    e1 = Euclidean(1)
    model = PoweredExponential(e1, 0.7, 1.3)
    p = e1.point(0.0)
    q = e1.point(0.25)
    ratios = expansion_ratio_check(model, p, [q, q, q])
    assert ratios[0] == ratios[1] == ratios[2]
    with pytest.raises(ValidationError):
        expansion_ratio_check(model, p, [e1.point(0.0)])


def test_covariance_symmetric_to_the_bit():
    rng = np.random.default_rng(21)
    for _, model in PSD_MODELS:
        m = model.manifold
        chart = m.charts[0]
        a, b = random_coords(m, 2, rng.integers(2**31))
        p, q = m.point(*a, chart=chart), m.point(*b, chart=chart)
        assert model.covariance(p, q) == model.covariance(q, p)


def test_covariance_matrix_symmetric_unit_diagonal():
    model = SquaredExponential(Euclidean(2), 0.7)
    coords = random_coords(model.manifold, 8, 9)
    mat = model.covariance_matrix("main", coords)
    assert np.array_equal(mat, mat.T)
    assert np.array_equal(np.diag(mat), np.ones(8))


DISTANCE_FAMILIES = [
    ("sqexp", SquaredExponential(Euclidean(2), 0.5)),
    ("schoenberg", SphereSchoenberg(Sphere(2, 1.0), (0.2, 0.5, 0.3))),
    (
        "local-with-full-model",
        LocallyIsotropicModel(
            Euclidean(2), 2.0, 2.0, full_model=SquaredExponential(Euclidean(2), 0.5)
        ),
    ),
    ("powexp", PoweredExponential(FlatTorus((1.0,)), 1.0, 1.0)),
    ("stable", StableOnChart(FlatTorus((1.0, 1.0)), 1.0, 1.5)),
]


@pytest.mark.parametrize(
    "label,model", DISTANCE_FAMILIES, ids=[x[0] for x in DISTANCE_FAMILIES]
)
def test_correlation_from_distance_leaves_its_argument(label, model):
    # The matrix build runs each kernel in the distance buffer; the
    # public method must not do that to its caller's array.
    d = np.linspace(0.0, 1.5, 40).reshape(5, 8)
    before = d.copy()
    values = model.correlation_from_distance(d)
    assert np.array_equal(d, before)
    assert values.shape == d.shape and values[0, 0] == 1.0
    assert np.all(values[d > 0] < 1.0)
    scalar = model.correlation_from_distance(float(d[1, 3]))
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(values[1, 3], rel=1e-15)


def test_covariance_depends_only_on_distance():
    # Isotropic families: pairs at one geodesic separation, any
    # placement or orientation, give one covariance value.
    s2 = Sphere(2, 1.0)
    model = SphereSchoenberg(s2, (0.2, 0.5, 0.3))
    equator_pair = (s2.point(math.pi / 2, 0.3), s2.point(math.pi / 2, 1.0))
    meridian_pair = (s2.point(0.9, 2.0), s2.point(0.2, 2.0))
    assert s2.geodesic_distance(*equator_pair) == pytest.approx(
        s2.geodesic_distance(*meridian_pair), rel=1e-12
    )
    assert model.covariance(*equator_pair) == pytest.approx(
        model.covariance(*meridian_pair), abs=1e-12
    )

    e2 = Euclidean(2)
    sq = SquaredExponential(e2, 0.8)
    v1 = sq.covariance(e2.point(0.0, 0.0), e2.point(0.3, 0.4))
    v2 = sq.covariance(e2.point(5.0, 5.0), e2.point(5.5, 5.0))
    assert v1 == pytest.approx(v2, abs=1e-12)

    t1 = FlatTorus((1.0,))
    pw = PoweredExponential(t1, 1.0, 1.0)
    v1 = pw.covariance(t1.point(0.05), t1.point(0.25))
    v2 = pw.covariance(t1.point(0.9), t1.point(0.1))
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_stable_equals_powered_on_euclidean():
    e2 = Euclidean(2)
    stable = StableOnChart(e2, 0.8, 1.4)
    powered = PoweredExponential(e2, 0.8, 1.4)
    p, q = e2.point(0.1, 0.9), e2.point(0.7, 0.2)
    # Same kernel; the distances come off different norm code paths.
    assert stable.covariance(p, q) == pytest.approx(powered.covariance(p, q), rel=1e-15)


def test_derivative_identity_on_torus():
    # Mixed second difference of C at the diagonal recovers the
    # second-moment matrix -2 rho'(0) I.
    t2 = FlatTorus((1.0, 1.0))
    model = SquaredExponential(t2, 0.5)
    lam = model.second_spectral_moment()
    x = np.array([0.3, 0.7])
    h = 1e-4

    def cov_at(dx, dy):
        p = t2.point(*(x + dx))
        q = t2.point(*(x + dy))
        return model.covariance(p, q)

    for i in range(2):
        for j in range(2):
            ei = np.eye(2)[i] * h
            ej = np.eye(2)[j] * h
            mixed = (
                cov_at(ei, ej) - cov_at(ei, -ej) - cov_at(-ei, ej) + cov_at(-ei, -ej)
            ) / (4.0 * h * h)
            expected = lam if i == j else 0.0
            assert mixed == pytest.approx(expected, abs=1e-4 * lam)
