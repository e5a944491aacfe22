"""Brute-force oracle pipeline: grids, sampling, intervals, reports."""

import math
import re

import numpy as np
import pytest

from _oracles import value_matching_refine
from excursion import validation
from excursion.approximations import eec_approx, pickands_approx
from excursion.covariance import (
    LocallyIsotropicModel,
    PoweredExponential,
    SphereSchoenberg,
    SquaredExponential,
    StableOnChart,
)
from excursion.curvatures import Ball, FullSphere, FullTorus, GreatCircle, Rectangle
from excursion.errors import FactorizationError, UnsupportedShapeError, ValidationError
from excursion.manifolds import Euclidean, FlatTorus, Sphere
from excursion.sampling import FeatureFactor, draw_in_batches, factor_covariance
from excursion.validation import (
    Grid,
    Z95,
    build_grid,
    compare_report,
    empirical_excursion,
    estimates_from_sups,
    sample_field,
    wilson_interval,
)

PSI_1 = 0.15865525393145707


def test_z95_quantile():
    assert Z95 == pytest.approx(1.959963984540054, rel=1e-15)


def test_wilson_against_exact_arithmetic():
    # Oracle evaluated in exact rational arithmetic, rounded once.
    low, high = wilson_interval(50, 1000)
    assert low == pytest.approx(0.03813026239274881, rel=1e-14)
    assert high == pytest.approx(0.0653138202442508, rel=1e-14)


def test_wilson_boundaries_clamped():
    low, high = wilson_interval(0, 100)
    assert 0.0 <= low <= 1e-15
    assert high > 0.0
    low, high = wilson_interval(100, 100)
    assert high == 1.0
    assert low < 1.0
    for count, n in [(0, 5), (3, 7), (250, 300)]:
        low, high = wilson_interval(count, n)
        assert 0.0 <= low <= count / n <= high <= 1.0


def test_wilson_validation():
    with pytest.raises(ValidationError):
        wilson_interval(5, 0)
    with pytest.raises(ValidationError):
        wilson_interval(-1, 10)
    with pytest.raises(ValidationError):
        wilson_interval(11, 10)


def test_grid_counts_and_spacing():
    g = build_grid(FullTorus((1.0, 1.0)), 50)
    assert len(g) == 2500
    assert g.chart == "main"
    # Torus pitch is period/resolution with no duplicate seam point.
    assert g.coords[:, 0].max() == pytest.approx(1.0 - 1.0 / 50, rel=1e-12)
    small = build_grid(FullTorus((1.0, 1.0)), 10)
    assert 4 * len(small) == len(build_grid(FullTorus((1.0, 1.0)), 20))

    r = build_grid(Rectangle((1.0, 2.0)), 3)
    assert len(r) == 9
    assert r.coords[:, 0].max() == 1.0
    assert r.coords[:, 1].max() == 2.0


def test_grid_sphere_avoids_poles():
    g = build_grid(FullSphere(2, 1.0), 24)
    thetas = g.coords[:, 0]
    pitch = math.pi / 24
    assert thetas.min() == pytest.approx(pitch / 2, rel=1e-12)
    assert thetas.max() == pytest.approx(math.pi - pitch / 2, rel=1e-12)
    circle = build_grid(GreatCircle(1.0), 8)
    assert len(circle) == 8
    assert np.all(circle.coords[:, 0] == math.pi / 2)


def test_grid_guards():
    for resolution in (1, True, math.nan, math.inf, 10.0):
        with pytest.raises(ValidationError, match="^resolution must"):
            build_grid(FullTorus((1.0, 1.0)), resolution)
    with pytest.raises(ValidationError):
        build_grid(FullTorus((1.0, 1.0)), 101)
    assert len(build_grid(FullTorus((1.0, 1.0)), 100)) == 10_000
    with pytest.raises(UnsupportedShapeError):
        build_grid(Ball(2, 1.0), 10)
    with pytest.raises(UnsupportedShapeError):
        build_grid(FullSphere(3, 1.0), 5)


def test_grid_refinement_keeps_parent_prefix():
    # fine_res: the grid the refined point set equals (None: the 2-sphere,
    # whose refinement is the union of the R and 2R grids).
    for domain, res, fine_res in [
        (FullTorus((1.0, 1.0)), 6, 12),
        (FullTorus((1.0, 2.5, 0.7)), 3, 6),
        (Rectangle((1.0, 2.0)), 5, 9),
        (Rectangle((0.7, 3.0, 1.3)), 3, 5),
        (GreatCircle(1.0), 8, 16),
        (FullSphere(1, 1.0), 5, 10),
        (FullSphere(2, 1.0), 6, None),
    ]:
        coarse = build_grid(domain, res)
        fine = coarse.refine()
        assert len(fine) > len(coarse)
        assert np.array_equal(fine.coords[: len(coarse)], coarse.coords)
        # No coordinate row may appear twice after refinement.
        assert len(np.unique(fine.coords, axis=0)) == len(fine)
        # The point set a refined run samples is the one its resolution
        # label names.
        if fine_res is not None:
            assert fine.resolution == fine_res
            target = build_grid(domain, fine_res).coords
            assert np.array_equal(np.unique(fine.coords, axis=0), np.unique(target, axis=0))


def test_torus_grids_carry_their_lattice():
    # On built and twice-refined flat tori, point j sits bit for bit at
    # lattice index lattice[j], unravelled, times P_k / R, and the index
    # covers the R^k lattice once.  No other grid carries one.
    for periods, side in (((0.7,), 5), ((1.0, 2.5), 3), ((1.0, 0.7, 3.0), 2)):
        grid = build_grid(FullTorus(periods), side)
        for _ in range(3):
            shape = (grid.resolution,) * len(periods)
            steps = np.unravel_index(grid.lattice, shape)
            pitch = [p / grid.resolution for p in periods]
            expected = np.stack([i * h for i, h in zip(steps, pitch)], axis=-1)
            assert np.array_equal(grid.coords, expected), (periods, shape)
            assert np.array_equal(np.sort(grid.lattice), np.arange(math.prod(shape)))
            grid = grid.refine()
    for domain, res in [
        (Rectangle((1.0, 2.0)), 4),
        (FullSphere(2, 1.0), 4),
        (FullSphere(1, 1.0), 6),
        (GreatCircle(1.0), 6),
    ]:
        grid = build_grid(domain, res)
        assert grid.lattice is None and grid.refine().lattice is None


def test_refine_matches_value_matching_oracle():
    # refine takes its new points by index; the oracle finds them by
    # matching coordinates.  On every built grid of the sweep, one and two
    # refinements agree bit for bit in points, order, lattice and
    # resolution, and are refused with the same message.
    domains = [
        FullTorus((1.0,)),
        FullTorus((1.0, 1.0)),
        FullTorus((0.7, 3.0)),
        FullTorus((1.0, 2.5, 0.7)),
        Rectangle((1.0,)),
        Rectangle((1.0, 2.0)),
        Rectangle((0.7, 3.0, 1.3)),
        FullSphere(1, 1.0),
        FullSphere(1, 2.0),
        FullSphere(2, 1.0),
        GreatCircle(1.0),
        GreatCircle(2.5),
    ]
    for domain in domains:
        for res in range(2, 41):
            try:
                grid = build_grid(domain, res)
            except ValidationError:
                continue
            for depth in (1, 2):
                try:
                    expected = value_matching_refine(grid)
                except ValidationError as err:
                    with pytest.raises(ValidationError, match=re.escape(str(err))):
                        grid.refine()
                    break
                grid = grid.refine()
                where = (domain, res, depth)
                assert grid.resolution == expected.resolution, where
                assert grid.chart == expected.chart, where
                assert np.array_equal(grid.coords, expected.coords), where
                if expected.lattice is None:
                    assert grid.lattice is None, where
                else:
                    assert np.array_equal(grid.lattice, expected.lattice), where


def test_refinement_over_the_budget_is_refused():
    # The 44 and 88 latitude grids fit the budget, their union of
    # 2,464 + 9,864 = 12,328 points does not.
    coarse = build_grid(FullSphere(2, 1.0), 44)
    assert len(coarse) == 2464
    with pytest.raises(ValidationError, match="grid would have 12328 points"):
        coarse.refine()


def test_single_point_grid_matches_marginal():
    model = PoweredExponential(FlatTorus((1.0,)), 1.0, 1.0)
    grid = Grid(domain=FullTorus((1.0,)), chart="main", coords=np.array([[0.0]]), resolution=1)
    sups = sample_field(model, grid, 10_000, 17)
    p = float(np.mean(sups >= 1.0))
    se = math.sqrt(PSI_1 * (1.0 - PSI_1) / 10_000)
    assert abs(p - PSI_1) <= 3.0 * se


def test_duplicate_point_grid_matches_single_point():
    # A zero-separation duplicate adds a jittered but fully correlated
    # coordinate; the sup distribution stays that of one point.
    model = PoweredExponential(FlatTorus((1.0,)), 1.0, 1.0)
    single = Grid(domain=FullTorus((1.0,)), chart="main", coords=np.array([[0.0]]), resolution=1)
    double = Grid(
        domain=FullTorus((1.0,)), chart="main", coords=np.array([[0.0], [0.0]]), resolution=1
    )
    p1 = float(np.mean(sample_field(model, single, 10_000, 17) >= 1.0))
    p2 = float(np.mean(sample_field(model, double, 10_000, 18) >= 1.0))
    se = math.sqrt(2.0) * math.sqrt(PSI_1 * (1.0 - PSI_1) / 10_000)
    assert abs(p2 - p1) <= 3.0 * se


def test_sampled_field_reproduces_covariance():
    model = SquaredExponential(Euclidean(2), 0.3)
    grid = build_grid(Rectangle((1.0, 1.0)), 20)
    cov = model.covariance_matrix(grid.chart, grid.coords)
    factor, _ = factor_covariance(cov)
    pair = []
    for _, block in draw_in_batches(factor, 20_000, 23):
        pair.append(block[[0, 25], :])
    sample_corr = float(np.corrcoef(np.hstack(pair))[0, 1])
    assert abs(sample_corr - cov[0, 25]) <= 0.02


def test_sample_field_rejects_indefinite_kernel():
    model = SquaredExponential(FlatTorus((1.0, 1.0)), 1.0)
    grid = build_grid(FullTorus((1.0, 1.0)), 8)
    with pytest.raises(FactorizationError):
        sample_field(model, grid, 10, 0)


def test_bad_seed_refused_before_the_covariance_is_built(monkeypatch):
    # At resolution 60 the covariance is 3600 x 3600: the seed is checked
    # beside the replication count, before it is built and factorized.
    # The 60 x 60 lattice takes the circulant path, which builds one row;
    # every path reads the covariance through ``covariance_table``.
    # A bool is no count: True is refused as a replication count and as
    # a prefix, not read as 1.
    def unreachable(*args):
        raise AssertionError("the covariance was built before the seed was checked")

    monkeypatch.setattr(StableOnChart, "covariance_table", unreachable)
    stable = StableOnChart(FlatTorus((1.0, 1.0)), 1.0, 1.0)
    for seed in (-1, 2**64, 1.5, True):
        with pytest.raises(ValidationError, match="seed"):
            empirical_excursion(stable, FullTorus((1.0, 1.0)), [2.0], 60, 1000, seed)
    grid = build_grid(FullTorus((1.0, 1.0)), 60)
    with pytest.raises(ValidationError, match="replication count"):
        sample_field(stable, grid, True, 0)
    with pytest.raises(ValidationError, match="prefix"):
        sample_field(stable, grid, 10, 0, prefix=True)


def test_refinement_monotonicity_with_shared_replications():
    stable = StableOnChart(FlatTorus((1.0, 1.0)), 1.0, 2.0)
    coarse_grid = build_grid(FullTorus((1.0, 1.0)), 6)
    fine_grid = coarse_grid.refine()
    u_grid = [0.5, 1.0, 1.5, 2.0]

    # Structural half: within one fine run the coarse-prefix maximum
    # can never beat the full-grid maximum, replication by replication.
    cov = stable.covariance_matrix(fine_grid.chart, fine_grid.coords)
    factor, _ = factor_covariance(cov, shift=1e-10)
    n_coarse = len(coarse_grid)
    for _, block in draw_in_batches(factor, 1000, 11):
        assert np.all(block[:n_coarse].max(axis=0) <= block.max(axis=0))

    # End-to-end half: independent coarse and fine runs under matched
    # seeds; values frozen from a verified run.
    sc = sample_field(stable, coarse_grid, 5000, 11, fixed_rel_jitter=1e-10)
    sf = sample_field(stable, fine_grid, 5000, 11, fixed_rel_jitter=1e-10)
    pc = [float(np.mean(sc >= u)) for u in u_grid]
    pf = [float(np.mean(sf >= u)) for u in u_grid]
    assert pc == pytest.approx([0.5088, 0.3058, 0.1552, 0.0594], abs=1e-12)
    assert pf == pytest.approx([0.5184, 0.3136, 0.1604, 0.0634], abs=1e-12)
    assert all(a <= b for a, b in zip(pc, pf))

    # One pass with the coarse grid as prefix gives both samples: the fine
    # one exactly, the coarse one up to rounding in the factorization,
    # which the shared shift keeps small.  The largest gap measured was
    # 6.0e-11; the bound leaves a margin of about 17x and still sits far
    # below the 2.3e-7 of the ladder, whose shifts differ (0 coarse,
    # 1e-12 fine).
    both = sample_field(
        stable, fine_grid, 5000, 11, prefix=len(coarse_grid), fixed_rel_jitter=1e-10
    )
    assert np.array_equal(both[0], sf)
    np.testing.assert_allclose(both[1], sc, rtol=0.0, atol=1e-9)
    assert [float(np.mean(both[1] >= u)) for u in u_grid] == pc
    assert np.all(both[1] <= both[0])
    for prefix in (0, len(fine_grid) + 1):
        with pytest.raises(ValidationError, match="prefix"):
            sample_field(stable, fine_grid, 10, 11, prefix=prefix)


def test_bonferroni_over_quarter_squares():
    stable = StableOnChart(FlatTorus((1.0, 1.0)), 1.0, 2.0)
    full = sample_field(stable, build_grid(FullTorus((1.0, 1.0)), 12), 3000, 31)
    quarter_base = build_grid(Rectangle((0.5, 0.5)), 7).coords
    quarters = []
    for k, offset in enumerate([(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)]):
        qg = Grid(
            domain=FullTorus((1.0, 1.0)),
            chart="main",
            coords=quarter_base + np.array(offset),
            resolution=7,
        )
        quarters.append(sample_field(stable, qg, 3000, 41 + k))
    for u in (0.5, 1.0, 1.5, 2.0):
        p_full = float(np.mean(full >= u))
        p_parts = [float(np.mean(q >= u)) for q in quarters]
        se_full = math.sqrt(max(p_full * (1 - p_full), 1e-9) / 3000)
        se_sum = math.sqrt(sum(max(p * (1 - p), 1e-9) / 3000 for p in p_parts))
        slack = 2.0 * math.hypot(se_full, se_sum)
        assert p_full <= sum(p_parts) + slack


def test_estimates_share_one_sample_set():
    sups = np.array([0.2, 1.1, 2.5, 0.9, 3.0, -0.5])
    out = estimates_from_sups(sups, [0.0, 1.0, 2.0], resolution=2, seed=9)
    assert [e.p_hat for e in out] == [5 / 6, 3 / 6, 2 / 6]
    for e in out:
        assert e.ci_low <= e.p_hat <= e.ci_high
        assert e.seed == 9
    p_hats = [e.p_hat for e in out]
    assert all(b <= a for a, b in zip(p_hats, p_hats[1:]))
    with pytest.raises(ValidationError):
        estimates_from_sups(sups, [math.inf], resolution=2, seed=9)


def test_empirical_excursion_deterministic():
    model = StableOnChart(FlatTorus((1.0, 1.0)), 1.0, 2.0)
    domain = FullTorus((1.0, 1.0))
    a = empirical_excursion(model, domain, [1.0, 2.0], 5, 500, 3)
    b = empirical_excursion(model, domain, [1.0, 2.0], 5, 500, 3)
    assert a == b
    assert all(x.resolution == 5 and x.reps == 500 for x in a)


def test_compare_report_rows():
    torus = FlatTorus((1.0, 1.0))
    model = StableOnChart(torus, 1.0, 2.0)
    domain = FullTorus((1.0, 1.0))
    u_grid = [1.0, 2.0]
    analytic = [pickands_approx(model, domain, u, 1.0 / math.pi, "exact") for u in u_grid]
    empirical = empirical_excursion(model, domain, u_grid, 5, 500, 3)
    table = compare_report(analytic, empirical)
    assert len(table.rows) == 2
    for row, approx, mc in zip(table.rows, analytic, empirical):
        assert row.u == approx.u
        assert row.analytic_total == approx.total
        assert row.p_hat == mc.p_hat
        assert row.within_ci == (mc.ci_low <= approx.total <= mc.ci_high)
        if mc.p_hat > 0:
            assert row.ratio == approx.total / mc.p_hat
        else:
            assert row.ratio is None


def test_compare_report_guards_and_empty():
    torus = FlatTorus((1.0, 1.0))
    model = StableOnChart(torus, 1.0, 2.0)
    domain = FullTorus((1.0, 1.0))
    empty = compare_report([], [])
    assert empty.rows == ()
    analytic = [pickands_approx(model, domain, 1.0, 1.0 / math.pi, "exact")]
    empirical = empirical_excursion(model, domain, [1.0, 2.0], 5, 500, 3)
    with pytest.raises(ValidationError):
        compare_report(analytic, empirical)
    with pytest.raises(ValidationError):
        compare_report(analytic, [empirical[1]])


def test_comparison_csv_shape():
    torus = FlatTorus((1.0, 1.0))
    model = StableOnChart(torus, 1.0, 2.0)
    domain = FullTorus((1.0, 1.0))
    u_grid = [1.0, 9.0]
    analytic = [pickands_approx(model, domain, u, 1.0 / math.pi, "exact") for u in u_grid]
    empirical = empirical_excursion(model, domain, u_grid, 5, 500, 3)
    csv = compare_report(analytic, empirical).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "u,analytic_total,p_hat,ci_low,ci_high,ratio,within_ci,resolution,reps,seed"
    assert len(lines) == 3
    # No sup reaches u = 9 in 500 draws: p_hat 0 leaves an empty ratio.
    last = lines[2].split(",")
    assert last[2] == "0"
    assert last[5] == ""


def test_eec_route_through_comparison():
    # The smooth route plugs into the same report machinery.
    model = StableOnChart(FlatTorus((1.0, 1.0)), 0.5, 2.0)
    smooth = SquaredExponential(Euclidean(2), 1.0)
    analytic = [eec_approx(smooth, Rectangle((1.0, 1.0)), 2.0)]
    empirical = empirical_excursion(model, FullTorus((1.0, 1.0)), [2.0], 5, 500, 3)
    table = compare_report(analytic, empirical)
    assert table.rows[0].analytic_total == analytic[0].total


# The sphere benchmark's kernel and grids: degree 3 on S^2 has 20
# features, fewer than half the 46 points of R = 6 and the 230 of its
# refinement, so both take the feature path.
S2 = Sphere(2, 1.0)
CUBIC = SphereSchoenberg(S2, (0.2, 0.3, 0.3, 0.2))


def _no_covariance_matrix(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a feature-path input reached the dense covariance")

    monkeypatch.setattr(SphereSchoenberg, "covariance_matrix", unreachable)
    monkeypatch.setattr(validation, "factor_covariance", unreachable)


def _dense_sups(model, grid, reps, seed, **kwargs):
    cov = model.covariance_matrix(grid.chart, grid.coords)
    # A grid covariance has a unit diagonal: the relative jitter is the shift.
    factor, _ = factor_covariance(cov, shift=kwargs.get("fixed_rel_jitter"))
    return np.concatenate([b.max(axis=0) for _, b in draw_in_batches(factor, reps, seed)])


def test_feature_path_agrees_with_dense_in_distribution(monkeypatch):
    coarse = build_grid(FullSphere(2, 1.0), 6)
    grid = coarse.refine()
    reps = 8000
    factor, _ = factor_covariance(CUBIC.covariance_matrix(grid.chart, grid.coords))
    blocks = [b for _, b in draw_in_batches(factor, reps, 71)]
    dense = [np.concatenate([b[:m].max(axis=0) for b in blocks]) for m in (len(grid), len(coarse))]
    _no_covariance_matrix(monkeypatch)
    sups = sample_field(CUBIC, grid, reps, 72, prefix=len(coarse))
    for expected, got in zip(dense, sups):
        for u in (2.0, 2.5, 3.0):
            p_dense, p_features = float(np.mean(expected >= u)), float(np.mean(got >= u))
            pooled = 0.5 * (p_dense + p_features)
            se = math.sqrt(2.0 * pooled * (1.0 - pooled) / reps)
            assert abs(p_features - p_dense) <= 4.0 * se, u


@pytest.mark.parametrize(
    "domain, resolution",
    [(FullSphere(2, 1.0), 6), (FullSphere(2, 1.0), 9), (GreatCircle(1.0), 48)],
)
def test_feature_path_restricts_across_runs(monkeypatch, domain, resolution):
    # Feature rows depend only on their own point, so a standalone run on
    # the coarse grid is the prefix row of a run on its refinement, up to
    # the rounding of an r-term dot product in GEMMs of other heights.
    _no_covariance_matrix(monkeypatch)
    coarse = build_grid(domain, resolution)
    assert CUBIC.feature_count() < validation.FEATURE_MAX_SHARE * len(coarse)
    alone = sample_field(CUBIC, coarse, 1100, 13)
    both = sample_field(CUBIC, coarse.refine(), 1100, 13, prefix=len(coarse))
    np.testing.assert_allclose(both[1], alone, rtol=1e-14, atol=0.0)
    assert np.all(both[1] <= both[0])


def test_feature_path_runs_extend_and_replay(monkeypatch):
    _no_covariance_matrix(monkeypatch)
    grid = build_grid(FullSphere(2, 1.0), 6).refine()
    short = sample_field(CUBIC, grid, 1000, 5, prefix=46)
    long = sample_field(CUBIC, grid, 1600, 5, prefix=46)
    assert np.array_equal(long[:, :1000], short)
    assert np.array_equal(sample_field(CUBIC, grid, 1000, 5, prefix=46), short)


def _dense_side_cases():
    degree8 = SphereSchoenberg(S2, (0.5,) + (0.0,) * 7 + (0.5,))
    circle_cubic = SphereSchoenberg(Sphere(1, 1.0), (0.2, 0.3, 0.3, 0.2))
    return [
        # 1 + 45 features against 12 points.
        pytest.param(degree8, build_grid(FullSphere(2, 1.0), 3), {}, id="degree-8-R3"),
        # 10 features on 20 points: r = n / 2 stays dense.
        pytest.param(circle_cubic, build_grid(FullSphere(1, 1.0), 20), {}, id="r-is-half-n"),
        # A fixed jitter asks for the shifted dense factor.
        pytest.param(
            CUBIC, build_grid(FullSphere(2, 1.0), 6), {"fixed_rel_jitter": 1e-10}, id="fixed-jitter"
        ),
    ]


@pytest.mark.parametrize("model, grid, kwargs", _dense_side_cases())
def test_feature_rule_keeps_the_dense_factor(monkeypatch, model, grid, kwargs):
    expected = _dense_sups(model, grid, 600, 9, **kwargs)

    def unreachable(*args, **kwargs):
        raise AssertionError("features were built off the selection rule")

    monkeypatch.setattr(SphereSchoenberg, "features", unreachable)
    assert np.array_equal(sample_field(model, grid, 600, 9, **kwargs), expected)


def test_feature_rule_admits_one_point_past_twice_the_features(monkeypatch):
    # 21 points against 10 features; at 20 points the case above stays dense.
    model = SphereSchoenberg(Sphere(1, 1.0), (0.2, 0.3, 0.3, 0.2))
    grid = build_grid(FullSphere(1, 1.0), 21)
    factor = FeatureFactor(model.features(grid.chart, grid.coords))
    expected = np.concatenate([b.max(axis=0) for _, b in draw_in_batches(factor, 600, 9)])
    _no_covariance_matrix(monkeypatch)
    assert np.array_equal(sample_field(model, grid, 600, 9), expected)
