"""Drifted-field simulation and the two estimators for H_{alpha, N}."""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from _oracles import axis_swap, pickands_window_alpha2
from excursion import pickands
from excursion.errors import ValidationError
from excursion.pickands import (
    cube_lattice,
    estimate_pickands,
    estimate_pickands_dy,
    resolve_constant,
    simulate_z,
)
from excursion.sampling import (
    ROW_BLOCK,
    DenseFactor,
    PairedFactor,
    TiltedFactor,
    draw_in_batches,
    factor_covariance,
)

INV_SQRT_PI = 1.0 / math.sqrt(math.pi)


def test_cube_lattice_layout():
    lat = cube_lattice(1, 1.0, 0.25)
    assert lat == pytest.approx(np.array([[0.0], [0.25], [0.5], [0.75], [1.0]]))
    lat2 = cube_lattice(2, 1.0, 0.5)
    assert lat2.shape == (9, 2)
    assert np.array_equal(lat2[0], [0.0, 0.0])
    # Lexicographic: the second axis varies fastest.
    assert np.array_equal(lat2[1], [0.0, 0.5])


def test_cube_lattice_keeps_the_last_layer():
    # 1.2 / 0.1 is 11.999999999999998 in floating point; a plain floor
    # would sample [0, 1.1] and still normalise by 1.2^-N.
    for side, steps in ((1.2, 12), (1.4, 14), (2.3, 23)):
        assert 0 < steps - side / 0.1 < 1e-12
        lat = cube_lattice(1, side, 0.1)
        assert lat.shape == (steps + 1, 1)
        assert lat[-1, 0] == pytest.approx(side, rel=1e-12)
    assert cube_lattice(2, 1.2, 0.1).shape == (13**2, 2)
    # Within 1e-9 relative of an integer the ratio snaps to it; farther
    # off it is floored.
    assert cube_lattice(1, 1.0, 1.0 / (3.0 - 1e-10)).shape == (4, 1)
    assert cube_lattice(1, 1.0, 1.0 / (3.0 - 1e-8)).shape == (3, 1)
    assert cube_lattice(1, 1.0, 0.3).shape == (4, 1)
    # The default windows are exact integers: their lattices are the
    # plain floor's, bit for bit.
    for n_dim, (side, spacing) in pickands._DEFAULT_WINDOW.items():
        per_axis = np.arange(math.floor(side / spacing) + 1) * spacing
        assert np.array_equal(cube_lattice(1, side, spacing)[:, 0], per_axis)


def test_cube_lattice_validation():
    with pytest.raises(ValidationError):
        cube_lattice(0, 1.0, 0.1)
    with pytest.raises(ValidationError):
        cube_lattice(1, 0.0, 0.1)
    with pytest.raises(ValidationError):
        cube_lattice(1, 1.0, 2.0)
    with pytest.raises(ValidationError):
        cube_lattice(1, 1.0, 0.0)


def test_z_is_pinned_at_origin():
    lattice = cube_lattice(2, 1.0, 0.5)
    for seed in range(5):
        z = simulate_z(1.2, 2, lattice, seed)
        assert z.shape == (9,)
        assert z[0] == 0.0


def test_origin_only_lattice_is_pinned_without_factorizing(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a lattice with no positive-variance point was factorized")

    monkeypatch.setattr(pickands, "factor_covariance", unreachable)
    assert np.array_equal(simulate_z(1.0, 1, [[0.0]], 0), [0.0])
    assert np.array_equal(simulate_z(1.5, 2, np.zeros((3, 2)), 7), np.zeros(3))


def test_z_moments_at_fixed_point():
    # Two-point lattice: origin pinned, one active point s = 0.8.
    s = 0.8
    alpha = 1.5
    lattice = np.array([[0.0], [s]])
    vals = np.array([simulate_z(alpha, 1, lattice, seed)[1] for seed in range(10_000)])
    drift = s**alpha
    assert vals.var(ddof=1) == pytest.approx(2.0 * drift, rel=0.05)
    stderr = vals.std(ddof=1) / 100.0
    assert abs(vals.mean() - (-drift)) <= 3.0 * stderr


def test_simulate_z_validation():
    lattice = cube_lattice(1, 1.0, 0.5)
    with pytest.raises(ValidationError):
        simulate_z(0.0, 1, lattice, 0)
    with pytest.raises(ValidationError):
        simulate_z(2.5, 1, lattice, 0)
    with pytest.raises(ValidationError):
        simulate_z(1.0, 2, lattice, 0)
    with pytest.raises(ValidationError):
        simulate_z(1.0, 1, np.array([[-0.5]]), 0)
    with pytest.raises(ValidationError):
        simulate_z(1.0, 1, np.empty((0, 1)), 0)
    with pytest.raises(ValidationError, match="seed"):
        simulate_z(1.0, 1, lattice, -1)


def test_estimator_preconditions(monkeypatch):
    # Every case must be refused before the lattice is factorized.
    def unreachable(*args):
        raise AssertionError("the lattice was factorized before the arguments were checked")

    monkeypatch.setattr(pickands, "_factor_w", unreachable)
    for estimate in (estimate_pickands, estimate_pickands_dy):
        for seed in (-1, 2**64, 1.5, True):
            with pytest.raises(ValidationError, match="seed"):
                estimate(1.0, 2, 4.0, 0.1, 10_000, seed)
        with pytest.raises(ValidationError):
            estimate(2.0, 1, 0.5, 0.05, 2000, 0)
        with pytest.raises(ValidationError):
            estimate(2.0, 1, 8.0, 0.3, 2000, 0)
        with pytest.raises(ValidationError):
            estimate(2.0, 1, 8.0, 0.05, 999, 0)
        with pytest.raises(ValidationError, match="replication count"):
            estimate(2.0, 1, 8.0, 0.05, 10**14, 0)


def test_estimator_deterministic_and_nonnegative():
    for estimate in (estimate_pickands, estimate_pickands_dy):
        a = estimate(1.5, 1, 2.0, 0.25, 1000, 3)
        b = estimate(1.5, 1, 2.0, 0.25, 1000, 3)
        assert a.estimate == b.estimate
        assert a.stderr == b.stderr
        assert a.estimate >= 0.0
        assert a.stderr >= 0.0
        c = estimate(1.5, 1, 2.0, 0.25, 1000, 4)
        assert c.estimate != a.estimate
    # a is now the Dieker-Yakir estimate: its per-replication ratio lies
    # in (0, spacing^-N].
    assert 0.0 < a.estimate <= 0.25**-1


def _window_lattice(n_dim, cube_side, spacing, centred):
    lattice = cube_lattice(n_dim, cube_side, spacing)
    if centred:
        lattice = lattice - spacing * (pickands._lattice_steps(cube_side, spacing) // 2)
    return lattice


def _single_and_paired(alpha, n_dim, cube_side, spacing, reps, seed):
    """(estimate, stderr) of the Dieker-Yakir ratio on the draws Z alone,
    and of the antithetic pair means with Z' = -2 drift - Z, rebuilt
    here from the draw blocks with the estimator's own arithmetic."""
    lattice = cube_lattice(n_dim, cube_side, spacing)
    lattice = lattice - spacing * (pickands._lattice_steps(cube_side, spacing) // 2)
    factor, active, drift = pickands._factor_w(alpha, lattice, mirror=axis_swap(lattice))
    drift = drift[active][:, None]
    single, paired = np.empty(reps), np.empty(reps)
    for start, block in draw_in_batches(factor, reps, seed):
        block *= math.sqrt(2.0)
        block -= drift
        cols = slice(start, start + block.shape[1])
        single[cols] = pickands._dy_ratio(block)
        np.subtract(-2.0 * drift, block, out=block)
        paired[cols] = 0.5 * (single[cols] + pickands._dy_ratio(block))
    norm = spacing ** (-n_dim)

    def summary(stats):
        return norm * float(np.mean(stats)), norm * float(np.std(stats, ddof=1)) / math.sqrt(reps)

    return summary(single), summary(paired)


def _tilted_window_values(alpha, n_dim, cube_side, spacing, reps, seed):
    """The window estimator's per-replication values, rebuilt here from
    tilted draw blocks of the factor of Cov(Z)."""
    lattice = cube_lattice(n_dim, cube_side, spacing)
    factor, active, drift = pickands._factor_w(alpha, lattice, of_z=True, mirror=axis_swap(lattice))
    drift = drift[active][:, None]
    tilted = TiltedFactor(factor, lattice.shape[0])
    blocks = draw_in_batches(tilted, reps, seed)
    return lattice.shape[0], np.concatenate(
        [pickands._tilted_window(block - drift, drift) for _, block in blocks]
    )


def test_estimates_frozen_below_the_row_block():
    # 33 lattice points, 32 factorized: below ROW_BLOCK the draws are the
    # plain dense product, and the statistic is taken in the draw
    # block's own buffer.  The Dieker-Yakir single-draw values were
    # recorded before either change; the estimator returns the
    # antithetic pair means of those same draws.  The window values were
    # recorded when that estimator moved to the tilted draws.
    a = estimate_pickands(1.0, 1, 8.0, 0.25, 1000, 3)
    assert (a.estimate, a.stderr) == (0.7158193262524728, 0.01143173543277373)
    single, paired = _single_and_paired(1.0, 1, 8.0, 0.25, 1000, 3)
    assert single == (0.7264490826566156, 0.008611392406921131)
    b = estimate_pickands_dy(1.0, 1, 8.0, 0.25, 1000, 3)
    assert (b.estimate, b.stderr) == paired


def _dense_rows(factor):
    """The factor as an n x n matrix: its product of the identity."""
    return factor.product(np.eye(len(factor)))


@pytest.mark.parametrize("alpha", [1.0, 2.0])
@pytest.mark.parametrize("centred", [False, True], ids=["window", "centred"])
@pytest.mark.parametrize(
    "n_dim,cube_side,spacing", [(2, 2.0, 0.25), (2, 1.4, 0.2), (3, 1.0, 0.25), (3, 1.0, 0.2)]
)
def test_paired_factor_reconstructs_the_covariance(
    monkeypatch, n_dim, cube_side, spacing, centred, alpha
):
    # Window and centred cube lattices at even (8, 4) and odd (7, 5)
    # step counts.  At alpha = 2 Cov(Z) has rank N, so neither block
    # factors unshifted: both must take one shift, the one F F^T adds.
    shifts = []

    def record(cov, **kwargs):
        factor, shift = factor_covariance(cov, **kwargs)
        shifts.append(shift)
        return factor, shift

    monkeypatch.setattr(pickands, "factor_covariance", record)
    lattice = _window_lattice(n_dim, cube_side, spacing, centred)
    factor, active, drift = pickands._factor_w(alpha, lattice, of_z=True, mirror=axis_swap(lattice))
    assert isinstance(factor, PairedFactor)
    # Every positive-variance point once, the pinned origin not at all.
    assert np.array_equal(np.sort(active), np.flatnonzero(drift > 0.0))
    # The kept factor's two blocks were the last two factored.
    shift = shifts[-1]
    assert shifts[-2] == shift and (shift > 0.0) == (alpha == 2.0)
    pts = lattice[active]
    gap = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)) ** alpha
    cov_z = drift[active][:, None] + drift[active][None, :] - gap
    rows = _dense_rows(factor)
    err = np.abs(rows @ rows.T - cov_z - shift * np.eye(len(active))).max()
    assert err <= 1e-12 * np.abs(cov_z).max(), err


def test_paired_factor_rows_are_its_dense_rows():
    # 24 factorized points: every tilt row, of a pair's first or second
    # point or of a fixed one, is the row of the densified factor.
    lattice = cube_lattice(2, 1.0, 0.25)
    factor, active, _ = pickands._factor_w(1.0, lattice, of_z=True, mirror=axis_swap(lattice))
    assert isinstance(factor, PairedFactor) and len(active) == 24
    rows = _dense_rows(factor)
    for tau in range(24):
        row = np.zeros(24)
        for start, part in factor.row(tau):
            row[start : start + part.shape[0]] += part
        assert np.array_equal(row, rows[tau]), tau


def _slab_doubles(factor):
    blocks = (factor.even, factor.odd) if isinstance(factor, PairedFactor) else (factor,)
    return sum(slab.size for block in blocks for slab in block.slabs)


def test_paired_factor_halves_the_slabs():
    # The default 2-D window: 1680 points in blocks of 860 and 820.  The
    # slabs, and so the multiply-adds of one replication's product, are
    # 908,192 doubles against the one-block factor's 1,618,176: 0.561,
    # where the upper triangles of the diagonal blocks stay stored.
    lattice = cube_lattice(2, 4.0, 0.1)
    paired, _, _ = pickands._factor_w(1.0, lattice, of_z=True, mirror=axis_swap(lattice))
    dense, _, _ = pickands._factor_w(1.0, lattice, of_z=True)
    assert (len(paired.even), len(paired.odd), len(dense)) == (860, 820, 1680)
    assert all(slab.shape[0] <= ROW_BLOCK for slab in paired.even.slabs + paired.odd.slabs)
    assert (_slab_doubles(paired), _slab_doubles(dense)) == (908_192, 1_618_176)
    assert _slab_doubles(paired) <= 0.57 * _slab_doubles(dense)


def test_one_dimension_and_caller_lattices_keep_one_block(monkeypatch):
    # N = 1 has no axis to swap, and simulate_z factors a caller's
    # lattice whole, in lattice order, even a cube lattice.
    seen = []

    def record(cov, **kwargs):
        seen.append(len(cov))
        return factor_covariance(cov, **kwargs)

    monkeypatch.setattr(pickands, "factor_covariance", record)
    factor, active, _ = pickands._factor_w(1.0, cube_lattice(1, 8.0, 0.25))
    assert isinstance(factor, DenseFactor) and np.array_equal(active, np.arange(1, 33))
    lattice = cube_lattice(2, 1.0, 0.25)
    seen.clear()
    simulate_z(1.0, 2, lattice, 3)
    assert seen == [24]


class _Factored(Exception):
    """Raised in place of a factorization, once its arguments are seen."""


def test_estimators_mirror_the_cube_by_index(monkeypatch):
    # The estimators take the swap of axes 0 and 1 from the C-order
    # cube's index; it must be the image the coordinates give, on the
    # window (estimate_pickands) and centred (estimate_pickands_dy)
    # lattices at N = 2 and 3, at even (40, 8, 4) and odd (7, 5) step
    # counts, and there is none at N = 1.
    seen = []

    def record(alpha, lattice, *, of_z, mirror):
        seen.append((lattice, mirror))
        raise _Factored

    monkeypatch.setattr(pickands, "_factor_w", record)
    windows = [(1, 8.0, 0.25), (2, 4.0, 0.1), (2, 2.0, 0.25), (2, 1.4, 0.2), (3, 1.0, 0.25),
               (3, 1.0, 0.2)]
    for estimate in (estimate_pickands, estimate_pickands_dy):
        for n_dim, cube_side, spacing in windows:
            with pytest.raises(_Factored):
                estimate(1.0, n_dim, cube_side, spacing, 1000, 0)
            lattice, mirror = seen.pop()
            expected = axis_swap(lattice)
            if n_dim == 1:
                assert mirror is None and expected is None
            else:
                assert expected is not None and np.array_equal(mirror, expected), (n_dim, spacing)


def test_pairing_is_the_mirror_image_at_smooth_alpha():
    # At alpha = 2, W(s) = <s, xi>, so Z' = -sqrt(2) W - drift is Z(-s),
    # and on an exactly centred lattice (20 steps per axis) the pair
    # mean equals the single-draw ratio.  The gap is the rounding of the
    # diagonal shift on this rank-N covariance: 7.5e-9 (N = 1) and
    # 7.3e-9 (N = 2) relative, measured; the bound leaves 13x over the
    # larger.  A draw Z' with the drift's sign flipped misses by O(1).
    for n_dim, seed in ((1, 21), (2, 22)):
        single, paired = _single_and_paired(2.0, n_dim, 2.0, 0.1, 2000, seed)
        est = estimate_pickands_dy(2.0, n_dim, 2.0, 0.1, 2000, seed)
        assert (est.estimate, est.stderr) == paired
        assert est.estimate == pytest.approx(single[0], rel=1e-7)


def test_pairing_reduces_the_variance_at_rough_alpha():
    # Seed 41 was fixed before the first run.  The two draws of a pair
    # are negatively correlated at alpha = 1: the paired stderr^2 is
    # 0.455 of the single-draw one here (0.41-0.53 on other seeds and
    # windows).  A second statistic taken on the unflipped block gives
    # exactly 1.
    single, paired = _single_and_paired(1.0, 1, 8.0, 0.25, 2000, 41)
    est = estimate_pickands_dy(1.0, 1, 8.0, 0.25, 2000, 41)
    assert (est.estimate, est.stderr) == paired
    assert est.stderr**2 <= 0.6 * single[1] ** 2


def test_estimate_rises_as_spacing_shrinks():
    # The lattice maximum under-approximates the continuum supremum, so
    # refining the lattice must not drop the estimate beyond noise.
    a = estimate_pickands(1.5, 1, 4.0, 0.2, 2000, 9)
    b = estimate_pickands(1.5, 1, 4.0, 0.1, 2000, 9)
    combined = math.hypot(a.stderr, b.stderr)
    assert b.estimate - a.estimate >= -2.0 * combined


def test_window_stability_at_smooth_alpha():
    # At alpha = 2 the window value is exact on any lattice (a 1-D
    # Gaussian integral), and at spacing 0.05 it is the same number on
    # [0, 4] and [0, 8]: each argmax piece of the integral adds the same
    # amount.  Both windows must hit it at their own noise.
    exact = pickands_window_alpha2(1, 4.0, 0.05)
    assert pickands_window_alpha2(1, 8.0, 0.05) == pytest.approx(exact, rel=1e-12)
    for side in (4.0, 8.0):
        est = estimate_pickands(2.0, 1, side, 0.05, 4000, 12)
        assert abs(est.estimate - exact) <= 3.5 * est.stderr, side


def test_window_oracle_sums_to_the_lattice_closed_form():
    # Each argmax piece of the alpha = 2 window integral is
    # Phi(spacing / sqrt(2)) - Phi(-spacing / sqrt(2)) = erf(spacing / 2),
    # so K v_1 = S erf(spacing / 2) for S lattice steps: a check of the
    # quadrature.  At N = 2 the oracle is (1 + K v_1)^2 - 1 over K^2.
    for side, spacing in ((1.0, 0.05), (8.0, 0.05), (1.2, 0.1), (250.0, 0.25)):
        steps = pickands._lattice_steps(side, spacing)
        one_axis = steps * special.erf(spacing / 2.0)
        assert pickands_window_alpha2(1, side, spacing) == pytest.approx(
            one_axis / side, rel=1e-12
        )
    one_axis = 10 * special.erf(0.05)
    assert pickands_window_alpha2(2, 1.0, 0.1) == pytest.approx((1.0 + one_axis) ** 2 - 1.0)


def test_window_hits_its_target_where_plain_draws_missed():
    # The draws that carry the window mean at K = 8 have probability
    # below 1e-8 under plain sampling, which returned 0.164 +/- 0.023
    # here; the tilted draws put every lattice point's argmax event in
    # reach.
    est = estimate_pickands(2.0, 1, 8.0, 0.05, 4000, 12)
    assert abs(est.estimate - INV_SQRT_PI) <= 3.5 * est.stderr
    assert est.stderr < 0.01


def test_window_values_are_bounded_by_the_lattice_size():
    # Each tilted value |L| (f + f') / (S + S') lies in [0, |L|), since
    # e^M - 1 < S; the estimate is their mean times K^-N.  The values
    # rebuilt from the draw blocks are the estimator's, bit for bit.
    for args in ((1.0, 1, 8.0, 0.25, 1000, 3), (1.5, 2, 1.0, 0.125, 1000, 4)):
        points, values = _tilted_window_values(*args)
        assert np.all(values >= 0.0) and np.all(values < points)
        est = estimate_pickands(*args)
        norm = args[2] ** -args[1]
        assert est.estimate == norm * float(np.mean(values))
        assert est.stderr == norm * float(np.std(values, ddof=1)) / math.sqrt(args[4])
        assert est.estimate < points * norm


def test_window_log_branch_matches_the_direct_one(monkeypatch):
    # With the exponent limit at 0 every block takes the logarithmic
    # branch; on a window where both apply they agree to rounding.
    _, direct = _tilted_window_values(1.0, 2, 2.0, 0.25, 600, 8)
    monkeypatch.setattr(pickands, "_EXP_SAFE", 0.0)
    _, logs = _tilted_window_values(1.0, 2, 2.0, 0.25, 600, 8)
    np.testing.assert_allclose(logs, direct, rtol=1e-12, atol=1e-14)


def test_wide_window_stays_finite_and_on_target():
    # At K = 250, Z reaches 250^2 / 2 or so and e^{+-Z} over- or
    # underflows; the logarithmic branch keeps the ratio exact.
    exact = pickands_window_alpha2(1, 250.0, 0.25)
    est = estimate_pickands(2.0, 1, 250.0, 0.25, 2000, 17)
    assert math.isfinite(est.estimate) and math.isfinite(est.stderr)
    assert abs(est.estimate - exact) <= 3.5 * est.stderr


def test_unit_window_matches_closed_form():
    # On [0, 1] at alpha = 2 the separable structure gives the exact
    # window value E(e^M - 1) = 1/sqrt(pi) in 1D and its square law in
    # 2D, so small windows make sharp finite-K oracles.
    e1 = estimate_pickands(2.0, 1, 1.0, 0.05, 10_000, 5)
    assert abs(e1.estimate - INV_SQRT_PI) <= 3.5 * e1.stderr
    e2 = estimate_pickands(2.0, 2, 1.0, 0.1, 5000, 5)
    target = (1.0 + INV_SQRT_PI) ** 2 - 1.0
    assert abs(e2.estimate - target) <= 3.5 * e2.stderr


def test_low_smoothness_example_band():
    est = estimate_pickands(1.0, 1, 8.0, 0.05, 10_000, 1)
    assert 0.8 <= est.estimate <= 1.1
    assert est.reps == 10_000
    assert est.seed == 1


def test_resolver_exact_branch():
    for n in (1, 2, 3):
        res = resolve_constant(2.0, n)
        assert res.value == math.pi ** (-n / 2.0)
        assert res.provenance == "exact"
        assert res.mc is None


def test_resolver_mc_branch():
    res = resolve_constant(1.0, 1, seed=1, reps=1000)
    assert res.provenance == "mc"
    assert res.mc is not None
    assert res.value == res.mc.estimate
    assert res.mc.cube_side == 8.0
    assert res.mc.spacing == 0.05
    assert res.mc.alpha == 1.0
    assert res.mc == estimate_pickands_dy(1.0, 1, 8.0, 0.05, 1000, 1)
    explicit = resolve_constant(1.0, 1, seed=1, reps=1000, cube_side=2.0, spacing=0.25)
    assert explicit.mc.cube_side == 2.0


def test_resolver_needs_window_beyond_catalogue():
    with pytest.raises(ValidationError):
        resolve_constant(1.0, 4, seed=0, reps=1000)
    ok = resolve_constant(1.0, 4, seed=0, reps=1000, cube_side=1.0, spacing=0.25)
    assert ok.provenance == "mc"


def _lattice_constant_alpha2(cube_side: float, spacing: float) -> float:
    """H^delta_{2,1} on the centred per-axis lattice, by quadrature.

    At alpha = 2, W(t) = t xi with one standard normal xi, so the
    Dieker-Yakir ratio max e^Z / (delta sum e^Z) is a function of xi
    alone and its mean is a 1-D Gaussian integral.
    """
    steps = pickands._lattice_steps(cube_side, spacing)
    t = spacing * (np.arange(steps + 1) - steps // 2)

    def integrand(x):
        z = math.sqrt(2.0) * t * x - t * t
        ratio = 1.0 / (spacing * np.exp(z - z.max()).sum())
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * ratio

    # The argmax switches where neighbouring exponents cross.
    kinks = (t[:-1] + t[1:]) / math.sqrt(2.0)
    value, _ = quad(integrand, -12.0, 12.0, points=kinks[np.abs(kinks) < 12.0], limit=400)
    return value


def _lattice_constant_alpha1(spacing: float) -> float:
    """H^delta_{1,1} on the whole lattice, in closed form.

    At alpha = 1, Z on each half-line of the lattice is a Gaussian random
    walk S with steps N(-delta, 2 delta), independent across the two
    sides, and Spitzer's identity for the probability that S stays
    below 0 gives
    H^delta = delta^-1 exp(-2 sum_k k^-1 P{S_k > 0}),
    P{S_k > 0} = Psi(sqrt(k delta / 2)).
    """
    k = np.arange(1.0, math.ceil(400.0 / spacing) + 1.0)
    tail = 0.5 * special.erfc(np.sqrt(k * spacing / 2.0) / math.sqrt(2.0))
    return math.exp(-2.0 * float(np.sum(tail / k))) / spacing


def test_dy_matches_brownian_lattice_constant():
    # K = 32 keeps the truncation bias below the noise at spacing 0.25;
    # the default K = 8 window does not (about +10% at alpha = 1).
    exact = _lattice_constant_alpha1(0.25)
    est = estimate_pickands_dy(1.0, 1, 32.0, 0.25, 2000, 31)
    assert abs(est.estimate - exact) <= 3.5 * est.stderr


def test_dy_separable_identity():
    # At alpha = 2, Z is a sum of independent per-axis fields, so on a
    # product lattice the N = 2 ratio is the product of two N = 1
    # ratios: H^delta_{2,2} = (H^delta_{2,1})^2, with H^delta_{2,1} an
    # exact quadrature.
    exact = _lattice_constant_alpha2(2.0, 0.1)
    e1 = estimate_pickands_dy(2.0, 1, 2.0, 0.1, 2000, 21)
    e2 = estimate_pickands_dy(2.0, 2, 2.0, 0.1, 2000, 22)
    assert abs(e1.estimate - exact) <= 3.5 * e1.stderr
    assert abs(e2.estimate - exact**2) <= 3.5 * e2.stderr
    combined = math.hypot(e2.stderr, 2.0 * e1.estimate * e1.stderr)
    assert abs(e2.estimate - e1.estimate**2) <= 3.0 * combined
