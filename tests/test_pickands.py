"""Drifted-field simulation and the two estimators for H_{alpha, N}."""

import math

import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad

from excursion import pickands
from excursion.errors import ValidationError
from excursion.pickands import (
    cube_lattice,
    estimate_pickands,
    estimate_pickands_dy,
    resolve_constant,
    simulate_z,
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


def test_estimate_rises_as_spacing_shrinks():
    # The lattice maximum under-approximates the continuum supremum, so
    # refining the lattice must not drop the estimate beyond noise.
    a = estimate_pickands(1.5, 1, 4.0, 0.2, 2000, 9)
    b = estimate_pickands(1.5, 1, 4.0, 0.1, 2000, 9)
    combined = math.hypot(a.stderr, b.stderr)
    assert b.estimate - a.estimate >= -2.0 * combined


def test_window_stability_at_smooth_alpha():
    # The same estimand underlies both windows; the per-rep statistic is
    # heavy-tailed, so agreement is asserted only to combined noise.
    k4 = estimate_pickands(2.0, 1, 4.0, 0.05, 4000, 12)
    k8 = estimate_pickands(2.0, 1, 8.0, 0.05, 4000, 12)
    combined = math.hypot(k4.stderr, k8.stderr)
    assert abs(k4.estimate - k8.estimate) <= 3.0 * combined


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
    steps = math.floor(cube_side / spacing)
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
