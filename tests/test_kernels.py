"""Exactness and shape checks for the scalar tail/polynomial kernels.

Reference values were produced by two independent routes: the Gaussian
tail integral by adaptive quadrature (scipy.integrate.quad, abs target
1e-15) and the polynomial values by exact rational arithmetic (sympy),
converted to the nearest float.
"""

import math

import numpy as np
import pytest
from scipy import special

from excursion.errors import ValidationError
from excursion.kernels import beta_j, gaussian_tail, gaussian_tail_scaled, hermite

# Upper-tail probability at fixed levels, from quadrature of the
# defining integral.  Reported quad error bound was < 5e-14 everywhere.
PSI_ORACLE = {
    -2.0: 0.9772498680518209,
    0.0: 0.5000000000000001,
    1.0: 0.15865525393145707,
    2.0: 0.02275013194817921,
    4.0: 3.1671241833119924e-05,
    8.0: 6.220960562461841e-16,
}

# Probabilists' polynomials evaluated at exact rationals, then rounded.
HERMITE_ORACLE = {
    (0, -3.0): 1.0,
    (0, 0.5): 1.0,
    (0, 7.5): 1.0,
    (1, -3.0): -3.0,
    (1, 2.0): 2.0,
    (2, -3.0): 8.0,
    (2, 0.5): -0.75,
    (3, 0.5): -1.375,
    (3, 7.5): 399.375,
    (5, 2.0): -18.0,
    (5, 7.5): 19624.21875,
    (8, -3.0): -516.0,
    (8, 0.5): 12.69140625,
    (12, -3.0): -67608.0,
    (12, 2.0): 22147.0,
    (12, 7.5): 7070372203.502197,
    (25, 0.5): 965444168249.5637,
    (25, 2.0): -2459906473918.0,
    (64, -3.0): 4.097764625454939e44,
    (64, 7.5): 2.2968531215545894e49,
}


def test_gaussian_tail_matches_quadrature():
    for u, expected in PSI_ORACLE.items():
        assert gaussian_tail(u) == pytest.approx(expected, abs=1e-12)


def test_gaussian_tail_array_matches_scalar():
    u = np.array([-2.0, 0.0, 1.0, 4.0])
    out = gaussian_tail(u)
    assert out.shape == u.shape
    for i, v in enumerate(u):
        assert out[i] == gaussian_tail(float(v))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _scipy_tail(u):
    return 0.5 * special.erfc(np.asarray(u, dtype=float) / math.sqrt(2.0))


def _edge_levels():
    """Levels u whose x = u / sqrt(2) sits on and beside each erfc branch edge."""
    maxlog = 7.09782712893383996843e2
    levels = [0.0, -0.0, 5e-324, -5e-324, 38.5, -38.5, 1e300, -1e300]
    for edge in (1.0, 8.0, math.sqrt(maxlog), -1.0, -8.0, -math.sqrt(maxlog)):
        around = [edge * math.sqrt(2.0)]
        for _ in range(3):
            around = [np.nextafter(around[0], -np.inf), *around, np.nextafter(around[-1], np.inf)]
        xs = {float(u) / math.sqrt(2.0) for u in around}
        assert {np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)} <= xs
        levels += around
    return np.array(levels, dtype=float)


def test_gaussian_tail_bit_identical_to_scipy_erfc():
    # The Cephes port must reproduce scipy.special.erfc bit for bit, with
    # no tolerance: a seeded sweep, every branch edge, scalars and arrays.
    sweep = np.random.default_rng(20150801).uniform(-40.0, 40.0, 100_000)
    for levels in (sweep, _edge_levels()):
        assert _same_bits(gaussian_tail(levels), _scipy_tail(levels))
        assert _same_bits(gaussian_tail(levels.reshape(-1, 2)), _scipy_tail(levels).reshape(-1, 2))
    for u in _edge_levels().tolist() + sweep[:2_000].tolist():
        out = gaussian_tail(u)
        assert isinstance(out, float)
        assert _same_bits(out, _scipy_tail(u))


def test_hermite_against_exact_values():
    for (j, x), expected in HERMITE_ORACLE.items():
        assert hermite(j, x) == pytest.approx(expected, rel=1e-12)


def test_hermite_recurrence():
    x = np.linspace(-5.0, 5.0, 101)
    for j in range(1, 13):
        lhs = hermite(j + 1, x)
        rhs = x * hermite(j, x) - j * hermite(j - 1, x)
        scale = np.maximum(np.abs(lhs), 1.0)
        assert np.all(np.abs(lhs - rhs) <= 1e-9 * scale)


def test_hermite_parity():
    x = np.linspace(-5.0, 5.0, 41)
    for j in range(0, 13):
        assert np.allclose(hermite(j, -x), (-1.0) ** j * hermite(j, x), rtol=1e-12)


def test_hermite_degree_cap():
    assert math.isfinite(hermite(64, 1.7))
    with pytest.raises(ValidationError):
        hermite(65, 0.0)
    with pytest.raises(ValidationError):
        hermite(-1, 0.0)
    # Degrees are integers: a bool or a float is refused under the degree's name.
    for degree in (True, math.nan, math.inf, 2.0, -1):
        with pytest.raises(ValidationError, match="^hermite degree must"):
            hermite(degree, 0.0)
        with pytest.raises(ValidationError, match="^beta_j index must"):
            beta_j(degree, 0.0)


def test_gaussian_tail_strictly_decreasing():
    u = np.linspace(-6.0, 6.0, 121)
    vals = gaussian_tail(u)
    assert np.all(np.diff(vals) < 0)


def test_gaussian_tail_derivative():
    # dPsi/du = -phi(u); central differences at step 2e-4 leave
    # truncation ~ h^2 (u^2 - 1) / 6 well under the 1e-6 target.
    h = 2e-4
    for u in np.linspace(-3.0, 5.0, 33):
        num = (gaussian_tail(u + h) - gaussian_tail(u - h)) / (2.0 * h)
        exact = -math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi)
        assert num == pytest.approx(exact, rel=1e-6)


def test_gaussian_tail_scaled_far_tail():
    # exp(u^2/2) * Psi(u) stays representable where Psi itself underflows
    u = 40.0
    assert gaussian_tail(u) == 0.0
    mills = math.sqrt(2.0 * math.pi) * u * gaussian_tail_scaled(u)
    assert 0.999 < mills < 1.0


def test_gaussian_tail_scaled_matches_scipy_erfcx():
    # The scaled tail reads Cephes' rational pieces instead of calling
    # scipy.special.erfcx; the two agree to a few ulp, and both give inf
    # where e^{u^2/2} overflows (u below about -37.7).
    def scipy_scaled(u):
        return 0.5 * special.erfcx(np.asarray(u, dtype=float) / math.sqrt(2.0))

    grid = np.linspace(-37.0, 40.0, 77_001)
    far = np.array([1e3, 1e100, 1e300, 1.7e308])
    for u in (grid, far):
        assert np.all(np.isfinite(scipy_scaled(u)))
        assert np.allclose(gaussian_tail_scaled(u), scipy_scaled(u), rtol=1e-14, atol=0.0)
    for v in far.tolist():
        assert gaussian_tail_scaled(v) == pytest.approx(float(scipy_scaled(v)), rel=1e-14)
    low = np.concatenate([np.linspace(-38.0, -37.5, 5_001), [-40.0, -1e3, -1e300]])
    out, ref = gaussian_tail_scaled(low), scipy_scaled(low)
    assert np.isinf(ref).any() and np.array_equal(np.isinf(out), np.isinf(ref))
    finite = np.isfinite(ref)
    assert np.allclose(out[finite], ref[finite], rtol=1e-14, atol=0.0)


def test_gaussian_tail_scaled_consistent_at_moderate_levels():
    for u in (0.0, 1.0, 3.0, 5.0):
        assert gaussian_tail_scaled(u) == pytest.approx(
            math.exp(u * u / 2.0) * gaussian_tail(u), rel=1e-13
        )


def test_beta_zero_is_the_tail():
    for u in (-1.0, 0.5, 3.0):
        assert beta_j(0, u) == gaussian_tail(u)


def test_beta_frozen_values():
    assert beta_j(2, 3.0) == pytest.approx(0.0021160517453817007, rel=1e-13)
    assert beta_j(1, 0.0) == pytest.approx(0.15915494309189535, rel=1e-13)


def test_beta_positive_beyond_polynomial_roots():
    # The top Hermite root for H_{j-1} sits below 2*sqrt(j) on this
    # range (checked against Gauss-Hermite nodes), so the density factor
    # controls the sign from there on.
    for j in range(1, 13):
        for u in np.linspace(2.0 * math.sqrt(j) + 1e-9, 9.0, 7):
            assert beta_j(j, u) > 0.0


def test_beta_matches_definition():
    for j in (1, 2, 3, 6):
        for u in (-1.0, 0.7, 2.5):
            expected = (
                (2.0 * math.pi) ** (-(j + 1) / 2.0)
                * hermite(j - 1, u)
                * math.exp(-u * u / 2.0)
            )
            assert beta_j(j, u) == pytest.approx(expected, rel=1e-13)
