"""Covariance families on the catalogue manifolds.

Two kinds of model:

* smooth isotropic: C(p, q) = rho(d_M(p, q)^2) with rho smooth at 0,
  unit variance rho(0) = 1, and the curvature parameter rho'(0) < 0
  exposed exactly;
* locally isotropic: 1 - C(p, q) = c * d_M(p, q)^alpha * (1 + o(1))
  near the diagonal, for c > 0 and alpha in (0, 2], exposing (c, alpha).

Every model states its own (c, alpha) through ``local_expansion()``,
the only reading the fractional-index tail approximation takes.  A
bare locally isotropic model is that pair and nothing more: it cannot
be evaluated or simulated.

Every family is evaluated by the shared base's ``covariance``,
``covariance_table`` and ``covariance_matrix``: a family defines only
the correlation hooks they read.

Construction checks parameter domains only.  Whether a family is in
fact positive semidefinite on its manifold is a property of the pair
(family, manifold); combinations that are not are still constructible
here and fail later, at factorization time, when a simulation is
requested.  The sphere restriction alpha <= 1 for the geodesic
powered-exponential family is enforced at construction.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateModelError, ValidationError, _check_real
from .manifolds import ChartPoint, Sphere, _ManifoldBase

__all__ = [
    "SmoothIsotropicModel",
    "SquaredExponential",
    "SphereSchoenberg",
    "LocallyIsotropicModel",
    "PoweredExponential",
    "StableOnChart",
    "expansion_ratio_check",
]

# Coefficient sums are checked against exact targets with this slack.
_SUM_TOL = 1e-12


class _ModelBase:
    """Shared evaluation plumbing; concrete families fill in the kernel."""

    manifold: _ManifoldBase

    # The correlation hooks, between two coordinate arrays and for one
    # pair, are all a family defines; ``covariance_table``,
    # ``covariance_matrix`` and ``covariance`` add the point checks, and
    # the matrix the diagonal pin.  Both default to geodesic distance.
    # The table hook hands the kernel the distance buffer it just made,
    # which for ``b is a`` is symmetric by construction, so the matrix is
    # too.
    def _correlation_table(self, chart: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._kernel(self.manifold.pairwise_geodesic(chart, a, b))

    def _correlation(self, p: ChartPoint, q: ChartPoint) -> float:
        return self.correlation_from_distance(self.manifold.geodesic_distance(p, q))

    def _kernel(self, d: np.ndarray) -> np.ndarray:
        """Correlation at the distances in the float array ``d``, which a
        family may overwrite with the result.  This default, for families
        that define only ``correlation_from_distance``, leaves it intact."""
        return self.correlation_from_distance(d)

    def correlation_from_distance(self, d):
        """Correlation as a function of separation distance (vectorized)."""
        raise NotImplementedError

    def covariance(self, p: ChartPoint, q: ChartPoint) -> float:
        """C(p, q); symmetric in its arguments to the last bit."""
        self.manifold.validate_point(p)
        self.manifold.validate_point(q)
        return float(self._correlation(p, q))

    def _checked_coords(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if coords.ndim != 2 or coords.shape[1] != self.manifold.dim:
            raise ValidationError(
                f"expected an (n, {self.manifold.dim}) coordinate array, got shape {coords.shape}"
            )
        return coords

    def covariance_table(self, chart: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """A new (len(a), len(b)) array of the covariances of the points
        of ``a`` with those of ``b``, with no diagonal pin: the block
        columns a dense factorization reads are such tables."""
        a, b = self._checked_coords(a), self._checked_coords(b)
        return np.asarray(self._correlation_table(chart, a, b))

    def covariance_matrix(self, chart: str, coords: np.ndarray) -> np.ndarray:
        """Dense covariance matrix for an (n, dim) coordinate array."""
        coords = self._checked_coords(coords)
        mat = np.asarray(self._correlation_table(chart, coords, coords))
        # Symmetric by construction; pin the diagonal, where a distance can round away from 0.
        np.fill_diagonal(mat, 1.0)
        return mat


class SmoothIsotropicModel(_ModelBase):
    """Base for unit-variance models of the form C = rho(d^2), rho smooth."""

    def rho_prime_0(self) -> float:
        """d rho / d(d^2) at zero separation; negative for any real field."""
        raise NotImplementedError

    def second_spectral_moment(self) -> float:
        """-2 rho'(0), the variance of each orthonormal derivative."""
        return -2.0 * self.rho_prime_0()

    def _check_rho_prime_0(self, what: str) -> None:
        """Refuse parameters whose rho'(0) is not a finite negative float."""
        try:
            rho = self.rho_prime_0()
        except (OverflowError, ZeroDivisionError):
            rho = math.nan
        if not (math.isfinite(rho) and rho < 0):
            raise ValidationError(f"{what} puts rho'(0) outside the finite negative floats")

    def local_expansion(self) -> tuple[float, float]:
        """The (c, alpha) of 1 - C = c d^alpha (1 + o(1)): (-rho'(0), 2)."""
        return (-self.rho_prime_0(), 2.0)

    def local_model(self) -> "LocallyIsotropicModel":
        """The near-diagonal reading of this model, as a bare (c, alpha) pair."""
        return LocallyIsotropicModel(self.manifold, *self.local_expansion())


@dataclass(frozen=True)
class SquaredExponential(SmoothIsotropicModel):
    """C(p, q) = exp(-d_M(p, q)^2 / (2 l^2))."""

    manifold: _ManifoldBase
    length_scale: float

    def __post_init__(self):
        ell = _check_real("length scale", self.length_scale, gt=0)
        object.__setattr__(self, "length_scale", ell)
        self._check_rho_prime_0(f"length scale {ell!r}")

    def correlation_from_distance(self, d):
        return self._kernel(np.array(d, dtype=float))[()]

    def _kernel(self, d):
        # exp(-(d**2) / (2 l^2)) in d's buffer, by the same IEEE operations.
        d **= 2
        np.negative(d, out=d)
        d /= 2.0 * self.length_scale**2
        return np.exp(d, out=d)

    def rho_prime_0(self) -> float:
        return -1.0 / (2.0 * self.length_scale**2)


@dataclass(frozen=True)
class SphereSchoenberg(SmoothIsotropicModel):
    """C(p, q) = sum_n b_n t^n with t the unit-sphere inner product.

    Equivalently sum_n b_n cos^n(d / r).  Coefficients must be
    nonnegative with sum exactly 1 (unit variance is rejected, not
    repaired), and some n >= 1 coefficient must be positive, else the
    field is constant.
    """

    manifold: Sphere
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.manifold, Sphere):
            raise ValidationError("SphereSchoenberg is defined on spheres only")
        coeffs = tuple(_check_real("coefficient", b, ge=0) for b in self.coefficients)
        if len(coeffs) == 0:
            raise ValidationError("SphereSchoenberg needs at least one coefficient")
        total = math.fsum(coeffs)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValidationError(
                f"coefficients must sum to 1 for unit variance, got {total!r}"
            )
        if math.fsum(n * b for n, b in enumerate(coeffs)) <= 0.0:
            raise DegenerateModelError(
                "only the constant term is present; the field would be degenerate"
            )
        object.__setattr__(self, "coefficients", coeffs)
        self._check_rho_prime_0(f"radius {self.manifold.radius!r}")

    def _poly(self, t):
        return np.polynomial.polynomial.polyval(t, np.asarray(self.coefficients))

    def correlation_from_distance(self, d):
        d = np.asarray(d, dtype=float)
        return self._poly(np.cos(d / self.manifold.radius))

    # Both hooks evaluate through the inner product directly: cheaper
    # than going distance -> cos(distance), and exact where the remark
    # form is.
    def _correlation_table(self, chart: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._poly(self.manifold._unit_inner(chart, a, b))

    def _correlation(self, p: ChartPoint, q: ChartPoint) -> float:
        u = self.manifold._unit_embed_coords(p.chart, p.array)[0]
        v = self.manifold._unit_embed_coords(q.chart, q.array)[0]
        return self._poly(min(1.0, max(-1.0, float(u @ v))))

    def feature_count(self) -> int:
        """Columns of ``features``: C(n + N, N) monomials of each degree n
        with b_n > 0 on S^N, counted without building them."""
        dim = self.manifold.dim
        return sum(math.comb(n + dim, dim) for n, b in enumerate(self.coefficients) if b > 0)

    def features(self, chart: str, coords: np.ndarray) -> np.ndarray:
        """An (n, r) array F with F F^T = sum_m b_m (u . v)^m, the kernel
        before clipping, for the unit embeddings u of the points: a
        polynomial kernel on the sphere has finite rank (Schoenberg 1942).

        By the multinomial theorem (u . v)^m = sum_{|k| = m} m!/prod k_i!
        prod (u_i v_i)^{k_i}, so each degree m with b_m > 0 contributes one
        column sqrt(b_m m!/prod k_i!) prod u_i^{k_i} per multi-index k:
        r = ``feature_count()`` columns, in order of degree and then of
        the sorted index tuple.  Row i depends on
        point i alone, so the rows of a subset of the points are the same
        floats wherever they are computed.
        """
        coords = self._checked_coords(coords)
        u = self.manifold._unit_embed_coords(chart, coords)
        # Filled column by column, then read as (n, r).
        out = np.empty((self.feature_count(), coords.shape[0]))
        col = 0
        for degree, b in enumerate(self.coefficients):
            if not b > 0:
                continue
            for index in itertools.combinations_with_replacement(range(u.shape[1]), degree):
                ways = math.factorial(degree) // math.prod(
                    math.factorial(k) for k in Counter(index).values()
                )
                np.prod(u[:, index], axis=1, out=out[col])
                out[col] *= math.sqrt(b * ways)
                col += 1
        return out.T

    def rho_prime_0(self) -> float:
        # rho(s) = sum b_n cos^n(sqrt(s)/r); each cos^n term contributes
        # -n/(2 r^2) at s = 0.
        weighted = math.fsum(n * b for n, b in enumerate(self.coefficients))
        return -weighted / (2.0 * self.manifold.radius**2)


@dataclass(frozen=True)
class LocallyIsotropicModel(_ModelBase):
    """Near-diagonal behaviour 1 - C = c d^alpha (1 + o(1)).

    The bare pair supports the tail approximation but cannot be
    evaluated or simulated; the subclasses below are full covariances
    with this expansion.
    """

    manifold: _ManifoldBase
    c: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "c", _check_real("c", self.c, gt=0))
        object.__setattr__(self, "alpha", _check_real("alpha", self.alpha, gt=0, le=2))

    def local_expansion(self) -> tuple[float, float]:
        """The (c, alpha) of 1 - C = c d^alpha (1 + o(1))."""
        return (self.c, self.alpha)

    # Every evaluation reaches this hook, through the base's defaults.
    def correlation_from_distance(self, d):
        raise ValidationError("a local expansion alone gives no covariance to evaluate or sample")


class _ExpPowerKernel(LocallyIsotropicModel):
    """Evaluates its own C = exp(-c d^alpha), in the distance the subclass measures."""

    def correlation_from_distance(self, d):
        return self._kernel(np.array(d, dtype=float))[()]

    def _kernel(self, d):
        # exp(-c * d**alpha) in d's buffer, by the same IEEE operations
        # (in-place ** takes the same scalar-power path as **).
        d **= self.alpha
        d *= -self.c
        return np.exp(d, out=d)


class PoweredExponential(_ExpPowerKernel):
    """C(p, q) = exp(-c d_M(p, q)^alpha) in geodesic distance.

    On spheres only alpha <= 1 is accepted; larger exponents do not give
    a positive semidefinite kernel there.
    """

    def __post_init__(self):
        super().__post_init__()
        if isinstance(self.manifold, Sphere) and self.alpha > 1.0:
            raise ValidationError(
                f"geodesic powered-exponential on a sphere needs alpha <= 1, got {self.alpha}"
            )


class StableOnChart(_ExpPowerKernel):
    """C(p, q) = exp(-c |e(p) - e(q)|^alpha) for an isometric-at-the-
    diagonal flat embedding e of the manifold.

    The embedded distance matches geodesic distance to second order, so
    the local expansion is the same (c, alpha); unlike the geodesic
    form, this kernel is positive definite for all alpha in (0, 2] on
    every catalogue manifold.
    """

    def _correlation_table(self, chart: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._kernel(self.manifold.pairwise_chordal(chart, a, b))

    def _correlation(self, p: ChartPoint, q: ChartPoint) -> float:
        return self.correlation_from_distance(self.manifold.chordal_distance(p, q))


def expansion_ratio_check(model, p: ChartPoint, q_sequence) -> list[float]:
    """(1 - C(p, q)) / (c d^alpha) for each q; tends to 1 as q -> p.

    Requires an evaluable covariance; raises on any zero-distance pair.
    """
    c, alpha = model.local_expansion()
    out = []
    for q in q_sequence:
        d = model.manifold.geodesic_distance(p, q)
        if d == 0.0:
            raise ValidationError("expansion ratio undefined at zero separation")
        out.append((1.0 - model.covariance(p, q)) / (c * d**alpha))
    return out
