"""Intrinsic-volume (Lipschitz-Killing curvature) catalogue.

Closed forms for a fixed set of compact domains:

* Rectangle: L_j is the j-th elementary symmetric polynomial of the
  side lengths.
* Ball in R^N: L_j = binom(N, j) (omega_N / omega_{N-j}) a^j, with
  omega_m the unit m-ball volume.
* Full sphere S^N of radius r: L_j = 2 binom(N, j) (s_N / s_{N-j}) r^j
  when N - j is even, 0 when odd, with s_m the unit m-sphere area.
  For S^2 this is (2, 0, 4 pi r^2); for S^1 it is (0, 2 pi r).
* Full flat torus: all curvatures vanish except the volume.
* Great circle on S^2: a 1-dimensional submanifold with (0, 2 pi r).

``rescale_lk`` applies the metric rescaling kappa^{j/2} L_j induced by
a unit-variance field whose derivative variance is kappa.
``tube_volume`` evaluates the Steiner polynomial for the convex
Euclidean shapes; tests bridge it to a grid-counting volume estimate,
which is what anchors the catalogue to something measurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateModelError,
    UnsupportedShapeError,
    ValidationError,
    _check_count,
    _check_real,
)
from .manifolds import Euclidean, FlatTorus, Sphere

__all__ = [
    "Rectangle",
    "Ball",
    "FullSphere",
    "FullTorus",
    "GreatCircle",
    "lk_curvatures",
    "rescale_lk",
    "tube_volume",
    "unit_ball_volume",
    "unit_sphere_area",
]


def unit_ball_volume(m: int) -> float:
    """omega_m = pi^{m/2} / Gamma(m/2 + 1); omega_0 = 1."""
    _check_real("dimension", m, ge=0)
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


def unit_sphere_area(m: int) -> float:
    """s_m = 2 pi^{(m+1)/2} / Gamma((m+1)/2); s_0 = 2 (two points)."""
    _check_real("dimension", m, ge=0)
    return 2.0 * math.pi ** ((m + 1) / 2.0) / math.gamma((m + 1) / 2.0)


def _elementary_symmetric(values: tuple[float, ...]) -> np.ndarray:
    """Coefficients of prod_i (1 + v_i s), low order first."""
    coeffs = np.array([1.0])
    for v in values:
        coeffs = np.polynomial.polynomial.polymul(coeffs, np.array([1.0, v]))
    return coeffs


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned box prod_i [0, T_i] in R^N."""

    sides: tuple[float, ...]

    def __post_init__(self):
        sides = tuple(_check_real("side", side, gt=0) for side in self.sides)
        if len(sides) == 0:
            raise ValidationError("Rectangle needs at least one side")
        object.__setattr__(self, "sides", sides)

    @property
    def manifold(self) -> Euclidean:
        return Euclidean(len(self.sides))

    @property
    def k(self) -> int:
        return len(self.sides)

    def lk(self) -> np.ndarray:
        return _elementary_symmetric(self.sides)


@dataclass(frozen=True)
class Ball:
    """Closed ball of radius a in R^N."""

    dim: int
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_count("dimension", self.dim, 1))
        object.__setattr__(self, "radius", _check_real("radius", self.radius, gt=0))

    @property
    def manifold(self) -> Euclidean:
        return Euclidean(self.dim)

    @property
    def k(self) -> int:
        return self.dim

    def lk(self) -> np.ndarray:
        n = self.dim
        w_n = unit_ball_volume(n)
        return np.array(
            [math.comb(n, j) * w_n / unit_ball_volume(n - j) * self.radius**j for j in range(n + 1)]
        )


@dataclass(frozen=True)
class FullSphere:
    """The whole round sphere S^N of radius r."""

    dim: int
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_count("dimension", self.dim, 1))
        object.__setattr__(self, "radius", _check_real("radius", self.radius, gt=0))

    @property
    def manifold(self) -> Sphere:
        return Sphere(self.dim, self.radius)

    @property
    def k(self) -> int:
        return self.dim

    def lk(self) -> np.ndarray:
        n = self.dim
        s_n = unit_sphere_area(n)
        out = np.zeros(n + 1)
        for j in range(n + 1):
            if (n - j) % 2 == 0:
                out[j] = 2.0 * math.comb(n, j) * s_n / unit_sphere_area(n - j) * self.radius**j
        return out


@dataclass(frozen=True)
class FullTorus:
    """The whole flat torus with the given periods."""

    periods: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "periods", FlatTorus(self.periods).periods)

    @property
    def manifold(self) -> FlatTorus:
        return FlatTorus(self.periods)

    @property
    def k(self) -> int:
        return len(self.periods)

    def lk(self) -> np.ndarray:
        out = np.zeros(self.k + 1)
        out[-1] = math.prod(self.periods)
        return out


@dataclass(frozen=True)
class GreatCircle:
    """An equatorial circle on S^2 of radius r, as a 1-dimensional domain."""

    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", _check_real("radius", self.radius, gt=0))

    @property
    def manifold(self) -> Sphere:
        return Sphere(2, self.radius)

    @property
    def k(self) -> int:
        return 1

    def lk(self) -> np.ndarray:
        return np.array([0.0, 2.0 * math.pi * self.radius])


_CATALOGUE = (Rectangle, Ball, FullSphere, FullTorus, GreatCircle)


def lk_curvatures(domain) -> np.ndarray:
    """(L_0, ..., L_k) for a catalogue domain."""
    if not isinstance(domain, _CATALOGUE):
        raise UnsupportedShapeError(f"no curvature catalogue entry for {type(domain).__name__}")
    try:
        lk = domain.lk()
    except OverflowError:
        # Gamma of a large dimension, or a large radius to a high power.
        lk = None
    # A product of lengths overflows to inf without raising.
    if lk is None or not np.all(np.isfinite(lk)):
        raise ValidationError(f"curvatures of {domain} overflow a float")
    return lk


def rescale_lk(lk: np.ndarray, kappa: float) -> np.ndarray:
    """Componentwise kappa^{j/2} L_j, the induced-metric rescaling."""
    kappa = float(kappa)
    if not (math.isfinite(kappa) and kappa > 0):
        raise DegenerateModelError(f"derivative variance must be positive, got {kappa}")
    lk = np.asarray(lk, dtype=float)
    j = np.arange(lk.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        out = lk * kappa ** (j / 2.0)
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"curvatures rescaled by kappa = {kappa!r} overflow a float")
    return out


def tube_volume(domain, r: float) -> float:
    """Steiner polynomial sum_j omega_{k-j} r^{k-j} L_j for convex Euclidean shapes."""
    if not isinstance(domain, (Rectangle, Ball)):
        raise UnsupportedShapeError(
            f"tube volume is defined for convex Euclidean shapes, not {type(domain).__name__}"
        )
    r = _check_real("tube radius", r, ge=0)
    lk = domain.lk()
    k = domain.k
    return float(sum(unit_ball_volume(k - j) * r ** (k - j) * lk[j] for j in range(k + 1)))
