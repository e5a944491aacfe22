"""Catalogue manifolds: Euclidean space, flat tori, and round spheres.

Each manifold is an immutable spec exposing chart coordinates, the
metric tensor, geodesic distance in closed form, an embedding, and the
chart quadratic form ||G^{1/2}(p) (q - p)|| that approximates geodesic
distance for nearby points.

Every catalogue chart is orthogonal, so a manifold states its metric
once, as ``metric_diagonal(chart, coords)``: the diagonal of G at each
row of an (m, N) coordinate array.  The flat default is all ones, and
the sphere overrides it.  ``metric_tensor``, the chart quadratic form
and ``approximations.metric_sqrt_field`` all read that one method.

Sphere coordinates are hyperspherical angles (theta_1, ..., theta_N):
theta_1..theta_{N-1} are polar angles in [0, pi], theta_N is azimuthal
(2 pi periodic), and the metric is

    G = r^2 diag(1, sin^2 theta_1, ..., prod_{i<N} sin^2 theta_i).

The atlas has two charts, "north" and "south", differing by which pole
the polar angle is measured from; each chart degenerates where any
polar angle hits 0 or pi, and metric-dependent operations reject such
points.  The embedding itself is defined on the closed angle domain, so
distances to and from the poles remain available.

For the 2-sphere, same-chart geodesic distance is evaluated with the
haversine form rather than arccos of the inner product: the two agree
exactly in real arithmetic, but haversine keeps full relative accuracy
at separations near 1e-6, which the quadratic-form convergence checks
require.  Elsewhere a half-chord arcsine form is used, with the inner
product clamped to [-1, 1] (tolerance 1e-12) before any inverse trig.

Pairwise distances on Euclidean space and the flat torus depend on
each coordinate difference separately, so they are built from one table
per axis (``sampling._axis_sum_of_squares``): the axis formula runs once
per pair of distinct axis values, and the squares are gathered into a
single n x m accumulator.  No (n, m, d) difference array is formed, and
the peak is 2 n m doubles.  Every pairwise method returns a fresh array,
which the covariance families evaluate their kernel in, so a covariance
matrix also peaks at 2 n^2.  A table of a point set against itself is
symmetric by construction (|delta| comes before any odd function, and
the sphere multiplies one embedding by its own transpose), so nothing
symmetrizes it.  For up to 7 axes the values are those of the broadcast
form to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateChartError,
    ManifoldMismatchError,
    ValidationError,
    _check_count,
    _check_real,
)
from .sampling import _axis_sum_of_squares

__all__ = [
    "ChartPoint",
    "Euclidean",
    "FlatTorus",
    "Sphere",
]

# Polar angles closer than this to {0, pi} make the metric numerically
# singular; metric-dependent operations refuse them.
_POLE_TOL = 1e-12

# Slack accepted when clamping an inner product to [-1, 1].
_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class ChartPoint:
    """A point given by chart name plus chart coordinates."""

    chart: str
    coords: tuple[float, ...]

    def __post_init__(self):
        coords = tuple(float(c) for c in self.coords)
        if not all(math.isfinite(c) for c in coords):
            raise ValidationError(f"point coordinates must be finite, got {coords}")
        object.__setattr__(self, "coords", coords)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.coords, dtype=float)


class _ManifoldBase:
    """Shared point validation and the generic quadratic form."""

    dim: int
    charts: tuple[str, ...]

    def validate_point(self, p: ChartPoint) -> None:
        if p.chart not in self.charts:
            raise ValidationError(f"unknown chart {p.chart!r} (expected one of {self.charts})")
        if len(p.coords) != self.dim:
            raise ValidationError(
                f"point has {len(p.coords)} coordinates, manifold has dimension {self.dim}"
            )
        self._validate_coords(p)

    def _validate_coords(self, p: ChartPoint) -> None:
        return None

    def point(self, *coords: float, chart: str | None = None) -> ChartPoint:
        """Build and validate a ChartPoint (default chart is the first one)."""
        p = ChartPoint(chart if chart is not None else self.charts[0], tuple(coords))
        self.validate_point(p)
        return p

    def _chart_displacement(self, p: ChartPoint, q: ChartPoint) -> np.ndarray:
        return q.array - p.array

    def chart_quadratic_form(self, p: ChartPoint, q: ChartPoint) -> float:
        """||G^{1/2}(p) (phi(q) - phi(p))||, the local distance surrogate."""
        self.validate_point(p)
        self.validate_point(q)
        if p.chart != q.chart:
            raise ManifoldMismatchError(
                f"quadratic form needs points in one chart, got {p.chart!r} and {q.chart!r}"
            )
        root = np.sqrt(self.metric_diagonal(p.chart, p.array[None, :])[0])
        return float(np.linalg.norm(root * self._chart_displacement(p, q)))

    def metric_diagonal(self, chart: str, coords: np.ndarray) -> np.ndarray:
        """Diagonal of G at each row of an (m, N) coordinate array; flat here."""
        return np.ones(np.shape(coords))

    def metric_tensor(self, p: ChartPoint) -> np.ndarray:
        self.validate_point(p)
        return np.diag(self.metric_diagonal(p.chart, p.array[None, :])[0])

    def geodesic_distance(self, p: ChartPoint, q: ChartPoint) -> float:
        raise NotImplementedError

    def embed(self, p: ChartPoint) -> np.ndarray:
        raise NotImplementedError

    def pairwise_geodesic(self, chart: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def pairwise_chordal(self, chart: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def chordal_distance(self, p: ChartPoint, q: ChartPoint) -> float:
        """Distance after an isometric-at-the-diagonal flat embedding.

        Agrees with geodesic distance to second order for nearby points;
        used by covariance families defined through an embedding.
        """
        self.validate_point(p)
        self.validate_point(q)
        if p.chart != q.chart:
            raise ManifoldMismatchError(
                f"chordal distance needs points in one chart, got {p.chart!r} and {q.chart!r}"
            )
        d = self.pairwise_chordal(p.chart, p.array[None, :], q.array[None, :])
        return float(d[0, 0])


@dataclass(frozen=True)
class Euclidean(_ManifoldBase):
    """R^N with the identity metric; single chart "main"."""

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_count("dimension", self.dim, 1))
        object.__setattr__(self, "charts", ("main",))

    def geodesic_distance(self, p: ChartPoint, q: ChartPoint) -> float:
        self.validate_point(p)
        self.validate_point(q)
        return float(np.linalg.norm(q.array - p.array))

    def embed(self, p: ChartPoint) -> np.ndarray:
        self.validate_point(p)
        return p.array

    def pairwise_geodesic(self, chart: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Euclidean distances between the rows of ``a`` and of ``b``.

        Built from per-axis difference tables; see the module docstring.
        """
        dist = _axis_sum_of_squares(a, b, lambda k, delta: delta)
        return np.sqrt(dist, out=dist)

    pairwise_chordal = pairwise_geodesic


@dataclass(frozen=True)
class FlatTorus(_ManifoldBase):
    """Flat torus with given period lengths; single chart "main".

    Geodesic distance is the minimum over coordinate wraps of the
    Euclidean distance.  The embedding returns the canonical coordinate
    representative with each coordinate reduced to [0, P_i).
    """

    periods: tuple[float, ...]

    def __post_init__(self):
        periods = tuple(_check_real("period", p, gt=0) for p in self.periods)
        if len(periods) == 0:
            raise ValidationError("FlatTorus needs at least one period")
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "charts", ("main",))

    @property
    def dim(self) -> int:
        return len(self.periods)

    def _wrap_signed(self, delta: np.ndarray) -> np.ndarray:
        """Reduce coordinate differences to the minimal representative."""
        periods = np.asarray(self.periods)
        delta = np.mod(delta, periods)
        return np.where(delta > periods / 2.0, delta - periods, delta)

    def _chart_displacement(self, p: ChartPoint, q: ChartPoint) -> np.ndarray:
        return self._wrap_signed(q.array - p.array)

    def geodesic_distance(self, p: ChartPoint, q: ChartPoint) -> float:
        self.validate_point(p)
        self.validate_point(q)
        # |q - p| first: floating negation is exact, so the result is
        # symmetric in (p, q) to the last bit.
        periods = np.asarray(self.periods)
        delta = np.mod(np.abs(q.array - p.array), periods)
        delta = np.minimum(delta, periods - delta)
        return float(np.linalg.norm(delta))

    def embed(self, p: ChartPoint) -> np.ndarray:
        self.validate_point(p)
        return np.mod(p.array, np.asarray(self.periods))

    def pairwise_geodesic(self, chart: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Wrapped distances between the rows of ``a`` and of ``b``.

        Per axis min(|delta| mod P, P - |delta| mod P), evaluated on
        per-axis difference tables; see the module docstring.
        """
        periods = np.asarray(self.periods)

        def wrapped(k, delta):
            delta = np.mod(np.abs(delta), periods[k])
            return np.minimum(delta, periods[k] - delta)

        dist = _axis_sum_of_squares(a, b, wrapped)
        return np.sqrt(dist, out=dist)

    def pairwise_chordal(self, chart: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Distances after the isometric embedding of each circle factor.

        Per axis (P/pi) sin(pi delta / P) in the plane, agreeing with the
        wrapped distance to second order at the diagonal; evaluated on
        per-axis difference tables (see the module docstring).
        """
        periods = np.asarray(self.periods)

        # |delta| first, so the table's symmetry does not rest on np.sin.
        def chord(k, delta):
            return (periods[k] / math.pi) * np.sin(math.pi * np.abs(delta) / periods[k])

        dist = _axis_sum_of_squares(a, b, chord)
        return np.sqrt(dist, out=dist)


@dataclass(frozen=True)
class Sphere(_ManifoldBase):
    """Round sphere S^N of radius r in hyperspherical coordinates."""

    dim: int
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_count("dimension", self.dim, 1))
        object.__setattr__(self, "radius", _check_real("radius", self.radius, gt=0))
        object.__setattr__(self, "charts", ("north", "south"))

    def _validate_coords(self, p: ChartPoint) -> None:
        for i in range(self.dim - 1):
            angle = p.coords[i]
            if not (0.0 <= angle <= math.pi):
                raise ValidationError(
                    f"polar angle theta_{i + 1} = {angle:g} outside the chart domain [0, pi]"
                )

    def metric_diagonal(self, chart: str, coords: np.ndarray) -> np.ndarray:
        """r^2 (1, sin^2 theta_1, sin^2 theta_1 sin^2 theta_2, ...) per row."""
        coords = np.asarray(coords, dtype=float)
        sines = np.sin(coords[:, : self.dim - 1])
        diag = np.ones(coords.shape)
        diag[:, 1:] = np.cumprod(sines**2, axis=1)
        # The last entry is the smallest, and near the poles of a high
        # dimensional sphere it underflows to 0 before any sine is tiny.
        if np.any(sines < _POLE_TOL) or not np.all(diag[:, -1] > 0.0):
            raise DegenerateChartError(
                f"metric degenerate in chart {chart!r} (polar angle at a pole)"
            )
        return self.radius**2 * diag

    def _chart_displacement(self, p: ChartPoint, q: ChartPoint) -> np.ndarray:
        delta = q.array - p.array
        # The azimuthal coordinate is 2 pi periodic; take the short way.
        azim = math.remainder(delta[-1], 2.0 * math.pi)
        delta = delta.copy()
        delta[-1] = azim
        return delta

    def _unit_embed_coords(self, chart: str, coords: np.ndarray) -> np.ndarray:
        """Unit-sphere embedding of an (n, N) coordinate array."""
        coords = np.atleast_2d(coords)
        n = coords.shape[0]
        out = np.empty((n, self.dim + 1))
        sin_running = np.ones(n)
        polar = np.cos(coords[:, 0])
        for k in range(1, self.dim):
            sin_running = sin_running * np.sin(coords[:, k - 1])
            out[:, k - 1] = sin_running * np.cos(coords[:, k])
        out[:, self.dim - 1] = sin_running * np.sin(coords[:, self.dim - 1])
        out[:, self.dim] = polar
        if chart == "south":
            out[:, self.dim] = -out[:, self.dim]
        return out

    def embed(self, p: ChartPoint) -> np.ndarray:
        """Cartesian coordinates in R^{N+1}; the last axis is the polar axis."""
        self.validate_point(p)
        return self.radius * self._unit_embed_coords(p.chart, p.array)[0]

    def geodesic_distance(self, p: ChartPoint, q: ChartPoint) -> float:
        self.validate_point(p)
        self.validate_point(q)
        if self.dim == 1:
            delta = abs(math.remainder(q.coords[0] - p.coords[0], 2.0 * math.pi))
            if p.chart != q.chart:
                # The two charts of S^1 differ by reflection of the axis.
                delta = abs(math.remainder(math.pi - q.coords[0] - p.coords[0], 2.0 * math.pi))
            return self.radius * delta
        if self.dim == 2 and p.chart == q.chart:
            # Haversine form: exact rewrite of arccos of the inner product,
            # with full relative accuracy for nearby points.
            t1, f1 = p.coords
            t2, f2 = q.coords
            hav = math.sin(0.5 * (t2 - t1)) ** 2 + math.sin(t1) * math.sin(t2) * math.sin(
                0.5 * math.remainder(f2 - f1, 2.0 * math.pi)
            ) ** 2
            hav = min(1.0, max(0.0, hav))
            return 2.0 * self.radius * math.asin(math.sqrt(hav))
        u = self._unit_embed_coords(p.chart, p.array)[0]
        v = self._unit_embed_coords(q.chart, q.array)[0]
        ip = float(u @ v)
        if abs(ip) > 1.0 + _CLAMP_TOL:
            raise ValidationError(f"embedded inner product {ip!r} outside [-1, 1] beyond tolerance")
        ip = min(1.0, max(-1.0, ip))
        # Half-chord arcsine, stable on both hemispheres of separation.
        if ip >= 0.0:
            half_chord = 0.5 * float(np.linalg.norm(u - v))
            angle = 2.0 * math.asin(min(1.0, half_chord))
        else:
            half_anti = 0.5 * float(np.linalg.norm(u + v))
            angle = math.pi - 2.0 * math.asin(min(1.0, half_anti))
        return self.radius * angle

    def _unit_inner(self, chart: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Clipped unit-sphere inner products of the rows of ``a`` and ``b``.

        For ``b is a`` this is ``u @ u.T``, which numpy runs as a symmetric
        rank-k update: symmetric to the last bit, unlike two copies of u.
        """
        ua = self._unit_embed_coords(chart, a)
        ub = ua if b is a else self._unit_embed_coords(chart, b)
        return np.clip(ua @ ub.T, -1.0, 1.0)

    def pairwise_geodesic(self, chart: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.radius * np.arccos(self._unit_inner(chart, a, b))

    def pairwise_chordal(self, chart: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ip = self._unit_inner(chart, a, b)
        return self.radius * np.sqrt(np.maximum(2.0 - 2.0 * ip, 0.0))

    def chordal_distance(self, p: ChartPoint, q: ChartPoint) -> float:
        # Straight-line distance in the ambient space; chart-independent.
        self.validate_point(p)
        self.validate_point(q)
        u = self._unit_embed_coords(p.chart, p.array)[0]
        v = self._unit_embed_coords(q.chart, q.array)[0]
        return self.radius * float(np.linalg.norm(u - v))

