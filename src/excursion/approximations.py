"""Analytic tail approximations for the supremum of a Gaussian field.

Two routes, valid in different smoothness regimes:

* ``eec_approx`` (smooth isotropic models): the expected Euler
  characteristic of the excursion set,

      sum_{j=0}^{dim} kappa^{j/2} L_j(D) beta_j(u),

  with kappa = -2 rho'(0) and L_j the domain's intrinsic volumes.  For
  large u this also approximates P{sup X >= u}; the error is
  super-exponentially small in u but has no computable constant, so it
  is never reported as a number.

* ``pickands_approx`` (locally isotropic models, 1 - C = c d^alpha):
  the fractional-index tail formula

      Vol(D) c^{N/alpha} H_{alpha, N} u^{2N/alpha} Psi(u),

  plus a submanifold variant where a k-dimensional domain sits inside
  an N-dimensional manifold and every exponent uses k.  The constant
  H_{alpha, N} is an explicit argument: the analytic layer stays
  deterministic, and the caller records whether H came from the closed
  form at alpha = 2 or from Monte Carlo.

``euclidean_det_integral`` evaluates int_T |det B(t)| dt over a chart
region by midpoint quadrature; with B = c^{1/alpha} G^{1/2} it recovers
c^{N/alpha} times the Riemannian volume of the region, which is the
bridge between the chart-by-chart picture and the volume in the tail
formula.  Tests drive it against closed-form areas.
``metric_sqrt_field`` builds that B from the manifold's own
``metric_diagonal`` (every catalogue chart is orthogonal), so a
manifold's metric is written in one place only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covariance import LocallyIsotropicModel, SmoothIsotropicModel
from .curvatures import lk_curvatures, rescale_lk
from .errors import (
    DegenerateModelError,
    ManifoldMismatchError,
    ValidationError,
    _check_count,
    _check_real,
)
from .kernels import beta_j, gaussian_tail

__all__ = [
    "ApproxResult",
    "eec_approx",
    "pickands_approx",
    "pickands_approx_submanifold",
    "euclidean_det_integral",
    "metric_sqrt_field",
]

@dataclass(frozen=True)
class ApproxResult:
    """One evaluated approximation at level u.

    ``h_value`` and ``h_provenance`` are the constant H the tail formula
    used and where it came from; both are None on the EEC route.
    """

    u: float
    total: float
    terms: tuple[float, ...]
    method: str
    h_value: float | None = None
    h_provenance: str | None = None

    def __post_init__(self):
        if abs(self.total - math.fsum(self.terms)) > 1e-12 * max(1.0, abs(self.total)):
            raise ValidationError("result total must equal the sum of its terms")


def _check_level(u, *, positive: bool = False) -> float:
    """A level; the tail formula (``positive``) needs u > 0."""
    return _check_real("level u", u, gt=0 if positive else None)


def _check_h(h_value) -> float:
    return _check_real("constant H", h_value, gt=0)


def _check_manifolds(model, domain) -> None:
    if model.manifold != domain.manifold:
        raise ManifoldMismatchError(
            f"model lives on {model.manifold}, domain on {domain.manifold}"
        )


def eec_approx(model: SmoothIsotropicModel, domain, u) -> ApproxResult:
    """Expected Euler characteristic of the excursion set at level u."""
    if not isinstance(model, SmoothIsotropicModel):
        raise ValidationError(
            f"the Euler-characteristic route needs a smooth isotropic model, "
            f"got {type(model).__name__}"
        )
    u = _check_level(u)
    _check_manifolds(model, domain)
    kappa = model.second_spectral_moment()
    if not kappa > 0:
        raise DegenerateModelError(f"derivative variance must be positive, got {kappa}")
    lk = rescale_lk(lk_curvatures(domain), kappa)
    terms = tuple(float(lk[j] * beta_j(j, u)) for j in range(lk.shape[0]))
    return ApproxResult(u=u, total=math.fsum(terms), terms=terms, method="eec")


def _pickands_core(model, domain, u, h_value, h_provenance, k: int) -> ApproxResult:
    u = _check_level(u, positive=True)
    h_value = _check_h(h_value)
    c, alpha = model.local_expansion()
    volume = float(lk_curvatures(domain)[-1])
    try:
        total = volume * c ** (k / alpha) * h_value * u ** (2.0 * k / alpha) * gaussian_tail(u)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValidationError(f"tail formula overflows at c = {c!r}, alpha = {alpha!r}, u = {u!r}")
    return ApproxResult(
        u=u,
        total=total,
        terms=(total,),
        method="pickands",
        h_value=h_value,
        h_provenance=str(h_provenance),
    )


def pickands_approx(
    model: LocallyIsotropicModel, domain, u, h_value, h_provenance: str = "unspecified"
) -> ApproxResult:
    """Fractional-index tail formula on a full-dimensional domain."""
    _check_manifolds(model, domain)
    if domain.k != domain.manifold.dim:
        raise ValidationError(
            f"domain must be full-dimensional ({domain.manifold.dim}), got k = {domain.k}"
        )
    return _pickands_core(model, domain, u, h_value, h_provenance, k=domain.k)


def pickands_approx_submanifold(
    model: LocallyIsotropicModel, domain, u, h_value, h_provenance: str = "unspecified"
) -> ApproxResult:
    """Tail formula for a k-dimensional domain inside an N-manifold.

    Every exponent and the constant use the intrinsic dimension k; the
    supplied H must be H_{alpha, k}.  Vol is the induced-metric volume,
    which is what the curvature catalogue stores as the top entry.
    With k = N this coincides with ``pickands_approx``.
    """
    _check_manifolds(model, domain)
    if domain.k > domain.manifold.dim:
        raise ValidationError(
            f"domain dimension k = {domain.k} exceeds the manifold dimension "
            f"{domain.manifold.dim}"
        )
    return _pickands_core(model, domain, u, h_value, h_provenance, k=domain.k)


def metric_sqrt_field(manifold, chart: str | None = None, scale: float = 1.0):
    """B(t) = scale * G^{1/2}(t) as a vectorized matrix field.

    Returns a callable mapping an (m, N) chart-coordinate array to an
    (m, N, N) array of diagonal matrices, scale * sqrt(metric_diagonal).
    Pass scale = c^{1/alpha} to build the integrand of the chart-volume
    identity.  A point where the chart degenerates raises
    ``DegenerateChartError``.
    """
    scale = _check_real("scale", scale, gt=0)
    if not hasattr(manifold, "metric_diagonal"):
        raise ValidationError(f"no metric field for {type(manifold).__name__}")
    if chart is None:
        chart = manifold.charts[0]
    if chart not in manifold.charts:
        raise ValidationError(f"unknown chart {chart!r} (expected one of {manifold.charts})")
    n = manifold.dim
    idx = np.arange(n)

    def field(points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != n:
            raise ValidationError(f"points must be an (m, {n}) array, got shape {points.shape}")
        out = np.zeros((points.shape[0], n, n))
        out[:, idx, idx] = scale * np.sqrt(manifold.metric_diagonal(chart, points))
        return out

    return field


def euclidean_det_integral(field, lower, upper, resolution=512) -> float:
    """int over the box [lower, upper] of |det field(t)| dt.

    Midpoint rule on a tensor grid; ``resolution`` is points per axis
    (scalar or one value per axis).  Summation is a fixed pairwise
    reduction within first-axis slabs and an exact accumulation across
    slabs, so results are run-to-run identical.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.ndim != 1 or lower.shape != upper.shape:
        raise ValidationError("bounds must be two vectors of equal length")
    if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
        raise ValidationError("bounds must be finite")
    if not np.all(upper > lower):
        raise ValidationError("upper bounds must exceed lower bounds")
    n = lower.shape[0]
    try:
        res = np.broadcast_to(np.asarray(resolution, dtype=object), (n,))
    except ValueError:
        raise ValidationError(
            f"resolution must be one value or {n} values, one per axis, got {resolution!r}"
        ) from None
    res = np.array([_check_count("resolution", r, 1) for r in res])

    widths = (upper - lower) / res
    cell = float(np.prod(widths))
    axes = [lower[i] + (np.arange(res[i]) + 0.5) * widths[i] for i in range(n)]

    if n == 1:
        pts = axes[0][:, None]
        dets = np.abs(np.linalg.det(field(pts)))
        return cell * float(np.sum(dets))

    rest = np.meshgrid(*axes[1:], indexing="ij")
    rest = np.stack([g.ravel() for g in rest], axis=-1)
    slab = np.empty((rest.shape[0], n))
    slab[:, 1:] = rest
    totals = []
    for x0 in axes[0]:
        slab[:, 0] = x0
        totals.append(float(np.sum(np.abs(np.linalg.det(field(slab))))))
    return cell * math.fsum(totals)
