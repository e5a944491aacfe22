"""Monte Carlo estimation of the Pickands constant H_{alpha, N}.

H_{alpha, N} is defined through the drifted field

    Z(s) = sqrt(2) W(s) - |s|^alpha,        s in R^N,

where W is centered Gaussian with

    Cov(W(s), W(v)) = (|s|^alpha + |v|^alpha - |s - v|^alpha) / 2,

so that Cov(Z(s), Z(v)) = |s|^alpha + |v|^alpha - |s - v|^alpha, and

    H_{alpha, N} = lim_{K -> inf} K^{-N} int_0^inf e^u P{sup_{[0, K]^N} Z >= u} du.

Two estimators sample Z exactly on a regular lattice of pitch delta.

``estimate_pickands_dy`` is the one the tail formulas use (through
``resolve_constant``).  Dieker and Yakir (2014, Bernoulli) show

    H_{alpha, N} = E[ sup_t e^{Z(t)} / int_{R^N} e^{Z(t)} dt ],

and on the lattice delta Z^N the same ratio with the integral replaced
by delta^N times the lattice sum gives the discrete constant
H^delta_{alpha, N} exactly, which tends to H_{alpha, N} as delta -> 0.
The per-replication statistic is bounded by delta^{-N}, so its variance
is finite.  The lattice is truncated to the side-K cube centred at the
origin; truncation and the lattice pitch are the two biases, neither is
corrected, and both are reported through K and delta.

``estimate_pickands`` is the finite-window functional behind the limit
above.  With M = sup Z over [0, K]^N, Fubini on the integral gives

    int_0^inf e^u P{M >= u} du
      = E int_0^inf e^u 1{M >= u} du
      = E[(e^{max(M, 0)} - 1)]
      = E[(e^M - 1)^+],

so it returns the sample mean of K^{-N} (e^M - 1)^+ with M the maximum
of one exact joint draw over the lattice in [0, K]^N.  That is a
different number from H at any finite K once N >= 2 (at alpha = 2 it
is K^{-N} ((1 + K/sqrt(pi))^N - 1) by separability, 0.6004 at N = 2,
K = 4 against H = 1/pi), and its integrand is heavy-tailed.  The
lattice maximum under-approximates the continuum supremum, so it rises
as spacing shrinks.  It backs the ``pickands-const`` subcommand.

The origin has variance 0; Z(0) = 0 is pinned exactly and only the
remaining block of the covariance is factorized, so no jitter noise is
spent on the degenerate row.  alpha = 2 has the exact value
H_{2, N} = pi^{-N/2}, which the resolver returns without simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .sampling import (
    _MAX_REPS,
    _axis_sum_of_squares,
    _cap_points,
    _check_stream,
    draw_in_batches,
    factor_covariance,
    replicate_generator,
)

__all__ = [
    "PickandsEstimate",
    "ResolvedConstant",
    "cube_lattice",
    "simulate_z",
    "estimate_pickands",
    "estimate_pickands_dy",
    "resolve_constant",
]

SQRT2 = math.sqrt(2.0)

# Desk-scale defaults for the MC resolver; chosen to keep the
# factorized block around 1700^2 or smaller.
_DEFAULT_WINDOW = {1: (8.0, 0.05), 2: (4.0, 0.1), 3: (2.0, 0.25)}


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not (math.isfinite(alpha) and 0.0 < alpha <= 2.0):
        raise ValidationError(f"alpha must lie in (0, 2], got {alpha}")
    return alpha


def _check_dim(n_dim: int) -> int:
    if not isinstance(n_dim, (int, np.integer)) or isinstance(n_dim, bool) or n_dim < 1:
        raise ValidationError(f"dimension must be a positive integer, got {n_dim!r}")
    return int(n_dim)


@dataclass(frozen=True)
class PickandsEstimate:
    """One MC estimate of H_{alpha, N} with its sampling error."""

    alpha: float
    n_dim: int
    cube_side: float
    spacing: float
    reps: int
    estimate: float
    stderr: float
    seed: int


@dataclass(frozen=True)
class ResolvedConstant:
    """An H value for the tail formulas, with provenance.

    provenance is "exact" (alpha = 2 closed form) or "mc" (the
    Dieker-Yakir lattice estimate); in the latter case ``mc`` carries
    the full estimate record.
    """

    value: float
    provenance: str
    mc: PickandsEstimate | None = None


def cube_lattice(n_dim: int, cube_side: float, spacing: float) -> np.ndarray:
    """Regular lattice on [0, cube_side]^N including the origin.

    Returns an (m, N) array in lexicographic order; the origin is row 0.
    """
    n_dim = _check_dim(n_dim)
    cube_side = float(cube_side)
    spacing = float(spacing)
    if not (math.isfinite(cube_side) and cube_side > 0):
        raise ValidationError(f"cube side must be positive, got {cube_side}")
    if not (math.isfinite(spacing) and 0.0 < spacing <= cube_side):
        raise ValidationError(f"spacing must lie in (0, cube_side], got {spacing}")
    steps = cube_side / spacing
    if not math.isfinite(steps):
        raise ValidationError(f"cube_side / spacing overflows: {cube_side} / {spacing}")
    steps = math.floor(steps)
    _cap_points((steps + 1) ** n_dim)
    per_axis = np.arange(steps + 1) * spacing
    grids = np.meshgrid(*([per_axis] * n_dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _drift(lattice: np.ndarray, alpha: float) -> np.ndarray:
    return (np.sum(lattice**2, axis=1)) ** (alpha / 2.0)


def _factor_w(
    alpha: float, lattice: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor Cov(W) on the positive-variance lattice points.

    Returns (factor, active_mask, drift) where ``active_mask`` flags the
    rows that were factorized; the others (the origin) are pinned to 0.
    With no positive-variance point the factor is 0 x 0 and nothing is
    factorized.
    """
    drift = _drift(lattice, alpha)
    active = drift > 0.0
    if not active.any():
        return np.empty((0, 0)), active, drift
    pts = lattice[active]
    _cap_points(pts.shape[0])
    norms = drift[active]
    dist_a = _axis_sum_of_squares(pts, pts, lambda k, delta: delta) ** (alpha / 2.0)
    cov_w = 0.5 * (norms[:, None] + norms[None, :] - dist_a)
    cov_w = 0.5 * (cov_w + cov_w.T)
    factor, _ = factor_covariance(cov_w)
    return factor, active, drift


def _validate_lattice(n_dim: int, lattice: np.ndarray) -> np.ndarray:
    lattice = np.asarray(lattice, dtype=float)
    if lattice.ndim != 2 or lattice.shape[1] != n_dim:
        raise ValidationError(
            f"lattice must be an (m, {n_dim}) point array, got shape {lattice.shape}"
        )
    if lattice.shape[0] == 0:
        raise ValidationError("lattice must contain at least one point")
    if not np.all(np.isfinite(lattice)) or np.any(lattice < 0):
        raise ValidationError("lattice points must be finite and nonnegative")
    return lattice


def simulate_z(alpha: float, n_dim: int, lattice: np.ndarray, seed: int) -> np.ndarray:
    """One exact joint sample of Z over the lattice points."""
    alpha = _check_alpha(alpha)
    n_dim = _check_dim(n_dim)
    lattice = _validate_lattice(n_dim, lattice)
    stream = replicate_generator(seed, 0)
    factor, active, drift = _factor_w(alpha, lattice)
    z = stream.standard_normal(factor.shape[0])
    out = np.zeros(lattice.shape[0])
    out[active] = SQRT2 * (factor @ z)
    return out - drift


def _check_window(cube_side: float, spacing: float, reps: int) -> tuple[float, float, int]:
    cube_side = float(cube_side)
    spacing = float(spacing)
    if not cube_side >= 1.0:
        raise ValidationError(f"cube side must be at least 1, got {cube_side}")
    if not 0.0 < spacing <= 0.25:
        raise ValidationError(f"spacing must lie in (0, 0.25], got {spacing}")
    if not isinstance(reps, (int, np.integer)) or not 1000 <= reps <= _MAX_REPS:
        raise ValidationError(f"replication count must lie in [1000, {_MAX_REPS}], got {reps!r}")
    return cube_side, spacing, int(reps)


def _lattice_mean(
    statistic, alpha, n_dim, cube_side, spacing, reps, seed, *, centred: bool
) -> PickandsEstimate:
    """norm * mean of ``statistic`` (one value per column of a block of Z
    draws) on the cube lattice: [0, K]^N with norm K^-N, or, centred on
    the origin, with norm spacing^-N."""
    alpha = _check_alpha(alpha)
    n_dim = _check_dim(n_dim)
    cube_side, spacing, reps = _check_window(cube_side, spacing, reps)
    seed = _check_stream(seed, reps - 1)

    lattice = cube_lattice(n_dim, cube_side, spacing)
    if centred:
        lattice = lattice - spacing * (math.floor(cube_side / spacing) // 2)
    factor, active, drift = _factor_w(alpha, lattice)
    drift_active = drift[active]

    stats = np.empty(reps)
    for start, block in draw_in_batches(factor, reps, seed):
        # SQRT2 * block - drift by the same IEEE operations, in the
        # block's own buffer instead of two block-sized temporaries.
        block *= SQRT2
        block -= drift_active[:, None]
        stats[start : start + block.shape[1]] = statistic(block)
    norm = (spacing if centred else cube_side) ** (-n_dim)
    return PickandsEstimate(
        alpha=alpha,
        n_dim=n_dim,
        cube_side=cube_side,
        spacing=spacing,
        reps=reps,
        estimate=norm * float(np.mean(stats)),
        stderr=norm * float(np.std(stats, ddof=1)) / math.sqrt(reps),
        seed=seed,
    )


def estimate_pickands(
    alpha: float, n_dim: int, cube_side: float, spacing: float, reps: int, seed: int
) -> PickandsEstimate:
    """Window estimate K^{-N} E[(e^M - 1)^+] on a [0, K]^N lattice."""

    def excess(z_vals):
        # Z(0) = 0 exactly, so the window maximum is at least 0.
        m = np.maximum(z_vals.max(axis=0), 0.0)
        return np.maximum(np.expm1(m), 0.0)

    return _lattice_mean(excess, alpha, n_dim, cube_side, spacing, reps, seed, centred=False)


def estimate_pickands_dy(
    alpha: float, n_dim: int, cube_side: float, spacing: float, reps: int, seed: int
) -> PickandsEstimate:
    """Dieker-Yakir estimate of H_{alpha, N} on a centred lattice.

    Averages max e^Z / (spacing^N sum e^Z) over exact joint draws of Z on
    the side-``cube_side`` cube lattice shifted so that the origin is its
    centre point (exactly centred when cube_side / spacing is even; one
    extra layer on the positive side otherwise).  Arguments,
    preconditions and the returned record are those of
    ``estimate_pickands``.
    """

    def ratio(z_vals):
        # Z(0) = 0 is the pinned lattice point: it enters both the
        # maximum and the sum.  Shifting by the maximum keeps exp <= 1.
        top = np.maximum(z_vals.max(axis=0), 0.0)
        return 1.0 / (np.exp(-top) + np.exp(z_vals - top).sum(axis=0))

    return _lattice_mean(ratio, alpha, n_dim, cube_side, spacing, reps, seed, centred=True)


def resolve_constant(
    alpha: float,
    n_dim: int,
    *,
    seed: int = 0,
    cube_side: float | None = None,
    spacing: float | None = None,
    reps: int = 10_000,
) -> ResolvedConstant:
    """An H_{alpha, N} value for the tail formulas.

    alpha = 2 returns the exact closed form pi^{-N/2}.  Anything else
    runs ``estimate_pickands_dy`` with desk-scale window defaults: the
    "mc" value is the Dieker-Yakir lattice constant H^delta_{alpha, N}
    on the side-K cube centred at the origin, delta = spacing.  It is
    biased by the lattice pitch and by the truncation to the cube; the
    record in ``mc`` reports both through K and delta, with reps, seed
    and stderr.
    """
    alpha = _check_alpha(alpha)
    n_dim = _check_dim(n_dim)
    if alpha == 2.0:
        return ResolvedConstant(value=math.pi ** (-n_dim / 2.0), provenance="exact")
    if cube_side is None or spacing is None:
        try:
            default_side, default_spacing = _DEFAULT_WINDOW[n_dim]
        except KeyError:
            raise ValidationError(
                f"no default MC window for dimension {n_dim}; pass cube_side and spacing"
            ) from None
        cube_side = default_side if cube_side is None else cube_side
        spacing = default_spacing if spacing is None else spacing
    est = estimate_pickands_dy(alpha, n_dim, cube_side, spacing, reps, seed)
    return ResolvedConstant(value=est.estimate, provenance="mc", mc=est)
