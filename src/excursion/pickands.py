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

so it estimates K^{-N} E[(e^M - 1)^+] with M the maximum of Z over the
lattice L in [0, K]^N.  That is a different number from H at any
finite K once N >= 2 (at alpha = 2 it is K^{-N} ((1 + K/sqrt(pi))^N - 1)
by separability, 0.6004 at N = 2, K = 4 against H = 1/pi).  The
lattice maximum under-approximates the continuum supremum, so it rises
as spacing shrinks.  It backs the ``pickands-const`` subcommand.

Under plain draws f = (e^M - 1)^+ is heavy-tailed: at alpha = 2 its
mean lives on draws whose argmax lies near the window's far edge,
events of probability below 1e-8 at K = 8.  So the window estimator
changes the measure, after Dieker and Yakir, to

    Q = (Q+ + Q-) / 2,  Q+- = |L|^-1 sum_{tau in L} e^{+-sqrt(2) W(tau) - |tau|^alpha} P.

With Z' = -sqrt(2) W - |s|^alpha and S = sum_L e^Z (the origin adds 1),
dQ/dP = (S + S') / (2 |L|), so

    g(W) = |L| (f(Z) + f(Z')) / (S + S')

has, under Q, the mean E f(Z) of plain draws, exactly.  It lies in
[0, |L|), because e^M - 1 < S, so its variance is finite and its
standard error measures its error.  g is even in W, and Q- is the law
of -W under Q+, so g has one law under Q+, Q- and Q: only Q+ is drawn.
Its component tau tilts P by one lattice point's e^{sqrt(2) W(tau)},
which shifts the normals by a row of the factor of Cov(Z) (see
``sampling.TiltedFactor``; the pinned origin's row is 0), so it is
sampled exactly.  At alpha = 1, N = 2, K = 4, spacing 0.1 and 10,000
replications it gives 1.0873 +- 0.0062 at seed 0.  Where e^Z
or e^Z' would overflow or lose its last bits (|Z| or 2 |s|^alpha above
``_EXP_SAFE``: wide windows at alpha near 2), the ratio is taken in
logarithms.

``estimate_pickands_dy`` draws under P and uses antithetic pairs: -W
has the law of W, so each set of normals gives two exact draws of Z,
sqrt(2) W - |s|^alpha and -sqrt(2) W - |s|^alpha, from one factor
product.  A replication's value is the mean of the ratio on the two,
and the estimate and its standard error are those of ``reps``
independent pair means.  A pair mean is still bounded by delta^{-N}.
At alpha = 1 the two ratios of a pair are negatively correlated: the
stderr^2 falls to 0.41-0.53 of one draw's at N = 1 and 2, for one more
pass of the statistic over each block.  At alpha = 2, W(s) = <s, xi>
is linear, so the negated draw is the mirror image Z(-s).  On an
exactly centred lattice the two ratios then coincide, to the rounding
of the diagonal shift, and the pairing gains nothing there.

The origin has variance 0; Z(0) = 0 is pinned exactly and only the
remaining points' covariance is factorized, so no jitter noise is
spent on the degenerate row.  For N >= 2 the swap of axes 0 and 1 maps
the cube lattice, centred or not, onto itself and keeps Cov(W), so the
covariance splits into the swap's even and odd blocks (Fassler and
Stiefel 1992, Group Theoretical Methods and Their Applications): each
pair {p, sigma p} of mirror points becomes (W_p + W_sigma p) / sqrt(2)
and (W_p - W_sigma p) / sqrt(2), each point on the diagonal s_0 = s_1
stays as it is, and the two sets are uncorrelated.  The lattice is a
C-order cube, so the estimators find sigma by index, the axes of the
cube's index array swapped, and ``_factor_w`` factors the blocks apart
at one shared diagonal shift (``sampling.PairedFactor``): 860 and 820
points on the default 2-D window, with slabs of about n^2 / 4 doubles.
The rows come out in the factor's order.  N = 1, and ``simulate_z`` on
a caller's lattice, keep one block in lattice order.  alpha = 2 has the
exact value H_{2, N} = pi^{-N/2}, which the resolver returns without
simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import FactorizationError, ValidationError, _check_count, _check_real
from .sampling import (
    _MAX_REPS,
    _SQRT_HALF,
    _axis_sum_of_squares,
    _cap_points,
    _check_stream,
    _shift_ladder,
    CovarianceColumns,
    DenseFactor,
    PairedFactor,
    TiltedFactor,
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
# factorized blocks around two of 850^2 (N = 2) or smaller.
_DEFAULT_WINDOW = {1: (8.0, 0.05), 2: (4.0, 0.1), 3: (2.0, 0.25)}
# Relative distance from an integer within which cube_side / spacing
# counts as that integer: far above the rounding of one division
# (about 1e-16), far below any window a user would mean as a fraction.
_SNAP_REL = 1e-9


# The estimators' range rules, by ``pickands-const`` field name: the
# estimators check their arguments with them, and ``pickands-const`` its
# fields, before any lattice is built.
_RANGE_RULES = {
    "alpha": partial(_check_real, "alpha", gt=0, le=2),
    "dim": partial(_check_count, "dimension", low=1),
    "cube_side": partial(_check_real, "cube side", ge=1),
    "spacing": partial(_check_real, "spacing", gt=0, le=0.25),
    "reps": partial(_check_count, "replication count", low=1000, high=_MAX_REPS),
}


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


def _lattice_steps(cube_side: float, spacing: float) -> int:
    """Lattice steps per axis in [0, cube_side]: cube_side / spacing
    rounded to the nearest integer when within a relative _SNAP_REL of
    it, floored otherwise.  The ratio of two decimal inputs misses its
    integer by rounding (1.2 / 0.1 is 11.999999999999998), and a plain
    floor would drop the last layer of the cube."""
    ratio = cube_side / spacing
    if not math.isfinite(ratio):
        raise ValidationError(f"cube_side / spacing overflows: {cube_side} / {spacing}")
    nearest = round(ratio)
    return nearest if abs(ratio - nearest) <= _SNAP_REL * ratio else math.floor(ratio)


def cube_lattice(n_dim: int, cube_side: float, spacing: float) -> np.ndarray:
    """Regular lattice on [0, cube_side]^N including the origin.

    Returns an (m, N) array in lexicographic order; the origin is row 0.
    """
    n_dim = _RANGE_RULES["dim"](n_dim)
    cube_side = _check_real("cube side", cube_side, gt=0)
    spacing = _check_real("spacing", spacing, gt=0, le=cube_side)
    steps = _lattice_steps(cube_side, spacing)
    _cap_points(steps + 1, n_dim)
    per_axis = np.arange(steps + 1) * spacing
    grids = np.meshgrid(*([per_axis] * n_dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _drift(lattice: np.ndarray, alpha: float) -> np.ndarray:
    return (np.sum(lattice**2, axis=1)) ** (alpha / 2.0)


def _factor_w(
    alpha: float, lattice: np.ndarray, *, of_z: bool = False, mirror: np.ndarray | None = None
) -> tuple[DenseFactor | PairedFactor, np.ndarray, np.ndarray]:
    """Factor Cov(W), or with ``of_z`` Cov(sqrt(2) W) = Cov(Z), on the
    positive-variance lattice points.

    Returns (factor, active, drift) where ``active`` holds the lattice
    index of each of the factor's rows; the other points (the origin)
    are pinned to 0.  With no positive-variance point the factor has no
    slabs and nothing is factorized.

    With ``mirror``, the index of each lattice point's image under an
    involution that keeps the covariance and has pairs of distinct
    points (the swap of two axes of a cube lattice), the covariance is
    factored in its even and odd blocks under it (``PairedFactor``),
    each by ``factor_covariance`` at one shared diagonal shift: the
    least on ``_shift_ladder`` at which both factor.  Otherwise the
    whole covariance is one ``DenseFactor``, its rows in lattice order.
    """
    drift = _drift(lattice, alpha)
    active = np.flatnonzero(drift > 0.0)
    if active.shape[0] == 0:
        return DenseFactor([]), active, drift
    _cap_points(active.shape[0])
    coef = 1.0 if of_z else 0.5
    var = coef * (drift + drift)

    def cov(a, b):
        # coef * (|s|^alpha + |v|^alpha - |s - v|^alpha) for s in the
        # points a, v in the points b, in the distance buffer.
        col = _axis_sum_of_squares(lattice[a], lattice[b], lambda k, delta: delta)
        col **= alpha / 2.0
        np.subtract(drift[a][:, None] + drift[b][None, :], col, out=col)
        col *= coef
        return col

    if mirror is None:
        columns = CovarianceColumns(lambda a, b: cov(active[a:], active[a:b]), var[active])
        return factor_covariance(columns)[0], active, drift

    # Even rows: the pairs' first points p, then the fixed points f;
    # odd rows: the pairs.  sigma p is the image of p.
    first = active[mirror[active] > active]
    second = mirror[first]
    fixed = active[mirror[active] == active]
    pairs = first.shape[0]
    points, images = np.concatenate([first, fixed]), np.concatenate([second, fixed])

    def even(a, b):
        # C[p, q] + C[p, sigma q], which with a fixed point's row and
        # column scaled by 1 / sqrt(2) gives sqrt(2) C[p, f] and C[f, g].
        col = cov(points[a:], points[a:b])
        col += cov(points[a:], images[a:b])
        col[max(pairs - a, 0) :] *= _SQRT_HALF
        col[:, max(pairs - a, 0) :] *= _SQRT_HALF
        return col

    def odd(a, b):
        col = cov(first[a:], first[a:b])
        col -= cov(first[a:], second[a:b])
        return col

    # C[p, sigma p], for the blocks' diagonals.
    gap = np.sum((lattice[first] - lattice[second]) ** 2, axis=1) ** (alpha / 2.0)
    cross = coef * (drift[first] + drift[second] - gap)
    blocks = (
        CovarianceColumns(even, np.concatenate([var[first] + cross, var[fixed]])),
        CovarianceColumns(odd, var[first] - cross),
    )

    def attempt(shift):
        try:
            return PairedFactor(*(factor_covariance(c, shift=shift)[0] for c in blocks))
        except FactorizationError:
            return None

    factor, _ = _shift_ladder(
        attempt,
        float(var[active].sum()) / active.shape[0],
        lambda: min(float(np.linalg.eigvalsh(c.block(0, len(c)))[0]) for c in blocks),
    )
    return factor, np.concatenate([first, fixed, second]), drift


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
    alpha, n_dim = _RANGE_RULES["alpha"](alpha), _RANGE_RULES["dim"](n_dim)
    lattice = _validate_lattice(n_dim, lattice)
    stream = replicate_generator(seed, 0)
    factor, active, drift = _factor_w(alpha, lattice)
    z = stream.standard_normal((1, len(factor)))
    out = np.zeros(lattice.shape[0])
    out[active] = SQRT2 * factor.product(z)[:, 0]
    return out - drift


def _window(n_dim: int, cube_side: float | None, spacing: float | None) -> tuple:
    """(cube_side, spacing), each one not given (None) taken from the
    default window of dimension ``n_dim``; a dimension with no default
    window needs both."""
    if cube_side is None or spacing is None:
        if n_dim not in _DEFAULT_WINDOW:
            raise ValidationError(
                f"no default MC window for dimension {n_dim}; pass cube_side and spacing"
            )
        default_side, default_spacing = _DEFAULT_WINDOW[n_dim]
        cube_side = default_side if cube_side is None else cube_side
        spacing = default_spacing if spacing is None else spacing
    return cube_side, spacing


def _lattice_mean(
    statistic, alpha, n_dim, cube_side, spacing, reps, seed, *, window: bool
) -> PickandsEstimate:
    """norm * mean of ``statistic`` on the cube lattice.

    ``statistic(z, drift)`` maps a block of draws Z = sqrt(2) W - drift
    of the factorized points, one row per point in the factor's order
    and one column per replication, to one value per column; it may
    overwrite the block.  With ``window`` the lattice
    is [0, K]^N, the norm K^-N, and W is drawn under the Dieker-Yakir
    tilt mixture Q+ (see the module docstring) from the factor of
    Cov(Z), so the tilt adds a factor row as it is.  Otherwise the lattice is
    centred on the origin, the norm spacing^-N, and W is drawn under P.
    For N >= 2 the factor is in the blocks of the swap of axes 0 and 1,
    whose mirror index is the cube's index array with those axes
    swapped.  The estimate and its standard error are those of the
    ``reps`` independent values.
    """
    args = (alpha, n_dim, cube_side, spacing, reps)
    alpha, n_dim, cube_side, spacing, reps = (f(a) for f, a in zip(_RANGE_RULES.values(), args))
    seed = _check_stream(seed, reps - 1)

    lattice = cube_lattice(n_dim, cube_side, spacing)
    steps = _lattice_steps(cube_side, spacing)
    if not window:
        lattice = lattice - spacing * (steps // 2)
    mirror = None
    if n_dim > 1:
        mirror = np.arange(lattice.shape[0]).reshape((steps + 1,) * n_dim).swapaxes(0, 1).ravel()
    factor, active, drift = _factor_w(alpha, lattice, of_z=window, mirror=mirror)
    if window:
        factor = TiltedFactor(factor, lattice.shape[0])
    drift_active = drift[active][:, None]

    stats = np.empty(reps)
    for start, block in draw_in_batches(factor, reps, seed):
        # Z is formed in the block's own buffer, with no block-sized
        # temporary.
        if not window:
            block *= SQRT2
        block -= drift_active
        stats[start : start + block.shape[1]] = statistic(block, drift_active)
        # Released before the next block is drawn.
        del block
    norm = (cube_side if window else spacing) ** (-n_dim)
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


# Largest |Z| and 2 |s|^alpha for which the window statistic takes e^Z
# and e^Z' = e^{-2 drift} / e^Z directly: e^600 times the 10,000 points of
# a lattice stays finite and e^-600 normal, so every term that reaches
# the sums is exact to rounding.
_EXP_SAFE = 600.0


def _tilted_window(z: np.ndarray, drift: np.ndarray) -> np.ndarray:
    """|L| (f(Z) + f(Z')) / (S(Z) + S(Z')) per column, with Z' = -2 drift
    - Z, f = (e^M - 1)^+ and S = sum e^Z over the lattice L, the pinned
    Z(0) = 0 included in both (it adds 1 to S).  Overwrites ``z``."""
    points = z.shape[0] + 1
    top = np.maximum(z.max(axis=0), 0.0)
    if 2.0 * drift.max() <= _EXP_SAFE and top.max() <= _EXP_SAFE and z.min() >= -_EXP_SAFE:
        excess = np.expm1(top)
        e = np.exp(z, out=z)
        total = 2.0 + e.sum(axis=0)
        np.divide(np.exp(-2.0 * drift), e, out=e)
        total += e.sum(axis=0)
        excess += np.maximum(e.max(axis=0) - 1.0, 0.0)
        return points * excess / total
    # A wide window: the same ratio in logarithms, each term at most 1.
    log_plus = np.logaddexp(0.0, np.logaddexp.reduce(z, axis=0))
    np.subtract(-2.0 * drift, z, out=z)
    top_minus = np.maximum(z.max(axis=0), 0.0)
    log_total = np.logaddexp(log_plus, np.logaddexp(0.0, np.logaddexp.reduce(z, axis=0)))
    return points * (
        np.exp(top - log_total) + np.exp(top_minus - log_total) - 2.0 * np.exp(-log_total)
    )


def _dy_ratio(z_vals: np.ndarray) -> np.ndarray:
    """max e^Z / sum e^Z per column, the pinned Z(0) = 0 included."""
    # Z(0) = 0 is the pinned lattice point: it enters both the maximum
    # and the sum.  Shifting by the maximum keeps exp <= 1.
    top = np.maximum(z_vals.max(axis=0), 0.0)
    return 1.0 / (np.exp(-top) + np.exp(z_vals - top).sum(axis=0))


def _dy_pair(z: np.ndarray, drift: np.ndarray) -> np.ndarray:
    """The antithetic pair mean of ``_dy_ratio`` on Z and on
    Z' = -2 drift - Z, the second formed in ``z``'s buffer."""
    first = _dy_ratio(z)
    np.subtract(-2.0 * drift, z, out=z)
    return 0.5 * (first + _dy_ratio(z))


def estimate_pickands(
    alpha: float, n_dim: int, cube_side: float, spacing: float, reps: int, seed: int
) -> PickandsEstimate:
    """Window estimate K^{-N} E[(e^M - 1)^+] on a [0, K]^N lattice, from
    ``reps`` antithetic pairs of draws under the Dieker-Yakir mixture."""
    return _lattice_mean(
        _tilted_window, alpha, n_dim, cube_side, spacing, reps, seed, window=True
    )


def estimate_pickands_dy(
    alpha: float, n_dim: int, cube_side: float, spacing: float, reps: int, seed: int
) -> PickandsEstimate:
    """Dieker-Yakir estimate of H_{alpha, N} on a centred lattice.

    Averages max e^Z / (spacing^N sum e^Z) over ``reps`` antithetic
    pairs of exact joint draws of Z on the side-``cube_side`` cube
    lattice shifted so that the origin is its centre point (exactly
    centred when the lattice has an even number of steps per axis; one
    extra layer on the positive side otherwise).  Arguments,
    preconditions and the returned record are those of
    ``estimate_pickands``.
    """
    return _lattice_mean(_dy_pair, alpha, n_dim, cube_side, spacing, reps, seed, window=False)


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
    alpha, n_dim = _RANGE_RULES["alpha"](alpha), _RANGE_RULES["dim"](n_dim)
    if alpha == 2.0:
        return ResolvedConstant(value=math.pi ** (-n_dim / 2.0), provenance="exact")
    cube_side, spacing = _window(n_dim, cube_side, spacing)
    est = estimate_pickands_dy(alpha, n_dim, cube_side, spacing, reps, seed)
    return ResolvedConstant(value=est.estimate, provenance="mc", mc=est)
