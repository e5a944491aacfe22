"""Brute-force Monte Carlo check of the analytic approximations.

The oracle is direct: simulate the Gaussian field itself on a dense
grid over the domain, count how often the grid maximum exceeds each
level, and put a Wilson interval around the count.  A grid maximum can
only under-shoot the continuum supremum, so the empirical curve bounds
the target from below; the drift under grid refinement is reported
(``validate`` adds rows at half resolution, taken from the same
sample) rather than corrected.

Grids: ``_SCHEMES`` gives each domain type (or its nearest catalogue
base) a chart and its points at resolution R, built once the point
budget is checked:

* rectangles: inclusive tensor grid, R points per axis;
* flat tori: tensor grid with pitch period/R (no duplicate seam points),
  carrying its ``lattice`` index;
* circles and great circles: equally spaced angles;
* 2-sphere: latitude rows at the midpoints (i + 1/2) pi/R, each row
  carrying about 2 R sin(theta) longitudes, so the pitch is roughly
  uniform and the poles are never touched.

``Grid.refine`` returns the parent's points as an exact prefix (same
floating-point values, same order), then by index the points of the grid
at 2R (2R - 1 on rectangles, whose sides keep both ends) with an odd
step on some axis: the parent's recur bit for bit at the even steps.  No
2-sphere row recurs, so there it adds them all.  ``sample_field`` with a
``prefix`` reduces each draw over the parent's points and over the whole
grid, so one pass gives both samples, and "finer grid never lowers the
empirical curve" holds draw by draw rather than by statistical accident.

Samplers: ``sample_field`` picks one of three factors in ``_factor``.

* circulant (``sampling.factor_circulant``): when the grid is a whole
  lattice of the model's own flat torus that ``build_grid`` or
  ``Grid.refine`` made, which carries its ``lattice`` index (a
  hand-built grid carries none, whatever its points), of at least
  SPECTRAL_MIN_POINTS points, with a side whose prime factors are all
  in SPECTRAL_RADICES;
* features (``sampling.FeatureFactor``): for a ``SphereSchoenberg``
  kernel whose feature count r (``feature_count``, known from the
  coefficients alone) is below FEATURE_MAX_SHARE times the grid's point
  count;
* dense Cholesky on every other grid and model, rectangles always, and
  on every grid when a fixed jitter is asked for; it is also the
  reference the tests compare both others against.

Replication i's normals depend on (seed, i) alone, drawn from its own
re-keyed stream or, on the feature path, from its BATCH block's, so on
any path a run with more replications extends a shorter one, and
a replay is byte-identical (on the circulant path, at any BLAS thread
cap, since it makes no BLAS call).  On the dense path a refined run
also restricts to the coarse run sample for sample if both matrices
take one shift, as under ``fixed_rel_jitter``: up to rounding in the
factorization, whose blocking depends on the matrix size, amplified by
conditioning (6.0e-11 at most for ``StableOnChart(FlatTorus((1, 1)),
1, 2)``, 6 x 6 against 12 x 12, at 1e-10; 2.3e-7 under the ladder,
which picks 0 and 1e-12).  On the feature path it restricts up to
rounding in the product (BLAS may sum a row's r terms in another order
at another product height), when both grids take it.  On the
circulant path it does not: the coarse rows of one run are the even
sublattice of its draws, not the draws of a standalone coarse run.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .covariance import SphereSchoenberg
from .curvatures import FullSphere, FullTorus, GreatCircle, Rectangle
from .errors import UnsupportedShapeError, ValidationError
from .sampling import (
    CovarianceColumns,
    FeatureFactor,
    _cap_points,
    _check_count,
    _check_draws,
    draw_in_batches,
    factor_circulant,
    factor_covariance,
)
from .serialize import csv_text

__all__ = [
    "Z95",
    "wilson_interval",
    "McEstimate",
    "Grid",
    "build_grid",
    "sample_field",
    "empirical_excursion",
    "estimates_from_sups",
    "ComparisonRow",
    "ComparisonTable",
    "compare_report",
]

# Smallest lattice sampled through its circulant spectrum, and the only
# primes its side may have: numpy.fft against the row-blocked dense
# product, per 512-replication batch at 2 threads, lost at 34^2 points
# (38.6 ms against 9.6), tied at 40^2 (20.2 / 19.8 ms) and won from
# 45^2 on (29.6 / 33.5; 60^2: 44.4 / 98.8; 100^2: 198 / 706), but
# sides with a larger prime factor lost even there (47^2: 110.5 / 39.4;
# 61^2: 151.1 / 105.4; 97^2: 694 / 621).  Without the size rule whole
# runs were 1.08x to 1.30x slower than dense at sides 30 to 40.
SPECTRAL_MIN_POINTS = 2048
SPECTRAL_RADICES = (2, 3, 5, 7)
# Schoenberg kernels are sampled through their r features only while r
# is below this share of the grid's n points.  Whole sample_field calls
# on 2-sphere grids (5000 replications, 2 threads on a 2-CPU host,
# median feature/dense time ratio of 9 pairs) with r just below n / 2
# took 0.91x at n = 46, 0.84x at 102, 0.70x at 230, 0.64x at 408, 0.58x
# at 508 and 0.49x at 916.  Nearer r = n the gain sank into the
# run-to-run spread: at r / n from 0.75 to 0.97 the medians ranged from
# 0.88x to 1.02x below 240 points (0.67x to 0.92x at 508 and 916), and
# single pairs ran up to 2.8x slower.  The flops agree: the
# feature product costs 2 n r per replication, the row-blocked
# triangular one about n^2 once n is several blocks.
FEATURE_MAX_SHARE = 0.5

# Two-sided 95% normal quantile, frozen so intervals never drift with
# the scipy version.
Z95 = 1.959963984540054


def wilson_interval(count: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Well behaved at zero and full counts (never collapses to a point,
    never leaves [0, 1]).
    """
    if not 0 <= count <= n:
        raise ValidationError(f"count {count} outside [0, {n}]")
    if n < 1:
        raise ValidationError(f"sample size must be positive, got {n}")
    p = count / n
    denom = 1.0 + Z95 * Z95 / n
    center = (p + Z95 * Z95 / (2.0 * n)) / denom
    half = (Z95 / denom) * math.sqrt(p * (1.0 - p) / n + Z95 * Z95 / (4.0 * n * n))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class McEstimate:
    """Empirical P{sup >= u} with its 95% Wilson interval."""

    u: float
    p_hat: float
    ci_low: float
    ci_high: float
    reps: int
    resolution: int
    seed: int


@dataclass(frozen=True, eq=False)
class Grid:
    """Evaluation points on a domain, all in one chart.

    ``lattice`` is set on the flat-torus grids ``build_grid`` and
    ``refine`` make: each point's C-order index on the R^k lattice of
    points i_k * (P_k / R).  Every other grid has None.
    """

    domain: object
    chart: str
    coords: np.ndarray = field(repr=False)
    resolution: int
    lattice: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return self.coords.shape[0]

    def refine(self) -> "Grid":
        """A finer grid containing this one as an exact prefix (see the
        module docstring).  Its rule holds for the grids ``build_grid`` or
        ``refine`` made, which are all ``validate`` and the tests refine."""
        _, points, trim, _ = _scheme(self.domain)
        fine_res = 2 * self.resolution - trim
        fine, shape = points(self.domain, fine_res)
        odd = np.ones(len(fine), bool) if shape is None else (np.indices(shape) % 2).any(0).ravel()
        new = np.flatnonzero(odd)
        _cap_points(len(self) + len(new))
        # Lattice point j is the fine lattice's j-th point of even steps.
        even = np.flatnonzero(~odd)
        lattice = None if self.lattice is None else np.concatenate([even[self.lattice], new])
        coords = np.concatenate([self.coords, fine[new]])
        return Grid(self.domain, self.chart, coords, fine_res, lattice)


def _tensor(axes: list) -> tuple[np.ndarray, tuple[int, ...]]:
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1), grids[0].shape


def _check_resolution(resolution: int) -> int:
    if not isinstance(resolution, (int, np.integer)) or isinstance(resolution, bool):
        raise ValidationError(f"resolution must be an integer, got {resolution!r}")
    if resolution < 2:
        raise ValidationError(f"resolution must be at least 2, got {resolution}")
    return int(resolution)


def _rectangle(box: Rectangle, resolution: int):
    _cap_points(resolution, box.k)
    return _tensor([np.linspace(0.0, side, resolution) for side in box.sides])


def _torus(torus: FullTorus, resolution: int):
    _cap_points(resolution, torus.k)
    return _tensor([np.arange(resolution) * (p / resolution) for p in torus.periods])


def _sphere(domain, resolution: int):
    if domain.k == 1:
        _cap_points(resolution)
        polar = [[math.pi / 2.0]] * (domain.manifold.dim - 1)
        return _tensor([*polar, np.arange(resolution) * (2.0 * math.pi / resolution)])
    # Every latitude row holds at least one point, so the row count is
    # checked first, then the point count; only then are longitudes built.
    _cap_points(resolution)
    thetas = [(i + 0.5) * math.pi / resolution for i in range(resolution)]
    counts = [max(1, int(round(2.0 * resolution * math.sin(t)))) for t in thetas]
    _cap_points(sum(counts))
    blocks = [
        np.stack([np.full(count, theta), np.arange(count) * (2.0 * math.pi / count)], -1)
        for theta, count in zip(thetas, counts)
    ]
    return np.concatenate(blocks, axis=0), None


# Domain type -> (chart, points, trim, lattice); see the module docstring.
_SCHEMES = {
    Rectangle: ("main", _rectangle, 1, False),
    FullTorus: ("main", _torus, 0, True),
    FullSphere: ("north", _sphere, 0, False),
    GreatCircle: ("north", _sphere, 0, False),
}


def _scheme(domain) -> tuple:
    """The scheme of the domain's type or of its nearest catalogue base;
    the sphere scheme lays out circles and 2-spheres only."""
    if isinstance(domain, FullSphere) and domain.k > 2:
        raise UnsupportedShapeError(f"no grid scheme for spheres of dimension {domain.k}")
    for kind in type(domain).__mro__:
        if kind in _SCHEMES:
            return _SCHEMES[kind]
    raise UnsupportedShapeError(f"no grid scheme for {type(domain).__name__}")


def build_grid(domain, resolution: int) -> Grid:
    """Quasi-uniform evaluation grid on a catalogue domain."""
    resolution = _check_resolution(resolution)
    chart, points, _, lattice = _scheme(domain)
    coords, _ = points(domain, resolution)
    return Grid(domain, chart, coords, resolution, np.arange(len(coords)) if lattice else None)


def _factor(model, grid: Grid, fixed_rel_jitter):
    """The circulant factor where the grid is a lattice of the model's
    own torus that the FFT wins on (see SPECTRAL_MIN_POINTS), else the
    feature factor of a Schoenberg kernel with fewer than
    FEATURE_MAX_SHARE features per grid point (counted before any is
    built), else the dense Cholesky factor.  A fixed jitter always takes
    the dense one: it serves restriction across grids, which only the
    dense factor gives."""
    if fixed_rel_jitter is None:
        side = grid.resolution
        if (
            grid.lattice is not None
            and model.manifold == grid.domain.manifold
            and len(grid) >= SPECTRAL_MIN_POINTS
        ):
            rest = side
            for prime in SPECTRAL_RADICES:
                while rest % prime == 0:
                    rest //= prime
            if rest == 1:
                # build_grid's points are in lattice order.
                lattice = build_grid(grid.domain, side).coords
                # Row 0 of the covariance matrix, its diagonal entry pinned as there.
                row = model.covariance_table(grid.chart, lattice[:1], lattice)[0]
                row[0] = 1.0
                return factor_circulant(row.reshape((side,) * grid.domain.k), grid.lattice)[0]
        few = FEATURE_MAX_SHARE * len(grid)
        if isinstance(model, SphereSchoenberg) and model.feature_count() < few:
            return FeatureFactor(model.features(grid.chart, grid.coords))
    # The grid's diagonal is pinned to 1, so the relative jitter is the shift.
    return factor_covariance(_columns(model, grid), shift=fixed_rel_jitter)[0]


def _columns(model, grid: Grid) -> CovarianceColumns:
    """The grid's covariance by block columns: the model's table of
    coords[a:] against coords[a:b], its diagonal pinned to 1 as
    ``covariance_matrix`` pins it."""
    coords = grid.coords

    def block(a, b):
        rows = coords[a:]
        # The last column's table is of the rows against themselves, one
        # array passed twice: sphere kernels then take their inner
        # products as ``covariance_matrix`` does, by one symmetric
        # product, so a grid of one block column keeps its matrix's bits.
        col = model.covariance_table(grid.chart, rows, rows if b == len(coords) else coords[a:b])
        np.fill_diagonal(col, 1.0)
        return col

    return CovarianceColumns(block, np.ones(len(grid)))


def sample_field(
    model,
    grid: Grid,
    reps: int,
    seed: int,
    *,
    prefix: int | None = None,
    fixed_rel_jitter: float | None = None,
) -> np.ndarray:
    """Per-replication grid maxima of exact joint field samples.

    With ``prefix`` = m, a (2, reps) array instead: the maxima over the
    whole grid (row 0) and over its first m points (row 1), from the
    same draws.  On the dense path row 1 is the sample of those m points
    alone if both factorizations take one shift, as under
    ``fixed_rel_jitter`` (which always factors densely), up to rounding
    in the factorization amplified by conditioning; on the feature path
    up to rounding in the product when those m points take it too; on
    the circulant path (see the module docstring) it is not.
    """
    reps, _ = _check_draws(reps, seed)
    head = len(grid) if prefix is None else _check_count("prefix", prefix, 1, len(grid))
    factor = _factor(model, grid, fixed_rel_jitter)
    sups = np.empty((2, reps))
    for start, block in draw_in_batches(factor, reps, seed):
        cols = slice(start, start + block.shape[1])
        sups[1, cols] = block[:head].max(axis=0)
        sups[0, cols] = np.maximum(sups[1, cols], block[head:].max(axis=0, initial=-np.inf))
        # Released before the next block is drawn.
        del block
    return sups[0] if prefix is None else sups


def estimates_from_sups(
    sups: np.ndarray, u_grid, *, resolution: int, seed: int
) -> list[McEstimate]:
    """Threshold counts and Wilson intervals on a shared sample set."""
    sups = np.asarray(sups, dtype=float)
    reps = sups.shape[0]
    out = []
    for u in u_grid:
        u = float(u)
        if not math.isfinite(u):
            raise ValidationError(f"levels must be finite, got {u}")
        count = int(np.sum(sups >= u))
        low, high = wilson_interval(count, reps)
        out.append(
            McEstimate(
                u=u,
                p_hat=count / reps,
                ci_low=low,
                ci_high=high,
                reps=reps,
                resolution=int(resolution),
                seed=int(seed),
            )
        )
    return out


def empirical_excursion(
    model,
    domain,
    u_grid,
    resolution: int,
    reps: int,
    seed: int,
) -> list[McEstimate]:
    """Empirical P{sup >= u} on a fresh grid, one sample set for all u."""
    grid = build_grid(domain, resolution)
    sups = sample_field(model, grid, reps, seed)
    return estimates_from_sups(sups, u_grid, resolution=grid.resolution, seed=int(seed))


@dataclass(frozen=True)
class ComparisonRow:
    """One ``validate`` CSV row; the fields, in order, are its columns."""

    u: float
    analytic_total: float
    p_hat: float
    ci_low: float
    ci_high: float
    ratio: float | None
    within_ci: bool
    resolution: int
    reps: int
    seed: int


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple[ComparisonRow, ...]

    def to_csv(self) -> str:
        return csv_text([f.name for f in fields(ComparisonRow)], map(astuple, self.rows))


def compare_report(analytic, empirical) -> ComparisonTable:
    """Side-by-side rows of analytic value vs empirical estimate.

    The two sequences must cover the same levels in the same order.
    The ratio column is analytic/p_hat and empty where p_hat = 0.
    """
    analytic = list(analytic)
    empirical = list(empirical)
    if len(analytic) != len(empirical):
        raise ValidationError(
            f"analytic and empirical level grids differ in length: "
            f"{len(analytic)} vs {len(empirical)}"
        )
    rows = []
    for approx, mc in zip(analytic, empirical):
        if approx.u != mc.u:
            raise ValidationError(f"level mismatch: analytic {approx.u} vs empirical {mc.u}")
        ratio = approx.total / mc.p_hat if mc.p_hat > 0 else None
        rows.append(
            ComparisonRow(
                u=mc.u,
                analytic_total=approx.total,
                p_hat=mc.p_hat,
                ci_low=mc.ci_low,
                ci_high=mc.ci_high,
                ratio=ratio,
                within_ci=mc.ci_low <= approx.total <= mc.ci_high,
                resolution=mc.resolution,
                reps=mc.reps,
                seed=mc.seed,
            )
        )
    return ComparisonTable(rows=tuple(rows))
