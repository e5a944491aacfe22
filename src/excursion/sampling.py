"""Exact joint Gaussian sampling support.

Five pieces shared by the simulation layers, and the budgets they keep:

* ``_axis_sum_of_squares``: the n x m table of sum_k f_k(a_k - b_k)^2
  that every coordinate-difference distance starts from, built from one
  small table per axis (see its docstring), so that no (n, m, d) array
  is ever formed.

* ``factor_covariance``: lower-triangular factorization of a covariance
  matrix, with a bounded diagonal-inflation retry for matrices that are
  singular or indefinite only at rounding level.  The inflation is
  relative to the mean diagonal, doubling from 1e-12 up to a hard cap
  of 1e-6; a matrix that cannot be factored within the cap raises
  FactorizationError (its smallest eigenvalue goes in the message, so a
  genuinely indefinite kernel is distinguishable from conditioning).
  The covariance comes in as ``CovarianceColumns``, a source of block
  columns Cov[a:, a:b] of ROW_BLOCK columns, and the factor is built
  left-looking, one block column at a time (Golub & Van Loan, Matrix
  Computations, 4.2), straight into its row slabs L[a:b, :b]
  (``DenseFactor``): no covariance matrix, no shifted copy, no LAPACK
  copy of either and no n x n factor is formed.  Only the lower
  triangle is read, so the source need not be symmetric.  The dense
  path peaks at the slabs, about n^2 / 2 doubles, plus a few
  n x ROW_BLOCK panels: about 0.47 GB at the ``_MAX_GRID_POINTS``
  budget.  A whole matrix is accepted too, and read by block columns.
  A caller that must share one shift across matrices passes it as
  ``shift``, absolute, and the ladder is skipped.  A covariance that an
  involution of its points keeps (the Pickands lattice under the swap
  of two axes) splits into an even and an odd block, factored apart at
  one such shift; ``PairedFactor`` holds the two factors and maps their
  draws back to the points.  Its slabs are about n^2 / 4 doubles.

* ``factor_circulant``: the spectral square root of a covariance that
  is block-circulant on a regular lattice, as a stationary kernel is on
  a whole lattice of a flat torus (Wood & Chan 1994; Dietrich & Newsam
  1997).  It is built from one covariance row: the eigenvalues are
  ``rfftn(row).real``, and a draw is ``irfftn(sqrt(lambda) * rfftn(z))``
  (``CirculantFactor``), with no n x n array and no O(n^3)
  factorization.  It walks ``factor_covariance``'s shift ladder, on the
  eigenvalues.  Draws are made and transformed in blocks of
  ``CirculantFactor.step`` replications, the most whose normals and
  half-spectrum fit in ``_CIRCULANT_STEP_BYTES`` (2 MiB): each block's
  spectrum is scaled by the root in place and its field reordered into
  the caller's point order.  Each replication is transformed on its
  own, so the step decides no value.  ``numpy.fft`` is
  single-threaded and makes no BLAS call, so these draws do not depend
  on the BLAS thread cap; it is loaded on first use, and ``scipy.fft``,
  no faster on the sides the rule admits, would cost its import.

* ``FeatureFactor``: a covariance F F^T of an (n, r) feature array with
  r < n, such as a polynomial kernel's exact monomial features
  (``SphereSchoenberg.features``).  A draw is F z with r normals, with
  no n x n array, no factorization and no shift.

* counter-based generators: a Philox stream is keyed by 128 bits, the
  seed in the high word and an index in the low word, so streams are
  distinct across both seeds and indices, reproducible, order
  independent, and parallelizable.  ``replicate_generator`` defines
  the stream.  A dense, paired, tilted or circulant draw takes one
  stream per replication, indexed by the replication; a feature draw
  takes one per block of BATCH replications, indexed by the block's
  first replication, and fills the whole block's normals in one call (a
  replication needs only r normals there, so re-keying a stream for
  each would be most of the draw).  ``draw_in_batches`` defines both
  schemes.  Either way replication i's normals depend on (seed, i)
  alone, so a run with more replications extends a shorter run bit
  for bit instead of reshuffling it.  Every product is of a whole
  step of rows, so a narrow last block is rounded as the longer run
  rounds those columns.
  Because a dense draw's streams are per replication, its sample
  on a grid that extends another grid (extra points appended)
  restricts to the sample on the smaller grid if both take one
  diagonal ``shift``: the draws extend exactly, and the factor's
  leading block is the smaller grid's factor up to rounding (the last
  block column and the products' shapes depend on the matrix size),
  amplified by conditioning.  A circulant factor mixes
  every normal into every point, so its sample restricts to no smaller
  grid's.  A feature row depends on its own point alone, so a feature
  sample restricts to the feature sample of any subset of its points:
  each value is the same r-term dot product, up to rounding (BLAS may
  order its sum differently at another product height).
  ``draw_in_batches`` reads every factor through one protocol: ``len``
  normals per replication; ``step`` replications per block;
  ``fill(stream, zt, start, count)``, which writes the normals of
  replications start, start + 1, ... into the rows of ``zt``, where
  ``stream(index)`` is the generator of replicate_generator(seed,
  index), re-keyed rather than constructed (``_replicate_streams``);
  and ``product(zt)``, which returns the fields of ``step`` such rows
  as the columns of a new block; the loop yields its leading columns.
  The default ``fill`` draws each row from its replication's stream.
  A ``DenseFactor`` keeps a step of BATCH, since the partition decides
  how a BLAS product rounds, and multiplies slab by slab: the zeros
  right of the diagonal blocks are neither stored nor multiplied, and
  at n <= ROW_BLOCK it is ``L @ z`` bit for bit.  A ``PairedFactor``
  multiplies each block slab by slab into its rows of one output block
  and recombines the pairs' rows in place.  A ``TiltedFactor``
  (importance sampling) wraps a factor that also answers ``row``, a
  dense or paired one; its ``fill`` also draws an integer from each
  row's stream and adds the factor row it names, which ``row`` gives
  as one or two (start, values) parts; the row depends on the stream
  alone, so tilted draws keep every property above.

* the budgets: ``_cap_points`` refuses any point set larger than
  ``_MAX_GRID_POINTS`` before its covariance is allocated, and
  validation grids and the Pickands lattice before their coordinates
  are.  Lattices handed to ``simulate_z`` are checked on the points
  actually factorized.  The replication checks of the grid sampler and
  the Pickands estimators refuse more than ``_MAX_REPS`` replications
  before the per-replication statistics are allocated.  A draw loop
  holds one step's normals and the product it makes of them, and keeps
  no reference to a block it has yielded.  A dense, paired or feature
  loop's block is n x BATCH, the last one too, however few
  replications it holds; a paired product adds one ROW_BLOCK x BATCH
  chunk to it while it recombines the pairs.  A circulant block, with
  its normals and transforms, is a small multiple of the step budget, whatever n: at
  the point budget the step is 12 replications, and the loop holds a
  few MB.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FactorizationError, ValidationError, _check_count, _check_real

__all__ = [
    "CovarianceColumns",
    "factor_covariance",
    "DenseFactor",
    "PairedFactor",
    "CirculantFactor",
    "factor_circulant",
    "FeatureFactor",
    "TiltedFactor",
    "replicate_generator",
    "draw_in_batches",
    "BATCH",
]

# Replications per matrix-product block.  Fixed: results must not
# depend on how the replicate loop is carved up.
BATCH = 512
# Bytes of normals and half-spectrum one step of a circulant draw may
# hold (see ``CirculantFactor.step``).
_CIRCULANT_STEP_BYTES = 2 << 20
# Rows per block of the lower-triangular draw product.  Fixed for the
# same reason: the blocking decides how each entry's sum is rounded.
ROW_BLOCK = 256

_SQRT_HALF = math.sqrt(0.5)

_BASE_REL_JITTER = 1e-12
_MAX_REL_JITTER = 1e-6

# Largest point set whose covariance is built and factorized densely.
# The dense path holds the factor's row slabs, about n^2 / 2 doubles,
# plus a few n x ROW_BLOCK panels: about 0.47 GB at this count.
_MAX_GRID_POINTS = 10_000
# Largest replication count one run may ask for: a run holds one or two
# floats per replication, at most 160 MB at this count.
_MAX_REPS = 10_000_000


def _cap_points(base: int, exponent: int = 1) -> None:
    """Refuse ``base ** exponent`` points over the budget.

    2 ** _MAX_GRID_POINTS.bit_length() is already over it, so no larger
    power is ever formed; a count of 18 digits or more is printed as the
    power.
    """
    small = exponent < _MAX_GRID_POINTS.bit_length()
    if base < 2 or (small and base**exponent <= _MAX_GRID_POINTS):
        return
    large = exponent > 1 and exponent * math.log10(base) >= 18
    shown = f"{base}^{exponent}" if large else base**exponent
    raise ValidationError(
        f"grid would have {shown} points; more than {_MAX_GRID_POINTS} is refused "
        "(dense factorization budget)"
    )


def _axis_sum_of_squares(a: np.ndarray, b: np.ndarray, per_axis) -> np.ndarray:
    """sum_k per_axis(k, a[:, k] - b[:, k])**2 for every pair of rows.

    Returns the (len(a), len(b)) array.  ``per_axis(k, delta)`` maps a
    table of axis-k coordinate differences to the per-axis length.  It
    is evaluated on the unique axis-k values of ``a`` against those of
    ``b``, so on a tensor grid each table is only resolution x
    resolution; the squared table is then gathered to len(a) x len(b)
    and added into one accumulator, axis by axis.  Point sets without
    that structure simply give len(a) x len(b) tables.

    The work per element is the broadcast form's, on the same operands
    and in the same order, so for up to 7 axes the result is the same to
    the last bit as summing the (n, m, d) array over its last axis (from
    8 axes numpy's reduction sums pairwise and the two may differ in the
    last place).  Besides the tables, the peak is the accumulator and
    one gather buffer: 2 n m doubles.
    """
    acc = buf = None
    for k in range(a.shape[1]):
        ua, ia = np.unique(a[:, k], return_inverse=True)
        ub, ib = np.unique(b[:, k], return_inverse=True)
        rows = np.square(per_axis(k, ua[:, None] - ub[None, :]))[ia]
        # mode="clip" lets take write straight into ``out``; every index
        # is in range, so it never clips.
        if acc is None:
            acc = np.take(rows, ib, axis=1, mode="clip")
        else:
            buf = np.take(rows, ib, axis=1, out=buf, mode="clip")
            acc += buf
    return acc


def _shift_ladder(attempt, scale: float, smallest):
    """(factor, shift) at the least shift, of 0 and then 1e-12 * scale
    doubling up to the cap, for which ``attempt(shift)`` returns a factor
    rather than None.  Positive definiteness is monotone in the shift,
    so a failure at the cap refuses at once, naming ``smallest()``.  The
    factor at the cap is not kept while smaller shifts are tried, so no
    two factors are held at once; a matrix that needs the cap itself is
    factored there twice."""
    factor = attempt(0.0)
    if factor is not None:
        return factor, 0.0
    cap = _MAX_REL_JITTER * scale
    if attempt(cap) is None:
        raise FactorizationError(
            "covariance is not positive semidefinite within the jitter budget: "
            f"smallest eigenvalue {smallest():.6e}, largest allowed diagonal shift {cap:.3e}"
        )
    shift = _BASE_REL_JITTER * scale
    while shift < cap:
        factor = attempt(shift)
        if factor is not None:
            return factor, shift
        shift *= 2.0
    return attempt(cap), cap


class CovarianceColumns:
    """A covariance matrix as a source of block columns, the form
    ``factor_covariance`` reads it in.

    ``block(a, b)`` returns a new (n - a, b - a) array holding
    Cov[a:, a:b], which the factorization overwrites; it is asked only
    for a = 0, ROW_BLOCK, 2 ROW_BLOCK, ... with b = min(a + ROW_BLOCK,
    n), and for (0, n), the whole matrix, when a refusal names its
    smallest eigenvalue.  Only its lower triangle is read.
    ``diagonal`` holds the n diagonal entries; their mean scales the
    shift ladder.  ``len`` is n.
    """

    __slots__ = ("block", "diagonal")

    def __init__(self, block, diagonal: np.ndarray):
        self.block = block
        self.diagonal = diagonal

    def __len__(self) -> int:
        return self.diagonal.shape[0]


def _matrix_columns(matrix) -> CovarianceColumns:
    """The block columns of a whole square matrix, after checking its shape."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"covariance must be a square matrix, got shape {matrix.shape}")
    return CovarianceColumns(lambda a, b: matrix[a:, a:b].copy(), np.diagonal(matrix))


def _block_cholesky(cov: CovarianceColumns, shift: float) -> DenseFactor | None:
    """L with L @ L.T = Cov + shift * I, by left-looking block columns,
    or None where a diagonal block is not numerically positive definite.

    L is built straight into its row slabs L[a:b, :b] (``DenseFactor``),
    each of whose entries is written once.  Block column a:b of L is
    built from Cov[a:, a:b] alone: the earlier columns' update
    L[a:, :a] @ L[a:b, :a].T is made one row slab at a time, through
    one reused ROW_BLOCK x ROW_BLOCK buffer, the diagonal block is
    ``np.linalg.cholesky``'s factor, and the panel below it one solve
    against that block, whose rows are copied into the slabs below.
    Besides the slabs the peak is a few (n - a) x ROW_BLOCK panels.  At
    n <= ROW_BLOCK the one slab is ``np.linalg.cholesky(Cov + shift *
    I)`` bit for bit.
    """
    n = len(cov)
    starts = range(0, n, ROW_BLOCK)
    slabs = [np.empty((min(a + ROW_BLOCK, n) - a, min(a + ROW_BLOCK, n))) for a in starts]
    update = np.empty((ROW_BLOCK, ROW_BLOCK))
    for k, a in enumerate(starts):
        b = a + slabs[k].shape[0]
        col = cov.block(a, b)
        if not np.isfinite(col).all():
            raise ValidationError("covariance entries must be finite")
        if shift:
            np.fill_diagonal(col, col.diagonal() + shift)
        if a:
            right = slabs[k][:, :a].T
            for c, slab in zip(starts[k:], slabs[k:]):
                part = np.matmul(slab[:, :a], right, out=update[: slab.shape[0], : b - a])
                col[c - a : c - a + slab.shape[0]] -= part
        try:
            top = np.linalg.cholesky(col[: b - a])
        except np.linalg.LinAlgError:
            return None
        slabs[k][:, a:b] = top
        if b < n:
            panel = np.linalg.solve(top, col[b - a :].T).T
            for c, slab in zip(starts[k + 1 :], slabs[k + 1 :]):
                slab[:, a:b] = panel[c - b : c - b + slab.shape[0]]
            del panel
        # Dropped before the next block column is built.
        del col, top
    return DenseFactor(slabs)


def factor_covariance(cov, *, shift: float | None = None) -> tuple[DenseFactor, float]:
    """Lower Cholesky factor of a covariance.

    ``cov`` is a ``CovarianceColumns`` source, or a whole square matrix,
    which is read by block columns.  Returns (L, shift) with L a
    ``DenseFactor``, the row slabs of a lower-triangular matrix such
    that L @ L.T = Cov + shift * I; shift is 0.0 when no inflation was
    needed.  A given ``shift``, finite and nonnegative, bypasses the
    ladder and is applied as it is, so that matrices can share it: a
    grid and its refinement (see ``validation.sample_field``), or the
    blocks of one covariance (see ``pickands._factor_w``).  It raises
    FactorizationError where the shifted matrix does not factor.

    Only the lower triangle is read: a retry builds the block columns
    again with the shift on their diagonal, and only a refusal builds
    the whole matrix, to name its smallest eigenvalue.
    """
    if not isinstance(cov, CovarianceColumns):
        cov = _matrix_columns(cov)
    n = len(cov)
    if n == 0:
        raise ValidationError("covariance must have at least one row")
    scale = float(cov.diagonal.sum()) / n
    if not scale > 0:
        raise ValidationError(f"covariance diagonal must be positive on average, got {scale}")

    if shift is None:
        return _shift_ladder(
            lambda shift: _block_cholesky(cov, shift),
            scale,
            lambda: float(np.linalg.eigvalsh(cov.block(0, n))[0]),
        )
    shift = _check_real("shift", shift, ge=0)
    factor = _block_cholesky(cov, shift)
    if factor is None:
        raise FactorizationError(
            f"factorization failed at the requested diagonal shift {shift:.3e}"
        )
    return factor, shift


class _Factor:
    """The defaults of the protocol ``draw_in_batches`` reads (see the
    module docstring): BATCH replications per step, each drawing plain
    standard normals from its own stream."""

    __slots__ = ()
    step = BATCH

    def fill(self, stream, zt: np.ndarray, start: int, count: int) -> None:
        """Row j < ``count`` of ``zt``: standard normals from
        replication start + j's own stream, ``stream(start + j)``."""
        for j, row in zip(range(count), zt):
            stream(start + j).standard_normal(out=row)


class DenseFactor(_Factor):
    """A lower-triangular n x n factor L, held as its row slabs: slab k
    is the contiguous array L[a:b, :b] for rows a:b = k ROW_BLOCK :
    min((k + 1) ROW_BLOCK, n), so the zeros right of each diagonal
    block are never stored.  About n^2 / 2 doubles; ``len`` is n."""

    __slots__ = ("slabs",)

    def __init__(self, slabs: list[np.ndarray]):
        self.slabs = slabs

    def __len__(self) -> int:
        return sum(slab.shape[0] for slab in self.slabs)

    def product(self, zt: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """L z for each row z of ``zt``, one column per row, in ``out``
        (a new array by default).

        Rows a:b of the result are L[a:b, :b] @ z[:b], one product per
        slab, so the zeros right of each diagonal block are never
        multiplied: about half the flops of the dense product once n is
        several blocks.  Each entry sums the same products as the dense
        product but may round differently (about 1e-15 relative); at
        n <= ROW_BLOCK the one slab is the whole ``L @ z``, bit for bit.
        """
        z = zt.T
        if out is None:
            out = np.empty((len(self), z.shape[1]))
        a = 0
        for slab in self.slabs:
            b = a + slab.shape[0]
            np.matmul(slab, z[: slab.shape[1]], out=out[a:b])
            a = b
        return out

    def row(self, tau: int) -> list[tuple[int, np.ndarray]]:
        """Row ``tau`` of L as (start, values) parts: its first tau + 1
        entries, the nonzero ones, read from the row's slab."""
        return [(0, self.slabs[tau // ROW_BLOCK][tau % ROW_BLOCK, : tau + 1])]


class PairedFactor(_Factor):
    """A factor of a covariance C that an involution sigma of its points
    maps to itself, C[sigma p, sigma q] = C[p, q], held as the factors
    of its even and odd blocks.

    Each pair {p, sigma p} of distinct points gives the even variable
    (X_p + X_sigma p) / sqrt(2) and the odd one (X_p - X_sigma p) /
    sqrt(2), and each fixed point f gives X_f itself, an even variable.
    Even and odd variables are uncorrelated, so the covariance of the
    new variables is block diagonal, and since the change of variables
    is orthogonal, factors with E E^T = C_even + shift I and
    O O^T = C_odd + shift I give one of C + shift I.  ``even`` holds the
    pairs' rows first, then the fixed points'; ``odd`` the pairs' rows,
    in the same order.  The normals are the even block's and then the
    odd block's, and the field's rows are the pairs' first points, the
    fixed points, and the pairs' second points: ``len`` is len(even) +
    len(odd).  The slabs hold about n^2 / 4 doubles, and a product
    makes about half the multiply-adds of the n-point ``DenseFactor``.
    """

    __slots__ = ("even", "odd", "n_even", "pairs")

    def __init__(self, even: DenseFactor, odd: DenseFactor):
        self.even = even
        self.odd = odd
        self.n_even, self.pairs = len(even), len(odd)

    def __len__(self) -> int:
        return self.n_even + self.pairs

    def product(self, zt: np.ndarray) -> np.ndarray:
        """The field for each row of normals in ``zt``, one column per row.

        Each block's product is written slab by slab into its rows of one
        output block; the pairs' rows are then recombined in place, a
        ROW_BLOCK of rows at a time, into X_p and X_sigma p."""
        n_even, pairs = self.n_even, self.pairs
        out = np.empty((len(self), zt.shape[0]))
        self.even.product(zt[:, :n_even], out[:n_even])
        self.odd.product(zt[:, n_even:], out[n_even:])
        for a in range(0, pairs, ROW_BLOCK):
            b = min(a + ROW_BLOCK, pairs)
            plus, minus = out[a:b], out[n_even + a : n_even + b]
            diff = plus - minus
            plus += minus
            plus *= _SQRT_HALF
            np.multiply(diff, _SQRT_HALF, out=minus)
        return out

    def row(self, tau: int) -> list[tuple[int, np.ndarray]]:
        """Row ``tau`` of the factor as (start, values) parts: a fixed
        point's even row, or the scaled even and odd rows of a pair."""
        n_even, pairs = self.n_even, self.pairs
        if pairs <= tau < n_even:
            return self.even.row(tau)
        k, sign = (tau, _SQRT_HALF) if tau < pairs else (tau - n_even, -_SQRT_HALF)
        ((_, even),), ((_, odd),) = self.even.row(k), self.odd.row(k)
        return [(0, _SQRT_HALF * even), (n_even, sign * odd)]


class CirculantFactor(_Factor):
    """The symmetric square root of a covariance that is block-circulant
    on a regular lattice, as a map rather than a matrix.

    ``root`` holds sqrt(lambda + shift) in ``numpy.fft.rfftn`` layout for
    the lattice ``shape``; ``index`` holds, for each point in the
    caller's order, its C-order index on the lattice.  ``len`` is the
    point count, as for a dense factor.  ``step`` is the most
    replications whose normals and half-spectrum fit in
    ``_CIRCULANT_STEP_BYTES``, at least 1 and at most BATCH, so each
    block ``draw_in_batches`` yields is one step's fields.
    """

    __slots__ = ("root", "shape", "index", "step")

    def __init__(self, root: np.ndarray, shape: tuple[int, ...], index: np.ndarray):
        self.root = root
        self.shape = shape
        self.index = index
        per_rep = 8 * index.shape[0] + 16 * root.size
        self.step = max(1, min(BATCH, _CIRCULANT_STEP_BYTES // per_rep))

    def __len__(self) -> int:
        return self.index.shape[0]

    def product(self, zt: np.ndarray) -> np.ndarray:
        """The field for each row of normals in ``zt``, one column per row.

        Row j of ``zt`` is laid out on the lattice and convolved with the
        root's kernel, irfftn(root * rfftn(z)), whose covariance is the
        circulant one; the columns come back in the caller's point order,
        stored by columns.  Each row is transformed on its own, so a
        row's column does not depend on how many rows are transformed
        together.
        """
        axes = tuple(range(1, len(self.shape) + 1))
        spectrum = np.fft.rfftn(zt.reshape(zt.shape[0], *self.shape), axes=axes)
        spectrum *= self.root
        x = np.fft.irfftn(spectrum, s=self.shape, axes=axes).reshape(zt.shape[0], -1)
        del spectrum
        return np.take(x, self.index, axis=1).T


class FeatureFactor(_Factor):
    """A covariance F F^T given by an (n, r) feature array F with r < n,
    as a map rather than a matrix.

    ``len`` is r, the normals per replication, and the field is the n
    values F z, exact with no factorization and no shift.
    """

    __slots__ = ("features",)

    def __init__(self, features: np.ndarray):
        self.features = features

    def __len__(self) -> int:
        return self.features.shape[1]

    def fill(self, stream, zt: np.ndarray, start: int, count: int) -> None:
        """Every row of ``zt`` in one call from the block's stream,
        ``stream(start)``: row j is replication start + j, ``count`` or
        not, so a shorter run's rows are a longer run's."""
        stream(start).standard_normal(out=zt)

    def product(self, zt: np.ndarray) -> np.ndarray:
        """The field for each row of normals in ``zt``, one column per row."""
        return self.features @ zt.T


class TiltedFactor(_Factor):
    """A ``DenseFactor`` or ``PairedFactor`` L drawn under the equal
    mixture of its exponential tilts.

    The mixture runs over tau in range(``points``).  Component tau is
    the law of X = L z reweighted by e^{X(tau) - Var X(tau) / 2}, which
    is X with z shifted by L[tau], so each component, and the mixture,
    is drawn exactly.  Rows tau >= len(L) stand for points of zero
    variance: their row is 0, and their component is the untilted law.
    """

    __slots__ = ("factor", "points")

    def __init__(self, factor, points: int):
        if points < len(factor):
            raise ValidationError(f"{points} tilt points for a factor of {len(factor)} rows")
        self.factor = factor
        self.points = points

    def __len__(self) -> int:
        return len(self.factor)

    def product(self, zt: np.ndarray) -> np.ndarray:
        return self.factor.product(zt)

    def fill(self, stream, zt: np.ndarray, start: int, count: int) -> None:
        """Row j < ``count`` of ``zt`` from replication start + j's own
        stream: z, then tau = ``integers(points)`` from the same stream,
        and z + L[tau], of which only the parts ``L.row(tau)`` names are
        added, and none for tau >= n."""
        points, factor_row = self.points, self.factor.row
        for j, row in zip(range(count), zt):
            gen = stream(start + j)
            gen.standard_normal(out=row)
            tau = int(gen.integers(points))
            if tau < row.shape[0]:
                for first, part in factor_row(tau):
                    row[first : first + part.shape[0]] += part


def factor_circulant(row: np.ndarray, index: np.ndarray) -> tuple[CirculantFactor, float]:
    """Spectral square root of a block-circulant covariance.

    ``row`` is the lattice-shaped first row, the covariance of lattice
    point 0 with every lattice point; ``index`` the lattice index of
    each point in draw order (see ``CirculantFactor``).  Returns
    (S, shift) with S S^T = C + shift * I, on the ladder
    ``factor_covariance`` walks: the eigenvalues lambda are
    ``rfftn(row).real`` (the imaginary parts are rounding: the row is
    symmetric up to it), and a shift is accepted where lambda + shift
    is positive.
    """
    row = np.asarray(row, dtype=float)
    if row.size != index.shape[0]:
        raise ValidationError(f"lattice of {row.size} points, index of {index.shape[0]}")
    if not np.all(np.isfinite(row)):
        raise ValidationError("covariance entries must be finite")
    # Every diagonal entry of a circulant matrix is the row's first.
    scale = float(row.flat[0])
    if not scale > 0:
        raise ValidationError(f"covariance diagonal must be positive on average, got {scale}")
    lam = np.fft.rfftn(row).real
    low = float(lam.min())
    root, shift = _shift_ladder(
        lambda shift: np.sqrt(lam + shift) if low + shift > 0 else None, scale, lambda: low
    )
    return CirculantFactor(root, row.shape, index), shift


def _check_stream(seed, index) -> int:
    """``seed`` as an int, after refusing a seed or a replication index
    that does not fit its 64-bit word of the Philox key."""
    seed = _check_count("seed", seed, 0, 2**64 - 1)
    _check_count("replication index", index, 0, 2**64 - 1)
    return seed


def _check_draws(reps, seed) -> tuple[int, int]:
    """``reps`` and ``seed`` as ints, after refusing a replication count
    outside [1, _MAX_REPS] or a stream that does not fit its key."""
    reps = _check_count("replication count", reps, 1, _MAX_REPS)
    return reps, _check_stream(seed, reps - 1)


def replicate_generator(seed: int, index: int) -> np.random.Generator:
    """The dedicated stream for replication ``index`` under ``seed``."""
    seed = _check_stream(seed, index)
    # Disjoint key ranges per seed; XOR-style mixing would alias nearby
    # seeds onto the same stream set.
    return np.random.Generator(np.random.Philox(key=(seed << 64) | int(index)))


def _replicate_streams(seed: int):
    """``stream(index)``: the generator of replicate_generator(seed,
    index), at the start of its stream, until the next call.

    One Philox serves every call: a fresh Philox's state is the start of
    a stream (counter 0, empty buffer), and assigning it back with only
    the key changed starts another.  The key holds the 128-bit key low
    word first.  Its arrays are held as lists of Python ints, which the
    state setter converts faster than it copies arrays.
    """
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    fresh["state"] = {name: words.tolist() for name, words in fresh["state"].items()}
    fresh["buffer"] = fresh["buffer"].tolist()
    key = fresh["state"]["key"]
    key[1] = seed

    def stream(index: int) -> np.random.Generator:
        key[0] = index
        bitgen.state = fresh
        return gen

    return stream


def draw_in_batches(factor, reps: int, seed: int):
    """Yield blocks of exact joint draws as (first_index, samples).

    ``samples`` holds one row per field value and one column per
    replication: the block starting at i is ``factor.product`` of the
    rows of normals ``factor.fill`` writes, row j for replication
    i + j.  Blocks start at multiples of ``factor.step``, a fixed
    property of the factor, and each but the last is ``factor.step``
    wide, so the partition never depends on the replication count.
    The streams come in two schemes, both keyed by the seed and one
    index, as replicate_generator(seed, index) is:

    * per replication (dense, paired, tilted and circulant factors):
      row j is drawn from replicate_generator(seed, i + j), one re-keyed
      stream per row;
    * per block (``FeatureFactor``): the block's whole (step, len)
      array is one ``standard_normal`` call on
      replicate_generator(seed, i), row after row, so row j holds that
      stream's normals j len to (j + 1) len.  Every row is filled,
      the last block's too.

    Either way replication i's normals are a function of (seed, i)
    alone, given the factor's step, and no two blocks or replications
    of one draw share a stream.  Every product is
    of ``factor.step`` rows, the last block's rows past the count left
    as they were (zeros when it is also the first) or filled, and the
    last block is its leading columns, so a shorter run's columns are
    the longer run's bit for bit: BLAS may take another kernel for a
    narrower product and round its columns differently.  No
    reference to a yielded block is kept, so a consumer that drops it
    frees it before the next is drawn.
    """
    reps, seed = _check_draws(reps, seed)
    # Local to this call, so interleaved loops share nothing.
    stream = _replicate_streams(seed)
    # Each step's normals fill one reused buffer.  The block is not
    # named here, so once the consumer drops it nothing holds it while
    # the next one is drawn.
    step, fill, product = factor.step, factor.fill, factor.product
    zt = np.zeros((step, len(factor)))
    for start in range(0, reps, step):
        count = min(step, reps - start)
        fill(stream, zt, start, count)
        yield start, product(zt)[:, :count]
