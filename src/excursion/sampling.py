"""Exact joint Gaussian sampling support.

Three pieces shared by the simulation layers, and the budget they keep:

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

* counter-based generators: replication i draws from a Philox stream
  whose 128-bit key is the seed in the high word and i in the low word,
  so streams are distinct across both seeds and replications,
  reproducible, order independent, and parallelizable, and a run with
  more replications extends a shorter run instead of reshuffling it.  For the same reason
  a sample on a grid that extends another grid (extra points appended)
  restricts to the sample on the smaller grid: the draws extend
  exactly, and the factor's leading block is the smaller grid's factor
  up to rounding (LAPACK blocks the factorization by matrix size).
  ``replicate_generator`` defines the stream.  ``draw_in_batches``
  builds one Philox per call and re-keys it for each replication (key
  words written, counter at 0, buffer empty), which gives the same
  streams bit for bit without constructing a generator per replication.
  Each replication's normals fill one contiguous row, and column j of a
  block is the row-blocked lower-triangular product (``_lower_product``,
  ROW_BLOCK rows per block) of replication j's normals: the zeros above
  the diagonal blocks are never multiplied.  At n <= ROW_BLOCK that is
  ``factor @ z`` bit for bit; above it the two agree to rounding.

* the budgets: ``_cap_points`` refuses any point set larger than
  ``_MAX_GRID_POINTS`` before its covariance is allocated, and
  validation grids and the Pickands lattice before their coordinates
  are.  Lattices handed to ``simulate_z`` are checked on the points
  actually factorized.  The replication checks of the grid sampler and
  the Pickands estimators refuse more than ``_MAX_REPS`` replications
  before the per-replication statistics are allocated.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FactorizationError, ValidationError

__all__ = ["factor_covariance", "replicate_generator", "draw_in_batches", "BATCH"]

# Replications per matrix-product block.  Fixed: results must not
# depend on how the replicate loop is carved up.
BATCH = 512
# Rows per block of the lower-triangular draw product.  Fixed for the
# same reason: the blocking decides how each entry's sum is rounded.
ROW_BLOCK = 256

_BASE_REL_JITTER = 1e-12
_MAX_REL_JITTER = 1e-6

# Largest point set whose covariance is built and factorized densely.
_MAX_GRID_POINTS = 10_000
# Largest replication count one run may ask for: a run holds one or two
# floats per replication, at most 160 MB at this count.
_MAX_REPS = 10_000_000


def _cap_points(n: int) -> None:
    if n > _MAX_GRID_POINTS:
        raise ValidationError(
            f"grid would have {n} points; more than {_MAX_GRID_POINTS} is refused "
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


def factor_covariance(
    matrix: np.ndarray, *, fixed_rel_jitter: float | None = None
) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a covariance matrix.

    Returns (L, shift) with L lower triangular such that
    L @ L.T = matrix + shift * I; shift is 0.0 when no inflation was
    needed.  ``fixed_rel_jitter`` bypasses the ladder and applies
    exactly that relative shift (tests that compare runs across grids
    use it to keep the factorizations structurally identical).
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"covariance must be a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValidationError("covariance entries must be finite")
    n = matrix.shape[0]
    if n == 0:
        raise ValidationError("covariance must have at least one row")
    scale = float(np.trace(matrix)) / n
    if not scale > 0:
        raise ValidationError(f"covariance diagonal must be positive on average, got {scale}")

    # The identity is built only on the shifted paths: the plain
    # factorization, the common case, never reads it.
    if fixed_rel_jitter is not None:
        shift = float(fixed_rel_jitter) * scale
        if not (math.isfinite(shift) and shift >= 0):
            raise ValidationError(f"fixed jitter must be nonnegative, got {fixed_rel_jitter}")
        eye = np.eye(n)
        try:
            return np.linalg.cholesky(matrix + shift * eye), shift
        except np.linalg.LinAlgError:
            raise FactorizationError(
                f"factorization failed at the requested diagonal shift {shift:.3e}"
            ) from None

    try:
        return np.linalg.cholesky(matrix), 0.0
    except np.linalg.LinAlgError:
        pass

    # Positive definiteness of matrix + eps*I is monotone in eps, so if
    # the cap fails every smaller step fails too: diagnose and abort
    # without walking the ladder.
    cap = _MAX_REL_JITTER * scale
    eye = np.eye(n)
    try:
        at_cap = np.linalg.cholesky(matrix + cap * eye)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(matrix)[0])
        raise FactorizationError(
            "covariance is not positive semidefinite within the jitter budget: "
            f"smallest eigenvalue {min_eig:.6e}, largest allowed diagonal shift {cap:.3e}"
        ) from None

    shift = _BASE_REL_JITTER * scale
    while shift < cap:
        try:
            return np.linalg.cholesky(matrix + shift * eye), shift
        except np.linalg.LinAlgError:
            shift *= 2.0
    return at_cap, cap


def _check_stream(seed, index) -> int:
    """``seed`` as an int, after refusing a seed or a replication index
    that does not fit its 64-bit word of the Philox key."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValidationError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < 2**64:
        raise ValidationError(f"seed must fit in 64 bits, got {seed}")
    if not isinstance(index, (int, np.integer)) or not 0 <= index < 2**64:
        raise ValidationError(f"replication index must fit in 64 bits, got {index!r}")
    return int(seed)


def replicate_generator(seed: int, index: int) -> np.random.Generator:
    """The dedicated stream for replication ``index`` under ``seed``."""
    seed = _check_stream(seed, index)
    # Disjoint key ranges per seed; XOR-style mixing would alias nearby
    # seeds onto the same stream set.
    return np.random.Generator(np.random.Philox(key=(seed << 64) | int(index)))


def _lower_product(factor: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``factor @ z`` for a lower-triangular ``factor``, by row blocks.

    Rows a:b of the result are ``factor[a:b, :b] @ z[:b]`` for blocks of
    ROW_BLOCK rows, so the columns right of each row block's diagonal
    block, which hold only zeros, are never read or multiplied: about
    half the flops of the dense product once n is several blocks.  The
    upper halves of the diagonal blocks are read, and must be zero.
    Each entry sums the same products as the dense product but may
    round differently (about 1e-15 relative); at n <= ROW_BLOCK the one
    block is the whole ``factor @ z``, bit for bit.
    """
    n = factor.shape[0]
    out = np.empty((n, z.shape[1]))
    for a in range(0, n, ROW_BLOCK):
        b = min(a + ROW_BLOCK, n)
        np.matmul(factor[a:b, :b], z[:b], out=out[a:b])
    return out


def draw_in_batches(factor: np.ndarray, reps: int, seed: int):
    """Yield blocks of exact joint draws as (first_index, samples).

    ``samples`` has one column per replication: column j of a block
    starting at i is L z with z = replicate_generator(seed, i + j)
    .standard_normal(n), multiplied as ``_lower_product`` does (row
    blocks of the lower triangle; identical to ``factor @ z`` at
    n <= ROW_BLOCK).  Block size is fixed at BATCH so the partition
    never influences the values.
    """
    if not isinstance(reps, (int, np.integer)) or reps < 1:
        raise ValidationError(f"replication count must be a positive integer, got {reps!r}")
    seed = _check_stream(seed, reps - 1)
    n = factor.shape[0]
    # A fresh Philox's state is the start of a stream: counter 0, empty
    # buffer.  Assigning it back with only the key changed starts the
    # stream of another replication.  The key array holds the 128-bit key
    # low word first.  Local to this call, so interleaved loops share
    # nothing.
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    key = fresh["state"]["key"]
    key[1] = seed
    # One replication's normals per row, written contiguously; the
    # product reads the transpose.  Never yielded, so reused per block.
    zt = np.empty((min(BATCH, int(reps)), n))
    for start in range(0, int(reps), BATCH):
        width = min(BATCH, int(reps) - start)
        for j in range(width):
            key[0] = start + j
            bitgen.state = fresh
            gen.standard_normal(n, out=zt[j])
        yield start, _lower_product(factor, zt[:width].T)
