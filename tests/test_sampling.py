"""Factorization ladder and replication-stream behaviour."""

import numpy as np
import pytest

from _oracles import lower_matrix
from excursion.errors import FactorizationError, ValidationError
from excursion.sampling import (
    BATCH,
    ROW_BLOCK,
    DenseFactor,
    FeatureFactor,
    PairedFactor,
    TiltedFactor,
    draw_in_batches,
    factor_covariance,
    replicate_generator,
)


def spd_matrix(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a @ a.T + n * np.eye(n)


def test_factor_reconstructs_spd():
    mat = spd_matrix(6, 0)
    factor, shift = factor_covariance(mat)
    assert shift == 0.0
    assert len(factor) == 6
    low = lower_matrix(factor)
    assert low @ low.T == pytest.approx(mat, rel=1e-10)


def test_factor_singular_needs_small_shift():
    # Rank-one covariance: exact Cholesky fails, the ladder succeeds
    # with a diagonal inflation far below the cap.
    mat = np.ones((5, 5))
    factor, shift = factor_covariance(mat)
    assert 0.0 < shift <= 1e-6 * 1.0
    low = lower_matrix(factor)
    assert low @ low.T == pytest.approx(mat + shift * np.eye(5), rel=1e-9)


def test_factor_indefinite_reports_spectrum():
    mat = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(FactorizationError, match="smallest eigenvalue"):
        factor_covariance(mat)


def test_factor_fixed_jitter_path():
    # A given shift skips the ladder and is applied as it is, absolute.
    mat = spd_matrix(4, 1)
    factor, shift = factor_covariance(mat, shift=1e-10)
    assert shift == 1e-10
    low = lower_matrix(factor)
    assert low @ low.T == pytest.approx(mat + shift * np.eye(4), rel=1e-9)
    with pytest.raises(FactorizationError, match="requested diagonal shift"):
        factor_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]), shift=1e-10)


def test_factor_validation():
    with pytest.raises(ValidationError):
        factor_covariance(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        factor_covariance(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    # Off the diagonal: refused by the block column's own check.
    with pytest.raises(ValidationError, match="finite"):
        factor_covariance(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValidationError):
        factor_covariance(np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        factor_covariance(np.zeros((0, 0)))
    # A shift that is negative (which would factor C - 0.5 I), NaN or
    # infinite is refused, on a matrix that factors at every finite
    # nonnegative shift.
    for shift in (-1e-9, -0.5, np.nan, np.inf, -np.inf, True):
        with pytest.raises(ValidationError, match=r"shift must be a finite number in \[0, inf\)"):
            factor_covariance(spd_matrix(2, 2), shift=shift)


def test_replicate_streams_deterministic_and_distinct():
    a = replicate_generator(7, 3).standard_normal(4)
    b = replicate_generator(7, 3).standard_normal(4)
    assert np.array_equal(a, b)
    c = replicate_generator(7, 4).standard_normal(4)
    assert not np.array_equal(a, c)
    d = replicate_generator(8, 3).standard_normal(4)
    assert not np.array_equal(a, d)


def test_replicate_streams_not_aliased_across_seeds():
    # Key mixing must keep the stream FAMILIES of nearby seeds disjoint,
    # not only individual streams: an XOR-mixed key makes {s ^ i} the
    # same set for neighbouring s, which permutes replications and
    # leaves every permutation-invariant statistic identical.
    first = {replicate_generator(17, i).standard_normal() for i in range(32)}
    other = {replicate_generator(18, i).standard_normal() for i in range(32)}
    assert not first & other
    swapped_a = replicate_generator(17, 18).standard_normal()
    swapped_b = replicate_generator(18, 17).standard_normal()
    assert swapped_a != swapped_b


def test_replicate_generator_validation():
    with pytest.raises(ValidationError):
        replicate_generator(1.5, 0)
    with pytest.raises(ValidationError):
        replicate_generator(True, 0)
    with pytest.raises(ValidationError):
        replicate_generator(-1, 0)
    with pytest.raises(ValidationError):
        replicate_generator(2**64, 0)
    with pytest.raises(ValidationError):
        replicate_generator(0, -1)
    with pytest.raises(ValidationError):
        replicate_generator(0, 2**64)


def collect(factor, reps, seed):
    cols = []
    starts = []
    for start, block in draw_in_batches(factor, reps, seed):
        starts.append(start)
        cols.append(block)
    return starts, np.hstack(cols)


def test_draws_partition_in_fixed_batches():
    factor, _ = factor_covariance(spd_matrix(3, 4))
    starts, samples = collect(factor, 1030, 11)
    assert starts == [0, BATCH, 2 * BATCH]
    assert samples.shape == (3, 1030)


def test_draws_extend_as_a_prefix():
    # Growing the replication budget must leave earlier replications
    # untouched: per-replication streams, not one shared stream.
    factor = factor_covariance(spd_matrix(3, 4))[0]
    _, short = collect(factor, 700, 11)
    _, long = collect(factor, 1030, 11)
    assert np.array_equal(short, long[:, :700])


def test_draws_deterministic():
    factor = factor_covariance(spd_matrix(2, 5))[0]
    _, a = collect(factor, 600, 2)
    _, b = collect(factor, 600, 2)
    assert np.array_equal(a, b)


def _row_blocked(low, z):
    """``low @ z`` by rows a:b of ROW_BLOCK as low[a:b, :b] @ z[:b],
    read from the n x n matrix: the slab product's operands as views."""
    out = np.empty((len(low), z.shape[1]))
    for a in range(0, len(low), ROW_BLOCK):
        b = min(a + ROW_BLOCK, len(low))
        np.matmul(low[a:b, :b], z[:b], out=out[a:b])
    return out


def _padded(zt):
    """The columns z of the rows ``zt`` of normals, with zero columns
    up to BATCH: the width the loop multiplies, laid out as the loop
    lays it out (one row per replication)."""
    return np.pad(zt, ((0, BATCH - len(zt)), (0, 0))).T


def test_draws_match_replicate_generator():
    # The draw loop re-keys one generator; column i must still be the
    # factor times replication i's own stream, bit for bit, across a
    # block boundary and a width-1 last block.  The loop multiplies
    # BATCH rows of normals at every step, so the oracle does too, the
    # last block's replications padded with zero columns: a narrower
    # product, matrix-vector at width 1, may round differently.  At
    # n = 5 that is the dense product; above ROW_BLOCK it is the
    # row-blocked one.  Both are fed the normals as the loop lays them
    # out, whose layout decides the rounding too.
    factor, _ = factor_covariance(spd_matrix(5, 6))
    low = lower_matrix(factor)
    for seed in (0, 12345, 2**64 - 1):
        widths = []
        for start, block in draw_in_batches(factor, 2 * BATCH + 1, seed):
            width = block.shape[1]
            widths.append(width)
            streams = range(start, start + width)
            zt = np.vstack([replicate_generator(seed, i).standard_normal(5) for i in streams])
            assert np.array_equal(block, (low @ _padded(zt))[:, :width]), (seed, start)
        assert widths == [BATCH, BATCH, 1]
    n = ROW_BLOCK + 1
    factor, _ = factor_covariance(spd_matrix(n, 6))
    low = lower_matrix(factor)
    for seed in (0, 12345, 2**64 - 1):
        for start, block in draw_in_batches(factor, 2 * BATCH + 1, seed):
            width = block.shape[1]
            streams = range(start, start + width)
            zt = np.vstack([replicate_generator(seed, i).standard_normal(n) for i in streams])
            assert np.array_equal(block, _row_blocked(low, _padded(zt))[:, :width]), (seed, start)


def test_feature_draws_match_block_streams():
    # A feature factor draws len(factor) = r normals per replication
    # from one stream per block: the block starting at i is the features
    # times BATCH rows of r normals, all drawn in one call from
    # replicate_generator(seed, i), row j for replication i + j.  Every
    # row is drawn, so the width-1 last block is column 0 of that
    # full-width product.
    features = np.random.default_rng(3).standard_normal((40, 7))
    factor = FeatureFactor(features)
    assert len(factor) == 7
    for seed in (0, 2**64 - 1):
        widths = []
        for start, block in draw_in_batches(factor, 2 * BATCH + 1, seed):
            width = block.shape[1]
            widths.append(width)
            zt = replicate_generator(seed, start).standard_normal((BATCH, 7))
            assert np.array_equal(block, (features @ zt.T)[:, :width]), (seed, start)
        assert widths == [BATCH, BATCH, 1]


class _CountingGenerator(np.random.Generator):
    """A generator that counts its ``standard_normal`` calls."""

    calls = 0

    def standard_normal(self, *args, **kwargs):
        _CountingGenerator.calls += 1
        return super().standard_normal(*args, **kwargs)


def test_feature_draws_fill_a_block_per_call(monkeypatch):
    # The feature path's gain is one normal-fill call per block instead
    # of one per replication; the dense path keeps one per replication.
    monkeypatch.setattr(np.random, "Generator", _CountingGenerator)
    reps = 2 * BATCH + 1
    feature = FeatureFactor(np.random.default_rng(3).standard_normal((40, 7)))
    dense = factor_covariance(spd_matrix(5, 6))[0]
    for factor, calls in ((feature, 3), (dense, reps)):
        _CountingGenerator.calls = 0
        for _ in draw_in_batches(factor, reps, 4):
            pass
        assert _CountingGenerator.calls == calls, type(factor).__name__


def _tilted_oracle(low, points, seed, i):
    """Replication i's normals with its tilt row of ``low`` added: z,
    then the index tau, both from replicate_generator(seed, i)."""
    n = len(low)
    stream = replicate_generator(seed, i)
    z = stream.standard_normal(n)
    tau = int(stream.integers(points))
    return z + (low[tau] if tau < n else 0.0), tau


def test_tilted_draws_match_replicate_generator():
    # Column i is L @ (z + row): z then the index tau from replication
    # i's own stream, row = L[tau], and 0 for tau >= n.  Bit for bit at
    # n = 5 (the dense product) and against the row-blocked product
    # above ROW_BLOCK, both BATCH wide as the loop multiplies; the zero
    # rows must turn up.
    for n, points in ((5, 7), (ROW_BLOCK + 1, ROW_BLOCK + 1)):
        factor, _ = factor_covariance(spd_matrix(n, 6))
        low = lower_matrix(factor)
        for seed in (0, 2**64 - 1):
            seen = set()
            for start, block in draw_in_batches(TiltedFactor(factor, points), 2 * BATCH + 1, seed):
                width = block.shape[1]
                streams = range(start, start + width)
                shifted, taus = zip(*(_tilted_oracle(low, points, seed, i) for i in streams))
                seen.update(tau >= n for tau in taus)
                z = _padded(np.vstack(shifted))
                expected = low @ z if n <= ROW_BLOCK else _row_blocked(low, z)
                assert np.array_equal(block, expected[:, :width]), (n, seed, start)
            assert seen == ({False, True} if points > n else {False})


def test_tilted_draws_extend_as_a_prefix():
    factor, _ = factor_covariance(spd_matrix(4, 2))
    tilted = TiltedFactor(factor, 6)
    _, short = collect(tilted, 700, 11)
    _, long = collect(tilted, 1030, 11)
    assert np.array_equal(short, long[:, :700])
    # The tilt moves the draws, and the untilted loop is left as it was.
    _, plain = collect(factor, 700, 11)
    assert not np.array_equal(short, plain)
    with pytest.raises(ValidationError, match="tilt points"):
        TiltedFactor(factor, 3)


class _Identity:
    """A factor the draw loop knows only through the protocol: the field
    is the normals themselves, three replications a step.  ``counts``
    records each product's row count."""

    step = 3

    def __init__(self):
        self.counts = []

    def __len__(self):
        return 4

    def fill(self, stream, zt, start, count):
        for j in range(count):
            stream(start + j).standard_normal(out=zt[j])

    def product(self, zt):
        self.counts.append(zt.shape[0])
        return zt.T.copy()


def test_draw_loop_reads_only_the_factor_protocol():
    # Counts that end mid-step and run past BATCH: each block must be
    # the product of its replications' own normals bit for bit, one step
    # per block, cut from a product of a whole step.
    for reps in (1, 2, 4, BATCH + 1, 2 * BATCH + 7):
        factor = _Identity()
        widths = []
        for start, block in draw_in_batches(factor, reps, 8):
            assert block.shape[0] == 4
            widths.append(block.shape[1])
            streams = range(start, start + block.shape[1])
            z = np.vstack([replicate_generator(8, i).standard_normal(4) for i in streams]).T
            assert np.array_equal(block, z), (reps, start)
        assert widths == [min(3, reps - start) for start in range(0, reps, 3)]
        # Every product is a whole step, the last block's too.
        assert factor.counts == [3] * len(widths)


def test_lower_product_agrees_with_dense():
    # A DenseFactor of the row slabs of a lower-triangular matrix: its
    # product agrees with the dense one to rounding above the row block
    # (a ragged last slab at 2 * ROW_BLOCK + 37), bit for bit at or
    # below it, and bit for bit with the row-blocked product of the
    # n x n matrix's own views at every size.
    rng = np.random.default_rng(9)
    for n in (ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 37):
        low = np.tril(rng.standard_normal((n, n)))
        slabs = [low[a : a + ROW_BLOCK, : a + ROW_BLOCK].copy() for a in range(0, n, ROW_BLOCK)]
        factor = DenseFactor(slabs)
        assert len(factor) == n
        assert np.array_equal(lower_matrix(factor), low)
        for width in (1, BATCH):
            zt = rng.standard_normal((width, n))
            dense = low @ zt.T
            got = factor.product(zt)
            if n <= ROW_BLOCK:
                assert np.array_equal(got, dense)
            else:
                assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense)), (n, width)
            assert np.array_equal(got, _row_blocked(low, zt.T)), (n, width)


def test_draws_extend_as_a_prefix_at_every_count():
    # A run of any length is the leading columns of a longer one, bit
    # for bit, whatever width its last block is: widths 1, 2 and 7, and
    # one or two replications past a block, once took narrower BLAS
    # kernels than the longer run's and rounded their columns
    # differently.  Dense factors below and above ROW_BLOCK, a tilted
    # one, a feature one, and a paired one with more than ROW_BLOCK
    # pairs, plain and tilted with tilt points past its rows, as the
    # Pickands window draws it.
    dense = factor_covariance(spd_matrix(40, 3))[0]
    wide = factor_covariance(spd_matrix(ROW_BLOCK + 44, 3))[0]
    paired = PairedFactor(wide, factor_covariance(spd_matrix(ROW_BLOCK + 20, 6))[0])
    factors = {
        "dense": dense,
        "row-blocked": wide,
        "tilted": TiltedFactor(wide, ROW_BLOCK + 50),
        "feature": FeatureFactor(np.random.default_rng(4).standard_normal((60, 9))),
        "paired": paired,
        "tilted-paired": TiltedFactor(paired, len(paired) + 6),
    }
    for name, factor in factors.items():
        _, long = collect(factor, 2 * BATCH + 76, 5)
        for reps in (1, 2, 7, BATCH + 1, BATCH + 2, 2 * BATCH + 1):
            _, short = collect(factor, reps, 5)
            assert np.array_equal(short, long[:, :reps]), (name, reps)


def test_interleaved_draw_loops_do_not_share_state():
    factor = factor_covariance(spd_matrix(3, 7))[0]
    alone = {seed: [b for _, b in draw_in_batches(factor, 2 * BATCH + 1, seed)] for seed in (1, 2)}
    loops = {seed: draw_in_batches(factor, 2 * BATCH + 1, seed) for seed in (1, 2)}
    for k in range(3):
        for seed in (1, 2):
            start, block = next(loops[seed])
            assert start == k * BATCH
            assert np.array_equal(block, alone[seed][k])


def test_draws_validation():
    factor = factor_covariance(spd_matrix(2, 5))[0]
    for reps in (0, 2.5, True):
        with pytest.raises(ValidationError, match="replication count"):
            list(draw_in_batches(factor, reps, 1))
    for seed in (-1, 2**64, 1.5, True):
        with pytest.raises(ValidationError, match="seed"):
            list(draw_in_batches(factor, 3, seed))


def test_draws_have_target_covariance():
    mat = spd_matrix(3, 8)
    factor, _ = factor_covariance(mat)
    _, samples = collect(factor, 4000, 13)
    sample_cov = np.cov(samples)
    # 4000 draws pin a 3x3 covariance to a few percent.
    assert sample_cov == pytest.approx(mat, rel=0.15, abs=0.3)
