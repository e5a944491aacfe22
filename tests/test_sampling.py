"""Factorization ladder and replication-stream behaviour."""

import numpy as np
import pytest

from excursion.errors import FactorizationError, ValidationError
from excursion.sampling import (
    BATCH,
    ROW_BLOCK,
    _lower_product,
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
    assert np.allclose(factor, np.tril(factor))
    assert factor @ factor.T == pytest.approx(mat, rel=1e-10)


def test_factor_singular_needs_small_shift():
    # Rank-one covariance: exact Cholesky fails, the ladder succeeds
    # with a diagonal inflation far below the cap.
    mat = np.ones((5, 5))
    factor, shift = factor_covariance(mat)
    assert 0.0 < shift <= 1e-6 * 1.0
    assert factor @ factor.T == pytest.approx(mat + shift * np.eye(5), rel=1e-9)


def test_factor_indefinite_reports_spectrum():
    mat = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(FactorizationError, match="smallest eigenvalue"):
        factor_covariance(mat)


def test_factor_fixed_jitter_path():
    mat = spd_matrix(4, 1)
    scale = float(np.trace(mat)) / 4
    factor, shift = factor_covariance(mat, fixed_rel_jitter=1e-10)
    assert shift == pytest.approx(1e-10 * scale, rel=1e-12)
    assert factor @ factor.T == pytest.approx(mat + shift * np.eye(4), rel=1e-9)
    with pytest.raises(FactorizationError, match="requested diagonal shift"):
        factor_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]), fixed_rel_jitter=1e-10)


def test_factor_validation():
    with pytest.raises(ValidationError):
        factor_covariance(np.ones((2, 3)))
    with pytest.raises(ValidationError):
        factor_covariance(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        factor_covariance(np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        factor_covariance(np.zeros((0, 0)))
    with pytest.raises(ValidationError):
        factor_covariance(spd_matrix(3, 2), fixed_rel_jitter=-1e-9)


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
    factor, _ = factor_covariance(spd_matrix(3, 4))
    _, short = collect(factor, 700, 11)
    _, long = collect(factor, 1030, 11)
    assert np.array_equal(short, long[:, :700])


def test_draws_deterministic():
    factor, _ = factor_covariance(spd_matrix(2, 5))
    _, a = collect(factor, 600, 2)
    _, b = collect(factor, 600, 2)
    assert np.array_equal(a, b)


def test_draws_match_replicate_generator():
    # The draw loop re-keys one generator; column i must still be the
    # factor times replication i's own stream, bit for bit, across a
    # block boundary and a width-1 last block.  The oracle multiplies
    # block by block, as the loop does: a matrix-vector product may
    # round differently from the matrix-matrix one.  At n = 5 that is
    # the dense product; above ROW_BLOCK it is the row-blocked one, fed
    # the normals as the loop lays them out (one row per replication):
    # the one-row last block is a matrix-vector product, whose rounding
    # depends on that layout.
    factor, _ = factor_covariance(spd_matrix(5, 6))
    for seed in (0, 12345, 2**64 - 1):
        widths = []
        for start, block in draw_in_batches(factor, 2 * BATCH + 1, seed):
            widths.append(block.shape[1])
            streams = range(start, start + block.shape[1])
            z = np.column_stack([replicate_generator(seed, i).standard_normal(5) for i in streams])
            assert np.array_equal(block, factor @ z), (seed, start)
        assert widths == [BATCH, BATCH, 1]
    n = ROW_BLOCK + 1
    factor, _ = factor_covariance(spd_matrix(n, 6))
    for seed in (0, 12345, 2**64 - 1):
        for start, block in draw_in_batches(factor, 2 * BATCH + 1, seed):
            streams = range(start, start + block.shape[1])
            z = np.vstack([replicate_generator(seed, i).standard_normal(n) for i in streams]).T
            assert np.array_equal(block, _lower_product(factor, z)), (seed, start)


def test_lower_product_agrees_with_dense():
    # Rounding-level agreement above the row block (a ragged last block
    # at 2 * ROW_BLOCK + 37), bit-identity at or below it, and entries
    # right of each row block's diagonal block are never read: NaN put
    # there must not reach the result.
    rng = np.random.default_rng(9)
    for n in (ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 37):
        factor = np.tril(rng.standard_normal((n, n)))
        poisoned = factor.copy()
        for a in range(0, n, ROW_BLOCK):
            poisoned[a : a + ROW_BLOCK, a + ROW_BLOCK :] = np.nan
        for width in (1, BATCH):
            z = rng.standard_normal((width, n)).T
            dense = factor @ z
            got = _lower_product(factor, z)
            if n <= ROW_BLOCK:
                assert np.array_equal(got, dense)
            else:
                assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense)), (n, width)
            assert np.array_equal(_lower_product(poisoned, z), got), (n, width)


def test_interleaved_draw_loops_do_not_share_state():
    factor, _ = factor_covariance(spd_matrix(3, 7))
    alone = {seed: [b for _, b in draw_in_batches(factor, 2 * BATCH + 1, seed)] for seed in (1, 2)}
    loops = {seed: draw_in_batches(factor, 2 * BATCH + 1, seed) for seed in (1, 2)}
    for k in range(3):
        for seed in (1, 2):
            start, block = next(loops[seed])
            assert start == k * BATCH
            assert np.array_equal(block, alone[seed][k])


def test_draws_validation():
    factor, _ = factor_covariance(spd_matrix(2, 5))
    with pytest.raises(ValidationError):
        list(draw_in_batches(factor, 0, 1))
    with pytest.raises(ValidationError):
        list(draw_in_batches(factor, 2.5, 1))
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
