"""The circulant sampler on flat-torus lattices.

The spectral factor is called directly, so that lattices below the size
rule are covered too: the covariance row must be row 0 of the dense
matrix to the last bit, the factor must reconstruct the dense matrix,
and the shift ladder must act on the eigenvalues as the Cholesky ladder
acts on the matrix.  ``sample_field`` must pick it exactly on the grids
the selection rule names, and keep the dense path, draw for draw, on
every other grid.  A draw transformed a step at a time must equal the
one-shot transform of its block bit for bit, and its peak, traced and
resident at the point budget, must stay a few step budgets.
"""

import math
import re
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from _oracles import run_with_peak
from excursion import validation
from excursion.covariance import (
    LocallyIsotropicModel,
    PoweredExponential,
    SmoothIsotropicModel,
    SquaredExponential,
    StableOnChart,
)
from excursion.curvatures import FullTorus, Rectangle
from excursion.errors import FactorizationError, ValidationError
from excursion.manifolds import FlatTorus, _ManifoldBase
from excursion.sampling import (
    _CIRCULANT_STEP_BYTES,
    BATCH,
    CirculantFactor,
    draw_in_batches,
    factor_circulant,
    factor_covariance,
    replicate_generator,
)
from excursion.validation import Grid, build_grid, sample_field


@dataclass(frozen=True)
class _DistanceOnly(SmoothIsotropicModel):
    """A family that defines only ``correlation_from_distance``."""

    manifold: _ManifoldBase
    scale: float

    def correlation_from_distance(self, d):
        return 1.0 / (1.0 + (np.asarray(d, dtype=float) / self.scale) ** 2)


def _families(torus):
    return [
        StableOnChart(torus, 1.0, 1.0),
        PoweredExponential(torus, 2.0, 1.0),
        SquaredExponential(torus, 0.15),
        _DistanceOnly(torus, 0.2),
        LocallyIsotropicModel(torus, 1.0, 1.0, full_model=StableOnChart(torus, 1.0, 1.5)),
    ]


def _row(model, lattice):
    """Row 0 of the lattice's covariance matrix as the sampler builds it:
    the table of the first point against every point, entry 0 pinned."""
    row = model.covariance_table(lattice.chart, lattice.coords[:1], lattice.coords)[0]
    row[0] = 1.0
    return row


LATTICES = [
    pytest.param((1.0,), 9, id="1d-odd"),
    pytest.param((1.0,), 12, id="1d-even"),
    pytest.param((1.0, 2.5), 7, id="2d-odd"),
    pytest.param((1.0, 2.5), 8, id="2d-even"),
    pytest.param((1.0, 0.7, 3.0), 5, id="3d"),
]


@pytest.mark.parametrize("periods, side", LATTICES)
def test_row_is_row_zero_of_the_dense_matrix(periods, side):
    lattice = build_grid(FullTorus(periods), side)
    for model in _families(FlatTorus(periods)):
        row = _row(model, lattice)
        dense = model.covariance_matrix(lattice.chart, lattice.coords)
        assert np.array_equal(row, dense[0]), type(model).__name__
        assert row[0] == 1.0


@pytest.mark.parametrize("periods, side", LATTICES)
def test_factor_reconstructs_the_dense_matrix(periods, side):
    lattice = build_grid(FullTorus(periods), side)
    n = len(lattice)
    # Draw order is a shuffle of the lattice, so the index is exercised.
    order = np.random.default_rng(side).permutation(n)
    coords = lattice.coords[order]
    for model in _families(FlatTorus(periods)):
        row = _row(model, lattice).reshape((side,) * len(periods))
        dense = model.covariance_matrix(lattice.chart, coords)
        smallest = float(np.linalg.eigvalsh(dense)[0])
        if smallest < -1e-6:
            message = re.escape(f"smallest eigenvalue {smallest:.6e}")
            with pytest.raises(FactorizationError, match=message):
                factor_circulant(row, order)
            continue
        factor, shift = factor_circulant(row, order)
        assert shift == 0.0
        assert len(factor) == n
        assert float(factor.root.min()) ** 2 == pytest.approx(smallest, abs=1e-12)
        # Column j of S is the image of the j-th unit vector.
        s = factor.product(np.eye(n))
        assert np.abs(s @ s.T - dense).max() <= 1e-12


def _row_with_spectrum(lam):
    """A 1-D circulant row whose eigenvalues are ``lam`` (made symmetric)."""
    lam = np.asarray(lam, dtype=float)
    lam = 0.5 * (lam + np.roll(lam[::-1], 1))
    return np.fft.ifft(lam).real


def test_shift_ladder_on_the_eigenvalues():
    lam = np.ones(16)
    # Indefinite at rounding level: the first rung, 1e-12 of the mean
    # diagonal, suffices.
    lam[3] = lam[13] = -1e-13
    row = _row_with_spectrum(lam)
    _, shift = factor_circulant(row, np.arange(16))
    assert shift == 1e-12 * row[0]
    # Slightly indefinite: the ladder doubles until the shift clears it.
    lam[3] = lam[13] = -5e-12
    row = _row_with_spectrum(lam)
    factor, shift = factor_circulant(row, np.arange(16))
    assert shift == 8e-12 * row[0]
    s = factor.product(np.eye(16))
    dense = np.array([np.roll(row, k) for k in range(16)])
    assert np.abs(s @ s.T - (dense + shift * np.eye(16))).max() <= 1e-12
    # Past the cap: refused, with the smallest eigenvalue in the message.
    lam[3] = lam[13] = -1e-3
    row = _row_with_spectrum(lam)
    with pytest.raises(FactorizationError, match="smallest eigenvalue -1.000000e-03"):
        factor_circulant(row, np.arange(16))


def test_factor_validation():
    with pytest.raises(ValidationError):
        factor_circulant(np.ones(4), np.arange(5))
    with pytest.raises(ValidationError):
        factor_circulant(np.array([1.0, np.nan, 0.0, np.nan]), np.arange(4))
    with pytest.raises(ValidationError):
        factor_circulant(np.array([0.0, 0.5, 0.0, 0.5]), np.arange(4))


@pytest.mark.parametrize(
    "periods, side", [((1.0, 2.5), 48), ((1.0, 0.7, 3.0), 14)], ids=["2d", "3d"]
)
def test_stepped_draws_match_the_one_shot_transform(periods, side):
    # The draw loop yields one step's transform per block.  Each block
    # must be, bit for bit, the transform of its normals at once,
    # reordered by the index, for counts that end mid-step and past
    # BATCH.
    lattice = build_grid(FullTorus(periods), side)
    n = len(lattice)
    order = np.random.default_rng(side).permutation(n)
    shape = (side,) * len(periods)
    model = StableOnChart(FlatTorus(periods), 1.0, 1.0)
    row = _row(model, lattice).reshape(shape)
    factor, _ = factor_circulant(row, order)
    step = factor.step
    assert 1 < step < BATCH and step == _CIRCULANT_STEP_BYTES // (8 * n + 16 * factor.root.size)
    axes = tuple(range(1, len(shape) + 1))
    for reps in (1, step - 1, step + 1, BATCH + 1, 2 * BATCH + 7):
        widths = []
        for start, block in draw_in_batches(factor, reps, 4):
            widths.append(block.shape[1])
            streams = range(start, start + block.shape[1])
            z = np.stack([replicate_generator(4, i).standard_normal(shape) for i in streams])
            x = np.fft.irfftn(factor.root * np.fft.rfftn(z, axes=axes), s=shape, axes=axes)
            assert np.array_equal(block, x.reshape(len(z), n)[:, order].T), (reps, start)
        assert widths == [min(step, reps - start) for start in range(0, reps, step)]


def test_circulant_draw_resident_peak_at_the_cap(monkeypatch):
    # 10,000 points, the point budget, in a fresh single-thread process.
    # Each block the draw yields is one step of 12 replications: with the
    # step's normals, spectrum and unordered transform it is about two
    # step budgets.  The slack covers the lattice index, the covariance
    # row and its spectrum, and the allocator's and the FFT's own
    # overhead.  The peak grew by about 10 MiB.  Holding an n x BATCH
    # block, transformed a step at a time, grew it by about 48 MiB, and
    # drawing each whole block's normals at once by about 165 MB.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    code = (
        "import numpy.fft\n"
        "from excursion import validation\n"
        "from excursion.covariance import StableOnChart\n"
        "from excursion.curvatures import FullTorus\n"
        "from excursion.manifolds import FlatTorus\n"
        "grid = validation.build_grid(FullTorus((1.0, 1.0)), 50).refine()\n"
        "model = StableOnChart(FlatTorus((1.0, 1.0)), 1.0, 1.0)\n"
        "before = peak()\n"
        "validation.sample_field(model, grid, 600, 0, prefix=2500)\n"
        "grown = peak() - before\n"
        "print(len(grid), type(validation._factor(model, grid, None)).__name__, grown)\n"
    )
    proc = run_with_peak(code)
    assert proc.returncode == 0, proc.stderr
    n, kind, grown = proc.stdout.split()
    assert (int(n), kind) == (10_000, "CirculantFactor")
    bound = 4 * _CIRCULANT_STEP_BYTES + (8 << 20)
    assert int(grown) <= bound, int(grown) / bound


# 48 x 48 = 2304 points, over the size rule, with side 2^4 * 3.
TORUS = FlatTorus((1.0, 1.0))
STABLE = StableOnChart(TORUS, 1.0, 1.0)


def test_circulant_draw_traced_peak_is_a_few_steps():
    # A consumer that drops each block: the loop then holds one step's
    # normals, spectrum, transform and block, about two step budgets
    # (4.7 MiB traced).  A loop that holds an n x BATCH block besides
    # traced 13.0 MiB here.
    grid = build_grid(FullTorus((1.0, 1.0)), 48)
    factor = validation._factor(STABLE, grid, None)
    assert isinstance(factor, CirculantFactor) and factor.step < BATCH
    tracemalloc.start()
    try:
        for _, block in draw_in_batches(factor, 2 * BATCH + 7, 3):
            del block
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * _CIRCULANT_STEP_BYTES, peak / _CIRCULANT_STEP_BYTES


def _never_dense(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("a spectral lattice reached the dense factorization")

    monkeypatch.setattr(validation, "factor_covariance", unreachable)


def test_spectral_runs_extend_and_nest(monkeypatch):
    _never_dense(monkeypatch)
    grid = build_grid(FullTorus((1.0, 1.0)), 24).refine()
    assert len(grid) == 48 * 48
    short = sample_field(STABLE, grid, 1000, 5, prefix=24 * 24)
    long = sample_field(STABLE, grid, 1500, 5, prefix=24 * 24)
    # Replication-keyed streams: a longer run extends a shorter one.
    assert np.array_equal(long[:, :1000], short)
    # The coarse points are a subset of the same draws.
    assert np.all(long[1] <= long[0])


def test_spectral_agrees_with_dense_in_distribution(monkeypatch):
    grid = build_grid(FullTorus((1.0, 1.0)), 48)
    reps = 4000
    factor, _ = factor_covariance(STABLE.covariance_matrix(grid.chart, grid.coords))
    dense = np.concatenate([b.max(axis=0) for _, b in draw_in_batches(factor, reps, 71)])
    _never_dense(monkeypatch)
    spectral = sample_field(STABLE, grid, reps, 72)
    for u in (2.0, 2.5, 3.0):
        p_dense, p_spectral = float(np.mean(dense >= u)), float(np.mean(spectral >= u))
        pooled = 0.5 * (p_dense + p_spectral)
        se = math.sqrt(2.0 * pooled * (1.0 - pooled) / reps)
        assert abs(p_spectral - p_dense) <= 4.0 * se


def test_spectral_path_taken_on_a_refined_60_lattice(monkeypatch):
    _never_dense(monkeypatch)
    grid = build_grid(FullTorus((1.0, 1.0)), 30).refine()
    sups = sample_field(STABLE, grid, 20, 3, prefix=900)
    assert sups.shape == (2, 20) and np.all(sups[1] <= sups[0])


def _moved(grid, how):
    coords = grid.coords.copy()
    if how == "moved":
        coords[17, 0] += 1e-3
    else:
        coords[17] = coords[18]
    return Grid(grid.domain, grid.chart, coords, grid.resolution)


def _dense_grids():
    lattice60 = build_grid(FullTorus((1.0, 1.0)), 60)
    quarter = build_grid(Rectangle((0.5, 0.5)), 7).coords
    lattice48 = build_grid(FullTorus((1.0, 1.0)), 48)
    return [
        pytest.param(STABLE, build_grid(FullTorus((1.0, 1.0)), 40), {}, id="under-the-size-rule"),
        pytest.param(STABLE, build_grid(FullTorus((1.0, 1.0)), 46), {}, id="side-with-prime-23"),
        pytest.param(STABLE, build_grid(FullTorus((1.0, 2.0)), 48), {}, id="other-periods"),
        pytest.param(STABLE, _moved(lattice60, "moved"), {}, id="one-point-moved"),
        pytest.param(STABLE, _moved(lattice60, "duplicated"), {}, id="one-point-duplicated"),
        # A fixed jitter asks for the shifted dense factor on a lattice the
        # rule would admit.
        pytest.param(STABLE, lattice48, {"fixed_rel_jitter": 1e-10}, id="fixed-jitter"),
    ] + [
        pytest.param(
            StableOnChart(TORUS, 1.0, 2.0),
            Grid(FullTorus((1.0, 1.0)), "main", quarter + np.array(offset), 7),
            {},
            id=f"quarter-square-{k}",
        )
        for k, offset in enumerate([(0.0, 0.0), (0.0, 0.5), (0.5, 0.0), (0.5, 0.5)])
    ]


@pytest.mark.parametrize("model, grid, kwargs", _dense_grids())
def test_dense_path_kept_off_the_rule(monkeypatch, model, grid, kwargs):
    def unreachable(*args, **kwargs):
        raise AssertionError("the circulant factor was built off the selection rule")

    monkeypatch.setattr(validation, "factor_circulant", unreachable)
    # A grid covariance has a unit diagonal: the relative jitter is the shift.
    cov = model.covariance_matrix(grid.chart, grid.coords)
    factor, _ = factor_covariance(cov, shift=kwargs.get("fixed_rel_jitter"))
    expected = np.concatenate([b.max(axis=0) for _, b in draw_in_batches(factor, 40, 9)])
    assert np.array_equal(sample_field(model, grid, 40, 9, **kwargs), expected)
