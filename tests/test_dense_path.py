"""The dense path: per-axis pairwise tables, in-place builds, memory
peaks, point budget.

Pairwise distances on Euclidean space and the flat torus, and the
Pickands W covariance, are built from per-axis difference tables.  They
must equal the (n, m, d) broadcast forms in ``_oracles`` bit for bit on
every kind of point set the package produces, and keep the dense path
within the stated number of n x n arrays.  A table of a point set
against itself must be symmetric by construction, since nothing
symmetrizes it afterwards.  Covariance matrices are built in the
distance buffer (kernel in place) and must equal the whole-array
expressions in ``_oracles`` bit for bit, which symmetrize explicitly.
They are factored by block columns into row slabs: at n <= ROW_BLOCK
the factor is LAPACK's of the whole matrix bit for bit, above it the
block-column oracle's, with LAPACK's reconstruction error and its ladder
shift.
"""

import time
import tracemalloc

import numpy as np
import pytest

from _oracles import (
    block_column_cholesky,
    broadcast_euclidean,
    broadcast_pickands_cov_w,
    broadcast_torus_chordal,
    broadcast_torus_geodesic,
    c_order_cholesky,
    exp_power_kernel,
    lower_matrix,
    run_fresh,
    run_with_peak,
    squared_exponential_kernel,
    transpose_symmetrized,
)
from excursion import pickands
from excursion.covariance import (
    LocallyIsotropicModel,
    PoweredExponential,
    SphereSchoenberg,
    SquaredExponential,
    StableOnChart,
)
from excursion.curvatures import FullSphere, FullTorus, GreatCircle, Rectangle
from excursion.errors import ValidationError
from excursion.manifolds import Euclidean, FlatTorus, Sphere
from excursion.sampling import _MAX_GRID_POINTS, ROW_BLOCK, factor_covariance
from excursion.validation import build_grid

RNG = np.random.default_rng(31)
# Unequal periods per dimension, so a swapped axis would show.
PERIODS = {2: (1.0, 2.5), 3: (1.0, 0.7, 3.0)}


def _point_sets():
    torus = build_grid(FullTorus(PERIODS[2]), 7).coords
    refined = build_grid(FullTorus(PERIODS[2]), 4).refine().coords
    rect = build_grid(Rectangle((1.0, 3.0)), 6).coords
    scattered = RNG.uniform(-4.0, 4.0, size=(40, 2))
    torus3 = build_grid(FullTorus(PERIODS[3]), 5).coords
    scattered3 = RNG.uniform(-2.0, 5.0, size=(30, 3))
    return [
        pytest.param(torus, torus, id="torus-grid"),
        pytest.param(refined, refined, id="refined-grid-not-in-tensor-order"),
        pytest.param(rect, rect, id="rectangle-grid"),
        pytest.param(torus[5:6], torus, id="one-row-against-a-grid"),
        pytest.param(torus, scattered[:13], id="grid-against-scattered"),
        pytest.param(scattered, scattered, id="scattered"),
        pytest.param(torus3, torus3, id="3d-torus-grid"),
        pytest.param(torus3[:1], scattered3, id="3d-one-row-against-scattered"),
        pytest.param(scattered3, scattered3, id="3d-scattered"),
    ]


@pytest.mark.parametrize("a,b", _point_sets())
def test_pairwise_matches_broadcast(a, b):
    dim = a.shape[1]
    torus = FlatTorus(PERIODS[dim])
    assert np.array_equal(
        torus.pairwise_geodesic("main", a, b), broadcast_torus_geodesic(PERIODS[dim], a, b)
    )
    assert np.array_equal(
        torus.pairwise_chordal("main", a, b), broadcast_torus_chordal(PERIODS[dim], a, b)
    )
    assert np.array_equal(Euclidean(dim).pairwise_geodesic("main", a, b), broadcast_euclidean(a, b))


def _captured_cov_w(monkeypatch, alpha, lattice):
    seen = []

    def capture(cov, **kwargs):
        seen.append(cov)
        return factor_covariance(cov, **kwargs)

    monkeypatch.setattr(pickands, "factor_covariance", capture)
    # The whole covariance, as simulate_z factors it on a caller's lattice.
    pickands._factor_w(alpha, lattice)
    (cov_w,) = seen
    return cov_w


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_pickands_cov_w_matches_broadcast(monkeypatch, alpha):
    centred = pickands.cube_lattice(2, 2.0, 0.25) - 0.25 * 4
    scattered = RNG.uniform(0.0, 3.0, size=(25, 3))
    # 440 active points: two block columns.
    wide = pickands.cube_lattice(2, 4.0, 0.2) - 2.0
    for lattice in (pickands.cube_lattice(2, 2.0, 0.25), centred, scattered, wide):
        cov_w = _captured_cov_w(monkeypatch, alpha, lattice)
        expected = broadcast_pickands_cov_w(alpha, lattice)
        n = len(cov_w)
        whole = cov_w.block(0, n)
        # Nothing symmetrizes it before it is factored.
        assert np.array_equal(whole, whole.T)
        assert np.array_equal(whole, expected)
        assert np.array_equal(cov_w.diagonal, np.diagonal(expected))
        for a in range(0, n, ROW_BLOCK):
            b = min(a + ROW_BLOCK, n)
            assert np.array_equal(cov_w.block(a, b), expected[a:, a:b])


def _self_point_sets():
    # Its own generator, so the draws of the module's RNG stay as they were.
    rng = np.random.default_rng(37)
    sphere_scattered = np.column_stack([rng.uniform(0.0, np.pi, 60), rng.uniform(0.0, 7.0, 60)])
    flat = {
        "torus-grid": build_grid(FullTorus(PERIODS[2]), 7).coords,
        "refined-grid": build_grid(FullTorus(PERIODS[2]), 4).refine().coords,
        "rectangle-grid": build_grid(Rectangle((1.0, 3.0)), 6).coords,
        "scattered": rng.uniform(-4.0, 4.0, size=(40, 2)),
        "3d-torus-grid": build_grid(FullTorus(PERIODS[3]), 5).coords,
        "3d-scattered": rng.uniform(-2.0, 5.0, size=(30, 3)),
    }
    sets = [
        # 300-point circles: the sphere tables here were asymmetric when
        # they multiplied two copies of one embedding.
        pytest.param(Sphere(2, 1.0), build_grid(GreatCircle(1.0), 300).coords, id="great-circle"),
        pytest.param(Sphere(1, 2.0), build_grid(FullSphere(1, 2.0), 300).coords, id="1-sphere"),
        pytest.param(
            Sphere(2, 1.0), build_grid(FullSphere(2, 1.0), 8).refine().coords, id="refined-2-sphere"
        ),
        pytest.param(Sphere(2, 1.5), sphere_scattered, id="scattered-2-sphere"),
        pytest.param(Sphere(1, 1.0), rng.uniform(-7.0, 7.0, (50, 1)), id="scattered-1-sphere"),
    ]
    for name, x in flat.items():
        dim = x.shape[1]
        sets += [
            pytest.param(Euclidean(dim), x, id=f"euclidean-{name}"),
            pytest.param(FlatTorus(PERIODS[dim]), x, id=f"torus-{name}"),
        ]
    return sets


@pytest.mark.parametrize("manifold,x", _self_point_sets())
def test_self_pairwise_is_symmetric_by_construction(manifold, x):
    # Nothing symmetrizes these tables: a kernel evaluated on them must
    # already give a symmetric covariance, to the last bit.
    chart = manifold.charts[0]
    for pairwise in (manifold.pairwise_geodesic, manifold.pairwise_chordal):
        table = pairwise(chart, x, x)
        assert np.array_equal(table, table.T), pairwise.__name__


# Sizes on both sides of one and two 256-point blocks.
TILE_EDGE_SIZES = [1, 255, 256, 257, 600]


def _oracle_covariance_matrix(model, chart, coords):
    """``covariance_matrix`` by whole-array expressions."""
    if isinstance(model, LocallyIsotropicModel) and model.full_model is not None:
        model = model.full_model
    manifold = model.manifold
    if isinstance(model, SphereSchoenberg):
        u = manifold._unit_embed_coords(chart, coords)
        mat = model._poly(np.clip(u @ u.T, -1.0, 1.0))
    elif isinstance(model, SquaredExponential):
        d = manifold.pairwise_geodesic(chart, coords, coords)
        mat = squared_exponential_kernel(model.length_scale, d)
    else:
        pairwise = (
            manifold.pairwise_chordal
            if isinstance(model, StableOnChart)
            else manifold.pairwise_geodesic
        )
        mat = exp_power_kernel(model.c, model.alpha, pairwise(chart, coords, coords))
    mat = transpose_symmetrized(mat)
    np.fill_diagonal(mat, 1.0)
    return mat


def _matrix_cases():
    torus = FlatTorus(PERIODS[2])
    torus_grid = build_grid(FullTorus(PERIODS[2]), 17)
    rect_grid = build_grid(Rectangle((1.0, 3.0)), 16)
    sphere, sphere_grid = Sphere(2, 1.0), build_grid(FullSphere(2, 1.0), 20)
    cases = []
    for alpha in (0.5, 1.0, 1.5, 2.0):
        cases += [
            pytest.param(StableOnChart(torus, 1.3, alpha), torus_grid, id=f"stable-torus-{alpha}"),
            pytest.param(
                PoweredExponential(torus, 0.7, alpha), torus_grid, id=f"powexp-torus-{alpha}"
            ),
        ]
    squared = SquaredExponential(Euclidean(2), 0.3)
    cases += [
        pytest.param(squared, rect_grid, id="sqexp-rectangle"),
        pytest.param(SquaredExponential(torus, 0.3), torus_grid, id="sqexp-torus"),
        pytest.param(StableOnChart(Euclidean(2), 1.0, 1.5), rect_grid, id="stable-rectangle"),
        pytest.param(
            LocallyIsotropicModel(Euclidean(2), 1.0 / 0.18, 2.0, full_model=squared),
            rect_grid,
            id="local-with-full-model",
        ),
        pytest.param(
            SphereSchoenberg(sphere, (0.2, 0.3, 0.3, 0.2)), sphere_grid, id="schoenberg-sphere"
        ),
        pytest.param(PoweredExponential(sphere, 1.0, 0.5), sphere_grid, id="powexp-sphere"),
        pytest.param(StableOnChart(sphere, 1.0, 1.5), sphere_grid, id="stable-sphere"),
        pytest.param(SquaredExponential(sphere, 0.4), sphere_grid, id="sqexp-sphere"),
    ]
    return cases


@pytest.mark.parametrize("model,grid", _matrix_cases())
def test_covariance_matrix_matches_whole_array_build(model, grid):
    got = model.covariance_matrix(grid.chart, grid.coords)
    assert np.array_equal(got, _oracle_covariance_matrix(model, grid.chart, grid.coords))


def _scattered_covariance(n):
    model = StableOnChart(Euclidean(2), 1.0, 1.0)
    coords = np.random.default_rng(n).uniform(0.0, 3.0, size=(n, 2))
    mat = model.covariance_matrix("main", coords)
    assert np.array_equal(mat, _oracle_covariance_matrix(model, "main", coords))
    return mat


def _lapack_ladder_shift(mat):
    """The least shift of the ladder, 0 and then 1e-12 * scale doubling,
    at which LAPACK factors the whole matrix."""
    scale = float(np.trace(mat)) / len(mat)
    for shift in [0.0] + [1e-12 * scale * 2.0**k for k in range(20)]:
        try:
            c_order_cholesky(mat + shift * np.eye(len(mat)))
        except np.linalg.LinAlgError:
            continue
        return shift
    raise AssertionError("LAPACK refuses the matrix at every shift below the cap")


def _assert_reconstructs(factor, shifted):
    scale = float(np.trace(shifted)) / len(shifted)
    assert np.array_equal(factor, np.tril(factor))
    assert np.abs(factor @ factor.T - shifted).max() <= 1e-13 * scale


@pytest.mark.parametrize("n", TILE_EDGE_SIZES)
def test_factor_matches_c_order_cholesky(n):
    mat = _scattered_covariance(n)
    for given in (None, 1e-10):
        factor, shift = factor_covariance(mat, shift=given)
        factor = lower_matrix(factor)
        assert shift == (0.0 if given is None else given)
        shifted = mat + shift * np.eye(n)
        if n <= ROW_BLOCK:
            # One block column: LAPACK's factor of the whole matrix.
            assert np.array_equal(factor, c_order_cholesky(shifted))
        else:
            assert np.array_equal(factor, block_column_cholesky(shifted))
            assert np.abs(factor - c_order_cholesky(shifted)).max() <= 1e-13
        _assert_reconstructs(factor, shifted)


def test_ladder_factor_matches_c_order_cholesky():
    # Degree-3 Schoenberg kernel: rank 16 on 326 points, so only a
    # shifted matrix factors, and the block columns take the least shift
    # LAPACK takes, 1e-12 of the unit diagonal.
    grid = build_grid(FullSphere(2, 1.0), 16)
    model = SphereSchoenberg(Sphere(2, 1.0), (0.2, 0.3, 0.3, 0.2))
    mat = model.covariance_matrix(grid.chart, grid.coords)
    with pytest.raises(np.linalg.LinAlgError):
        c_order_cholesky(mat)
    factor, shift = factor_covariance(mat)
    factor = lower_matrix(factor)
    assert shift == _lapack_ladder_shift(mat) == 1e-12
    shifted = mat + shift * np.eye(len(mat))
    assert np.array_equal(factor, block_column_cholesky(shifted))
    _assert_reconstructs(factor, shifted)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_pickands_factor_matches_c_order_cholesky(monkeypatch, alpha):
    shifts = []

    def record(cov, **kwargs):
        factor, shift = factor_covariance(cov, **kwargs)
        shifts.append(shift)
        return factor, shift

    monkeypatch.setattr(pickands, "factor_covariance", record)
    lattice = pickands.cube_lattice(2, 4.0, 0.2) - 2.0
    factor, active, _ = pickands._factor_w(alpha, lattice)
    factor = lower_matrix(factor)
    assert len(active) > ROW_BLOCK
    cov_w = broadcast_pickands_cov_w(alpha, lattice)
    # At alpha = 2, W is linear in s: rank 2, so it takes the ladder, at
    # LAPACK's shift, 1e-12 of the mean diagonal 2.94.
    (shift,) = shifts
    assert shift == _lapack_ladder_shift(cov_w)
    assert (shift > 0.0) == (alpha == 2.0)
    shifted = cov_w + shift * np.eye(len(cov_w))
    assert np.array_equal(factor, block_column_cholesky(shifted))
    if not shift:
        assert np.abs(factor - c_order_cholesky(shifted)).max() <= 1e-12
    _assert_reconstructs(factor, shifted)


def _peak_doubles(fn):
    """Peak traced allocation of ``fn()`` in units of 8-byte doubles.

    tracemalloc sees numpy's arrays but not what LAPACK and BLAS malloc
    for themselves (numpy.linalg's copy of its operand, OpenBLAS's work
    buffers), so it bounds the package's own arrays only; the child
    process test below bounds the resident peak."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 8.0


def test_covariance_matrix_peak_is_two_matrices():
    grid = build_grid(FullTorus((1.0, 1.0)), 40)
    n = len(grid)
    model = StableOnChart(FlatTorus((1.0, 1.0)), c=1.0, alpha=1.0)
    peak = _peak_doubles(lambda: model.covariance_matrix(grid.chart, grid.coords))
    # The distance buffer and the pairwise gather buffer; the kernel
    # reuses the first.
    assert peak <= 2.0 * n * n + 2 * 256**2, peak / (n * n)


def _slab_doubles(n):
    """Doubles in the row slabs L[a:b, :b] of an n-point factor."""
    return sum((min(a + ROW_BLOCK, n) - a) * min(a + ROW_BLOCK, n) for a in range(0, n, ROW_BLOCK))


def test_plain_factorization_peak_is_the_factor():
    n = 1600
    a = np.linspace(0.0, 1.0, n)
    matrix = np.exp(-np.abs(a[:, None] - a[None, :]))
    peak = _peak_doubles(lambda: factor_covariance(matrix))
    # The factor's row slabs (0.58 n^2 here), one block column and the
    # solve's panel below its diagonal block: 1.058 n^2, and 0.898 n^2
    # traced.  An n x n factor traced 1.32 n^2.  An unused identity
    # once doubled it; LAPACK's own copy and output of the whole
    # matrix, invisible here, are gone.
    assert peak <= _slab_doubles(n) + 3 * n * ROW_BLOCK, peak / (n * n)


def test_pickands_factorization_resident_peak_is_the_factor(monkeypatch):
    # The default 2-D window, 1680 points, in a fresh single-thread
    # process, so that the resident peak counts what tracemalloc cannot
    # see: the slabs and a few n x ROW_BLOCK panels.  The two blocks'
    # slabs (860 and 820 points) bound it at 20.1 MiB and grew it by
    # 14.5 MiB; one block's slabs grew it by 22.7 MiB, an n x n factor
    # by 34.5 MiB, and the whole-matrix path by 4 n^2 doubles: the
    # distance table, the covariance, LAPACK's copy and its output.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    code = (
        "import numpy as np\n"
        "from excursion import pickands\n"
        "lattice = pickands.cube_lattice(2, 4.0, 0.1)\n"
        "mirror = np.arange(41 * 41).reshape(41, 41).T.ravel()\n"
        "before = peak()\n"
        "factor, active, _ = pickands._factor_w(1.0, lattice, of_z=True, mirror=mirror)\n"
        "grown = peak() - before\n"
        "print(len(active), grown)\n"
    )
    proc = run_with_peak(code)
    assert proc.returncode == 0, proc.stderr
    n, grown = map(int, proc.stdout.split())
    assert n == 1680
    bound = 8 * (_slab_doubles(860) + _slab_doubles(820) + 4 * n * ROW_BLOCK)
    assert grown <= bound, grown / bound


def test_lattice_budget_is_checked_before_allocating():
    # 161^3 = 4,173,281 points: refused from the count alone.
    with pytest.raises(ValidationError, match="dense factorization budget"):
        pickands.cube_lattice(3, 8.0, 0.05)
    with pytest.raises(ValidationError, match="4173281 points"):
        pickands.estimate_pickands_dy(1.0, 3, 8.0, 0.05, 1000, 0)
    with pytest.raises(ValidationError, match="dense factorization budget"):
        pickands.estimate_pickands(1.0, 3, 8.0, 0.05, 1000, 0)
    # 100^2 points is the budget itself; one more per axis is over it.
    assert pickands.cube_lattice(2, 99.0, 1.0).shape[0] == _MAX_GRID_POINTS
    with pytest.raises(ValidationError, match="10201 points"):
        pickands.cube_lattice(2, 100.0, 1.0)


def test_huge_lattice_powers_are_refused_without_forming_them():
    # 5^10^9 points: refused without forming the power, which is printed.
    for n_dim in (6200, 1_000_000_000):
        started = time.perf_counter()
        with pytest.raises(ValidationError, match=rf"grid would have 5\^{n_dim} points"):
            pickands.cube_lattice(n_dim, 1.0, 0.25)
        assert time.perf_counter() - started < 1.0
    with pytest.raises(ValidationError, match=r"10\^20 points"):
        build_grid(FullTorus((1.0,) * 20), 10)
    # A count of fewer than 18 digits is printed exactly.
    with pytest.raises(ValidationError, match="1000000000000000 points"):
        build_grid(FullTorus((1.0,) * 5), 1000)


def test_sphere_grid_budget_is_checked_before_building_rows():
    # About 5.1 million points on 2000 rows: refused from the row counts.
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="dense factorization budget"):
            build_grid(FullSphere(2, 1.0), 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    # More rows than the budget has points: refused before any row is laid out.
    with pytest.raises(ValidationError, match="12000 points"):
        build_grid(FullSphere(2, 1.0), 12_000)


def test_caller_lattice_budget_is_checked_before_the_pairwise_build():
    lattice = np.arange(1.0, _MAX_GRID_POINTS + 2.0)[:, None]
    with pytest.raises(ValidationError, match="10001 points"):
        pickands.simulate_z(1.0, 1, lattice, seed=0)


def test_pickands_import_leaves_manifolds_unloaded():
    code = (
        "import sys, excursion.pickands; "
        "sys.exit(1 if 'excursion.manifolds' in sys.modules else 0)"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr or "excursion.pickands imported excursion.manifolds"
