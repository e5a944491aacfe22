"""Shared brute-force oracles used by module and acceptance tests."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from excursion.curvatures import Ball, Rectangle
from excursion.pickands import _lattice_steps
from excursion.sampling import _cap_points
from excursion.validation import Grid, build_grid

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code):
    """Run ``code`` in a new interpreter that imports this checkout's ``src``."""
    return run_python("-c", code)


def run_python(*args):
    """Run a new interpreter with ``args`` that imports this checkout's ``src``.

    The child's ``PYTHONPATH`` starts with ``src``, so the check holds
    whether or not the parent test run found the package that way.
    """
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), path)))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


# Defines peak() in a child: its own resident high-water mark in bytes.
_PEAK = (
    "def peak():\n"
    "    with open('/proc/self/status') as fh:\n"
    "        return 1024 * next(int(l.split()[1]) for l in fh if l.startswith('VmHWM:'))\n"
)


def run_with_peak(code):
    """``run_fresh(code)`` with ``peak()`` defined in the child.

    ``peak()`` reads the process image's own high-water mark (Linux
    ``VmHWM``).  ``ru_maxrss`` would not do: a child inherits its
    spawner's across exec, so its growth reads 0 whenever the spawner,
    such as the test process, is the larger.
    """
    return run_fresh(_PEAK + code)


def value_matching_refine(grid):
    """``Grid.refine`` as it was first written: the new points found by
    matching coordinates against the finer grid's, the torus lattice
    rebuilt from the parent's unravelled steps."""
    # The parent's points recur bit for bit among the fine grid's: at
    # doubled resolution on tori and circles, at 2R - 1 points per axis on
    # rectangles (plain doubling would not nest there).  On the 2-sphere
    # no latitude row survives doubling, so the refined grid is the union.
    fine_res = 2 * grid.resolution - isinstance(grid.domain, Rectangle)
    both = np.concatenate([grid.coords, build_grid(grid.domain, fine_res).coords])
    # First occurrences (np.unique sorts stably) past the parent's rows are
    # the fine points the parent lacks, kept in fine-grid order.
    first = np.unique(both, axis=0, return_index=True)[1]
    new = np.sort(first[first >= len(grid)])
    coords = np.concatenate([grid.coords, both[new]])
    _cap_points(coords.shape[0])
    lattice = None
    if grid.lattice is not None:
        # Parent point i_k * (P_k / R) is fine point 2 i_k; the new
        # points' fine-grid positions are their lattice indices.
        steps = np.unravel_index(grid.lattice, (grid.resolution,) * grid.coords.shape[1])
        parent = np.ravel_multi_index(2 * np.array(steps), (fine_res,) * len(steps))
        lattice = np.concatenate([parent, new - len(grid)])
    return Grid(grid.domain, grid.chart, coords, fine_res, lattice)


def lower_matrix(factor):
    """The n x n lower-triangular matrix a ``DenseFactor`` holds as its
    row slabs L[a:b, :b], zeros above them."""
    n = len(factor)
    low = np.zeros((n, n))
    a = 0
    for slab in factor.slabs:
        low[a : a + slab.shape[0], : slab.shape[1]] = slab
        a += slab.shape[0]
    return low


def tube_volume_by_counting(domain, r, n_points=10_000_000, key=7):
    """Volume of {x : dist(x, D) <= r} by uniform point counting.

    The bounding box encloses the tube exactly, so the estimate is
    unbiased; relative standard error at 1e7 points is a few 1e-4.
    """
    rng = np.random.Generator(np.random.Philox(key=key))
    if isinstance(domain, Rectangle):
        sides = np.asarray(domain.sides)
        lo, hi = -r * np.ones_like(sides), sides + r
        pts = rng.uniform(lo, hi, size=(n_points, len(sides)))
        # Distance to the box: per-axis excess outside [0, T], clamped.
        excess = np.maximum(np.maximum(-pts, pts - sides), 0.0)
        inside = (excess**2).sum(axis=1) <= r * r
    elif isinstance(domain, Ball):
        a = domain.radius
        half = a + r
        pts = rng.uniform(-half, half, size=(n_points, domain.dim))
        inside = (pts**2).sum(axis=1) <= (a + r) ** 2
    else:
        raise TypeError(f"no counting oracle for {type(domain).__name__}")
    box = math.prod(float(h - l) for l, h in zip(lo, hi)) if isinstance(domain, Rectangle) else (
        2.0 * half
    ) ** domain.dim
    return box * float(inside.mean())


# The (n, m, d) broadcast forms the pairwise distances were first
# written in.  The per-axis-table builds must reproduce them bit for bit.


def broadcast_euclidean(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def broadcast_torus_geodesic(periods, a, b):
    periods = np.asarray(periods)
    delta = np.abs(a[:, None, :] - b[None, :, :])
    delta = np.mod(delta, periods)
    delta = np.minimum(delta, periods - delta)
    return np.sqrt((delta**2).sum(axis=-1))


def broadcast_torus_chordal(periods, a, b):
    periods = np.asarray(periods)
    delta = a[:, None, :] - b[None, :, :]
    chords = (periods / math.pi) * np.sin(math.pi * delta / periods)
    return np.sqrt((chords**2).sum(axis=-1))


def broadcast_pickands_cov_w(alpha, lattice):
    """Cov(W) on the nonzero lattice points, as ``pickands._factor_w`` factors it."""
    norms = (np.sum(lattice**2, axis=1)) ** (alpha / 2.0)
    active = norms > 0.0
    pts = lattice[active]
    norms = norms[active]
    diff = pts[:, None, :] - pts[None, :, :]
    dist_a = (np.sum(diff**2, axis=-1)) ** (alpha / 2.0)
    cov_w = 0.5 * (norms[:, None] + norms[None, :] - dist_a)
    return 0.5 * (cov_w + cov_w.T)


def axis_swap(lattice):
    """The index of each point's image under the swap of axes 0 and 1,
    found by sorting the points and their swapped copies, or None where
    that swap does not map the lattice onto itself (N = 1 included)."""
    if lattice.shape[1] < 2:
        return None
    swapped = lattice.copy()
    swapped[:, [0, 1]] = lattice[:, [1, 0]]
    order, image = np.lexsort(lattice.T[::-1]), np.lexsort(swapped.T[::-1])
    if not np.array_equal(lattice[order], swapped[image]):
        return None
    mirror = np.empty(lattice.shape[0], dtype=np.intp)
    mirror[image] = order
    return mirror if np.array_equal(mirror[mirror], np.arange(mirror.shape[0])) else None


# The whole-array expressions the dense covariance path was first
# written in.  The in-place builds must reproduce them bit for bit.


def transpose_symmetrized(mat):
    return 0.5 * (mat + mat.T)


def exp_power_kernel(c, alpha, d):
    return np.exp(-c * d**alpha)


def squared_exponential_kernel(length_scale, d):
    return np.exp(-(d**2) / (2.0 * length_scale**2))


def c_order_cholesky(mat):
    """The factor LAPACK gives from the C-ordered matrix itself."""
    return np.linalg.cholesky(mat)


def block_column_cholesky(mat, width=256):
    """Left-looking Cholesky of the whole matrix by block columns of
    ``width``: each column's update from the earlier ones is one
    product, its diagonal block LAPACK's factor and the panel below a
    solve against that block.  ``mat`` already carries any shift."""
    n = len(mat)
    low = np.zeros((n, n))
    for a in range(0, n, width):
        b = min(a + width, n)
        col = mat[a:, a:b] - low[a:, :a] @ low[a:b, :a].T
        low[a:b, a:b] = np.linalg.cholesky(col[: b - a])
        low[b:, a:b] = np.linalg.solve(low[a:b, a:b], col[b - a :].T).T
    return low


def pickands_window_alpha2(n_dim, cube_side, spacing):
    """K^-N E[(e^M - 1)^+] on the [0, K]^N lattice at alpha = 2, exactly.

    At alpha = 2, Z(t) = sqrt(2) t xi - t^2 on each axis with one
    standard normal xi, so in 1-D M is a function of xi alone and the
    window value is a 1-D Gaussian integral.  Where lattice point t_k is
    the argmax, phi(xi) e^M = phi(xi - sqrt(2) t_k), so the integrand is
    phi(xi - sqrt(2) t_k) - phi(xi) between the kinks (t_{k-1} + t_k) /
    sqrt(2), and 0 where the origin is the argmax; each piece is one
    quadrature.  Z is a sum of independent per-axis fields, M the sum of
    their maxima, so E e^M is the N-th power of the 1-D one:
    K^-N ((1 + K v_1)^N - 1).
    """
    steps = _lattice_steps(cube_side, spacing)
    t = spacing * np.arange(steps + 1)
    kinks = np.append((t[:-1] + t[1:]) / math.sqrt(2.0), np.inf)

    def piece(k):
        shift = math.sqrt(2.0) * t[k]
        value, _ = quad(
            lambda x: math.exp(-0.5 * (x - shift) ** 2) - math.exp(-0.5 * x * x),
            kinks[k - 1],
            kinks[k],
        )
        return value / math.sqrt(2.0 * math.pi)

    one_axis = sum(piece(k) for k in range(1, steps + 1))
    return ((1.0 + one_axis) ** n_dim - 1.0) / cube_side**n_dim
