"""Curvature catalogue: golden vectors, Steiner consistency, rescaling."""

import math

import numpy as np
import pytest

from excursion.curvatures import (
    Ball,
    FullSphere,
    FullTorus,
    GreatCircle,
    Rectangle,
    lk_curvatures,
    rescale_lk,
    tube_volume,
    unit_ball_volume,
    unit_sphere_area,
)
from excursion.errors import DegenerateModelError, UnsupportedShapeError, ValidationError

from tests._oracles import tube_volume_by_counting


def test_unit_ball_and_sphere_constants():
    assert unit_ball_volume(0) == 1.0
    assert unit_ball_volume(1) == pytest.approx(2.0, rel=1e-12)
    assert unit_ball_volume(2) == pytest.approx(math.pi, rel=1e-12)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)
    assert unit_sphere_area(1) == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert unit_sphere_area(2) == pytest.approx(4.0 * math.pi, rel=1e-12)


def test_golden_vectors():
    assert lk_curvatures(Rectangle((1.0, 2.0))) == pytest.approx([1.0, 3.0, 2.0], rel=1e-14)
    assert lk_curvatures(Rectangle((0.7, 0.7))) == pytest.approx(
        [1.0, 1.4, 0.49], rel=1e-14
    )
    assert lk_curvatures(Ball(2, 1.0)) == pytest.approx([1.0, math.pi, math.pi], rel=1e-12)
    assert lk_curvatures(FullSphere(2, 1.0)) == pytest.approx(
        [2.0, 0.0, 4.0 * math.pi], rel=1e-12
    )
    assert lk_curvatures(FullTorus((1.0, 2.0))) == pytest.approx([0.0, 0.0, 2.0], rel=1e-14)
    assert lk_curvatures(GreatCircle(1.5)) == pytest.approx(
        [0.0, 3.0 * math.pi], rel=1e-12
    )


def test_euler_characteristic_entries_exact():
    assert lk_curvatures(FullSphere(2, 2.7))[0] == 2.0
    assert lk_curvatures(FullTorus((1.0, 1.0)))[0] == 0.0
    assert lk_curvatures(GreatCircle(1.0))[0] == 0.0
    assert lk_curvatures(Rectangle((3.0,)))[0] == 1.0


def test_rectangle_thin_side_degenerates_to_segment():
    thin = lk_curvatures(Rectangle((2.0, 1e-9)))
    assert thin == pytest.approx([1.0, 2.0, 0.0], abs=2e-9)


def test_generating_identity_random_sides():
    rng = np.random.default_rng(5)
    for _ in range(20):
        sides = tuple(rng.uniform(0.1, 3.0, size=rng.integers(1, 5)))
        lk = lk_curvatures(Rectangle(sides))
        for s in (0.5, 1.0, 2.0):
            product = math.prod(1.0 + t * s for t in sides)
            series = float(sum(lk[j] * s**j for j in range(len(lk))))
            assert series == pytest.approx(product, rel=1e-12)


def test_rescale_composition_and_identity():
    lk = lk_curvatures(Rectangle((1.0, 2.0, 0.5)))
    assert np.array_equal(rescale_lk(lk, 1.0), lk)
    a, b = 1.7, 0.4
    twice = rescale_lk(rescale_lk(lk, a), b)
    once = rescale_lk(lk, a * b)
    assert twice == pytest.approx(once, rel=1e-13)
    # The integer entry is metric-free.
    assert rescale_lk(lk, 9.0)[0] == lk[0]
    assert rescale_lk(lk, 4.0) == pytest.approx(lk * np.array([1.0, 2.0, 4.0, 8.0]), rel=1e-13)


def test_rescale_rejects_nonpositive():
    lk = lk_curvatures(Rectangle((1.0,)))
    with pytest.raises(DegenerateModelError):
        rescale_lk(lk, 0.0)
    with pytest.raises(DegenerateModelError):
        rescale_lk(lk, -1.0)


def test_tube_volume_closed_forms():
    assert tube_volume(Ball(2, 1.0), 0.7) == pytest.approx(math.pi * 1.7**2, rel=1e-12)
    T, r = 0.9, 0.3
    assert tube_volume(Rectangle((T, T)), r) == pytest.approx(
        T * T + 4.0 * T * r + math.pi * r * r, rel=1e-12
    )
    assert tube_volume(Rectangle((1.0, 2.0)), 0.0) == pytest.approx(2.0, rel=1e-14)


def test_tube_volume_shape_guards():
    with pytest.raises(UnsupportedShapeError):
        tube_volume(FullTorus((1.0, 1.0)), 0.5)
    with pytest.raises(UnsupportedShapeError):
        tube_volume(FullSphere(2, 1.0), 0.5)
    with pytest.raises(ValidationError):
        tube_volume(Ball(2, 1.0), -0.1)
    with pytest.raises(UnsupportedShapeError):
        lk_curvatures(object())


def test_shape_validation():
    with pytest.raises(ValidationError):
        Rectangle((1.0, 0.0))
    with pytest.raises(ValidationError):
        Rectangle(())
    with pytest.raises(ValidationError):
        Ball(0, 1.0)
    with pytest.raises(ValidationError):
        Ball(2, -1.0)
    with pytest.raises(ValidationError):
        FullSphere(2, 0.0)
    with pytest.raises(ValidationError):
        GreatCircle(-2.0)


def test_domain_dimension_refuses_bool_and_accepts_numpy_integers():
    for shape in (Ball, FullSphere):
        with pytest.raises(ValidationError):
            shape(True, 1.0)
        domain = shape(np.int64(2), 1.0)
        assert type(domain.dim) is int
        assert np.array_equal(lk_curvatures(domain), lk_curvatures(shape(2, 1.0)))


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
def test_steiner_against_counting_rectangle(r):
    domain = Rectangle((1.0, 2.0))
    counted = tube_volume_by_counting(domain, r)
    assert counted == pytest.approx(tube_volume(domain, r), rel=0.01)


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
def test_steiner_against_counting_ball(r):
    domain = Ball(2, 1.0)
    counted = tube_volume_by_counting(domain, r)
    assert counted == pytest.approx(tube_volume(domain, r), rel=0.01)
