"""The two range rules of ``excursion.errors``.

Every library entry that takes a number checks it with ``_check_count``
or ``_check_real``: a bool, a value that is not finite and one out of
range are each refused under the field's name, which the error carries
as ``name`` for the command line to place.  The entries with a test
of their own (the covariance parameters, grid resolution, estimator
arguments, Hermite degrees and factorization shift) are checked there;
the others are in the table below.  The rules are written once, so no
other module refuses a bool by itself.
"""

import ast
import math
from pathlib import Path

import pytest

import excursion
from excursion.approximations import metric_sqrt_field, pickands_approx
from excursion.covariance import LocallyIsotropicModel
from excursion.curvatures import Ball, FullSphere, FullTorus, GreatCircle, Rectangle
from excursion.errors import ValidationError
from excursion.manifolds import Euclidean, FlatTorus, Sphere
from excursion.pickands import cube_lattice

_LINE = Rectangle((2.0,))
_ROUGH = LocallyIsotropicModel(Euclidean(1), 1.0, 1.0)

# Entry called with the value under test, the field's name, and a value
# outside the field's range.
_ENTRIES = [
    (lambda v: Euclidean(v), "dimension", 0),
    (lambda v: Sphere(v, 1.0), "dimension", 0),
    (lambda v: Ball(v, 1.0), "dimension", -1),
    (lambda v: FullSphere(v, 1.0), "dimension", 0),
    (lambda v: Sphere(2, v), "radius", -1.0),
    (lambda v: Ball(2, v), "radius", 0.0),
    (lambda v: FullSphere(2, v), "radius", 0.0),
    (lambda v: GreatCircle(v), "radius", 0.0),
    (lambda v: FlatTorus((1.0, v)), "period", 0.0),
    (lambda v: FullTorus((v, 1.0)), "period", -2.0),
    (lambda v: Rectangle((v, 2.0)), "side", 0.0),
    (lambda v: cube_lattice(v, 1.0, 0.25), "dimension", 0),
    (lambda v: cube_lattice(1, v, 0.25), "cube side", 0.0),
    (lambda v: cube_lattice(1, 1.0, v), "spacing", 2.0),
    (lambda v: metric_sqrt_field(Sphere(2, 1.0), scale=v), "scale", 0.0),
    (lambda v: pickands_approx(_ROUGH, _LINE, 3.0, v), "constant H", 0.0),
    (lambda v: pickands_approx(_ROUGH, _LINE, v, 0.5), "level u", -1.0),
]


def test_number_entries_refuse_bools_non_finite_and_out_of_range_values():
    for make, field, outside in _ENTRIES:
        for value in (True, math.nan, math.inf, outside):
            with pytest.raises(ValidationError, match=f"^{field} must") as err:
                make(value)
            assert err.value.name == field


# Where a bool may be told apart: the rules themselves, the CLI's
# converters (which name the config field), and the CSV writer, which
# formats a bool cell and refuses nothing.
_BOOL_TESTS_ALLOWED = {
    ("errors.py", "_check_count"),
    ("errors.py", "_check_real"),
    ("cli.py", "_as_float"),
    ("cli.py", "_as_int"),
    ("serialize.py", "format_value"),
}


def _bool_tests(tree: ast.Module):
    """(enclosing function name, line) of each ``isinstance(..., bool)``."""
    owner = {}
    # Breadth first, so an inner function's name overwrites its outer one's.
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                owner[inner] = node.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            kinds = node.args[1] if len(node.args) == 2 else None
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(getattr(name, "id", None) == "bool" for name in names):
                yield owner.get(node), node.lineno


def test_bool_refusal_lives_in_the_range_rules():
    found = []
    for path in sorted(Path(excursion.__file__).parent.glob("*.py")):
        for function, line in _bool_tests(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.name, function) not in _BOOL_TESTS_ALLOWED:
                found.append(f"{path.name}:{line} in {function}")
    assert not found, "isinstance(..., bool) outside the range rules: " + ", ".join(found)
