"""Run one ``excursion`` command in-process with a span around every layer.

Usage::

    python3 bench/traced.py SPANS_JSON -- <excursion arguments>

The parent puts the BLAS thread cap in the environment: the excursion
modules (and numpy with them) are imported before the command runs, so
that each layer's public functions can be wrapped at every module that
binds them.  Nothing under ``src/`` changes; the wrappers replace module
and class attributes in this process only, and call the originals with
the same arguments, so the command's output is bit-identical.

Spans are kept in memory as ``[name, start, end, parent, attrs]`` and
written to SPANS_JSON when the command has returned.  ``layer_metrics``
turns a span list into the per-layer metrics; the harness calls it on
the file.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Everything the CLI reaches on the three workloads.
MODULES = (
    "excursion.cli",
    "excursion.approximations",
    "excursion.covariance",
    "excursion.manifolds",
    "excursion.pickands",
    "excursion.sampling",
    "excursion.validation",
)


class Tracer:
    """Span recorder; the open-span stack gives each span its parent."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _start(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, describe=None):
        """``fn`` with one span per call; ``describe(result, *args)`` gives its attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if describe is not None:
                self.spans[index][4] = describe(result, *args, **kwargs)
            return result

        return traced

    def wrap_batches(self, name: str, fn, describe):
        """A generator function with one span per ``next``.

        Only the time spent producing a batch is inside the span; the
        consumer's work on it belongs to the consumer's span.  The first
        span of a call carries ``describe(None, *args)``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = describe(None, *args, **kwargs)
            batches = fn(*args, **kwargs)
            while True:
                index = self._start(name)
                try:
                    item = next(batches, None)
                finally:
                    self._end(index)
                self.spans[index][4], attrs = attrs, None
                if item is None:
                    return
                yield item

        return traced


def _classes(module):
    return [
        obj
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    ]


def install(tracer: Tracer) -> None:
    """Wrap each layer's public calls at every binding the CLI reaches."""
    mods = {name.rsplit(".", 1)[1]: importlib.import_module(name) for name in MODULES}

    def patch(owner, attr, name, describe=None, batches=False):
        wrap = tracer.wrap_batches if batches else tracer.wrap
        setattr(owner, attr, wrap(name, vars(owner)[attr], describe))

    patch(mods["cli"], "resolve", "cli.resolve")
    patch(mods["cli"], "run", "cli.run")
    for attr in ("eec_approx", "pickands_approx", "pickands_approx_submanifold"):
        patch(mods["approximations"], attr, "approximations.analytic")

    for cls in _classes(mods["covariance"]):
        if "covariance_matrix" in vars(cls):
            patch(cls, "covariance_matrix", "covariance.matrix",
                  lambda r, model, chart, coords: {"n": len(coords)})
    for cls in _classes(mods["manifolds"]):
        for attr in ("pairwise_geodesic", "pairwise_chordal"):
            if attr in vars(cls):
                patch(cls, attr, "manifolds.pairwise",
                      lambda r, m, chart, a, b: {"bytes": 8 * len(a) * len(b) * a.shape[1]})

    # The sampling functions are bound in three modules each; draw_in_batches
    # looks replicate_generator up in excursion.sampling at call time.
    for owner in (mods["sampling"], mods["validation"], mods["pickands"]):
        patch(owner, "factor_covariance", "sampling.factor",
              lambda r, matrix, **kw: {"n": len(matrix), "shift": r[1]})
        patch(owner, "draw_in_batches", "sampling.draw",
              lambda r, factor, reps, seed: {"n": len(factor), "reps": int(reps)},
              batches=True)
    for owner in (mods["sampling"], mods["pickands"]):
        patch(owner, "replicate_generator", "sampling.stream")

    patch(mods["validation"], "build_grid", "validation.grid",
          lambda r, domain, resolution: {"points": len(r)})
    patch(mods["validation"], "sample_field", "validation.sample")
    patch(mods["validation"], "estimates_from_sups", "validation.estimates")
    patch(mods["pickands"], "cube_lattice", "pickands.lattice",
          lambda r, *args: {"points": len(r)})
    patch(mods["pickands"], "estimate_pickands", "pickands.estimate",
          lambda r, *args: {"stderr": r.stderr})


UNITS = {
    "covariance.matrix_s": "s",
    "covariance.matrix_self_s": "s",
    "covariance.entries_computed": "count",
    "manifolds.pairwise_s": "s",
    "manifolds.pairwise_bytes_computed": "B",
    "sampling.factor_s": "s",
    "sampling.factor_n": "count",
    "sampling.factor_gflop_computed": "GFLOP",
    "sampling.shift": "1",
    "sampling.streams_s": "s",
    "sampling.streams": "count",
    "sampling.draw_s": "s",
    "sampling.matmul_gflop_computed": "GFLOP",
    "sampling.reps_per_s": "1/s",
    "validation.grid_s": "s",
    "validation.grid_points": "count",
    "validation.passes": "count",
    "validation.sample_s": "s",
    "validation.sample_self_s": "s",
    "validation.estimates_s": "s",
    "pickands.estimate_s": "s",
    "pickands.estimate_self_s": "s",
    "pickands.lattice_points": "count",
    "pickands.stderr": "1",
    "approximations.analytic_s": "s",
    "cli.resolve_s": "s",
    "cli.run_s": "s",
    "trace.uncovered_share": "fraction",
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from a span list, keyed as in UNITS.

    ``X_s`` sums the spans named X that are not nested in another X;
    ``X_self_s`` sums each X span's duration minus its children's.
    Work counts are exact functions of the array sizes in the attrs.
    """
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def outermost(name):
        out = []
        for i in by_name[name]:
            parent = spans[i][3]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                out.append(i)
        return out

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in outermost(name))

    def self_time(name):
        return sum(spans[i][2] - spans[i][1] - children[i] for i in by_name[name])

    def attrs(name, key):
        return [spans[i][4][key] for i in outermost(name) if spans[i][4]]

    factor_n = attrs("sampling.factor", "n")
    draws = list(zip(attrs("sampling.draw", "n"), attrs("sampling.draw", "reps")))
    draw_total = total("sampling.draw")
    stderrs = attrs("pickands.estimate", "stderr")
    run_s = total("cli.run")
    return {
        "covariance.matrix_s": total("covariance.matrix"),
        "covariance.matrix_self_s": self_time("covariance.matrix"),
        "covariance.entries_computed": sum(n * n for n in attrs("covariance.matrix", "n")),
        "manifolds.pairwise_s": total("manifolds.pairwise"),
        "manifolds.pairwise_bytes_computed": sum(attrs("manifolds.pairwise", "bytes")),
        "sampling.factor_s": total("sampling.factor"),
        "sampling.factor_n": max(factor_n, default=0),
        "sampling.factor_gflop_computed": sum(n**3 / 3.0 for n in factor_n) / 1e9,
        "sampling.shift": max(attrs("sampling.factor", "shift"), default=0.0),
        "sampling.streams_s": total("sampling.stream"),
        "sampling.streams": len(by_name["sampling.stream"]),
        "sampling.draw_s": self_time("sampling.draw"),
        "sampling.matmul_gflop_computed": sum(2.0 * n * n * r for n, r in draws) / 1e9,
        "sampling.reps_per_s": sum(r for _, r in draws) / draw_total if draw_total else 0.0,
        "validation.grid_s": total("validation.grid"),
        "validation.grid_points": sum(attrs("validation.grid", "points")),
        "validation.passes": len(outermost("validation.sample")),
        "validation.sample_s": total("validation.sample"),
        "validation.sample_self_s": self_time("validation.sample"),
        "validation.estimates_s": total("validation.estimates"),
        "pickands.estimate_s": total("pickands.estimate"),
        "pickands.estimate_self_s": self_time("pickands.estimate"),
        "pickands.lattice_points": sum(attrs("pickands.lattice", "points")),
        "pickands.stderr": stderrs[-1] if stderrs else 0.0,
        "approximations.analytic_s": total("approximations.analytic"),
        "cli.resolve_s": total("cli.resolve"),
        "cli.run_s": run_s,
        "trace.uncovered_share": self_time("cli.run") / run_s if run_s else 0.0,
    }


def main(argv: list[str]) -> int:
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON -- <excursion arguments>")
    tracer = Tracer()
    install(tracer)
    code = sys.modules["excursion.cli"].main(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
