"""Command-line entry point.

Each subcommand is declared once, in ``_COMMANDS``, with its help, its
runner and the config parts it takes; ``build_parser`` and ``resolve``
both read it.  ``lk`` (curvature vector) takes a domain; ``eec`` (the
Euler-characteristic approximation) a domain and a smooth model with
levels; ``pickands`` (the fractional-index tail approximation) adds a
seed with H, and ``validate`` (analytic value vs brute-force Monte
Carlo) a grid as well; ``pickands-const`` takes the window fields of
its Monte Carlo estimate of H_{alpha, N}.

Configuration comes from a JSON file (--config) with flag overrides;
flags win.  A run manifest produced by an earlier run can be fed back
as the config (its resolved-config block is unwrapped), which
reproduces the result files byte for byte at the same thread cap;
docs/formats.md states that contract, and the ``sampling`` module
docstring the streams it rests on.

Shapes and covariance families are declared once, in ``_DOMAINS`` and
``_MODELS`` (each name maps to its constructor and its required fields
in constructor order, with the converter that checks each), and
pickands-const's fields with their defaults in ``_PC_FIELDS``.  These
tables generate the field flags and drive flag-over-file merging, field
checks, building and the ``--shape`` / ``--family`` choices.  A flag
value goes through the same converter as a config-file value, so a bad
one is reported under its field path.  Constructors are named, not
imported: the package's lazy exports load them on first use.

The ``mc`` block of ``pickands`` holds only the seed of the H estimate
(``resolve_constant`` fixes its window and replication count);
``validate`` adds the grid resolution and the replication count.  An H
estimated during resolution draws from streams of its own, under the
run's seed with its top bit flipped, and leaves its window, replication
count, seed and standard error in the manifest's ``diagnostics.h``,
outside the resolved config, so a replay does not read them.

Rules the implementation keeps to:

* every field is validated before any computation starts, each bound
  by the one function of the layer that owns it, its refusal raised
  under the field's path; a ``validate`` run's grids are built and its
  draws and model checked before any H estimate or analytic value;
* all computation finishes before any file is opened: a failing run
  leaves no partial output;
* the seed is always explicit in the resolved config (drawn once and
  recorded when the user did not give one);
* data goes to the output target; logging goes to standard error;
* numeric output is CSV with 17-significant-digit floats (column
  orders in docs/formats.md); the manifest is JSON.

Heavy imports are deferred: --threads (or EXCURSION_THREADS) must cap
the BLAS pool, and that only works if the cap is in the environment
before the numeric libraries load.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import secrets
import sys
import time
from dataclasses import dataclass, field

from .errors import ConfigError, ExcursionError, FactorizationError, ValidationError, _check_count
from .serialize import csv_text

__all__ = ["main", "run"]

log = logging.getLogger("excursion")

_THREAD_ENV = "EXCURSION_THREADS"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_DEFAULT_U_GRID = (2.0, 2.5, 3.0, 3.5)

_NEGATIVE_VALUE = re.compile(r"-\.?\d")

# An H estimated during resolution draws under the run's seed with its
# top bit flipped: a bijection with no fixed point, so its streams,
# replicate_generator(seed ^ _H_SEED_FLIP, i), are never the grid draws'.
_H_SEED_FLIP = 1 << 63


@dataclass(frozen=True)
class ResolvedRun:
    subcommand: str
    config: dict
    output: str
    # What resolution measured, for the manifest only: never replayed.
    diagnostics: dict = field(default_factory=dict)


def _parse_floats(text: str, field: str) -> list[float]:
    try:
        return [float(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(field, f"expected a comma-separated list of numbers, got {text!r}")


def _as_float(value, field: str) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigError(field, f"expected a number, got {value!r}")


def _as_floats(value, field: str) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(field, f"expected a list of numbers, got {value!r}")
    return [_as_float(v, field) for v in value]


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    try:
        out = int(value)
    except (ValueError, OverflowError):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if isinstance(value, float) and value != out:
        raise ConfigError(field, f"expected an integer, got {value!r}")
    return out


def _checked(field: str, check, *args, **kwargs):
    """``check(*args, **kwargs)``, a library refusal raised under ``field``."""
    try:
        return check(*args, **kwargs)
    except ValidationError as exc:
        raise ConfigError(field, str(exc)) from None


def _resolve_seed(raw_seed, field: str) -> int:
    if raw_seed is None:
        seed = secrets.randbits(63)
        log.info("no seed given; drew %d", seed)
        return seed
    from .sampling import _check_stream

    return _checked(field, _check_stream, _as_int(raw_seed, field), 0)


_LOCAL_FIELDS = (("c", _as_float), ("alpha", _as_float))

# Models take the domain's manifold as their first constructor argument.
_DOMAINS = {
    "rectangle": ("Rectangle", (("sides", _as_floats),)),
    "ball": ("Ball", (("dim", _as_int), ("radius", _as_float))),
    "full_sphere": ("FullSphere", (("dim", _as_int), ("radius", _as_float))),
    "full_torus": ("FullTorus", (("periods", _as_floats),)),
    "great_circle": ("GreatCircle", (("radius", _as_float),)),
}
_MODELS = {
    "squared_exponential": ("SquaredExponential", (("length_scale", _as_float),)),
    "sphere_schoenberg": ("SphereSchoenberg", (("b", _as_floats),)),
    "powered_exponential": ("PoweredExponential", _LOCAL_FIELDS),
    "stable_on_chart": ("StableOnChart", _LOCAL_FIELDS),
    "local": ("LocallyIsotropicModel", _LOCAL_FIELDS),
}
_SECTIONS = {"domain": ("shape", _DOMAINS), "model": ("family", _MODELS)}
# The name a constructor's range rule gives each field it does not spell alike.
_RULE_NAMES = dict(
    dim="dimension", sides="side", periods="period", length_scale="length scale", b="coefficient"
)

# pickands-const's fields in estimate_pickands's argument order: name, converter,
# default and flag help.  The window defaults (None) depend on dim; a missing seed is drawn.
_PC_FIELDS = (
    ("alpha", _as_float, 2.0, "index in (0, 2]"),
    ("dim", _as_int, 1, "lattice dimension N"),
    ("cube_side", _as_float, None, "window side K"),
    ("spacing", _as_float, None, "lattice pitch"),
    ("reps", _as_int, 10_000, "replications"),
    ("seed", _resolve_seed, None, "base seed (64-bit)"),
)

# Flags of each config part besides its _DOMAINS / _MODELS fields.
_PART_FLAGS = {
    "model": (("--u", "levels, comma separated"),),
    "grid": (("--resolution", "grid resolution per axis"), ("--reps", "Monte Carlo replications")),
    "seed": (
        ("--seed", "base seed (64-bit)"),
        ("--h-value", "Pickands constant override (skips estimation)"),
    ),
    "window": tuple(("--" + name.replace("_", "-"), text) for name, _, _, text in _PC_FIELDS),
}


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON in {path}: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config", f"top level of {path} must be an object")
    # A manifest from an earlier run is accepted directly.
    if "resolved_config" in data and isinstance(data["resolved_config"], dict):
        return data["resolved_config"]
    return data


def _section(cfg: dict, name: str) -> dict:
    raw = cfg.get(name)
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(name, f"expected an object, got {raw!r}")
    return raw


def _with_flags(rec: dict, args, keys) -> dict:
    """``rec`` with each of the flags ``keys`` that was given put over it."""
    return {**rec, **{k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}}


def _fields(table: dict) -> dict:
    """Each field of ``table``'s entries: its converter and the entries taking it."""
    out = {}
    for name, (_, fields) in table.items():
        for field, kind in fields:
            out.setdefault(field, (kind, []))[1].append(name)
    return out


def _resolve_entry(cfg: dict, args, section: str) -> dict:
    """One ``domain`` or ``model`` record: flags over file, then checked.

    A field flag the chosen entry does not take is refused; a config
    file's record may carry other fields, which are dropped."""
    key, table = _SECTIONS[section]
    rec = _with_flags(_section(cfg, section), args, (key,))
    flagged = {}
    for field, (kind, users) in _fields(table).items():
        flag = getattr(args, field, None)
        if flag is not None:
            path = f"{section}.{field}"
            rec[field] = kind(_parse_floats(flag, path) if kind is _as_floats else flag, path)
            flagged[field] = users

    name = rec.get(key)
    if name is None:
        raise ConfigError(f"{section}.{key}", "required (one of: " + ", ".join(table) + ")")
    if not isinstance(name, str) or name not in table:
        raise ConfigError(f"{section}.{key}", f"unknown {key} {name!r}")
    taken = {field for field, _ in table[name][1]}
    for field, users in flagged.items():
        if field not in taken:
            raise ConfigError(
                f"{section}.{field}",
                f"not a field of {key} {name!r} (taken by {key} {', '.join(users)})",
            )
    out = {key: name}
    for field, kind in table[name][1]:
        path = f"{section}.{field}"
        if field not in rec:
            raise ConfigError(path, f"required for {key} {name!r}")
        out[field] = kind(rec[field], path)
    return out


def _constructor(section: str, name: str):
    return getattr(sys.modules[__package__], _SECTIONS[section][1][name][0])


def _is_smooth(family: str) -> bool:
    from .covariance import SmoothIsotropicModel

    return issubclass(_constructor("model", family), SmoothIsotropicModel)


def _construct(config: dict, section: str, *head):
    key, table = _SECTIONS[section]
    rec = config[section]
    try:
        return _constructor(section, rec[key])(*head, *(rec[f] for f, _ in table[rec[key]][1]))
    except ValidationError as exc:
        # A range rule's refusal goes under the field it checked; any other
        # (one that weighs fields together) under the section.
        field = next((f for f in rec if exc.name == _RULE_NAMES.get(f, f)), None)
        raise ConfigError(f"{section}.{field}" if field else section, str(exc)) from None


def _domain_and_model(config: dict):
    domain = _construct(config, "domain")
    return domain, _construct(config, "model", domain.manifold)


def _resolve_u_grid(cfg: dict, args, tail: bool) -> list[float]:
    from .approximations import _check_level

    if getattr(args, "u", None) is not None:
        levels = _parse_floats(args.u, "u_grid")
    elif "u_grid" in cfg:
        levels = _as_floats(cfg["u_grid"], "u_grid")
    else:
        levels = list(_DEFAULT_U_GRID)
    if not levels:
        raise ConfigError("u_grid", "at least one level required")
    for u in levels:
        _checked("u_grid", _check_level, u, positive=tail)
    return levels


def _resolve_mc(cfg: dict, args, *, grid: bool) -> dict:
    """The ``mc`` block: the seed, plus resolution and reps for a grid run
    (the resolution is checked when the run's grids are built)."""
    from .sampling import _check_draws

    mc = _with_flags(_section(cfg, "mc"), args, ("resolution", "reps", "seed"))
    out = {}
    if grid:
        out["resolution"] = _as_int(mc.get("resolution", 40), "mc.resolution")
        reps = _as_int(mc.get("reps", 100_000), "mc.reps")
        out["reps"] = _checked("mc.reps", _check_draws, reps, 0)[0]
    out["seed"] = _resolve_seed(mc.get("seed"), "mc.seed")
    return out


def _pinned_h(cfg: dict, args) -> dict | None:
    """H given by --h-value or the config's ``h`` block, checked; else None."""
    if getattr(args, "h_value", None) is not None:
        h_cfg = {"value": args.h_value, "provenance": "user"}
    else:
        h_cfg = cfg.get("h")
        if h_cfg is None:
            return None
        if not isinstance(h_cfg, dict) or "value" not in h_cfg:
            raise ConfigError("h.value", "expected an object with a 'value' entry")
    from .approximations import _check_h

    value = _checked("h.value", _check_h, _as_float(h_cfg["value"], "h.value"))
    # Only the provenances the program writes: the value lands in a CSV cell.
    provenance = h_cfg.get("provenance", "user")
    if provenance not in ("exact", "mc", "user"):
        raise ConfigError("h.provenance", f"expected exact, mc or user, got {provenance!r}")
    return {"value": value, "provenance": provenance}


def _resolve_output(args) -> str:
    output = getattr(args, "output", None) or "-"
    if output != "-":
        parent = os.path.dirname(os.path.abspath(output))
        if not os.path.isdir(parent):
            raise ConfigError("output", f"directory does not exist: {parent}")
    return output


def _approx_csv(results) -> str:
    terms = [f"term_{j}" for j in range(len(results[0].terms))]
    rows = ([r.method, r.u, r.total, *r.terms, r.h_value, r.h_provenance] for r in results)
    return csv_text(["method", "u", "total", *terms, "H_value", "H_provenance"], rows)


def _analytic(config: dict, domain, model) -> list:
    """The analytic value at each level: the tail formula when the run
    carries an H (it reads (c, alpha) off any model), else the EEC route."""
    from .approximations import eec_approx, pickands_approx_submanifold

    if "h" not in config:
        return [eec_approx(model, domain, u) for u in config["u_grid"]]
    h = config["h"]
    return [
        pickands_approx_submanifold(model, domain, u, h["value"], h["provenance"])
        for u in config["u_grid"]
    ]


def _run_lk(config: dict) -> str:
    from .curvatures import lk_curvatures

    lk = lk_curvatures(_construct(config, "domain"))
    return csv_text(["j", "L_j"], ([j, float(value)] for j, value in enumerate(lk)))


def _run_approx(config: dict) -> str:
    return _approx_csv(_analytic(config, *_domain_and_model(config)))


def _run_pickands_const(config: dict) -> str:
    from .pickands import estimate_pickands

    est = estimate_pickands(*(config[name] for name, *_ in _PC_FIELDS))
    inputs = [est.alpha, est.n_dim, est.cube_side, est.spacing, est.reps, est.seed]
    return csv_text(
        ["alpha", "N", "K", "spacing", "reps", "seed", "estimate", "stderr"],
        [inputs + [est.estimate, est.stderr]],
    )


def _validate_grids(config: dict, domain) -> list:
    """The grids a ``validate`` run samples, the first holding the last
    as its prefix; building them checks them against the point budget."""
    from . import validation

    # From R = 4 on, rows at half resolution make discretization drift
    # visible in the same table.  Both grids are sampled in one pass: the
    # refined half-resolution grid holds the coarse one as its prefix.
    # Below 4 the prefix is the whole grid, and zip drops its second row.
    mc = config["mc"]
    if mc["resolution"] < 4:
        return [validation.build_grid(domain, mc["resolution"])]
    coarse = validation.build_grid(domain, mc["resolution"] // 2)
    return [coarse.refine(), coarse]


def _run_validate(config: dict) -> str:
    from . import validation

    domain, model = _domain_and_model(config)
    analytic = _analytic(config, domain, model)
    grids = _validate_grids(config, domain)
    mc = config["mc"]
    sups = validation.sample_field(model, grids[0], mc["reps"], mc["seed"], prefix=len(grids[-1]))
    rows = []
    for grid, grid_sups in zip(grids, sups):
        empirical = validation.estimates_from_sups(
            grid_sups, config["u_grid"], resolution=grid.resolution, seed=mc["seed"]
        )
        rows.extend(validation.compare_report(analytic, empirical).rows)
    return validation.ComparisonTable(tuple(rows)).to_csv()


# Each subcommand's help, runner and config parts.  A part list without
# "seed" (which brings H) is the Euler-characteristic route.
_COMMANDS = {
    "lk": ("curvature vector of a domain", _run_lk, ("domain",)),
    "eec": ("Euler-characteristic approximation", _run_approx, ("domain", "model")),
    "pickands": ("fractional-index tail approximation", _run_approx, ("domain", "model", "seed")),
    "pickands-const": ("Monte Carlo estimate of H", _run_pickands_const, ("window",)),
    "validate": (
        "analytic vs brute-force comparison", _run_validate, ("domain", "model", "grid", "seed")
    ),
}


def _resolve_pickands_const(cfg: dict, args) -> dict:
    from .pickands import _RANGE_RULES, _lattice_steps, _window
    from .sampling import _cap_points

    pc = _with_flags(cfg, args, [name for name, *_ in _PC_FIELDS])
    out = {}
    for name, kind, default, _ in _PC_FIELDS:
        # Field by field, converted and then range-checked, so the window
        # defaults are looked up for a dimension already checked.
        if name == "cube_side":
            window = (out["dim"], pc.get("cube_side"), pc.get("spacing"))
            pc["cube_side"], pc["spacing"] = _checked(name, _window, *window)
        out[name] = kind(pc.get(name, default), name)
        if name in _RANGE_RULES:
            _checked(name, _RANGE_RULES[name], out[name])
    # The lattice the window spans, checked against the point budget.
    steps = _checked("spacing", _lattice_steps, out["cube_side"], out["spacing"])
    _checked("spacing", _cap_points, steps + 1, out["dim"])
    return out


def resolve(args) -> ResolvedRun:
    """Merge config file, flags, and defaults into a validated run."""
    cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    sub = args.subcommand
    parts = _COMMANDS[sub][2]
    output = _resolve_output(args)
    if "window" in parts:
        return ResolvedRun(sub, _resolve_pickands_const(cfg, args), output)

    config = {part: _resolve_entry(cfg, args, part) for part in parts if part in _SECTIONS}
    if "model" not in parts:
        return ResolvedRun(sub, config, output)

    smooth = _is_smooth(config["model"]["family"])
    # The tail formula runs on an H pinned or estimated here; a smooth grid run
    # takes the Euler-characteristic route and records none (a pinned one is checked).
    tail = "seed" in parts and not (smooth and "grid" in parts)
    config["u_grid"] = _resolve_u_grid(cfg, args, tail)
    if "seed" not in parts:
        if not smooth:
            raise ConfigError(
                "model.family",
                "the Euler-characteristic route needs a smooth family "
                f"({' or '.join(filter(_is_smooth, _MODELS))})",
            )
        return ResolvedRun(sub, config, output)

    config["mc"] = _resolve_mc(cfg, args, grid="grid" in parts)
    h = _pinned_h(cfg, args)
    domain, model = _domain_and_model(config)
    if "grid" in parts:
        # The run's grids are built, and its model asked for one covariance
        # entry: the bare local expansion (c, alpha) has none to sample.
        from .validation import _scheme

        _checked("domain.shape", _scheme, domain)
        grid = _checked("mc.resolution", _validate_grids, config, domain)[0]
        point = grid.coords[:1]
        _checked("model.family", model.covariance_table, grid.chart, point, point)
    diagnostics = {}
    if tail:
        if h is None:
            from .pickands import resolve_constant

            _, alpha = model.local_expansion()
            resolved = resolve_constant(alpha, domain.k, seed=config["mc"]["seed"] ^ _H_SEED_FLIP)
            h = {"value": resolved.value, "provenance": resolved.provenance}
            if resolved.mc is not None:
                diagnostics["h"] = {
                    f: getattr(resolved.mc, f)
                    for f in ("cube_side", "spacing", "reps", "seed", "stderr")
                }
        config["h"] = h
    return ResolvedRun(sub, config, output, diagnostics)


def run(run_spec: ResolvedRun, *, started: float, threads: int | None = None) -> int:
    """Execute a resolved run and emit its outputs.

    ``started`` is the ``time.monotonic()`` reading the manifest's wall
    time counts from: ``main`` takes it before ``resolve``, so an H
    estimated there is timed too.  ``threads`` is the BLAS thread cap the
    run was started under, or None when none was set; it goes into the
    manifest only, as do the run's ``diagnostics``.
    """
    data = _COMMANDS[run_spec.subcommand][1](run_spec.config)
    wall = time.monotonic() - started

    if run_spec.output == "-":
        sys.stdout.write(data)
        return 0

    with open(run_spec.output, "w", encoding="utf-8", newline="") as fh:
        fh.write(data)
    manifest = {
        "subcommand": run_spec.subcommand,
        "resolved_config": run_spec.config,
        "versions": _versions(),
        "wall_time_seconds": round(wall, 3),
        "threads": threads,
        "diagnostics": run_spec.diagnostics,
    }
    with open(run_spec.output + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s (%.3fs)", run_spec.output, wall)
    return 0


def _versions() -> dict:
    import numpy

    from . import __version__

    return {
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": numpy.__version__,
        "excursion": __version__,
    }


def _apply_thread_cap(threads: int | None) -> int | None:
    """Put the --threads or EXCURSION_THREADS cap into the BLAS
    environment; returns the cap, or None when neither is given."""
    if threads is None:
        raw = os.environ.get(_THREAD_ENV)
        if raw is None:
            return None
        try:
            threads = int(raw)
        except ValueError:
            raise ConfigError("threads", f"{_THREAD_ENV} must be an integer, got {raw!r}")
    _checked("threads", _check_count, "thread cap", threads, 1)
    for var in _BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A token that starts with a minus sign and a digit (or ".digit")
        # is a value, so "--u -1,2" and "--u -1e-3,2" reach their option;
        # by default only a lone number such as -1 does.  No option here
        # looks like a number, so "--no-such-flag" is still refused.
        self._negative_number_matcher = _NEGATIVE_VALUE

    # Usage problems are configuration errors (exit 1); the default
    # argparse exit code would collide with the numerical-failure code.
    def error(self, message):
        raise ConfigError("usage", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="excursion",
        description="Tail approximations for smooth and locally isotropic "
        "Gaussian fields on Euclidean boxes, flat tori, and spheres, "
        "with brute-force Monte Carlo validation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    for name, (help_text, _, parts) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (a run manifest also works)")
        p.add_argument("--output", help="output file, or - for stdout (default)")
        p.add_argument("--threads", type=int, help="cap the BLAS/OpenMP thread pool")
        for part in parts:
            if part in _SECTIONS:
                key, table = _SECTIONS[part]
                p.add_argument("--" + key, choices=list(table), help=f"{part} {key}")
                for field, (kind, users) in _fields(table).items():
                    listed = ", comma separated" if kind is _as_floats else ""
                    p.add_argument(
                        "--" + field.replace("_", "-"), help=f"{'/'.join(users)} {field}{listed}"
                    )
            for flag, flag_help in _PART_FLAGS.get(part, ()):
                p.add_argument(flag, help=flag_help)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    started = time.monotonic()
    try:
        args = build_parser().parse_args(argv)
        threads = _apply_thread_cap(getattr(args, "threads", None))
        return run(resolve(args), threads=threads, started=started)
    except FactorizationError as exc:
        log.error("numerical failure: %s", exc)
        return 2
    except (ConfigError, ValidationError) as exc:
        log.error("invalid configuration: %s", exc)
        return 1
    except ExcursionError as exc:
        log.error("%s", exc)
        return 1
    except OSError as exc:
        log.error("i/o failure: %s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
