"""Command-line entry point.

Subcommands:

* ``lk``             curvature vector of a catalogue domain
* ``eec``            Euler-characteristic approximation over a level grid
* ``pickands``       fractional-index tail approximation over a level grid
* ``pickands-const`` Monte Carlo estimate of the constant H_{alpha, N}
* ``validate``       analytic value vs brute-force Monte Carlo, as a table

Configuration comes from a JSON file (--config) with flag overrides;
flags win.  A run manifest produced by an earlier run can be fed back
as the config (its resolved-config block is unwrapped), which
reproduces the result files byte for byte.

Rules the implementation keeps to:

* every field is validated before any computation starts, and all
  computation finishes before any file is opened: a failing run leaves
  no partial output;
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
import secrets
import sys
import time
from dataclasses import dataclass

from .errors import ConfigError, ExcursionError, FactorizationError, ValidationError

__all__ = ["main", "run"]

log = logging.getLogger("excursion")

_THREAD_ENV = "EXCURSION_THREADS"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_DEFAULT_U_GRID = (2.0, 2.5, 3.0, 3.5)

_MODEL_FAMILIES = (
    "squared_exponential",
    "sphere_schoenberg",
    "powered_exponential",
    "stable_on_chart",
    "local",
)
_SHAPES = ("rectangle", "ball", "full_sphere", "full_torus", "great_circle")


@dataclass(frozen=True)
class ResolvedRun:
    subcommand: str
    config: dict
    output: str


def _parse_floats(text: str, field: str) -> list[float]:
    try:
        return [float(part) for part in str(text).split(",") if part.strip() != ""]
    except ValueError:
        raise ConfigError(field, f"expected a comma-separated list of numbers, got {text!r}")


def _as_float(value, field: str) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(field, f"expected a number, got {value!r}")
    return out


def _as_int(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(field, f"expected an integer, got {value!r}")
    try:
        out = int(value)
    except ValueError:
        raise ConfigError(field, f"expected an integer, got {value!r}")
    if isinstance(value, float) and value != out:
        raise ConfigError(field, f"expected an integer, got {value!r}")
    return out


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


def _resolve_domain(cfg: dict, args) -> dict:
    domain = dict(cfg.get("domain") or {})
    if getattr(args, "shape", None) is not None:
        domain["shape"] = args.shape
    if getattr(args, "sides", None) is not None:
        domain["sides"] = _parse_floats(args.sides, "domain.sides")
    if getattr(args, "periods", None) is not None:
        domain["periods"] = _parse_floats(args.periods, "domain.periods")
    if getattr(args, "radius", None) is not None:
        domain["radius"] = _as_float(args.radius, "domain.radius")
    if getattr(args, "dim", None) is not None:
        domain["dim"] = _as_int(args.dim, "domain.dim")

    shape = domain.get("shape")
    if shape is None:
        raise ConfigError("domain.shape", "required (one of: " + ", ".join(_SHAPES) + ")")
    if shape not in _SHAPES:
        raise ConfigError("domain.shape", f"unknown shape {shape!r}")

    if shape == "rectangle":
        if "sides" not in domain:
            raise ConfigError("domain.sides", "required for shape 'rectangle'")
        domain = {"shape": shape, "sides": [_as_float(s, "domain.sides") for s in domain["sides"]]}
    elif shape == "ball":
        if "dim" not in domain:
            raise ConfigError("domain.dim", "required for shape 'ball'")
        if "radius" not in domain:
            raise ConfigError("domain.radius", "required for shape 'ball'")
        domain = {
            "shape": shape,
            "dim": _as_int(domain["dim"], "domain.dim"),
            "radius": _as_float(domain["radius"], "domain.radius"),
        }
    elif shape == "full_sphere":
        if "dim" not in domain:
            raise ConfigError("domain.dim", "required for shape 'full_sphere'")
        if "radius" not in domain:
            raise ConfigError("domain.radius", "required for shape 'full_sphere'")
        domain = {
            "shape": shape,
            "dim": _as_int(domain["dim"], "domain.dim"),
            "radius": _as_float(domain["radius"], "domain.radius"),
        }
    elif shape == "full_torus":
        if "periods" not in domain:
            raise ConfigError("domain.periods", "required for shape 'full_torus'")
        domain = {
            "shape": shape,
            "periods": [_as_float(p, "domain.periods") for p in domain["periods"]],
        }
    else:  # great_circle
        if "radius" not in domain:
            raise ConfigError("domain.radius", "required for shape 'great_circle'")
        domain = {"shape": shape, "radius": _as_float(domain["radius"], "domain.radius")}
    return domain


def _resolve_model(cfg: dict, args) -> dict:
    model = dict(cfg.get("model") or {})
    if getattr(args, "family", None) is not None:
        model["family"] = args.family
    if getattr(args, "length_scale", None) is not None:
        model["length_scale"] = _as_float(args.length_scale, "model.length_scale")
    if getattr(args, "b", None) is not None:
        model["b"] = _parse_floats(args.b, "model.b")
    if getattr(args, "c", None) is not None:
        model["c"] = _as_float(args.c, "model.c")
    if getattr(args, "alpha", None) is not None:
        model["alpha"] = _as_float(args.alpha, "model.alpha")

    family = model.get("family")
    if family is None:
        raise ConfigError("model.family", "required (one of: " + ", ".join(_MODEL_FAMILIES) + ")")
    if family not in _MODEL_FAMILIES:
        raise ConfigError("model.family", f"unknown family {family!r}")

    if family == "squared_exponential":
        if "length_scale" not in model:
            raise ConfigError("model.length_scale", "required for family 'squared_exponential'")
        model = {
            "family": family,
            "length_scale": _as_float(model["length_scale"], "model.length_scale"),
        }
    elif family == "sphere_schoenberg":
        if "b" not in model:
            raise ConfigError("model.b", "required for family 'sphere_schoenberg'")
        if not isinstance(model["b"], (list, tuple)):
            raise ConfigError("model.b", "expected a list of coefficients")
        model = {"family": family, "b": [_as_float(b, "model.b") for b in model["b"]]}
    else:
        if "c" not in model:
            raise ConfigError("model.c", f"required for family {family!r}")
        if "alpha" not in model:
            raise ConfigError("model.alpha", f"required for family {family!r}")
        model = {
            "family": family,
            "c": _as_float(model["c"], "model.c"),
            "alpha": _as_float(model["alpha"], "model.alpha"),
        }
    return model


def _resolve_u_grid(cfg: dict, args) -> list[float]:
    if getattr(args, "u", None) is not None:
        levels = _parse_floats(args.u, "u_grid")
    elif "u_grid" in cfg:
        raw = cfg["u_grid"]
        if not isinstance(raw, (list, tuple)):
            raise ConfigError("u_grid", "expected a list of levels")
        levels = [_as_float(u, "u_grid") for u in raw]
    else:
        levels = list(_DEFAULT_U_GRID)
    if not levels:
        raise ConfigError("u_grid", "at least one level required")
    return levels


def _resolve_seed(raw_seed, field: str) -> int:
    if raw_seed is None:
        seed = secrets.randbits(63)
        log.info("no seed given; drew %d", seed)
        return seed
    seed = _as_int(raw_seed, field)
    if not 0 <= seed < 2**64:
        raise ConfigError(field, f"seed must fit in 64 bits, got {seed}")
    return seed


def _resolve_mc(cfg: dict, args, *, resolution_default: int = 40, reps_default: int = 10_000) -> dict:
    mc = dict(cfg.get("mc") or {})
    if getattr(args, "resolution", None) is not None:
        mc["resolution"] = args.resolution
    if getattr(args, "reps", None) is not None:
        mc["reps"] = args.reps
    if getattr(args, "seed", None) is not None:
        mc["seed"] = args.seed
    resolution = _as_int(mc.get("resolution", resolution_default), "mc.resolution")
    if resolution < 2:
        raise ConfigError("mc.resolution", f"must be at least 2, got {resolution}")
    reps = _as_int(mc.get("reps", reps_default), "mc.reps")
    if reps < 1:
        raise ConfigError("mc.reps", f"must be positive, got {reps}")
    return {
        "resolution": resolution,
        "reps": reps,
        "seed": _resolve_seed(mc.get("seed"), "mc.seed"),
    }


def _resolve_output(args) -> str:
    output = getattr(args, "output", None) or "-"
    if output != "-":
        parent = os.path.dirname(os.path.abspath(output))
        if not os.path.isdir(parent):
            raise ConfigError("output", f"directory does not exist: {parent}")
    return output


def _build_domain(rec: dict):
    from .curvatures import Ball, FullSphere, FullTorus, GreatCircle, Rectangle

    try:
        shape = rec["shape"]
        if shape == "rectangle":
            return Rectangle(tuple(rec["sides"]))
        if shape == "ball":
            return Ball(rec["dim"], rec["radius"])
        if shape == "full_sphere":
            return FullSphere(rec["dim"], rec["radius"])
        if shape == "full_torus":
            return FullTorus(tuple(rec["periods"]))
        return GreatCircle(rec["radius"])
    except ValidationError as exc:
        raise ConfigError("domain", str(exc))


def _build_model(rec: dict, manifold):
    from .covariance import (
        LocallyIsotropicModel,
        PoweredExponential,
        SphereSchoenberg,
        SquaredExponential,
        StableOnChart,
    )

    try:
        family = rec["family"]
        if family == "squared_exponential":
            return SquaredExponential(manifold, rec["length_scale"])
        if family == "sphere_schoenberg":
            return SphereSchoenberg(manifold, tuple(rec["b"]))
        if family == "powered_exponential":
            return PoweredExponential(manifold, rec["c"], rec["alpha"])
        if family == "stable_on_chart":
            return StableOnChart(manifold, rec["c"], rec["alpha"])
        return LocallyIsotropicModel(c=rec["c"], alpha=rec["alpha"], manifold=manifold)
    except ValidationError as exc:
        raise ConfigError("model", str(exc))


def _approx_csv(results) -> str:
    from .serialize import csv_line

    k = len(results[0].terms) - 1
    header = ["method", "u", "total"] + [f"term_{j}" for j in range(k + 1)] + [
        "H_value",
        "H_provenance",
    ]
    lines = [",".join(header)]
    for res in results:
        md = res.metadata
        lines.append(
            csv_line([res.method, res.u, res.total, *res.terms, md.h_value, md.h_provenance])
        )
    return "\n".join(lines) + "\n"


def _run_lk(config: dict) -> str:
    from .curvatures import lk_curvatures
    from .serialize import csv_line

    lk = lk_curvatures(_build_domain(config["domain"]))
    lines = ["j,L_j"]
    for j, value in enumerate(lk):
        lines.append(csv_line([j, float(value)]))
    return "\n".join(lines) + "\n"


def _run_eec(config: dict) -> str:
    from .approximations import eec_approx

    domain = _build_domain(config["domain"])
    model = _build_model(config["model"], domain.manifold)
    results = [eec_approx(model, domain, u) for u in config["u_grid"]]
    return _approx_csv(results)


def _resolve_h(model, domain, *, seed: int) -> tuple[float, str]:
    from .covariance import local_expansion
    from .pickands import resolve_constant

    _, alpha = local_expansion(model)
    resolved = resolve_constant(alpha, domain.k, seed=seed)
    return resolved.value, resolved.provenance


def _local_view(model):
    """The (c, alpha) reading of any model the tail formula accepts."""
    from .covariance import LocallyIsotropicModel, SmoothIsotropicModel

    if isinstance(model, LocallyIsotropicModel):
        return model
    if isinstance(model, SmoothIsotropicModel):
        return model.local_model()
    raise ConfigError("model.family", f"no tail-formula reading for {type(model).__name__}")


def _run_pickands(config: dict) -> str:
    from .approximations import pickands_approx, pickands_approx_submanifold

    domain = _build_domain(config["domain"])
    model = _local_view(_build_model(config["model"], domain.manifold))
    h_value, h_provenance = config["h"]["value"], config["h"]["provenance"]
    entry = pickands_approx if domain.k == domain.manifold.dim else pickands_approx_submanifold
    results = [entry(model, domain, u, h_value, h_provenance) for u in config["u_grid"]]
    return _approx_csv(results)


def _run_pickands_const(config: dict) -> str:
    from .pickands import estimate_pickands
    from .serialize import csv_line

    est = estimate_pickands(
        config["alpha"],
        config["dim"],
        config["cube_side"],
        config["spacing"],
        config["reps"],
        config["seed"],
    )
    lines = ["alpha,N,K,spacing,reps,seed,estimate,stderr"]
    lines.append(
        csv_line(
            [
                est.alpha,
                est.n_dim,
                est.cube_side,
                est.spacing,
                est.reps,
                est.seed,
                est.estimate,
                est.stderr,
            ]
        )
    )
    return "\n".join(lines) + "\n"


def _run_validate(config: dict) -> str:
    from .approximations import eec_approx, pickands_approx, pickands_approx_submanifold
    from .covariance import SmoothIsotropicModel
    from .validation import compare_report, empirical_excursion

    domain = _build_domain(config["domain"])
    model = _build_model(config["model"], domain.manifold)
    u_grid = config["u_grid"]
    mc = config["mc"]

    if isinstance(model, SmoothIsotropicModel):
        analytic = [eec_approx(model, domain, u) for u in u_grid]
    else:
        local = _local_view(model)
        h_value, h_provenance = config["h"]["value"], config["h"]["provenance"]
        entry = pickands_approx if domain.k == domain.manifold.dim else pickands_approx_submanifold
        analytic = [entry(local, domain, u, h_value, h_provenance) for u in u_grid]

    tables = []
    for resolution in _validate_resolutions(mc["resolution"]):
        empirical = empirical_excursion(
            model, domain, u_grid, resolution, mc["reps"], mc["seed"]
        )
        tables.append(compare_report(analytic, empirical))

    lines = tables[0].to_csv().splitlines()
    for table in tables[1:]:
        lines.extend(table.to_csv().splitlines()[1:])
    return "\n".join(lines) + "\n"


def _validate_resolutions(resolution: int) -> list[int]:
    # The half-resolution pass makes discretization drift visible in the
    # same table; skipped when it would degenerate.
    out = [resolution]
    if resolution // 2 >= 2:
        out.append(resolution // 2)
    return out


_RUNNERS = {
    "lk": _run_lk,
    "eec": _run_eec,
    "pickands": _run_pickands,
    "pickands-const": _run_pickands_const,
    "validate": _run_validate,
}


def resolve(args) -> ResolvedRun:
    """Merge config file, flags, and defaults into a validated run."""
    cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    sub = args.subcommand
    output = _resolve_output(args)

    if sub == "lk":
        config = {"domain": _resolve_domain(cfg, args)}
    elif sub == "eec":
        config = {
            "domain": _resolve_domain(cfg, args),
            "model": _resolve_model(cfg, args),
            "u_grid": _resolve_u_grid(cfg, args),
        }
        if config["model"]["family"] not in ("squared_exponential", "sphere_schoenberg"):
            raise ConfigError(
                "model.family",
                "the Euler-characteristic route needs a smooth family "
                "(squared_exponential or sphere_schoenberg)",
            )
    elif sub == "pickands":
        config = {
            "domain": _resolve_domain(cfg, args),
            "model": _resolve_model(cfg, args),
            "u_grid": _resolve_u_grid(cfg, args),
            "mc": _resolve_mc(cfg, args),
        }
    elif sub == "pickands-const":
        pc = dict(cfg)
        for key, field in (
            ("alpha", "alpha"),
            ("dim", "dim"),
            ("cube_side", "cube_side"),
            ("spacing", "spacing"),
            ("reps", "reps"),
        ):
            flag = getattr(args, key, None)
            if flag is not None:
                pc[field] = flag
        alpha = _as_float(pc.get("alpha", 2.0), "alpha")
        dim = _as_int(pc.get("dim", 1), "dim")
        from .pickands import _DEFAULT_WINDOW

        default_side, default_spacing = _DEFAULT_WINDOW.get(dim, (None, None))
        if default_side is None and not ("cube_side" in pc and "spacing" in pc):
            raise ConfigError(
                "cube_side",
                f"no default window for dimension {dim}; pass --cube-side and --spacing",
            )
        config = {
            "alpha": alpha,
            "dim": dim,
            "cube_side": _as_float(pc.get("cube_side", default_side), "cube_side"),
            "spacing": _as_float(pc.get("spacing", default_spacing), "spacing"),
            "reps": _as_int(pc.get("reps", 10_000), "reps"),
            "seed": _resolve_seed(
                args.seed if getattr(args, "seed", None) is not None else pc.get("seed"), "seed"
            ),
        }
    else:  # validate
        config = {
            "domain": _resolve_domain(cfg, args),
            "model": _resolve_model(cfg, args),
            "u_grid": _resolve_u_grid(cfg, args),
            "mc": _resolve_mc(cfg, args, reps_default=100_000),
        }

    if sub in ("pickands", "validate"):
        flag_h = getattr(args, "h_value", None)
        if flag_h is not None:
            cfg = dict(cfg)
            cfg["h"] = {"value": _as_float(flag_h, "h.value"), "provenance": "user"}
        config = _attach_h(cfg, config, needs_h=(sub == "pickands"))

    return ResolvedRun(subcommand=sub, config=config, output=output)


def _attach_h(file_cfg: dict, config: dict, *, needs_h: bool) -> dict:
    """Pin the H constant in the resolved config (value + provenance).

    ``needs_h`` is False for validate runs, where a smooth family takes
    the Euler-characteristic route and uses no H at all.
    """
    smooth_family = config["model"]["family"] in ("squared_exponential", "sphere_schoenberg")

    h_cfg = file_cfg.get("h")
    if h_cfg is not None:
        if not isinstance(h_cfg, dict) or "value" not in h_cfg:
            raise ConfigError("h.value", "expected an object with a 'value' entry")
        value = _as_float(h_cfg["value"], "h.value")
        if value <= 0:
            raise ConfigError("h.value", f"must be positive, got {value}")
        config["h"] = {"value": value, "provenance": str(h_cfg.get("provenance", "user"))}
        return config
    if smooth_family and not needs_h:
        return config

    domain = _build_domain(config["domain"])
    model = _local_view(_build_model(config["model"], domain.manifold))
    value, provenance = _resolve_h(model, domain, seed=config["mc"]["seed"])
    config["h"] = {"value": value, "provenance": provenance}
    return config


def run(run_spec: ResolvedRun) -> int:
    """Execute a resolved run and emit its outputs."""
    started = time.monotonic()
    data = _RUNNERS[run_spec.subcommand](run_spec.config)
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
    }
    with open(run_spec.output + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s (%.3fs)", run_spec.output, wall)
    return 0


def _versions() -> dict:
    import numpy
    import scipy

    from . import __version__

    return {
        "python": ".".join(str(v) for v in sys.version_info[:3]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "excursion": __version__,
    }


def _apply_thread_cap(threads: int | None) -> None:
    if threads is None:
        raw = os.environ.get(_THREAD_ENV)
        if raw is None:
            return
        try:
            threads = int(raw)
        except ValueError:
            raise ConfigError("threads", f"{_THREAD_ENV} must be an integer, got {raw!r}")
    if threads < 1:
        raise ConfigError("threads", f"thread cap must be positive, got {threads}")
    for var in _BLAS_VARS:
        os.environ[var] = str(threads)


class _Parser(argparse.ArgumentParser):
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

    def common(p, *, mc: bool = False, model: bool = False, levels: bool = False):
        p.add_argument("--config", help="JSON config file (a run manifest also works)")
        p.add_argument("--output", help="output file, or - for stdout (default)")
        p.add_argument("--threads", type=int, help="cap the BLAS/OpenMP thread pool")
        p.add_argument("--shape", choices=_SHAPES, help="domain shape")
        p.add_argument("--sides", help="rectangle side lengths, comma separated")
        p.add_argument("--periods", help="torus periods, comma separated")
        p.add_argument("--radius", help="sphere/ball/circle radius")
        p.add_argument("--dim", type=int, help="sphere/ball dimension")
        if model:
            p.add_argument("--family", choices=_MODEL_FAMILIES, help="covariance family")
            p.add_argument("--length-scale", dest="length_scale", help="squared-exponential scale")
            p.add_argument("--b", help="Schoenberg coefficients, comma separated")
            p.add_argument("--c", help="local expansion coefficient")
            p.add_argument("--alpha", help="local expansion exponent")
        if levels:
            p.add_argument("--u", help="levels, comma separated")
        if mc:
            p.add_argument("--resolution", type=int, help="grid resolution per axis")
            p.add_argument("--reps", type=int, help="Monte Carlo replications")
            p.add_argument("--seed", type=int, help="base seed (64-bit)")
            p.add_argument(
                "--h-value",
                dest="h_value",
                help="Pickands constant override (skips estimation)",
            )

    common(sub.add_parser("lk", help="curvature vector of a domain"))
    common(sub.add_parser("eec", help="Euler-characteristic approximation"), model=True, levels=True)
    common(
        sub.add_parser("pickands", help="fractional-index tail approximation"),
        model=True,
        levels=True,
        mc=True,
    )
    pc = sub.add_parser("pickands-const", help="Monte Carlo estimate of H")
    pc.add_argument("--config", help="JSON config file (a run manifest also works)")
    pc.add_argument("--output", help="output file, or - for stdout (default)")
    pc.add_argument("--threads", type=int, help="cap the BLAS/OpenMP thread pool")
    pc.add_argument("--alpha", type=float, help="index in (0, 2]")
    pc.add_argument("--dim", type=int, help="lattice dimension N")
    pc.add_argument("--cube-side", dest="cube_side", type=float, help="window side K")
    pc.add_argument("--spacing", type=float, help="lattice pitch")
    pc.add_argument("--reps", type=int, help="replications")
    pc.add_argument("--seed", type=int, help="base seed (64-bit)")
    common(
        sub.add_parser("validate", help="analytic vs brute-force comparison"),
        model=True,
        levels=True,
        mc=True,
    )
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    try:
        args = build_parser().parse_args(argv)
        _apply_thread_cap(getattr(args, "threads", None))
        return run(resolve(args))
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
