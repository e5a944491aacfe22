"""Benchmark harness for the ``excursion`` command line.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seconds S     # every workload in turn
    python3 bench/run.py --write-references

Each workload is one real ``excursion`` command (see WORKLOADS and
bench/README.md).  A run repeats, for S seconds, a set-up probe and
the full command as fresh processes, checks every output, and prints
one JSON object as the last line of standard output:

* ``--trace 0``: the end-to-end metrics (medians over the repeats);
* ``--trace 1``: the per-layer metrics, from the same command run
  in-process under bench/traced.py, plus a single-thread traced pass.

The first repeat uses the reference seed, whose output is compared
byte for byte with bench/reference/; the others use seeds drawn from
``--seed``.  The program is run from ``src/`` of the checkout; nothing
is built or installed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from traced import UNITS as LAYER_UNITS, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "reference"
SCRATCH = ROOT / ".bench_tmp"

# The seed the stored references were made with.
REFERENCE_SEED = 0
# Two-sided normal quantile for the statistical output check: a false
# alarm rate of 5.7e-7 per compared estimate.
Z_CHECK = 5.0
Z95 = 1.959963984540054
# Every child is killed at this many seconds after the harness started,
# so a hung program still ends the run well within three minutes.
RUN_DEADLINE_S = 170.0
_STARTED = time.monotonic()
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    reps: int
    modules: tuple[str, ...]  # what the runner imports, for the set-up probe

    def argv(self, *, reps: int, seed: int, threads: int, output: Path) -> list[str]:
        return [*self.args, "--reps", str(reps), "--seed", str(seed),
                "--threads", str(threads), "--output", str(output)]


_VALIDATE_MODULES = ("excursion.approximations", "excursion.covariance",
                     "excursion.curvatures", "excursion.validation")

# --h-value is pinned on the validate workloads: without it cli.resolve
# would run the whole pickands-window estimate inside set-up.
WORKLOADS = {
    "validate-torus-dense": Workload(
        ("validate", "--shape", "full_torus", "--periods", "1,1",
         "--family", "stable_on_chart", "--c", "1", "--alpha", "1",
         "--h-value", "0.98", "--u", "2,2.5,3", "--resolution", "60"),
        1000, _VALIDATE_MODULES),
    "validate-sphere-streams": Workload(
        ("validate", "--shape", "full_sphere", "--dim", "2", "--radius", "1",
         "--family", "sphere_schoenberg", "--b", "0.2,0.3,0.3,0.2",
         "--u", "2,2.5,3", "--resolution", "12"),
        50000, _VALIDATE_MODULES),
    "pickands-window": Workload(
        ("pickands-const", "--alpha", "1", "--dim", "2"),
        10000, ("excursion.pickands", "excursion.serialize")),
}


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: str(threads) for var in BLAS_VARS})
    return env


def spawn(argv: list[str], env: dict[str, str], scratch: Path) -> Child:
    """Run a child to completion; wall time is spawn to exit, RSS from wait4."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(max(1.0, _STARTED + RUN_DEADLINE_S - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                 out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


# -- output check ------------------------------------------------------------

# Columns that do not depend on the seed: byte-equal to the reference.
_FIXED_COLUMNS = {
    "validate": ("u", "analytic_total", "resolution"),
    "pickands-const": ("alpha", "N", "K", "spacing"),
}


def _wilson(count: int, n: int) -> tuple[float, float]:
    p = count / n
    denom = 1.0 + Z95 * Z95 / n
    center = (p + Z95 * Z95 / (2.0 * n)) / denom
    half = (Z95 / denom) * math.sqrt(p * (1.0 - p) / n + Z95 * Z95 / (4.0 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def _check_validate_row(row: dict, ref: dict) -> str | None:
    n, n_ref = int(row["reps"]), int(ref["reps"])
    p, p_ref = float(row["p_hat"]), float(ref["p_hat"])
    pooled = (p * n + p_ref * n_ref) / (n + n_ref)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n + 1.0 / n_ref))
    if abs(p - p_ref) > Z_CHECK * se:
        return f"p_hat {p} at u={row['u']} inconsistent with reference {p_ref}"
    low, high = _wilson(round(p * n), n)
    analytic = float(row["analytic_total"])
    ratio = "" if p == 0 else analytic / p
    ci_low, ci_high = float(row["ci_low"]), float(row["ci_high"])
    consistent = (
        math.isclose(ci_low, low, rel_tol=1e-12, abs_tol=1e-15)
        and math.isclose(ci_high, high, rel_tol=1e-12, abs_tol=1e-15)
        and (row["ratio"] == ratio if ratio == "" else math.isclose(float(row["ratio"]), ratio, rel_tol=1e-12))
        and row["within_ci"] == ("true" if ci_low <= analytic <= ci_high else "false")
    )
    return None if consistent else f"interval columns inconsistent with p_hat at u={row['u']}"


def _check_pickands_row(row: dict, ref: dict) -> str | None:
    est, se = float(row["estimate"]), float(row["stderr"])
    est_ref, se_ref = float(ref["estimate"]), float(ref["stderr"])
    if not (math.isfinite(se) and se > 0):
        return f"stderr {se} is not a positive number"
    if abs(est - est_ref) > Z_CHECK * math.hypot(se, se_ref):
        return f"estimate {est} inconsistent with reference {est_ref}"
    return None


def _rows(lines: list[str]) -> list[dict[str, str]]:
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_output(subcommand: str, text: str, reference: str, *, seed: int, reps: int) -> str | None:
    """Why ``text`` is wrong, or None.

    Header and seed-independent columns must match the reference byte
    for byte; the Monte Carlo columns must be statistically consistent
    with it (and internally consistent).
    """
    lines, ref_lines = text.splitlines(), reference.splitlines()
    if not lines or lines[0] != ref_lines[0]:
        return "header (column order) differs from the reference"
    if len(lines) != len(ref_lines):
        return f"{len(lines) - 1} rows, reference has {len(ref_lines) - 1}"
    check_row = _check_validate_row if subcommand == "validate" else _check_pickands_row
    for row, ref in zip(_rows(lines), _rows(ref_lines)):
        for column in _FIXED_COLUMNS[subcommand]:
            if row[column] != ref[column]:
                return f"column {column} is {row[column]!r}, reference {ref[column]!r}"
        if row["seed"] != str(seed) or row["reps"] != str(reps):
            return f"seed/reps columns {row['seed']}/{row['reps']}, ran {seed}/{reps}"
        reason = check_row(row, ref)
        if reason:
            return reason
    return None


def headline_stderr(subcommand: str, text: str) -> float:
    """Standard error of the workload's headline estimate.

    pickands-const: the stderr of H.  validate: the binomial standard
    error of p_hat at the highest level of the full-resolution pass.
    """
    rows = _rows(text.splitlines())
    if subcommand == "pickands-const":
        return float(rows[0]["stderr"])
    full = [r for r in rows if r["resolution"] == rows[0]["resolution"]]
    top = max(full, key=lambda r: float(r["u"]))
    p, n = float(top["p_hat"]), int(top["reps"])
    return math.sqrt(p * (1.0 - p) / n)


# -- environment -------------------------------------------------------------

def environment(threads: int) -> dict:
    """Versions, BLAS and CPU, plus a host-speed probe (never divided into metrics)."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    a = np.random.default_rng(0).standard_normal((512, 512))
    started = time.perf_counter()
    for _ in range(8):
        a @ a
    matmul_s = time.perf_counter() - started
    started = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i * i
    loop_s = time.perf_counter() - started
    return {
        "nproc": nproc(), "blas_threads": threads, "blas": blas,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "cpu": cpu,
        "probe_matmul_s": matmul_s, "probe_pyloop_s": loop_s,
    }


# -- the run -----------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def child(self, result: Child, what: str) -> bool:
        self.attempted += 1
        if result.code != 0:
            self.fail(f"{what} exited {result.code}: {result.stderr.strip()[-400:]}")
        return result.code == 0

    def fail(self, reason: str) -> None:
        self.failures.append(reason)
        print(f"FAILED: {reason}", file=sys.stderr)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def measure(name: str, seed: int, seconds: float, trace: bool, reps: int | None) -> dict:
    workload = WORKLOADS[name]
    reps = reps or workload.reps
    subcommand = workload.args[0]
    reference = (REFERENCES / f"{name}.csv").read_text()
    threads = nproc()
    env = child_env(threads)
    seeds = random.Random(f"{name}/{seed}")
    tally = Tally()
    walls, setups, rss, imports, traced_walls, layers = [], [], [], [], [], []
    bytes_identical, ref_stderr = 0.0, None

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))

    def run_cli(cli_seed: int, output: Path, thread_cap: int, spans: Path | None):
        argv = workload.argv(reps=reps, seed=cli_seed, threads=thread_cap, output=output)
        if spans is None:
            cmd = [sys.executable, "-m", "excursion.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "traced.py"), str(spans), "--", *argv]
        result = spawn(cmd, env if thread_cap == threads else child_env(thread_cap), scratch)
        what = f"{'traced ' if spans else ''}{name} seed {cli_seed} threads {thread_cap}"
        if not tally.child(result, what):
            return result, None
        # A wrong output is a failure, but its run still took the time.
        text = output.read_text()
        reason = check_output(subcommand, text, reference, seed=cli_seed, reps=reps)
        if reason:
            tally.fail(f"{what}: {reason}")
        return result, text

    def traced_pass(cli_seed: int, thread_cap: int, untraced_text: str | None):
        output, spans = scratch / f"traced-{thread_cap}.csv", scratch / "spans.json"
        result, text = run_cli(cli_seed, output, thread_cap, spans)
        if text is None:
            return None
        if untraced_text is not None and text != untraced_text:
            tally.fail(f"traced {name} output differs from the untraced output at seed {cli_seed}")
        return result, layer_metrics(json.loads(spans.read_text()))

    started = time.perf_counter()
    try:
        index = 0
        while True:
            lap = time.perf_counter()
            cli_seed = REFERENCE_SEED if index == 0 else seeds.getrandbits(63)
            output = scratch / f"{index}.csv"
            argv = workload.argv(reps=reps, seed=cli_seed, threads=threads, output=output)

            probe = spawn([sys.executable, str(BENCH / "setup_probe.py"),
                           ",".join(workload.modules), "--", *argv], env, scratch)
            if tally.child(probe, f"set-up probe for {name}"):
                setups.append(probe.wall_s)
                imports.append(json.loads(probe.stdout)["import_s"])

            result, text = run_cli(cli_seed, output, threads, None)
            if text is not None:
                walls.append(result.wall_s)
                rss.append(result.rss_mb)
                if index == 0:
                    bytes_identical = float(text == reference)
                    try:
                        ref_stderr = headline_stderr(subcommand, text)
                    except (KeyError, IndexError, ValueError):
                        pass

            if trace:
                traced = traced_pass(cli_seed, threads, text)
                if traced:
                    traced_walls.append(traced[0].wall_s)
                    layers.append(traced[1])

            index += 1
            now = time.perf_counter()
            if now - started + (now - lap) > seconds:
                break

        single = traced_pass(REFERENCE_SEED, 1, None) if trace else None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    wall_s = _median(walls)
    end_to_end = {
        "wall_s": (wall_s, "s"),
        "setup_s": (_median(setups), "s"),
        "peak_rss_mb": (_median(rss), "MB"),
        "h_var_time": ((float("nan") if ref_stderr is None else ref_stderr) ** 2 * wall_s, "s"),
    }
    per_layer = {}
    if trace:
        for key, unit in LAYER_UNITS.items():
            per_layer[key] = (_median([m[key] for m in layers]), unit)
        per_layer["proc.import_s"] = (_median(imports), "s")
        per_layer["trace.overhead_s"] = (_median(traced_walls) - wall_s, "s")
        per_layer["check.bytes_identical"] = (bytes_identical, "flag")
        single_layers = single[1] if single else {}
        for key in ("sampling.factor_s", "sampling.draw_s"):
            per_layer[f"threads1.{key}"] = (single_layers.get(key, float("nan")), "s")

    return {
        "workload": name, "seed": seed, "trace": int(trace), "threads": threads,
        "repeats": len(walls), "attempted": tally.attempted, "failures": tally.failures,
        "samples": {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss,
                    "traced_wall_s": traced_walls},
        "end_to_end": end_to_end, "per_layer": per_layer,
    }


def write_references() -> None:
    threads = nproc()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=SCRATCH))
    try:
        for name, workload in WORKLOADS.items():
            output = scratch / f"{name}.csv"
            argv = workload.argv(reps=workload.reps, seed=REFERENCE_SEED, threads=threads, output=output)
            result = spawn([sys.executable, "-m", "excursion.cli", *argv], child_env(threads), scratch)
            if result.code != 0:
                raise SystemExit(f"{name} exited {result.code}: {result.stderr}")
            shutil.copyfile(output, REFERENCES / f"{name}.csv")
            print(f"wrote {REFERENCES / f'{name}.csv'}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(name: str, args, threads: int) -> int:
    """Measure one workload and print its metrics, ending with the result object."""
    result = measure(name, args.seed, args.seconds, bool(args.trace), args.reps)
    env = environment(threads)
    failed = len(result["failures"])
    attempted = result["attempted"]
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    if not result["samples"]["wall_s"] or any(
        not math.isfinite(value) for value, _ in [*result["end_to_end"].values(), *metrics.values()]
    ):
        print(f"{name}: no successful run to report", file=sys.stderr)
        return 1

    print(f"workload {name}  seed {args.seed}  trace {args.trace}  "
          f"{result['repeats']} repeats at {result['threads']} threads")
    for key, (value, unit) in result["end_to_end"].items():
        print(f"  {key:<16} {value:.6g} {unit}")
    print(f"  {'failed_fraction':<16} {failed / attempted:.6g}  ({failed}/{attempted})")
    for key, (value, unit) in result["per_layer"].items():
        print(f"  {key:<36} {value:.6g} {unit}")
    print(json.dumps({"env": env, "samples": result["samples"]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, help="override the workload's reps (smoke runs)")
    parser.add_argument("--write-references", action="store_true",
                        help="regenerate bench/reference/ at the reference seed")
    args = parser.parse_args(argv)

    if not (SRC / "excursion" / "cli.py").is_file():
        print(f"no excursion sources under {SRC}", file=sys.stderr)
        return 2
    # The probe and the version record import numpy here; pin its pool too.
    threads = nproc()
    os.environ.update({var: str(threads) for var in BLAS_VARS})
    if args.write_references:
        write_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(report(name, args, threads) for name in names)


if __name__ == "__main__":
    sys.exit(main())
