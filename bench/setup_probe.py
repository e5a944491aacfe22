"""Set-up half of one ``excursion`` command, in a fresh interpreter.

Usage::

    python3 bench/setup_probe.py MODULE[,MODULE...] -- <excursion arguments>

Imports ``excursion.cli`` and the runner's modules, parses the
arguments and resolves the run, then prints one JSON line with the
import and resolve times.  The harness times the whole process, spawn
to exit, as the workload's ``setup_s``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def main(argv: list[str]) -> int:
    modules, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: setup_probe.py MODULE[,MODULE...] -- <excursion arguments>")
    started = time.perf_counter()
    cli = importlib.import_module("excursion.cli")
    for name in modules.split(","):
        importlib.import_module(name)
    imported = time.perf_counter()
    cli.resolve(cli.build_parser().parse_args(cli_args))
    resolved = time.perf_counter()
    print(json.dumps({"import_s": imported - started, "resolve_s": resolved - imported}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
