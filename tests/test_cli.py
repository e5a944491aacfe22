"""End-to-end checks of the command-line layer."""

import json
import math
import os
import shlex
import time
from pathlib import Path

import pytest

from _oracles import run_fresh, run_python
from excursion.cli import build_parser, main, resolve
from excursion.errors import ConfigError, ValidationError
from excursion.serialize import format_value

LK_RECT = "j,L_j\n0,1\n1,3\n2,2\n"
EEC_HEADER = "method,u,total,term_0,term_1,term_2,H_value,H_provenance"
EEC_TORUS_ROW = "eec,3,0.0021160517453817007,0,0,0.0021160517453817007,,"
PICKANDS_HEADER = "method,u,total,term_0,H_value,H_provenance"
PICKANDS_CIRCLE_ROW = (
    "pickands,3,0.014355791786955237,0.014355791786955237,0.56418958354775628,exact"
)

# The validate CSV at n = 400 (20 x 20 torus), past one 256-row draw
# block, as the whole-array covariance build and C-order factorization
# gave it.
VALIDATE_TORUS_20_CSV = """\
u,analytic_total,p_hat,ci_low,ci_high,ratio,within_ci,resolution,reps,seed
2,0.35672206894745007,0.25,0.19508168006817497,0.31434098312045833,1.4268882757898003,false,20,200,0
2.5,0.23771375075236781,0.105,0.069707487926810169,0.15518031991123041,2.263940483355884,false,20,200,0
3,0.107154905750797,0.059999999999999998,0.034652194254331872,0.1019316929576627,1.7859150958466168,false,20,200,0
3.5,0.034210723149313102,0.01,0.0027466581335444384,0.035721761716176803,3.42107231493131,true,20,200,0
2,0.35672206894745007,0.20000000000000001,0.15045200926098115,0.26085518656537876,1.7836103447372502,false,10,200,0
2.5,0.23771375075236781,0.085000000000000006,0.053745750177475612,0.13189587071565567,2.7966323617925624,false,10,200,0
3,0.107154905750797,0.050000000000000003,0.027382645600763929,0.089578148138775987,2.1430981150159401,false,10,200,0
3.5,0.034210723149313102,0.0050000000000000001,0.00088316871560097966,0.02777370439789293,6.8421446298626201,false,10,200,0
"""


def _resolve(argv):
    return resolve(build_parser().parse_args(argv))


def test_lk_rectangle_stdout(capsys):
    assert main(["lk", "--shape", "rectangle", "--sides", "1,2"]) == 0
    assert capsys.readouterr().out == LK_RECT


def test_lk_ball_float_format(capsys):
    assert main(["lk", "--shape", "ball", "--dim", "2", "--radius", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "j,L_j"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values[0] == 1.0
    assert values[1] == pytest.approx(math.pi, rel=1e-15)
    assert values[2] == pytest.approx(math.pi, rel=1e-15)
    # 17 significant digits: the text round-trips to the exact double.
    cell = lines[2].split(",")[1]
    assert cell == "%.17g" % float(cell)


def test_csv_cells_refuse_non_finite_floats():
    # No emitter may write a result as inf or nan.
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="non-finite"):
            format_value(value)
    assert format_value(0.1) == "0.10000000000000001"


def test_eec_torus_golden(capsys):
    rc = main(
        [
            "eec",
            "--shape", "full_torus",
            "--periods", "1,1",
            "--family", "squared_exponential",
            "--length-scale", "1",
            "--u", "3",
        ]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == EEC_HEADER
    assert lines[1] == EEC_TORUS_ROW


def test_eec_rejects_nonsmooth_family():
    with pytest.raises(ConfigError) as err:
        _resolve(
            [
                "eec",
                "--shape", "full_torus",
                "--periods", "1,1",
                "--family", "powered_exponential",
                "--c", "1",
                "--alpha", "1",
            ]
        )
    assert err.value.field == "model.family"


def test_pickands_great_circle_golden(capsys):
    # k = 1 inside S^2: the exponents and H_{2, 1} use the intrinsic k.
    rc = main(
        [
            "pickands",
            "--shape", "great_circle",
            "--radius", "1",
            "--family", "local",
            "--c", "1",
            "--alpha", "2",
            "--u", "3",
            "--seed", "0",
        ]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip().split("\n") == [PICKANDS_HEADER, PICKANDS_CIRCLE_ROW]


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(
        json.dumps(
            {
                "domain": {"shape": "rectangle", "sides": [1, 2]},
                "model": {"family": "squared_exponential", "length_scale": 0.5},
                "u_grid": [5.0],
            }
        )
    )
    spec = _resolve(["eec", "--config", str(cfg), "--sides", "3,4", "--u", "6"])
    assert spec.config["domain"]["sides"] == [3.0, 4.0]
    assert spec.config["u_grid"] == [6.0]
    assert spec.config["model"]["length_scale"] == 0.5


def test_default_u_grid():
    spec = _resolve(
        [
            "eec",
            "--shape", "rectangle",
            "--sides", "1,1",
            "--family", "squared_exponential",
            "--length-scale", "1",
        ]
    )
    assert spec.config["u_grid"] == [2.0, 2.5, 3.0, 3.5]


def test_domain_field_paths():
    with pytest.raises(ConfigError) as err:
        _resolve(["lk", "--shape", "great_circle"])
    assert err.value.field == "domain.radius"
    with pytest.raises(ConfigError) as err:
        _resolve(["lk", "--shape", "ball", "--dim", "2"])
    assert err.value.field == "domain.radius"
    with pytest.raises(ConfigError) as err:
        _resolve(["lk"])
    assert err.value.field == "domain.shape"
    with pytest.raises(ConfigError) as err:
        _resolve(["lk", "--shape", "rectangle", "--sides", "1,x"])
    assert err.value.field == "domain.sides"


def test_model_and_mc_field_paths():
    base = ["pickands", "--shape", "full_torus", "--periods", "1,1"]
    with pytest.raises(ConfigError) as err:
        _resolve(base)
    assert err.value.field == "model.family"
    with pytest.raises(ConfigError) as err:
        _resolve(base + ["--family", "stable_on_chart", "--c", "1"])
    assert err.value.field == "model.alpha"
    model = base + ["--family", "stable_on_chart", "--c", "1", "--alpha", "2"]
    # pickands takes only a seed; the grid fields belong to validate.
    grid = ["validate", *model[1:]]
    with pytest.raises(ConfigError) as err:
        _resolve(grid + ["--resolution", "1"])
    assert err.value.field == "mc.resolution"
    for reps in ("0", "10000001"):
        with pytest.raises(ConfigError) as err:
            _resolve(grid + ["--reps", reps])
        assert err.value.field == "mc.reps"
    for seed in ("-1", str(2**64)):
        with pytest.raises(ConfigError) as err:
            _resolve(model + ["--seed", seed])
        assert err.value.field == "mc.seed"


def test_validate_refusals_name_their_field_on_every_route(monkeypatch):
    # Each validate route checks its grid, its replication count and its
    # model in cli.resolve, under the field's path, before H is estimated
    # or any analytic value is computed.
    from excursion import approximations, pickands

    def unreachable(*args, **kwargs):
        raise AssertionError("computed before the run's fields were checked")

    for name in ("eec_approx", "pickands_approx_submanifold"):
        monkeypatch.setattr(approximations, name, unreachable)
    monkeypatch.setattr(pickands, "resolve_constant", unreachable)
    torus = ["--shape", "full_torus", "--periods", "1,1"]
    ball = ["--shape", "ball", "--dim", "2", "--radius", "1"]
    smooth = ["--family", "squared_exponential", "--length-scale", "0.3"]
    rough = ["--family", "stable_on_chart", "--c", "1", "--alpha", "1"]
    local = ["--family", "local", "--c", "1", "--alpha", "1"]
    grid = ["--resolution", "20", "--reps", "10"]
    routes = {
        "eec": (smooth, []),
        "pinned H": (rough, ["--h-value", "0.9"]),
        "estimated H": (rough, []),
    }
    for route, (family, pin) in routes.items():
        head = ["validate", "--u", "2", "--seed", "0", *pin]
        cases = [
            ([*torus, *family, "--resolution", "200", "--reps", "10"], "mc.resolution"),
            ([*torus, *family, "--resolution", "20", "--reps", "10000001"], "mc.reps"),
            ([*ball, *family, *grid], "domain.shape"),
        ]
        if family is rough:
            cases.append(([*torus, *local, *grid], "model.family"))
        for extra, field in cases:
            with pytest.raises(ConfigError) as err:
                _resolve(head + extra)
            assert err.value.field == field, (route, extra)
        if pin or family is smooth:
            # The same run within its budgets resolves, computing nothing.
            assert _resolve(head + [*torus, *family, *grid]).config["mc"]["reps"] == 10


def test_h_constant_resolution():
    base = [
        "pickands",
        "--shape", "full_torus",
        "--periods", "1,1",
        "--family", "stable_on_chart",
        "--c", "1",
        "--alpha", "2",
        "--seed", "0",
    ]
    # alpha = 2 has a closed form, no estimation run needed.
    spec = _resolve(base)
    assert spec.config["h"]["value"] == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert spec.config["h"]["provenance"] == "exact"
    # An explicit override always wins and is marked as the user's.
    spec = _resolve(base + ["--h-value", "0.5"])
    assert spec.config["h"] == {"value": 0.5, "provenance": "user"}


def test_h_value_validation(tmp_path):
    cfg = tmp_path / "h.json"
    cfg.write_text(json.dumps({"h": {"value": -1.0}}))
    with pytest.raises(ConfigError) as err:
        _resolve(
            [
                "pickands",
                "--config", str(cfg),
                "--shape", "full_torus",
                "--periods", "1,1",
                "--family", "stable_on_chart",
                "--c", "1",
                "--alpha", "2",
                "--seed", "0",
            ]
        )
    assert err.value.field == "h.value"
    # A smooth validate run uses no H, but a given one is still checked.
    for value in ("nan", "inf"):
        with pytest.raises(ConfigError) as err:
            _resolve(
                [
                    "validate",
                    "--shape", "rectangle",
                    "--sides", "1,1",
                    "--family", "squared_exponential",
                    "--length-scale", "1",
                    "--seed", "0",
                    "--h-value", value,
                ]
            )
        assert err.value.field == "h.value"
    # The provenance lands in a CSV cell: only the values the program
    # itself writes are accepted, so a manifest still replays.
    pickands = ["pickands", "--config", str(cfg), "--shape", "full_torus", "--periods", "1,1",
                "--family", "stable_on_chart", "--c", "1", "--alpha", "1", "--seed", "0"]
    for provenance in ("exact", "mc", "user"):
        cfg.write_text(json.dumps({"h": {"value": 0.5, "provenance": provenance}}))
        assert _resolve(pickands).config["h"] == {"value": 0.5, "provenance": provenance}
    for provenance in ("a,b\nc", "MC", "", 1, None, ["mc"]):
        cfg.write_text(json.dumps({"h": {"value": 0.5, "provenance": provenance}}))
        with pytest.raises(ConfigError) as err:
            _resolve(pickands)
        assert err.value.field == "h.provenance"


def test_smooth_validate_needs_no_h():
    argv = [
        "validate",
        "--shape", "rectangle",
        "--sides", "1,1",
        "--family", "squared_exponential",
        "--length-scale", "1",
        "--seed", "0",
        "--reps", "100",
    ]
    spec = _resolve(argv)
    assert "h" not in spec.config
    assert spec.config["mc"]["resolution"] == 40
    # The Euler-characteristic route reads no H, so a pinned one is not recorded.
    assert "h" not in _resolve(argv + ["--h-value", "0.5"]).config


def test_validate_defaults_to_heavy_sampling():
    spec = _resolve(
        [
            "validate",
            "--shape", "full_torus",
            "--periods", "1,1",
            "--family", "stable_on_chart",
            "--c", "1",
            "--alpha", "2",
            "--seed", "0",
        ]
    )
    assert spec.config["mc"]["reps"] == 100_000


def test_missing_seed_is_drawn_and_recorded():
    spec = _resolve(
        [
            "pickands",
            "--shape", "full_torus",
            "--periods", "1,1",
            "--family", "stable_on_chart",
            "--c", "1",
            "--alpha", "2",
        ]
    )
    seed = spec.config["mc"]["seed"]
    assert isinstance(seed, int)
    assert 0 <= seed < 2**64


def test_output_file_and_manifest(tmp_path):
    out = tmp_path / "lk.csv"
    assert main(["lk", "--shape", "rectangle", "--sides", "1,2", "--output", str(out)]) == 0
    assert out.read_text() == LK_RECT
    manifest = json.loads((tmp_path / "lk.csv.manifest.json").read_text())
    assert manifest["subcommand"] == "lk"
    assert manifest["resolved_config"]["domain"] == {"shape": "rectangle", "sides": [1.0, 2.0]}
    assert set(manifest["versions"]) == {"python", "numpy", "excursion"}
    assert manifest["wall_time_seconds"] >= 0.0


def test_manifest_wall_time_covers_the_h_estimate(tmp_path, monkeypatch):
    # Without a pinned H, cli.resolve estimates it before run() is called;
    # the recorded wall time must still include that estimate.
    from excursion import pickands

    real = pickands.resolve_constant
    pause = 0.5

    def slow_resolve_constant(*args, **kwargs):
        time.sleep(pause)
        return real(*args, **kwargs)

    monkeypatch.setattr(pickands, "resolve_constant", slow_resolve_constant)
    out = tmp_path / "pickands.csv"
    argv = ["pickands", "--shape", "great_circle", "--radius", "1", "--family", "local",
            "--c", "1", "--alpha", "2", "--u", "3", "--seed", "0", "--output", str(out)]
    assert main(argv) == 0
    assert out.read_text().strip().split("\n") == [PICKANDS_HEADER, PICKANDS_CIRCLE_ROW]
    manifest = json.loads((tmp_path / "pickands.csv.manifest.json").read_text())
    assert manifest["wall_time_seconds"] >= pause


def test_validate_budgets_checked_before_the_h_estimate(monkeypatch, caplog):
    # A rough validate run without a pinned H estimates it in cli.resolve;
    # a grid or a replication count over its budget is refused first, with
    # the message the run itself gives.
    from excursion import pickands

    def unreachable(*args, **kwargs):
        raise AssertionError("H was estimated before the budgets were checked")

    monkeypatch.setattr(pickands, "resolve_constant", unreachable)
    base = ["validate", "--shape", "full_torus", "--periods", "1,1", "--family",
            "stable_on_chart", "--c", "1", "--alpha", "1", "--u", "2", "--seed", "0"]
    cases = [
        (["--resolution", "1000", "--reps", "100"],
         "mc.resolution: grid would have 250000 points"),
        (["--resolution", "20", "--reps", "20000000"], "mc.reps: replication count must lie in"),
    ]
    for extra, message in cases:
        caplog.clear()
        assert main(base + extra) == 1
        assert message in caplog.text


def test_pickands_const_manifest_round_trip(tmp_path):
    first = tmp_path / "pc.csv"
    argv = [
        "pickands-const",
        "--alpha", "1.5",
        "--dim", "1",
        "--cube-side", "2",
        "--spacing", "0.1",
        "--reps", "1000",
        "--seed", "7",
        "--output", str(first),
    ]
    assert main(argv) == 0
    second = tmp_path / "pc2.csv"
    rc = main(
        [
            "pickands-const",
            "--config", str(tmp_path / "pc.csv.manifest.json"),
            "--output", str(second),
        ]
    )
    assert rc == 0
    assert first.read_bytes() == second.read_bytes()
    header, row = first.read_text().strip().split("\n")
    assert header == "alpha,N,K,spacing,reps,seed,estimate,stderr"
    assert row.split(",")[:2] == ["1.5", "1"]


def test_pickands_manifest_holds_seed_and_replays(tmp_path):
    first = tmp_path / "pk.csv"
    argv = [
        "pickands",
        "--shape", "great_circle",
        "--radius", "1",
        "--family", "stable_on_chart",
        "--c", "1",
        "--alpha", "1",
        "--u", "2,3",
        "--seed", "3",
        "--output", str(first),
    ]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "pk.csv.manifest.json").read_text())
    assert manifest["resolved_config"]["mc"] == {"seed": 3}
    assert manifest["resolved_config"]["h"]["provenance"] == "mc"

    # Manifests written when pickands still recorded mc.resolution and
    # mc.reps replay unchanged, with H pinned or estimated again.
    manifest["resolved_config"]["mc"].update(resolution=40, reps=10_000)
    unpinned = json.loads(json.dumps(manifest))
    del unpinned["resolved_config"]["h"]
    for i, legacy in enumerate((manifest, unpinned)):
        cfg = tmp_path / f"legacy{i}.json"
        cfg.write_text(json.dumps(legacy))
        again = tmp_path / f"again{i}.csv"
        assert main(["pickands", "--config", str(cfg), "--output", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()


def test_estimated_h_leaves_its_record_outside_the_config(tmp_path):
    from excursion.pickands import resolve_constant

    first = tmp_path / "pk.csv"
    argv = ["pickands", "--shape", "great_circle", "--radius", "1", "--family",
            "stable_on_chart", "--c", "1", "--alpha", "1", "--u", "3", "--seed", "5",
            "--output", str(first)]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "pk.csv.manifest.json").read_text())
    # H is estimated under the run's seed with its top bit flipped.
    h_seed = 5 ^ (1 << 63)
    mc = resolve_constant(1.0, 1, seed=h_seed).mc
    assert manifest["diagnostics"] == {
        "h": {"cube_side": 8.0, "spacing": 0.05, "reps": 10_000, "seed": h_seed,
              "stderr": mc.stderr}
    }
    assert manifest["resolved_config"]["h"] == {"value": mc.estimate, "provenance": "mc"}
    # The replay reads H from the config and estimates nothing.
    again = tmp_path / "again.csv"
    assert main(["pickands", "--config", str(tmp_path / "pk.csv.manifest.json"),
                 "--output", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    replayed = json.loads((tmp_path / "again.csv.manifest.json").read_text())
    assert replayed["resolved_config"] == manifest["resolved_config"]
    assert replayed["diagnostics"] == {}


def test_validate_estimates_h_on_streams_of_its_own(tmp_path, monkeypatch):
    # A rough validate run with no H pinned draws its H estimate and its
    # grid sample under two seeds, so they share no replication stream.
    import excursion.pickands
    import excursion.validation

    seeds = []
    for module in (excursion.pickands, excursion.validation):

        def record(factor, reps, seed, draw=module.draw_in_batches):
            seeds.append(seed)
            return draw(factor, reps, seed)

        monkeypatch.setattr(module, "draw_in_batches", record)
    out = tmp_path / "v.csv"
    argv = ["validate", "--shape", "great_circle", "--radius", "1", "--family",
            "stable_on_chart", "--c", "1", "--alpha", "1", "--u", "3", "--resolution", "8",
            "--reps", "100", "--seed", "5", "--output", str(out)]
    assert main(argv) == 0
    assert seeds == [5 ^ (1 << 63), 5]
    manifest = json.loads((tmp_path / "v.csv.manifest.json").read_text())
    assert manifest["diagnostics"]["h"]["seed"] == 5 ^ (1 << 63)
    assert manifest["resolved_config"]["mc"]["seed"] == 5


def test_pickands_const_default_windows():
    from excursion.pickands import _DEFAULT_WINDOW

    for dim, window in _DEFAULT_WINDOW.items():
        config = _resolve(["pickands-const", "--dim", str(dim), "--seed", "0"]).config
        assert (config["cube_side"], config["spacing"]) == window
    # No default beyond the table: both window flags are required.
    for extra in ([], ["--cube-side", "1"], ["--spacing", "0.25"]):
        with pytest.raises(ConfigError, match="cube_side: .*pass cube_side and spacing"):
            _resolve(["pickands-const", "--dim", "4", "--seed", "0", *extra])
    config = _resolve(
        ["pickands-const", "--dim", "4", "--cube-side", "1", "--spacing", "0.25", "--seed", "0"]
    ).config
    assert (config["cube_side"], config["spacing"]) == (1.0, 0.25)
    # A dimension below 1 is refused as such, with or without a window.
    for dim in ("0", "-1"):
        for window in ([], ["--cube-side", "1", "--spacing", "0.25"]):
            with pytest.raises(ConfigError, match="dim: dimension must be a positive integer"):
                _resolve(["pickands-const", "--dim", dim, "--seed", "0", *window])


def test_pickands_const_lattice_over_budget_exits_1(tmp_path, caplog):
    out = tmp_path / "big.csv"
    pickands_const = ["pickands-const", "--alpha", "1"]
    commands = [
        # 161^3 points are refused from their count, before any allocation.
        (
            [*pickands_const, "--dim", "3", "--cube-side", "8", "--spacing", "0.05"],
            "dense factorization budget",
        ),
        # K / spacing overflows a float: no finite step count at all.
        (
            [*pickands_const, "--dim", "1", "--cube-side", "1e300", "--spacing", "1e-10",
             "--reps", "1000"],
            None,
        ),
        # 5^6200 and 5^10^9 points: decided without forming the power.
        ([*pickands_const, "--dim", "6200", "--cube-side", "1", "--spacing", "0.25",
          "--reps", "1000"], "5^6200 points"),
        ([*pickands_const, "--dim", "1000000000", "--cube-side", "1", "--spacing", "0.25",
          "--reps", "1000"], "5^1000000000 points"),
        (
            ["validate", "--shape", "full_torus", "--periods", ",".join(["1"] * 15),
             "--family", "stable_on_chart", "--c", "1", "--alpha", "1", "--h-value", "1",
             "--resolution", "1" * 301, "--reps", "10"],
            "dense factorization budget",
        ),
        # More latitude rows than the budget has points: refused before
        # any row is laid out.
        (
            ["validate", "--shape", "full_sphere", "--dim", "2", "--radius", "1", "--family",
             "sphere_schoenberg", "--b", "0.5,0.5", "--resolution", "12000", "--reps", "10"],
            "dense factorization budget",
        ),
        # Replication counts over the budget are refused before one float
        # per replication is allocated.
        ([*pickands_const, "--dim", "1", "--reps", "100000000000000"], "replication count"),
        (
            ["validate", "--shape", "full_torus", "--periods", "1", "--family",
             "stable_on_chart", "--c", "1", "--alpha", "1", "--h-value", "1",
             "--resolution", "2", "--reps", "100000000000000"],
            "replication count",
        ),
    ]
    for command, reason in commands:
        caplog.clear()
        argv = [*command, "--seed", "0", "--output", str(out)]
        started = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - started < 1.0
        assert "invalid configuration" in caplog.text
        if reason is not None:
            assert reason in caplog.text
        assert not out.exists()


def test_validate_refinement_over_budget_exits_1(tmp_path, caplog):
    # Resolution 88 refines the 44 grid: 2,464 + 9,864 = 12,328 points.
    out = tmp_path / "union.csv"
    argv = ["validate", "--shape", "full_sphere", "--dim", "2", "--radius", "1", "--family",
            "sphere_schoenberg", "--b", "0.5,0.5", "--resolution", "88", "--reps", "10",
            "--seed", "0", "--output", str(out)]
    assert main(argv) == 1
    assert "invalid configuration" in caplog.text
    assert "grid would have 12328 points" in caplog.text
    assert not out.exists()


def test_overflowing_analytic_values_exit_1(tmp_path, caplog):
    out = tmp_path / "overflow.csv"
    local = ["--family", "local", "--h-value", "1", "--seed", "0"]
    square = ["eec", "--shape", "rectangle", "--sides", "1,1", "--u", "3",
              "--family", "squared_exponential"]
    sphere = ["eec", "--shape", "full_sphere", "--dim", "2", "--u", "3",
              "--family", "sphere_schoenberg", "--b", "0.5,0.5"]
    commands = [
        # Gamma((N + 1) / 2) past the float range.
        (["lk", "--shape", "ball", "--dim", "342", "--radius", "1"], "dim=342"),
        (["lk", "--shape", "full_sphere", "--dim", "343", "--radius", "1"], "dim=343"),
        (["eec", "--shape", "ball", "--dim", "342", "--radius", "1", "--family",
          "squared_exponential", "--length-scale", "1", "--u", "3"], "dim=342"),
        (["pickands", "--shape", "full_sphere", "--dim", "343", "--radius", "1", *local,
          "--c", "1", "--alpha", "1", "--u", "3"], "dim=343"),
        # u^(2k/alpha) and c^(k/alpha) past the float range.
        (["pickands", "--shape", "full_torus", "--periods", "1,1", *local, "--c", "1",
          "--alpha", "0.001", "--u", "3"], "alpha = 0.001"),
        (["pickands", "--shape", "rectangle", "--sides", "1", *local, "--c", "1",
          "--alpha", "0.01", "--u", "40"], "u = 40.0"),
        (["pickands", "--shape", "rectangle", "--sides", "1", *local, "--c", "1e10",
          "--alpha", "0.01", "--u", "3"], "c = 10000000000.0"),
        # Products of lengths overflow to inf without raising.
        (["lk", "--shape", "full_torus", "--periods", "1e300,1e300"], "periods=(1e+300"),
        (["lk", "--shape", "rectangle", "--sides", "1e200,1e200,1e200"], "sides=(1e+200"),
        (["eec", "--shape", "full_torus", "--periods", "1e300,1e300", "--family",
          "squared_exponential", "--length-scale", "1", "--u", "3"], "periods=(1e+300"),
        # kappa^(j/2) L_j past the float range.
        (["eec", "--shape", "rectangle", "--sides", "1e10,1e10", "--family",
          "squared_exponential", "--length-scale", "1e-150", "--u", "3"], "kappa ="),
        # rho'(0) not a finite negative float.
        ([*square, "--length-scale", "1e-200"], "length scale 1e-200"),
        ([*square, "--length-scale", "1e-160"], "length scale 1e-160"),
        ([*sphere, "--radius", "1e160"], "radius 1e+160"),
        ([*sphere, "--radius", "1e-200"], "radius 1e-200"),
    ]
    for command, named in commands:
        caplog.clear()
        assert main([*command, "--output", str(out)]) == 1, command
        assert "invalid configuration" in caplog.text
        assert named in caplog.text
        assert not out.exists()
    # The largest dimensions whose curvatures are finite still run.
    for shape, dim in (("ball", "341"), ("full_sphere", "342")):
        assert main(["lk", "--shape", shape, "--dim", dim, "--radius", "1",
                     "--output", str(out)]) == 0
        assert out.read_text().count("\n") == int(dim) + 2


def test_validate_round_trip_and_resolution_column(tmp_path):
    torus = ["--shape", "full_torus", "--periods", "1,1"]
    rectangle = ["--shape", "rectangle", "--sides", "1,1"]
    # The full rows are labelled with the refined half-resolution grid
    # that was sampled: 2 (R // 2) points per axis, 2 (R // 2) - 1 on a
    # rectangle.
    for shape, resolution, labels in [
        (torus, "4", ["4", "4", "2", "2"]),
        (torus, "5", ["4", "4", "2", "2"]),
        (rectangle, "8", ["7", "7", "4", "4"]),
    ]:
        first = tmp_path / "val.csv"
        argv = [
            "validate",
            *shape,
            "--family", "stable_on_chart",
            "--c", "1",
            "--alpha", "2",
            "--u", "1,2",
            "--resolution", resolution,
            "--reps", "200",
            "--seed", "5",
            "--output", str(first),
        ]
        assert main(argv) == 0
        lines = first.read_text().strip().split("\n")
        # One header, then each level at full and at half resolution.
        assert lines[0].split(",")[0] == "u"
        assert len(lines) == 5
        assert [line.split(",")[7] for line in lines[1:]] == labels

        second = tmp_path / "val2.csv"
        rc = main(
            [
                "validate",
                "--config", str(tmp_path / "val.csv.manifest.json"),
                "--output", str(second),
            ]
        )
        assert rc == 0
        assert first.read_bytes() == second.read_bytes()
        m1 = json.loads((tmp_path / "val.csv.manifest.json").read_text())
        m2 = json.loads((tmp_path / "val2.csv.manifest.json").read_text())
        m1.pop("wall_time_seconds")
        m2.pop("wall_time_seconds")
        assert m1 == m2


def test_validate_rows_share_one_sample(capsys):
    from excursion.covariance import StableOnChart
    from excursion.curvatures import FullTorus
    from excursion.manifolds import FlatTorus
    from excursion.validation import empirical_excursion

    levels = [0.5, 1.0, 1.5, 2.0, 2.5]
    argv = [
        "validate",
        "--shape", "full_torus",
        "--periods", "1,1",
        "--family", "stable_on_chart",
        "--c", "1",
        "--alpha", "1",
        "--h-value", "1",
        "--u", ",".join(map(str, levels)),
        "--resolution", "8",
        "--reps", "2000",
        "--seed", "7",
    ]
    assert main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    full, half = rows[: len(levels)], rows[len(levels) :]
    assert {row[7] for row in full} == {"8"} and {row[7] for row in half} == {"4"}
    # The half-resolution grid is a prefix of the sampled one: no draw's
    # full-grid maximum lies below its prefix maximum.
    assert all(float(f[2]) >= float(h[2]) for f, h in zip(full, half))
    # Neither covariance needs a diagonal shift here, so the half rows are
    # exactly the sample of the half-resolution grid alone.
    model = StableOnChart(FlatTorus((1.0, 1.0)), 1.0, 1.0)
    alone = empirical_excursion(model, FullTorus((1.0, 1.0)), levels, 4, 2000, 7)
    assert [(float(h[2]), float(h[3]), float(h[4])) for h in half] == [
        (e.p_hat, e.ci_low, e.ci_high) for e in alone
    ]


def test_numerical_failure_exits_2_without_partial_output(tmp_path, caplog):
    # At resolution 60 the lattice takes the circulant path, which reads
    # the smallest eigenvalue off the spectrum instead of factoring.
    out = tmp_path / "bad.csv"
    for resolution, smallest in (("8", None), ("60", "-1.972752e+01")):
        caplog.clear()
        rc = main(
            [
                "validate",
                "--shape", "full_torus",
                "--periods", "1,1",
                "--family", "squared_exponential",
                "--length-scale", "1",
                "--u", "2",
                "--resolution", resolution,
                "--reps", "10",
                "--seed", "1",
                "--output", str(out),
            ]
        )
        assert rc == 2
        assert not out.exists()
        assert not (tmp_path / "bad.csv.manifest.json").exists()
        if smallest is not None:
            assert f"smallest eigenvalue {smallest}" in caplog.text


# Each subcommand's option strings, as the hand-written parser declared them.
_COMMON_OPTIONS = {"-h", "--help", "--config", "--output", "--threads"}
_DOMAIN_OPTIONS = {"--shape", "--sides", "--periods", "--radius", "--dim"}
_MODEL_OPTIONS = {"--family", "--length-scale", "--b", "--c", "--alpha", "--u"}
_OPTION_STRINGS = {
    "lk": _COMMON_OPTIONS | _DOMAIN_OPTIONS,
    "eec": _COMMON_OPTIONS | _DOMAIN_OPTIONS | _MODEL_OPTIONS,
    "pickands": _COMMON_OPTIONS | _DOMAIN_OPTIONS | _MODEL_OPTIONS | {"--seed", "--h-value"},
    "pickands-const": _COMMON_OPTIONS
    | {"--alpha", "--dim", "--cube-side", "--spacing", "--reps", "--seed"},
    "validate": _COMMON_OPTIONS
    | _DOMAIN_OPTIONS
    | _MODEL_OPTIONS
    | {"--resolution", "--reps", "--seed", "--h-value"},
}


def test_subcommand_option_strings_are_pinned():
    import argparse

    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(_OPTION_STRINGS)
    for name, sub in subparsers.choices.items():
        options = [s for action in sub._actions for s in action.option_strings]
        assert len(options) == len(set(options)), name
        assert set(options) == _OPTION_STRINGS[name], name


def test_non_numeric_flags_name_their_field(caplog):
    torus = ["--shape", "full_torus", "--periods", "1,1"]
    rough = [*torus, "--family", "stable_on_chart", "--c", "1", "--h-value", "0.9"]
    cases = [
        (["lk", "--shape", "ball", "--radius", "1", "--dim", "x"], "domain.dim"),
        (["lk", "--shape", "rectangle", "--sides", "1", "--dim", "2.5"], "domain.dim"),
        (["validate", *rough, "--alpha", "1", "--resolution", "x"], "mc.resolution"),
        (["validate", *rough, "--alpha", "1", "--reps", "1e3"], "mc.reps"),
        (["pickands", *rough, "--alpha", "1", "--seed", "x"], "mc.seed"),
        (["pickands", *rough, "--alpha", "one"], "model.alpha"),
        (["pickands-const", "--dim", "x"], "dim"),
        (["pickands-const", "--reps", "x"], "reps"),
        (["pickands-const", "--seed", "0.5"], "seed"),
        (["pickands-const", "--alpha", "x"], "alpha"),
        (["pickands-const", "--cube-side", "x", "--spacing", "0.5"], "cube_side"),
    ]
    for argv, field in cases:
        caplog.clear()
        assert main(argv) == 1, argv
        assert f"invalid configuration: {field}: expected " in caplog.text, (argv, caplog.text)


def test_field_flags_the_entry_does_not_take_are_refused(tmp_path, caplog):
    # Each refusal names the field and the entries that take it; the
    # run exits 1 instead of dropping the flag.
    torus = ["--shape", "full_torus", "--periods", "1,1"]
    stable = ["--family", "stable_on_chart", "--c", "1", "--alpha", "1"]
    cases = [
        (["lk", "--shape", "rectangle", "--sides", "1,2", "--radius", "5"],
         "domain.radius: not a field of shape 'rectangle' "
         "(taken by shape ball, full_sphere, great_circle)"),
        (["pickands", *torus, *stable, "--length-scale", "0.3", "--h-value", "0.9"],
         "model.length_scale: not a field of family 'stable_on_chart' "
         "(taken by family squared_exponential)"),
    ]
    for argv, message in cases:
        caplog.clear()
        assert main(argv) == 1, argv
        assert f"invalid configuration: {message}" in caplog.text, (argv, caplog.text)
    # A config file's record may still carry fields its entry does not
    # take: they are dropped, as before.
    config = tmp_path / "lk.json"
    config.write_text(json.dumps({"domain": {"shape": "rectangle", "sides": [1, 2], "radius": 5}}))
    assert _resolve(["lk", "--config", str(config)]).config == {
        "domain": {"shape": "rectangle", "sides": [1.0, 2.0]}
    }


def test_pickands_const_ranges_name_their_field(monkeypatch):
    # The estimator's own range rules, run at resolution: refused under
    # the field, before any lattice is built.
    import excursion.pickands

    def unreachable(*args, **kwargs):
        raise AssertionError("a lattice was built before the ranges were checked")

    monkeypatch.setattr(excursion.pickands, "cube_lattice", unreachable)
    cases = [
        (["--reps", "100"], "reps", "replication count must lie in"),
        (["--dim", "4", "--cube-side", "0.5", "--spacing", "0.125"], "cube_side", "at least 1"),
        (["--alpha", "1.5", "--dim", "4", "--cube-side", "1", "--spacing", "0.5"], "spacing",
         "(0, 0.25]"),
        (["--alpha", "2.5"], "alpha", "(0, 2]"),
    ]
    for extra, field, message in cases:
        with pytest.raises(ConfigError) as err:
            _resolve(["pickands-const", "--seed", "0", *extra])
        assert err.value.field == field, extra
        assert message in str(err.value), extra
        assert main(["pickands-const", "--seed", "0", *extra]) == 1, extra


def test_levels_checked_before_the_h_estimate(monkeypatch):
    import excursion.pickands

    def no_estimate(*args, **kwargs):
        raise AssertionError("H estimated before the levels were checked")

    monkeypatch.setattr(excursion.pickands, "resolve_constant", no_estimate)
    torus = ["--shape", "full_torus", "--periods", "1,1"]
    local = [*torus, "--family", "stable_on_chart", "--c", "1", "--seed", "0"]
    rough = [*local, "--alpha", "1"]
    grid = ["--resolution", "8", "--reps", "100"]
    smooth = [*torus, "--family", "squared_exponential", "--length-scale", "0.3"]
    refused = [
        ["validate", *rough, *grid, "--u=nan"],
        ["validate", *rough, *grid, "--u=2,inf"],
        ["validate", *rough, *grid, "--u=0,2"],
        ["pickands", *rough, "--u=-1,2"],
        ["pickands", *local, "--alpha", "2", "--u=-1,2"],
        ["eec", *smooth, "--u=nan"],
        ["validate", *smooth, *grid, "--seed", "0", "--u=-inf"],
    ]
    for argv in refused:
        with pytest.raises(ConfigError) as err:
            _resolve(argv)
        assert err.value.field == "u_grid", argv
    # The Euler-characteristic route, a smooth validate run included,
    # takes levels at or below zero.
    assert _resolve(["eec", *smooth, "--u=-1,0"]).config["u_grid"] == [-1.0, 0.0]
    spec = _resolve(["validate", *smooth, *grid, "--seed", "0", "--u=-1,0"])
    assert spec.config["u_grid"] == [-1.0, 0.0] and "h" not in spec.config


def _readme_commands() -> list[list[str]]:
    """The argv of each ``excursion`` line in the README's "Command line"
    block, continuation lines joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("excursion ")]


def test_readme_command_line_block_runs_and_replays(tmp_path, monkeypatch, capsys):
    # Every command the README shows runs as written, in order, and its
    # manifest replay writes the bytes of the run it replays.
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == [
        "lk", "eec", "pickands", "pickands-const", "validate", "validate"
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    assert capsys.readouterr().out.startswith("j,L_j\n")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()


def test_usage_errors_exit_1():
    assert main(["lk", "--no-such-flag"]) == 1
    assert main([]) == 1
    assert main(["lk", "--shape", "rectangle"]) == 1


def test_level_list_may_start_with_a_minus_sign(capsys):
    head = [
        "eec",
        "--shape", "rectangle",
        "--sides", "1,2",
        "--family", "squared_exponential",
        "--length-scale", "0.3",
    ]
    for levels in ("-1,2", "-1e-3,2", "-.5,2"):
        assert main([*head, f"--u={levels}"]) == 0
        joined = capsys.readouterr().out
        assert main([*head, "--u", levels]) == 0
        assert capsys.readouterr().out == joined
        assert [row.split(",")[1] for row in joined.splitlines()[1:]] == [
            "%.17g" % float(u) for u in levels.split(",")
        ]
    # An unknown option is still refused, also where a value is expected,
    # and a stray number list is not taken for a value.
    assert main([*head, "--u", "-1,2", "--bogus"]) == 1
    assert main([*head, "--u", "--bogus"]) == 1
    assert main([*head, "-1,2"]) == 1
    assert main([*head, "-x", "--u", "2"]) == 1


def test_validate_torus_golden_across_tiles(capsys):
    argv = [
        "validate",
        "--shape", "full_torus",
        "--periods", "1,1",
        "--family", "stable_on_chart",
        "--c", "1",
        "--alpha", "1",
        "--h-value", "0.98",
        "--resolution", "20",
        "--reps", "200",
        "--seed", "0",
    ]
    assert main(argv) == 0
    assert capsys.readouterr().out == VALIDATE_TORUS_20_CSV


def test_output_directory_must_exist(tmp_path):
    target = tmp_path / "missing" / "out.csv"
    rc = main(["lk", "--shape", "rectangle", "--sides", "1,2", "--output", str(target)])
    assert rc == 1
    assert not target.exists()


def test_config_file_errors(tmp_path, caplog):
    assert main(["lk", "--config", str(tmp_path / "absent.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["lk", "--config", str(bad)]) == 1
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert main(["lk", "--config", str(listy)]) == 1
    # Sections and list fields of the wrong JSON type name their field.
    torus = {"shape": "full_torus", "periods": [1, 1]}
    model = {"family": "stable_on_chart", "c": 1, "alpha": 2}
    wrong_types = [
        ("lk", {"domain": ["rectangle"]}, "domain"),
        ("lk", {"domain": {"shape": "rectangle", "sides": 5}}, "domain.sides"),
        ("pickands", {"domain": torus, "model": model, "mc": "abc"}, "mc"),
    ]
    for sub, data, field in wrong_types:
        typed = tmp_path / "typed.json"
        typed.write_text(json.dumps(data))
        caplog.clear()
        assert main([sub, "--config", str(typed)]) == 1
        assert f"invalid configuration: {field}: " in caplog.text


def test_overflowing_integer_fields_exit_1(tmp_path):
    # JSON Infinity and 1e400 parse to infinite floats, which int()
    # refuses with OverflowError rather than ValueError.  Each must be
    # named as its field's invalid configuration, from a fresh process so
    # that the real stderr is read.
    out = tmp_path / "out.csv"
    validate = {
        "domain": {"shape": "full_torus", "periods": [1, 1]},
        "model": {"family": "stable_on_chart", "c": 1, "alpha": 1},
        "u_grid": [2],
        "mc": {"reps": 10, "resolution": 10, "seed": 0},
    }
    pickands_const = {"alpha": 1, "dim": 1, "reps": 10, "seed": 0}
    cases = [
        (["validate", "--h-value", "0.9"], validate, ("mc", "reps"), "Infinity"),
        (["validate", "--h-value", "0.9"], validate, ("mc", "resolution"), "1e400"),
        (["validate", "--h-value", "0.9"], validate, ("mc", "seed"), "-Infinity"),
        (["pickands-const"], pickands_const, ("dim",), "1e400"),
        (["pickands-const"], pickands_const, ("reps",), "Infinity"),
    ]
    for command, data, path, literal in cases:
        data = json.loads(json.dumps(data))
        section = data
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = "@"
        config = tmp_path / "overflow.json"
        config.write_text(json.dumps(data).replace('"@"', literal))
        proc = run_python("-m", "excursion.cli", *command, "--config", str(config),
                          "--output", str(out))
        field = ".".join(path)
        assert proc.returncode == 1, (field, proc.stderr)
        assert f"invalid configuration: {field}: expected an integer" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()


def test_resolve_leaves_numpy_unloaded():
    # The --threads cap only works if numpy is not loaded before it is set.
    code = (
        "import sys\n"
        "from excursion.cli import build_parser, resolve\n"
        "resolve(build_parser().parse_args(['lk', '--shape', 'rectangle', '--sides', '1,2']))\n"
        "sys.exit(1 if 'numpy' in sys.modules else 0)"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr or "importing and resolving loaded numpy"


def test_cli_runs_leave_scipy_special_unloaded(tmp_path):
    # The Gaussian tail is a Cephes port and the manifest records no
    # scipy version, so no eec or pickands run (nor importing the
    # validate modules) should pay for importing scipy.
    eec = ["eec", "--shape", "full_torus", "--periods", "1,1", "--family",
           "squared_exponential", "--length-scale", "0.2", "--u", "3"]
    pickands = ["pickands", "--shape", "great_circle", "--radius", "1", "--family", "local",
                "--c", "1", "--alpha", "1", "--h-value", "0.5", "--u", "3", "--seed", "0"]
    # A 48 x 48 torus takes the circulant path, which must use numpy.fft:
    # scipy.fft would cost its import in every such run.
    spectral = ["validate", "--shape", "full_torus", "--periods", "1,1", "--family",
                "stable_on_chart", "--c", "1", "--alpha", "1", "--h-value", "0.98",
                "--u", "2", "--resolution", "48", "--reps", "20", "--seed", "0"]
    code = (
        "import sys\n"
        "import excursion.approximations, excursion.validation\n"
        "from excursion.cli import main\n"
        f"assert main({eec + ['--output', str(tmp_path / 'eec.csv')]!r}) == 0\n"
        f"assert main({pickands + ['--output', str(tmp_path / 'pickands.csv')]!r}) == 0\n"
        f"assert main({spectral + ['--output', str(tmp_path / 'validate.csv')]!r}) == 0\n"
        "sys.exit(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy') or 0)"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "eec.csv").exists() and (tmp_path / "pickands.csv").exists()
    assert (tmp_path / "validate.csv").exists()


def test_every_subcommand_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with its import blocked, every
    # public kernel and every subcommand at a small size still runs.
    torus = ["--shape", "full_torus", "--periods", "1,1"]
    rough = [*torus, "--family", "stable_on_chart", "--c", "1", "--alpha", "1"]
    commands = [
        ["lk", "--shape", "full_sphere", "--dim", "2", "--radius", "1"],
        ["eec", *torus, "--family", "squared_exponential", "--length-scale", "0.2", "--u", "3"],
        ["pickands", "--shape", "great_circle", "--radius", "1", "--family", "local", "--c", "1",
         "--alpha", "2", "--u", "3", "--seed", "0"],
        ["pickands-const", "--alpha", "1", "--dim", "1", "--cube-side", "1", "--spacing", "0.25",
         "--reps", "1000", "--seed", "0"],
        ["validate", *rough, "--h-value", "0.9", "--u", "2", "--resolution", "6", "--reps", "50",
         "--seed", "0"],
        ["validate", "--shape", "full_sphere", "--dim", "2", "--radius", "1", "--family",
         "sphere_schoenberg", "--b", "0.5,0.5", "--u", "2", "--resolution", "4", "--reps", "50",
         "--seed", "0"],
    ]
    runs = "".join(
        f"assert main({argv + ['--output', str(tmp_path / f'{i}.csv')]!r}) == 0\n"
        for i, argv in enumerate(commands)
    )
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from excursion import kernels\n"
        "from excursion.cli import main\n"
        "for name in kernels.__all__:\n"
        "    fn = getattr(kernels, name)\n"
        "    out = fn(2, [0.5, 40.0]) if name in ('hermite', 'beta_j') else fn([0.5, 40.0])\n"
        "    assert len(out) == 2, name\n"
        + runs
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
    assert all((tmp_path / f"{i}.csv").stat().st_size > 0 for i in range(len(commands)))


def test_thread_cap_flag(monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "sentinel")
    monkeypatch.delenv("EXCURSION_THREADS", raising=False)
    assert main(["lk", "--shape", "rectangle", "--sides", "1,2", "--threads", "2"]) == 0
    capsys.readouterr()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "2"


def test_thread_cap_env(monkeypatch, capsys):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "sentinel")
    monkeypatch.setenv("EXCURSION_THREADS", "3")
    assert main(["lk", "--shape", "rectangle", "--sides", "1,2"]) == 0
    capsys.readouterr()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        assert os.environ[var] == "3"


def test_manifest_records_thread_cap(tmp_path, monkeypatch):
    # Replay is byte-identical only at the same thread cap, so the
    # manifest says which one applied; replay reads do not take it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "sentinel")
    lk = ["lk", "--shape", "rectangle", "--sides", "1,2", "--output", str(tmp_path / "lk.csv")]
    for env, flags, recorded in ((None, [], None), ("1", [], 1), (None, ["--threads", "1"], 1)):
        if env is None:
            monkeypatch.delenv("EXCURSION_THREADS", raising=False)
        else:
            monkeypatch.setenv("EXCURSION_THREADS", env)
        assert main([*lk, *flags]) == 0
        manifest = json.loads((tmp_path / "lk.csv.manifest.json").read_text())
        assert manifest["threads"] == recorded
        assert "threads" not in manifest["resolved_config"]


def test_thread_cap_validation(monkeypatch):
    monkeypatch.setenv("EXCURSION_THREADS", "zero")
    assert main(["lk", "--shape", "rectangle", "--sides", "1,2"]) == 1
    monkeypatch.delenv("EXCURSION_THREADS")
    assert main(["lk", "--shape", "rectangle", "--sides", "1,2", "--threads", "0"]) == 1


def test_bench_tracer_installs_on_the_package():
    # bench/traced.py patches functions it looks up by name in the
    # package's modules; renaming or deleting one breaks every traced run.
    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    code = (
        "import sys\n"
        f"sys.path.insert(0, {bench!r})\n"
        "import traced\n"
        "traced.install(traced.Tracer())\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


# The benchmark's three workload commands at their smoke sizes.
_BENCH_COMMANDS = [
    pytest.param(
        ["validate", "--shape", "full_torus", "--periods", "1,1", "--family", "stable_on_chart",
         "--c", "1", "--alpha", "1", "--h-value", "0.98", "--u", "2,2.5,3", "--resolution", "60",
         "--reps", "100"],
        id="validate-torus-dense",
    ),
    pytest.param(
        ["validate", "--shape", "full_sphere", "--dim", "2", "--radius", "1",
         "--family", "sphere_schoenberg", "--b", "0.2,0.3,0.3,0.2", "--u", "2,2.5,3",
         "--resolution", "12", "--reps", "2000"],
        id="validate-sphere-streams",
    ),
    pytest.param(
        ["pickands-const", "--alpha", "1", "--dim", "2", "--reps", "1000"],
        id="pickands-window",
    ),
]


@pytest.mark.parametrize(
    "argv",
    [
        *_BENCH_COMMANDS,
        # The dense Cholesky path, which no workload takes: 15 x 15 points.
        pytest.param(
            ["validate", "--shape", "rectangle", "--sides", "1,1", "--family", "stable_on_chart",
             "--c", "1", "--alpha", "1", "--h-value", "0.98", "--u", "2,2.5,3",
             "--resolution", "16", "--reps", "200"],
            id="validate-rectangle-dense",
        ),
    ],
)
def test_traced_run_writes_the_untraced_bytes(tmp_path, argv):
    # bench/traced.py wraps the package's functions in place; an output
    # that depended on timing, or on the wrappers, would differ here.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    traced = os.path.join(root, "bench", "traced.py")
    argv = [*argv, "--seed", "0", "--threads", "2"]
    plain, spanned = tmp_path / "plain.csv", tmp_path / "traced.csv"
    proc = run_python("-m", "excursion.cli", *argv, "--output", str(plain))
    assert proc.returncode == 0, proc.stderr
    proc = run_python(traced, str(tmp_path / "spans.json"), "--", *argv, "--output", str(spanned))
    assert proc.returncode == 0, proc.stderr
    assert spanned.read_bytes() == plain.read_bytes()
    # The draw span's attrs read len(factor): a factor it cannot measure
    # would fail here, not only in the benchmark.
    spans = json.loads((tmp_path / "spans.json").read_text())
    draws = [attrs for name, _, _, _, attrs in spans if name == "sampling.draw" and attrs]
    reps = int(argv[argv.index("--reps") + 1])
    assert draws and all(a["n"] > 0 and a["reps"] == reps for a in draws), draws


def test_export_lists_resolve():
    # A deleted public name must leave the package's lazy export map and
    # its module's __all__ with it.  A fresh interpreter, so every package
    # attribute goes through the lazy lookup.
    code = (
        "import importlib, pkgutil\n"
        "import excursion\n"
        "missing = [name for name in excursion.__all__ if not hasattr(excursion, name)]\n"
        "for info in pkgutil.iter_modules(excursion.__path__):\n"
        "    module = importlib.import_module('excursion.' + info.name)\n"
        "    missing += [f'{info.name}.{name}' for name in module.__all__\n"
        "                if not hasattr(module, name)]\n"
        "raise SystemExit(missing or 0)\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr
