import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from emergence_lab.cli import _resolve_threads, main
from emergence_lab.config import EXPERIMENTS, load_config, validate_config
from emergence_lab.constructor import (LENGTH_CAP, MeasureFamily, SimplexNet,
                                       default_eps_tilde,
                                       estimate_gamma_thresholds)
from emergence_lab.errors import ConfigError, InputError
from emergence_lab.measures import MarkovMeasure
from emergence_lab.sofic import ShiftSpace

FULL2_SPACE = {"m": 2, "beta": 2.0, "transition": [[1, 1], [1, 1]]}
GM_SPACE = {"m": 2, "beta": 2.0, "transition": [[1, 1], [1, 0]]}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def entropy_config(tmp_path, space=None):
    return {
        "space": space or FULL2_SPACE,
        "experiment": "entropy",
        "parameters": {},
        "seed": 1,
        "output_dir": str(tmp_path / "out"),
    }


# ------------------------------------------------------------------- config

def test_validate_config_collects_all_violations():
    bad = {"space": {"m": 1, "beta": 0.5, "transition": [[1]]},
           "experiment": "nope", "parameters": {}, "seed": -3,
           "output_dir": "x"}
    with pytest.raises(ConfigError) as ei:
        validate_config(bad)
    pointers = {p for p, _ in ei.value.violations}
    assert {"/space/m", "/space/beta", "/experiment", "/seed"} <= pointers


def test_validate_config_missing_fields():
    with pytest.raises(ConfigError) as ei:
        validate_config({})
    pointers = {p for p, _ in ei.value.violations}
    assert {"/space", "/experiment", "/parameters", "/seed",
            "/output_dir"} <= pointers


def test_validate_emergence_epsilons_must_decrease():
    cfg = {"space": FULL2_SPACE, "experiment": "emergence",
           "parameters": {"source": {"kind": "bernoulli", "probs": [0.5, 0.5]},
                          "epsilons": [0.1, 0.2, 0.05],
                          "n_min": 10, "n_max": 100, "count": 5, "depth": 4},
           "seed": 0, "output_dir": "x"}
    with pytest.raises(ConfigError) as ei:
        validate_config(cfg)
    assert any(p == "/parameters/epsilons" for p, _ in ei.value.violations)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_config_sha256_is_stable(tmp_path):
    cfg = entropy_config(tmp_path)
    a = validate_config(cfg).sha256()
    b = validate_config(json.loads(json.dumps(cfg))).sha256()
    assert a == b and len(a) == 64


# ------------------------------------------------------------------ threads

def test_threads_flag_else_cpu_count(monkeypatch):
    # the environment plays no part: only the flag or the CPU count
    monkeypatch.setenv("EMERGENCE_THREADS", "7")
    assert _resolve_threads(3) == 3
    assert _resolve_threads(1) == 1
    assert _resolve_threads(None) == max(1, os.cpu_count() or 1)
    for flag in (0, -2):
        with pytest.raises(InputError, match=f"--threads must be >= 1, got {flag}"):
            _resolve_threads(flag)


# ---------------------------------------------------------------- validate

def test_cli_validate_ok(tmp_path):
    path = write_config(tmp_path, entropy_config(tmp_path))
    result = CliRunner().invoke(main, ["validate", "--config", path])
    assert result.exit_code == 0
    out = json.loads(result.output)
    assert out["valid"] and out["experiment"] == "entropy"


def test_cli_validate_reports_violations(tmp_path):
    cfg = entropy_config(tmp_path)
    del cfg["seed"]
    path = write_config(tmp_path, cfg)
    result = CliRunner().invoke(main, ["validate", "--config", path])
    assert result.exit_code == 1
    err = json.loads(result.output)
    assert err["kind"] == "config"
    assert any(v["pointer"] == "/seed" for v in err["violations"])


@pytest.mark.parametrize("transition", [[[1, 1], [1]], [[1, [1]], [1, 1]]])
def test_cli_rejects_ragged_transition(tmp_path, transition):
    path = write_config(tmp_path, entropy_config(
        tmp_path, {**FULL2_SPACE, "transition": transition}))
    result = CliRunner().invoke(main, ["validate", "--config", path])
    assert result.exit_code == 1
    err = json.loads(result.output)
    assert [v["pointer"] for v in err["violations"]] == ["/space/transition"]
    out_dir = tmp_path / "err"
    result = CliRunner().invoke(main, ["entropy", "--config", path,
                                       "--out", str(out_dir)])
    assert result.exit_code == 1
    err = json.loads((out_dir / "error.json").read_text())
    assert err["kind"] == "config"
    assert [v["pointer"] for v in err["violations"]] == ["/space/transition"]


@pytest.mark.parametrize("raw", [b'\xff\xfe{"a":1}', b"[" * 100_000],
                         ids=["not-utf8", "deep-nesting"])
def test_cli_reports_unreadable_json_as_config_error(tmp_path, raw):
    # bytes that are not UTF-8 raised UnicodeDecodeError, and nesting past
    # the parser's recursion limit RecursionError: a bare traceback and no
    # error.json
    path = tmp_path / "config.json"
    path.write_bytes(raw)
    result = CliRunner().invoke(main, ["validate", "--config", str(path)])
    assert result.exit_code == 1
    err = json.loads(result.output)
    assert err["kind"] == "config"
    assert [v["pointer"] for v in err["violations"]] == ["/"]
    out_dir = tmp_path / "err"
    result = CliRunner().invoke(main, ["entropy", "--config", str(path),
                                       "--out", str(out_dir)])
    assert result.exit_code == 1
    err = json.loads((out_dir / "error.json").read_text())
    assert err["kind"] == "config"
    assert [v["pointer"] for v in err["violations"]] == ["/"]


# --------------------------------------------------------------------- runs

def run_ok(tmp_path, cfg, subcommand):
    path = write_config(tmp_path, cfg)
    result = CliRunner().invoke(main, [subcommand, "--config", path])
    assert result.exit_code == 0, result.output
    out_dir = tmp_path / "out"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for name in manifest["files"]:
        assert (out_dir / name).is_file()
    return out_dir, manifest


def test_cli_entropy_run(tmp_path):
    out_dir, manifest = run_ok(tmp_path, entropy_config(tmp_path), "entropy")
    assert manifest["files"] == ["entropy.csv"]
    assert manifest["experiment"] == "entropy"
    lines = (out_dir / "entropy.csv").read_text().strip().split("\n")
    assert lines[0] == "m,beta,topological_entropy"
    h = float(lines[1].split(",")[2])
    assert h == pytest.approx(math.log(2), abs=1e-12)


def test_cli_pressure_run(tmp_path):
    cfg = {"space": FULL2_SPACE, "experiment": "pressure",
           "parameters": {"table": {"1": 0.0, "2": 0.0}, "lengths": [4, 8]},
           "seed": 0, "output_dir": str(tmp_path / "out")}
    out_dir, _ = run_ok(tmp_path, cfg, "pressure")
    rows = (out_dir / "pressure.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        n, part, exact = row.split(",")
        assert float(exact) == pytest.approx(math.log(2), abs=1e-9)
        assert abs(float(part) - math.log(2)) <= 2.0 / int(n)


def test_cli_pressure_window2_default_lengths(tmp_path):
    # the default lengths reach n = 24: 2^24 cylinders, summed by recursion
    cfg = {"space": FULL2_SPACE, "experiment": "pressure",
           "parameters": {"table": {"1,1": 0.1, "1,2": -0.2, "2,1": 0.25,
                                    "2,2": -0.05}, "window": 2},
           "seed": 0, "output_dir": str(tmp_path / "out")}
    out_dir, _ = run_ok(tmp_path, cfg, "pressure")
    rows = (out_dir / "pressure.csv").read_text().strip().split("\n")[1:]
    assert [int(row.split(",")[0]) for row in rows] == [8, 16, 24]
    for row in rows:
        n, part, exact = row.split(",")
        assert abs(float(part) - float(exact)) <= 2.0 / int(n)


def test_cli_bowen_run(tmp_path):
    cfg = {"space": GM_SPACE, "experiment": "bowen",
           "parameters": {"table": {"1": 1.0, "2": 1.0}},
           "seed": 0, "output_dir": str(tmp_path / "out")}
    out_dir, _ = run_ok(tmp_path, cfg, "bowen")
    h, root = (out_dir / "bowen.csv").read_text().strip().split("\n")[1].split(",")
    assert float(root) == pytest.approx(float(h), abs=1e-6)


def test_cli_outer_sweep_run(tmp_path):
    cfg = {"space": FULL2_SPACE, "experiment": "outer-sweep",
           "parameters": {"kind": "entropy", "t_grid": [0.5, 1.0],
                          "depth_caps": [2, 4], "m_blk": 2},
           "seed": 0, "output_dir": str(tmp_path / "out")}
    out_dir, _ = run_ok(tmp_path, cfg, "outer-sweep")
    rows = (out_dir / "outer_sweep.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        t, cap, m_val, n_val = row.split(",")
        assert float(m_val) <= float(n_val) + 1e-15


def test_cli_rejects_non_finite_config_numbers(tmp_path):
    # json.dumps writes float("nan") and -inf as the tokens NaN and -Infinity
    cfg = {"space": FULL2_SPACE, "experiment": "outer-sweep",
           "parameters": {"kind": "entropy", "t_grid": [math.nan, -math.inf],
                          "depth_caps": [2], "m_blk": 1},
           "seed": 0, "output_dir": str(tmp_path / "out")}
    path = write_config(tmp_path, cfg)
    assert "NaN" in open(path).read()
    with pytest.raises(ConfigError, match="NaN"):
        load_config(path)
    out_dir = tmp_path / "err"
    result = CliRunner().invoke(main, ["outer-sweep", "--config", path,
                                       "--out", str(out_dir)])
    assert result.exit_code == 1
    assert sorted(p.name for p in out_dir.iterdir()) == ["error.json"]
    err = json.loads((out_dir / "error.json").read_text())
    assert err["kind"] == "config" and "NaN" in err["detail"]


@pytest.mark.parametrize("beta, parameters, shown", [
    ("2.0", '{"kind": "entropy", "t_grid": [1e400], "depth_caps": [4]}',
     "1e400"),
    ("1e400", '{"kind": "hausdorff", "t_grid": [0.5], "depth_caps": [2]}',
     "1e400"),
    ("1" + "0" * 400,
     '{"kind": "hausdorff", "t_grid": [0.5], "depth_caps": [2]}',
     "1" + "0" * 19 + "..."),
], ids=["t_grid-1e400", "beta-1e400", "beta-401-digits"])
def test_cli_rejects_numbers_that_overflow(tmp_path, beta, parameters, shown):
    # literals past the float range: 1e400 read as inf (a row of inf and
    # nan, or a math domain error), and an integer of 401 digits overflowed
    # on conversion to float
    path = tmp_path / "config.json"
    path.write_text(
        f'{{"space": {{"m": 2, "beta": {beta}, "transition": [[1, 1], [1, 1]]}}, '
        f'"experiment": "outer-sweep", "parameters": {parameters}, '
        f'"seed": 0, "output_dir": {json.dumps(str(tmp_path / "out"))}}}')
    out_dir = tmp_path / "err"
    result = CliRunner().invoke(main, ["outer-sweep", "--config", str(path),
                                       "--out", str(out_dir)])
    assert result.exit_code == 1
    assert sorted(p.name for p in out_dir.iterdir()) == ["error.json"]
    err = json.loads((out_dir / "error.json").read_text())
    assert err["kind"] == "config"
    assert err["detail"] == f"/: non-finite number {shown} is not allowed"


def test_cli_conditions_run(tmp_path):
    cfg = {"space": FULL2_SPACE, "experiment": "conditions",
           "parameters": {"kind": "entropy", "depth": 4, "t_grid": [0.5]},
           "seed": 0, "output_dir": str(tmp_path / "out")}
    out_dir, _ = run_ok(tmp_path, cfg, "conditions")
    rep = json.loads((out_dir / "conditions.json").read_text())
    assert rep["C3_pass"] and rep["C4_pass"]


def test_cli_emergence_run(tmp_path):
    cfg = {"space": FULL2_SPACE, "experiment": "emergence",
           "parameters": {"source": {"kind": "bernoulli", "probs": [0.5, 0.5]},
                          "epsilons": [0.3, 0.15, 0.075],
                          "n_min": 32, "n_max": 1024, "count": 8, "depth": 4},
           "seed": 3, "output_dir": str(tmp_path / "out")}
    out_dir, manifest = run_ok(tmp_path, cfg, "emergence")
    assert manifest["files"] == ["emergence.csv", "fit.json"]
    fit = json.loads((out_dir / "fit.json").read_text())
    assert "slope" in fit["exponent_fit"]


def test_cli_reproducible_bytes(tmp_path):
    cfg = {"space": FULL2_SPACE, "experiment": "emergence",
           "parameters": {"source": {"kind": "bernoulli", "probs": [0.4, 0.6]},
                          "epsilons": [0.3, 0.15, 0.075],
                          "n_min": 32, "n_max": 512, "count": 6, "depth": 4},
           "seed": 9, "output_dir": str(tmp_path / "out")}
    path = write_config(tmp_path, cfg)
    runner = CliRunner()
    assert runner.invoke(main, ["emergence", "--config", path]).exit_code == 0
    first = (tmp_path / "out" / "emergence.csv").read_bytes()
    assert runner.invoke(main, ["emergence", "--config", path,
                                "--threads", "2"]).exit_code == 0
    assert (tmp_path / "out" / "emergence.csv").read_bytes() == first


def test_cli_out_override(tmp_path):
    cfg = entropy_config(tmp_path)
    path = write_config(tmp_path, cfg)
    alt = tmp_path / "alt"
    result = CliRunner().invoke(main, ["entropy", "--config", path,
                                       "--out", str(alt)])
    assert result.exit_code == 0
    assert (alt / "entropy.csv").is_file()
    assert not (tmp_path / "out").exists()


def test_cli_subcommand_config_mismatch(tmp_path):
    path = write_config(tmp_path, entropy_config(tmp_path))
    result = CliRunner().invoke(main, ["bowen", "--config", path])
    assert result.exit_code == 1
    err = json.loads(result.output)
    assert err["kind"] == "input"
    out_dir = tmp_path / "out"
    # only the error report lands in the output directory
    assert sorted(p.name for p in out_dir.iterdir()) == ["error.json"]


def test_cli_error_leaves_no_partial_outputs(tmp_path):
    # a length cap below the first group's length: valid, but the schedule
    # fails at run time
    cfg = {"space": FULL2_SPACE, "experiment": "construct",
           "parameters": {**CONSTRUCT, "length_cap": 10},
           "seed": 3, "output_dir": str(tmp_path / "out")}
    path = write_config(tmp_path, cfg)
    result = CliRunner().invoke(main, ["construct", "--config", path])
    assert result.exit_code == 1
    out_dir = tmp_path / "out"
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == ["error.json"]
    err = json.loads((out_dir / "error.json").read_text())
    assert set(err) >= {"module", "operation", "kind", "detail"}
    assert (err["kind"], err["operation"]) == ("schedule", "block_schedule")


def test_cli_emergence_past_measure_grid_cap(tmp_path):
    # 2^40 prefixes at depth 40: a typed size error before any grid exists
    cfg = {"space": FULL2_SPACE, "experiment": "emergence",
           "parameters": {"source": {"kind": "bernoulli", "probs": [0.5, 0.5]},
                          "epsilons": [0.3, 0.15, 0.075],
                          "n_min": 32, "n_max": 1024, "count": 8, "depth": 40},
           "seed": 3, "output_dir": str(tmp_path / "out")}
    result = CliRunner().invoke(main, ["emergence", "--config",
                                       write_config(tmp_path, cfg)])
    assert result.exit_code == 1
    out_dir = tmp_path / "out"
    assert sorted(p.name for p in out_dir.iterdir()) == ["error.json"]
    err = json.loads((out_dir / "error.json").read_text())
    assert (err["kind"], err["operation"]) == ("size", "empirical_snapshots")


@pytest.mark.parametrize("subcommand, parameters", [
    ("pressure", {"table": {"1,1": 0.1, "1,2": 0.2, "2,1": 0.3}, "window": 2}),
    ("bowen", {"table": {"1": 0.5}}),
])
def test_cli_incomplete_potential_table(tmp_path, subcommand, parameters):
    cfg = {"space": FULL2_SPACE, "experiment": subcommand,
           "parameters": parameters, "seed": 0,
           "output_dir": str(tmp_path / "out")}
    path = write_config(tmp_path, cfg)
    result = CliRunner().invoke(main, [subcommand, "--config", path])
    assert result.exit_code == 1
    err = json.loads((tmp_path / "out" / "error.json").read_text())
    assert err["kind"] == "input" and err["module"] == "carath"


PROBE = {"word": [1], "stochastic_list": [[[0.5, 0.5], [0.5, 0.5]]],
         "n": 16, "m_blk": 1, "depth_cap": 2, "eps": 0.5, "t": 0.5,
         "metric_depth": 3}


@pytest.mark.parametrize("experiment, parameters, pointer", [
    ("outer-sweep", {"kind": "entropy", "window": "x", "t_grid": [0.5],
                     "depth_caps": [2]}, "/parameters/window"),
    ("conditions", {"kind": "entropy", "window": 9, "depth": 2,
                    "t_grid": [0.5]}, "/parameters/window"),
    ("restricted-probe", {**PROBE, "kind": "pressure"}, "/parameters/table"),
    ("restricted-probe", {**PROBE, "kind": "box"}, "/parameters/kind"),
    ("restricted-probe", {**PROBE, "window": 0}, "/parameters/window"),
    ("conditions", {"kind": "entropy", "depth": 2, "t_grid": []},
     "/parameters/t_grid"),
    ("outer-sweep", {"kind": "entropy", "t_grid": [], "depth_caps": [2]},
     "/parameters/t_grid"),
    ("outer-sweep", {"kind": "entropy", "t_grid": [0.5], "depth_caps": []},
     "/parameters/depth_caps"),
    ("pressure", {"table": {"1": 0.0, "2": 0.0}, "lengths": []},
     "/parameters/lengths"),
])
def test_cli_rejects_bad_structure_parameters(tmp_path, experiment,
                                              parameters, pointer):
    assert_config_error(tmp_path, experiment, parameters, pointer)


def assert_config_error(tmp_path, experiment, parameters, pointer):
    """The CLI exits 1 with an error.json of kind config naming only
    `pointer`."""
    cfg = {"space": FULL2_SPACE, "experiment": experiment,
           "parameters": parameters, "seed": 0,
           "output_dir": str(tmp_path / "out")}
    out_dir = tmp_path / "err"
    result = CliRunner().invoke(main, [experiment, "--config",
                                       write_config(tmp_path, cfg),
                                       "--out", str(out_dir)])
    assert result.exit_code == 1
    err = json.loads((out_dir / "error.json").read_text())
    assert err["kind"] == "config"
    assert [v["pointer"] for v in err["violations"]] == [pointer]


@pytest.mark.parametrize("experiment, parameters", [
    ("outer-sweep", {"kind": "entropy", "t_grid": [0.5], "depth_caps": [2]}),
    ("pressure", {"table": {"1": 0.0, "2": 0.0}, "lengths": [4]}),
])
def test_cli_null_window_means_window_one(tmp_path, experiment, parameters):
    cfg = {"space": FULL2_SPACE, "experiment": experiment,
           "parameters": {**parameters, "window": None}, "seed": 0,
           "output_dir": str(tmp_path / "out")}
    run_ok(tmp_path, cfg, experiment)


def test_cli_restricted_probe_run(tmp_path):
    cfg = {"space": FULL2_SPACE, "experiment": "restricted-probe",
           "parameters": {"word": [1], "stochastic_list": [[[0.5, 0.5],
                                                            [0.5, 0.5]]],
                          "n": 32, "m_blk": 2, "depth_cap": 4,
                          "eps": 0.5, "t": 0.6, "metric_depth": 3},
           "seed": 0, "output_dir": str(tmp_path / "out")}
    out_dir, _ = run_ok(tmp_path, cfg, "restricted-probe")
    rep = json.loads((out_dir / "restricted_probe.json").read_text())
    assert rep["value"] >= 0.0


CONSTRUCT = {"family": [[[0.2, 0.8], [0.2, 0.8]], [[0.8, 0.2], [0.8, 0.2]]],
             "l_max": 1,
             "eps_tilde": [0.9, 0.8, 0.7],
             "eps_hat": [0.1, 0.1, 0.1],
             "gamma": {f"{L},{l}": 32 for L in range(3) for l in range(L + 1)},
             "nets": [{"level": 0, "mesh": 0.9, "nodes": [[1.0]]},
                      {"level": 1, "mesh": 0.6,
                       "nodes": [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]}],
             "metric_depth": 4}


def test_cli_construct_run(tmp_path):
    cfg = {"space": FULL2_SPACE, "experiment": "construct",
           "parameters": CONSTRUCT,
           "seed": 5, "output_dir": str(tmp_path / "out")}
    out_dir, manifest = run_ok(tmp_path, cfg, "construct")
    assert manifest["files"] == ["blocks.csv", "itinerary.json", "orbit.json"]
    orbit = json.loads((out_dir / "orbit.json").read_text())
    assert orbit["seed"] == 5 and orbit["length"] > 0


def test_cli_construct_estimates_gamma_when_not_given(tmp_path):
    # without a gamma table the thresholds are estimated on the family, at
    # the config's schedules, seed and metric depth
    params = {k: v for k, v in CONSTRUCT.items() if k != "gamma"}
    cfg = {"space": FULL2_SPACE, "experiment": "construct",
           "parameters": params, "seed": 5,
           "output_dir": str(tmp_path / "out")}
    out_dir, _ = run_ok(tmp_path, cfg, "construct")
    family = MeasureFamily(tuple(MarkovMeasure(p, ShiftSpace.full_shift(2))
                                 for p in params["family"]))
    want = estimate_gamma_thresholds(family, 1, params["eps_tilde"],
                                     params["eps_hat"], 5, 4)
    itinerary = json.loads((out_dir / "itinerary.json").read_text())
    assert itinerary["gamma_n"] == {f"{L},{l}": n
                                    for (L, l), n in want.items()}


def test_cli_construct_writes_only_the_nets_its_blocks_use(tmp_path):
    # a net past l_max leaves itinerary.json as it is without it
    files = []
    for i, nets in enumerate((CONSTRUCT["nets"], [
            *CONSTRUCT["nets"],
            {"level": 2, "mesh": 0.5,
             "nodes": [[1.0, 0.0, 0.0], [1 / 3, 1 / 3, 1 / 3]]}])):
        cfg = {"space": FULL2_SPACE, "experiment": "construct",
               "parameters": {**CONSTRUCT, "nets": nets},
               "seed": 5, "output_dir": str(tmp_path / f"out{i}")}
        path = write_config(tmp_path, cfg)
        result = CliRunner().invoke(main, ["construct", "--config", path])
        assert result.exit_code == 0, result.output
        files.append((tmp_path / f"out{i}" / "itinerary.json").read_text())
    assert len(json.loads(files[0])["nets"]) == 2
    assert files[1] == files[0]


SMALL_EMERGENCE = {"epsilons": [0.3, 0.15, 0.075], "n_min": 16, "n_max": 128,
                   "count": 4, "depth": 3}
OSCILLATING = {"kind": "oscillating", "probs_a": [0.2, 0.8],
               "probs_b": [0.8, 0.2]}


@pytest.mark.parametrize("experiment, parameters, key", [
    ("outer-sweep", {"kind": "entropy", "t_grid": [0.5], "depth_caps": [2, 3]},
     "m_blk"),
    ("pressure", {"table": {"1": 0.0, "2": 0.1}}, "lengths"),
    ("restricted-probe",
     {k: v for k, v in PROBE.items() if k != "metric_depth"}, "metric_depth"),
    ("construct", CONSTRUCT, "length_cap"),
    ("emergence", {**SMALL_EMERGENCE,
                   "source": {"kind": "bernoulli", "probs": [0.5, 0.5]}},
     "tail_fraction"),
    ("emergence", {**SMALL_EMERGENCE, "source": OSCILLATING},
     "source/first_block"),
    ("emergence", {**SMALL_EMERGENCE, "source": OSCILLATING}, "source/growth"),
])
def test_cli_null_optional_key_means_default(tmp_path, experiment, parameters,
                                             key):
    def data_files(params, name):
        cfg = {"space": FULL2_SPACE, "experiment": experiment,
               "parameters": params, "seed": 0,
               "output_dir": str(tmp_path / name)}
        result = CliRunner().invoke(main, [
            experiment, "--config", write_config(tmp_path, cfg, f"{name}.json")])
        assert result.exit_code == 0, result.output
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                if p.name != "manifest.json"}

    nulled = json.loads(json.dumps(parameters))
    *path, last = key.split("/")
    target = nulled
    for part in path:
        target = target[part]
    target[last] = None
    assert data_files(nulled, "null") == data_files(parameters, "absent")


@pytest.mark.parametrize("experiment, parameters, pointer", [
    ("emergence", {**SMALL_EMERGENCE,
                   "source": {**OSCILLATING, "first_block": 0}},
     "/parameters/source/first_block"),
    ("emergence", {**SMALL_EMERGENCE,
                   "source": {**OSCILLATING, "growth": "fast"}},
     "/parameters/source/growth"),
    ("construct", {**CONSTRUCT, "gamma": {**CONSTRUCT["gamma"], "0,0": "many"}},
     "/parameters/gamma/0,0"),
    ("saturate", {**CONSTRUCT, "slack": 0.5,
                  "nets": [CONSTRUCT["nets"][0],
                           {"level": 1, "mesh": 0.6, "nodes": [[1.0]]}]},
     "/parameters/nets/1/nodes/0"),
    ("construct", {**CONSTRUCT,
                   "nets": [CONSTRUCT["nets"][0],
                            {"level": 1, "mesh": 0.6, "nodes": [[0.3, 0.3]]}]},
     "/parameters/nets/1/nodes/0"),
    ("restricted-probe", {**PROBE, "stochastic_list": []},
     "/parameters/stochastic_list"),
    ("emergence", {**SMALL_EMERGENCE,
                   "source": {"kind": "markov", "stochastic_list": []}},
     "/parameters/source/stochastic_list"),
    ("construct", {**{k: v for k, v in CONSTRUCT.items()
                      if k not in ("eps_tilde", "eps_hat", "nets")},
                   "l_max": 2}, "/parameters/l_max"),
    *[("restricted-probe", {**PROBE, "metric_depth": depth},
       "/parameters/metric_depth") for depth in ("x", 2.5, True, 0)],
    ("construct", {**CONSTRUCT, "metric_depth": 0},
     "/parameters/metric_depth"),
])
def test_cli_rejects_bad_source_and_schedule_keys(tmp_path, experiment,
                                                  parameters, pointer):
    assert_config_error(tmp_path, experiment, parameters, pointer)


MARKOV = {"kind": "markov", "stochastic_list": PROBE["stochastic_list"]}


@pytest.mark.parametrize("experiment, parameters, pointer", [
    ("emergence", {**SMALL_EMERGENCE, "source": MARKOV, "count": 1},
     "/parameters/count"),
    ("emergence", {**SMALL_EMERGENCE, "source": MARKOV, "n_min": 512,
                   "n_max": 64}, "/parameters/n_max"),
    ("emergence", {**SMALL_EMERGENCE, "source": MARKOV, "n_min": 64,
                   "n_max": 66, "count": 10}, "/parameters/count"),
    ("construct", {**CONSTRUCT, "eps_hat": [0.5, 1.5, 0.5]},
     "/parameters/eps_hat/1"),
    ("restricted-probe",
     {**PROBE, "stochastic_list": PROBE["stochastic_list"] * 2},
     "/parameters/stochastic_list"),
    ("emergence", {**SMALL_EMERGENCE, "source": {
        **MARKOV, "stochastic_list": MARKOV["stochastic_list"] * 2}},
     "/parameters/source/stochastic_list"),
])
def test_validate_rejects_what_the_run_would(tmp_path, experiment, parameters,
                                             pointer):
    # each config passed validate, then its run failed: a time grid that
    # cannot exist, an eps_hat entry outside (0, 1), or a second matrix the
    # run never read
    cfg = {"space": FULL2_SPACE, "experiment": experiment,
           "parameters": parameters, "seed": 0,
           "output_dir": str(tmp_path / "out")}
    result = CliRunner().invoke(main, ["validate", "--config",
                                       write_config(tmp_path, cfg)])
    assert result.exit_code == 1
    err = json.loads(result.output)
    assert err["kind"] == "config"
    assert [v["pointer"] for v in err["violations"]] == [pointer]


SMOKE = {
    "entropy": ({}, ["entropy.csv"]),
    "pressure": ({"table": {"1": 0.0, "2": 0.5}, "lengths": [4]},
                 ["pressure.csv"]),
    "bowen": ({"table": {"1": 1.0, "2": 0.5}}, ["bowen.csv"]),
    "outer-sweep": ({"kind": "entropy", "t_grid": [0.5], "depth_caps": [2]},
                    ["outer_sweep.csv"]),
    "emergence": ({**SMALL_EMERGENCE, "source": MARKOV},
                  ["emergence.csv", "fit.json"]),
    "construct": (CONSTRUCT, ["blocks.csv", "itinerary.json", "orbit.json"]),
    # no eps_hat: the default schedule
    "saturate": ({**{k: v for k, v in CONSTRUCT.items() if k != "eps_hat"},
                  "slack": 0.5}, ["orbit.json", "saturation.json"]),
    "conditions": ({"kind": "entropy", "depth": 2, "t_grid": [0.5]},
                   ["conditions.json"]),
    "restricted-probe": (PROBE, ["restricted_probe.json"]),
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_cli_runs_every_experiment(tmp_path, experiment):
    parameters, files = SMOKE[experiment]
    cfg = {"space": FULL2_SPACE, "experiment": experiment,
           "parameters": parameters, "seed": 0,
           "output_dir": str(tmp_path / "out")}
    _, manifest = run_ok(tmp_path, cfg, experiment)
    assert manifest["files"] == files


def test_status_file_belongs_to_the_last_run(tmp_path):
    # one output directory, three calls: fail, succeed, fail; a failed run
    # leaves no data file of the run before it
    out = tmp_path / "out"
    sweep = write_config(tmp_path, {
        "space": FULL2_SPACE, "experiment": "outer-sweep",
        "parameters": SMOKE["outer-sweep"][0], "seed": 0,
        "output_dir": str(out)})

    def call(subcommand):
        return CliRunner().invoke(main, [subcommand, "--config", sweep])

    assert call("entropy").exit_code == 1
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    assert call("outer-sweep").exit_code == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json",
                                                     "outer_sweep.csv"]
    assert call("pressure").exit_code == 1
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    err = json.loads((out / "error.json").read_text())
    assert err["operation"] == "pressure"


def test_a_run_removes_the_data_files_of_the_run_before(tmp_path):
    # two experiments succeed in turn in one directory: the second removes
    # what the first's manifest names, and keeps every other file
    out = tmp_path / "out"
    sweep = write_config(tmp_path, {
        "space": FULL2_SPACE, "experiment": "outer-sweep",
        "parameters": SMOKE["outer-sweep"][0], "seed": 0,
        "output_dir": str(out)}, "sweep.json")
    entropy = write_config(tmp_path, entropy_config(tmp_path), "entropy.json")
    assert CliRunner().invoke(main, ["outer-sweep", "--config",
                                     sweep]).exit_code == 0
    (out / "notes.txt").write_text("kept")
    assert CliRunner().invoke(main, ["entropy", "--config",
                                     entropy]).exit_code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "entropy.csv", "manifest.json", "notes.txt"]


@pytest.mark.parametrize("manifest", [
    "{not json", json.dumps([]), json.dumps({"files": "kept.csv"}),
    json.dumps({"files": ["../outside.csv", "sub/kept.csv", "sub", "",
                          ".", "..", "error.json", 7, None]}),
])
def test_stale_data_files_are_bare_names_of_a_parsed_manifest(tmp_path,
                                                               manifest):
    # a manifest that does not parse, or names a path, a directory or a
    # status file, removes none of them
    out = tmp_path / "out"
    (out / "sub").mkdir(parents=True)
    for path in (tmp_path / "outside.csv", out / "sub" / "kept.csv",
                 out / "kept.csv", out / "error.json"):
        path.write_text("kept")
    (out / "manifest.json").write_text(manifest)
    path = write_config(tmp_path, entropy_config(tmp_path))
    assert CliRunner().invoke(main, ["entropy", "--config",
                                     path]).exit_code == 0
    assert sorted(str(p.relative_to(tmp_path))
                  for p in tmp_path.rglob("*.csv")) == [
        "out/entropy.csv", "out/kept.csv", "out/sub/kept.csv", "outside.csv"]


def test_saturate_checks_the_top_level_built(tmp_path):
    # a config may list a net past l_max; the run checks level l_max, the
    # one it built, and writes what the config without that net writes
    extra = {"level": 2, "mesh": 1.0,
             "nodes": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}
    params = {**CONSTRUCT, "slack": 0.5}

    def data_files(nets, name):
        cfg = {"space": FULL2_SPACE, "experiment": "saturate",
               "parameters": {**params, "nets": nets}, "seed": 0,
               "output_dir": str(tmp_path / name)}
        result = CliRunner().invoke(main, [
            "saturate", "--config",
            write_config(tmp_path, cfg, f"{name}.json")])
        assert result.exit_code == 0, result.output
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                if p.name != "manifest.json"}

    top = data_files(CONSTRUCT["nets"], "top")
    assert data_files(CONSTRUCT["nets"] + [extra], "extra") == top
    report = json.loads(top["saturation.json"])
    assert report["level"] == 1 and report["unreachable"] is False


def test_default_eps_hat_reads_only_the_nets_built(tmp_path):
    # without eps_hat, a net past l_max does not set the last default
    # eps_hat: level l_max + 1 takes one node, as with no such net, and the
    # run writes what the config without that net writes
    extra = {"level": 2, "mesh": 0.5,
             "nodes": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                       [0.5, 0.5, 0.0]]}
    params = {k: v for k, v in CONSTRUCT.items() if k != "eps_hat"}

    def data_files(nets, name):
        cfg = {"space": FULL2_SPACE, "experiment": "construct",
               "parameters": {**params, "nets": nets}, "seed": 5,
               "output_dir": str(tmp_path / name)}
        result = CliRunner().invoke(main, [
            "construct", "--config",
            write_config(tmp_path, cfg, f"{name}.json")])
        assert result.exit_code == 0, result.output
        return {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()
                if p.name != "manifest.json"}

    top = data_files(CONSTRUCT["nets"], "top")
    assert data_files(CONSTRUCT["nets"] + [extra], "extra") == top
    itinerary = json.loads(top["itinerary.json"])
    assert itinerary["eps_hat"] == [0.5, 0.25 / 3, 0.125 / 2]
    assert len(itinerary["nets"]) == 2


# A fresh interpreter: the CLI, a config load of every experiment and the
# outer-sweep and Bernoulli emergence runs solve no LP; then the process's
# first LPs run on two pool threads at once, and a restricted probe and a
# saturation run solve LPs and build chains from their matrices.  No run
# imports a scipy subpackage: the LPs take HiGHS's extension module alone
# and the Perron solves take numpy's.
FRESH_PROCESS = """
import json, sys
import numpy as np
from emergence_lab import cli, config, measures
from emergence_lab.emergence import build_cloud, pairwise_w1
from emergence_lab.measures import MarkovMeasure, make_rng
from emergence_lab.sofic import PointPrefix, ShiftSpace

solves = []
linprog = measures.linprog
measures.linprog = lambda *args: solves.append(1) or linprog(*args)


def run(runs):
    for subcommand, path in runs:
        try:
            code = cli.main([subcommand, "--config", path, "--threads", "2"],
                            standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        assert code in (0, None), (subcommand, code)


configs, first, last = json.loads(sys.argv[1])
for path in configs:
    config.load_config(path)
run(first)
core = "scipy.optimize._highspy._core"
before = [name for name in sys.modules if name.startswith("scipy")]
full2 = ShiftSpace.full_shift(2)
x = PointPrefix(MarkovMeasure.bernoulli([0.3, 0.7], full2).sample(
    140, make_rng(5)))
snaps = build_cloud(x, 16, 128, 6, 3, full2).snapshots
two = pairwise_w1(snaps, 3, full2, threads=2)
one = pairwise_w1(snaps, 3, full2, threads=1)
pool_solves = len(solves)
run(last)
scipy = ["scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.special"]
print(json.dumps({"before": before,
                  "after": [name for name in scipy if name in sys.modules],
                  "core": core in sys.modules,
                  "solves": [pool_solves > 0, len(solves) > pool_solves],
                  "equal": bool(np.array_equal(one, two)),
                  "pairs": int(np.count_nonzero(np.triu(one, 1)))}))
"""


def test_fresh_process_loads_scipy_only_where_it_runs(tmp_path):
    def config_path(experiment, parameters, name):
        return write_config(tmp_path, {
            "space": FULL2_SPACE, "experiment": experiment,
            "parameters": parameters, "seed": 0,
            "output_dir": str(tmp_path / name)}, f"{name}.json")

    configs = [config_path(e, SMOKE[e][0], e) for e in EXPERIMENTS]
    first = [("outer-sweep", configs[EXPERIMENTS.index("outer-sweep")]),
             ("emergence", config_path("emergence", {
                 **SMALL_EMERGENCE,
                 "source": {"kind": "bernoulli", "probs": [0.5, 0.5]}},
                 "bernoulli"))]
    last = [(e, configs[EXPERIMENTS.index(e)])
            for e in ("restricted-probe", "saturate")]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", FRESH_PROCESS,
                           json.dumps([configs, first, last])],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert (tmp_path / "bernoulli" / "manifest.json").is_file()
    assert (tmp_path / "saturate" / "saturation.json").is_file()
    assert result == {"before": [], "after": [], "core": True,
                      "solves": [True, True], "equal": True, "pairs": 15}


def parsed(experiment, parameters):
    return validate_config({"space": FULL2_SPACE, "experiment": experiment,
                            "parameters": parameters, "seed": 0,
                            "output_dir": "x"}).parameters


def test_validate_config_fills_every_default():
    assert parsed("outer-sweep", {"kind": "entropy", "t_grid": [0.5],
                                  "depth_caps": [2]})["m_blk"] == 1
    pressure = parsed("pressure", {"table": {"1": 0, "2": 0.5}})
    assert pressure == {"kind": "pressure", "window": 1,
                        "table": {(1,): 0.0, (2,): 0.5},
                        "lengths": [8, 16, 24]}
    probe = parsed("restricted-probe", {k: v for k, v in PROBE.items()
                                        if k != "metric_depth"})
    assert (probe["kind"], probe["window"], probe["table"]) == ("entropy", 1,
                                                                None)
    assert probe["metric_depth"] == 6 and probe["word"] == (1,)
    construct = parsed("construct", {k: v for k, v in CONSTRUCT.items()
                                     if k not in ("metric_depth",
                                                  "eps_tilde")})
    assert construct["metric_depth"] == 6
    assert construct["length_cap"] == LENGTH_CAP
    assert construct["eps_tilde"] == default_eps_tilde(1)
    emergence = parsed("emergence", {**SMALL_EMERGENCE,
                                     "source": OSCILLATING})
    assert emergence["tail_fraction"] == 0.5
    assert emergence["source"] == {"kind": "oscillating",
                                   "probs_a": [0.2, 0.8],
                                   "probs_b": [0.8, 0.2],
                                   "first_block": 64, "growth": 2.0}


def test_validate_config_parses_schedule_keys():
    p = parsed("construct", CONSTRUCT)
    assert [m.dtype for m in p["family"]] == ["float64", "float64"]
    assert p["gamma"] == {(L, l): 32 for L in range(3) for l in range(L + 1)}
    assert p["nets"] == (SimplexNet(level=0, mesh=0.9, nodes=((1.0,),)),
                         SimplexNet(level=1, mesh=0.6, nodes=(
                             (1.0, 0.0), (0.5, 0.5), (0.0, 1.0))))
    assert (p["eps_tilde"], p["eps_hat"]) == ((0.9, 0.8, 0.7), (0.1,) * 3)
    absent = parsed("construct", {**CONSTRUCT, "gamma": None, "nets": None})
    assert absent["gamma"] is None and absent["nets"] is None


NET0, NET1 = CONSTRUCT["nets"]
FAMILY = CONSTRUCT["family"]


def config_of(experiment, parameters, space=FULL2_SPACE):
    return {"space": space, "experiment": experiment,
            "parameters": parameters, "seed": 0, "output_dir": "x"}


@pytest.mark.parametrize("config, pointer", [
    (config_of("entropy", {}, {**FULL2_SPACE,
                               "transition": [[1, 0], [1, 0]]}), "/space"),
    (config_of("pressure", {"table": {"1": 0.0, "x": 0.0}}),
     "/parameters/table/x"),
    (config_of("pressure", {"table": {"1": 0.0, "2": "high"}}),
     "/parameters/table/2"),
    (config_of("outer-sweep", {"kind": "entropy", "t_grid": [0.5, "a"],
                               "depth_caps": [2]}), "/parameters/t_grid/1"),
    (config_of("emergence", {**SMALL_EMERGENCE, "source": MARKOV,
                             "epsilons": [0.3, 0.0, -0.1]}),
     "/parameters/epsilons/1"),
    (config_of("pressure", {"table": {"1": 0.0, "2": 0.0},
                            "lengths": [4, 0]}), "/parameters/lengths/1"),
    (config_of("outer-sweep", {"kind": "entropy", "t_grid": [0.5],
                               "depth_caps": [2, -1]}),
     "/parameters/depth_caps/1"),
    (config_of("construct", {k: v for k, v in CONSTRUCT.items()
                             if k != "family"}), "/parameters/family"),
    (config_of("construct", {**CONSTRUCT, "family": []}),
     "/parameters/family"),
    (config_of("construct", {**CONSTRUCT, "family": [[["a", 0.8], [0.2, 0.8]],
                                                     FAMILY[1]]}),
     "/parameters/family/0"),
    (config_of("construct", {**CONSTRUCT, "family": [[[1.0]], FAMILY[1]]}),
     "/parameters/family/0"),
    (config_of("construct", {**CONSTRUCT,
                             "gamma": {**CONSTRUCT["gamma"], "x": 32}}),
     "/parameters/gamma/x"),
    (config_of("construct", {**CONSTRUCT, "nets": [NET0]}),
     "/parameters/nets"),
    (config_of("construct", {**CONSTRUCT, "nets": [5, NET1]}),
     "/parameters/nets/0"),
    (config_of("construct", {**CONSTRUCT, "nets": [{**NET0, "level": 1},
                                                   NET1]}),
     "/parameters/nets/0/level"),
    (config_of("construct", {**CONSTRUCT, "nets": [{**NET0, "mesh": 0},
                                                   NET1]}),
     "/parameters/nets/0/mesh"),
    (config_of("construct", {**CONSTRUCT, "nets": [{**NET0, "nodes": []},
                                                   NET1]}),
     "/parameters/nets/0/nodes"),
    (config_of("emergence", {**SMALL_EMERGENCE, "source": {
        "kind": "bernoulli", "probs": [1.0]}}), "/parameters/source/probs"),
    (config_of("emergence", {**SMALL_EMERGENCE, "source": {"kind": "levy"}}),
     "/parameters/source/kind"),
    (config_of("emergence", {**SMALL_EMERGENCE, "source": {
        **OSCILLATING, "growth": 1.0}}), "/parameters/source/growth"),
    (config_of("bowen", {"table": {"1": 1.0, "2": 0.0}}), "/parameters/table"),
    (config_of("emergence", {**SMALL_EMERGENCE, "source": MARKOV,
                             "tail_fraction": 1.5}),
     "/parameters/tail_fraction"),
    (config_of("emergence", {**SMALL_EMERGENCE, "source": MARKOV,
                             "tail_fraction": 0}),
     "/parameters/tail_fraction"),
    (config_of("construct", {**CONSTRUCT, "eps_tilde": [0.9, 0.8]}),
     "/parameters/eps_tilde"),
    (config_of("construct", {**CONSTRUCT, "eps_hat": [0.1, 0.1]}),
     "/parameters/eps_hat"),
    (config_of("saturate", {**CONSTRUCT, "slack": -0.1}), "/parameters/slack"),
    *[(config_of("restricted-probe", {**PROBE, "word": word}),
       "/parameters/word") for word in ([], [1.5], [True])],
    *[(config_of("restricted-probe", {**PROBE, key: -0.1}),
       f"/parameters/{key}") for key in ("eps", "t")],
    ([], "/"),
])
def test_validate_config_names_each_violation(config, pointer):
    with pytest.raises(ConfigError) as ei:
        validate_config(config)
    assert [p for p, _ in ei.value.violations] == [pointer]
