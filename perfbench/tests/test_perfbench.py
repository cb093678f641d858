"""The benchmark's own tests, at the tiny size.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                         cwd=cwd, capture_output=True, text=True, timeout=170)
    return out


def result(*args):
    out = bench(*args)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_workload_emits_every_metric(name, trace):
    res, text = result("--workload", name, "--seed", "0", "--seconds", "1",
                       "--trace", str(trace), "--tiny")
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, text
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_wrong_reference_raises_fail_ratio(tmp_path):
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    ref["tiny"]["restricted-probe"]["probe"]["value"] *= 1.001
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref), encoding="utf-8")
    res, text = result("--workload", "restricted-probe", "--seed", "0",
                       "--seconds", "1", "--trace", "0", "--tiny",
                       "--reference", str(path))
    assert not res["correct"]
    # only input variant 0 is the reference input
    assert 1 <= res["failed"] <= res["attempted"]
    assert "!= reference" in text


@pytest.mark.parametrize("name", workloads.NAMES)
def test_non_default_seed_runs_clean(name):
    res, text = result("--workload", name, "--seed", "7", "--seconds", "1",
                       "--trace", "0", "--tiny")
    assert res["correct"] and res["failed"] == 0, text


def test_seed_determines_configs():
    for name in workloads.NAMES:
        assert workloads.experiments(name, 7) == workloads.experiments(name, 7)
        assert workloads.experiments(name, 7) != workloads.experiments(name, 0)


def test_input_variants_differ_and_variant_0_is_the_seed_configs():
    for name in workloads.NAMES:
        inputs = workloads.inputs(name, 0)
        by_variant = {}
        for v, label, sub, cfg, threads in inputs:
            by_variant.setdefault(v, []).append((label, sub, cfg, threads))
        assert len(by_variant) == workloads.VARIANTS["full"]
        assert by_variant[0] == workloads.experiments(name, 0)
        configs = [[c for _, _, c, _ in exps] for exps in by_variant.values()]
        assert all(c != configs[0] for c in configs[1:])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "outer-sweep", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""


def test_wall_s_is_the_mean_pass_at_reference_speed():
    ref = speed.REF_S
    assert run.scaled_wall([1.0, 3.0], [0, 0], [ref, ref]) == \
        pytest.approx(2.0)
    # a run at half the reference speed reads as one at full speed
    assert run.scaled_wall([2.0, 6.0], [0, 0], [2 * ref] * 3) == \
        pytest.approx(2.0)
    # each input variant weighs the same
    assert run.scaled_wall([1.0, 1.0, 1.0, 4.0], [0, 0, 0, 1], [ref]) == \
        pytest.approx(2.5)


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(40)]) == (29.0, 75.0)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_self_time_subtracts_the_union_of_children():
    spans = [{"id": 1, "parent": None, "start": 0.0, "end": 10.0},
             {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
             {"id": 3, "parent": 1, "start": 2.0, "end": 5.0},
             {"id": 4, "parent": 3, "start": 2.0, "end": 3.0}]
    own = tracing.self_times(spans)
    assert own == {1: 6.0, 2: 3.0, 3: 2.0, 4: 1.0}
