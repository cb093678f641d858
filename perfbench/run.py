"""emergence-lab benchmark: CLI workloads timed end to end, and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seconds S] [--trace 0|1]

Run from the repository root; the package is imported from ./src.  The
benchmark writes its configs, the CLI outputs, spans and results under
perfbench/_work/.  Each run generates its configs from the seed, measures the
set-up of several fresh processes, then runs passes of the workload's CLI
experiments in one fresh process for S seconds, checking every output.

The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones
(wall_s, setup_s, peak_rss_mb); with --trace 1 they are the
per-layer ones from the traced run.  README.md explains the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent

DEADLINE_S = 170            # every run ends within the 180 s limit
TAIL_BEYOND = 10            # samples beyond the reported tail percentile
SETUPS = 7                  # fresh set-up processes per run


def scaled_wall(passes, variants, probes):
    """Mean pass time at the reference speed.  Each input variant weighs the
    same, whatever number of its passes the run fitted in; the speed is the
    run's mean probe time, a ratio of sums over the whole run, so that the
    probes, taken between calls, sample the same mix of fast and slow phases
    as the passes."""
    by_variant = {}
    for t, v in zip(passes, variants):
        by_variant.setdefault(v, []).append(t)
    return speed.scale(
        statistics.fmean(statistics.fmean(ts) for ts in by_variant.values()),
        statistics.fmean(probes))


def scaled_setup(setups, probes):
    """Median set-up time at the reference speed, each set-up scaled by the
    probes just before its process started and just after its set-up."""
    return statistics.median(speed.scale(t, p)
                             for t, p in zip(setups, probes))


def tail(times):
    """The highest order statistic with TAIL_BEYOND samples beyond it, but
    never below the median; returns (value, percentile rank)."""
    xs = sorted(times)
    k = len(xs) - 1 - TAIL_BEYOND
    med = statistics.median(xs)
    if k < 0 or xs[k] < med:
        return med, 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def _worker(spec, spec_path, deadline):
    spec["t0"] = time.monotonic()
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("no time left for the worker")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                   cwd=Path.cwd(), stdout=subprocess.DEVNULL, check=True,
                   timeout=timeout)
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def run_workload(name, seed, seconds, trace, size="full", reference=None,
                 record=False):
    deadline = time.monotonic() + DEADLINE_S
    work = HERE / "_work" / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    exps = []
    for variant, label, sub, cfg, threads in workloads.inputs(name, seed,
                                                              size):
        out = work / "out" / label
        cfg = {**cfg, "output_dir": str(out)}
        path = work / "configs" / f"{label}.json"
        path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        exps.append({"label": label, "variant": variant, "sub": sub,
                     "config": str(path), "out": str(out),
                     "threads": threads, "cfg": cfg})
    ref = None
    if seed == workloads.DEFAULT_SEED and not record:
        ref_path = Path(reference) if reference else HERE / "reference.json"
        ref = json.loads(ref_path.read_text(encoding="utf-8"))[size][name]
    run_id = f"{name}-{seed}-{os.getpid()}-{time.time_ns()}"
    spec = {"src": str(Path.cwd() / "src"), "experiments": exps,
            "workload": name, "seed": seed, "size": size,
            "variants": workloads.VARIANTS[size],
            "seconds": seconds, "trace": trace, "reference": ref,
            "record": record, "run_id": run_id,
            "spans": str(work / "spans.jsonl"),
            "result": str(work / "result.json")}

    # set-up several times: fresh processes that stop before the first
    # experiment (the measuring process's own is kept in result.json)
    setups, setup_probes = [], []
    for i in range(2 if size == "tiny" else SETUPS):
        before = speed.probe(speed.SETUP_REPS)
        res = _worker({**spec, "mode": "setup",
                       "result": str(work / f"setup{i}.json")},
                      work / f"setup{i}.spec.json", deadline)
        setups.append(res["setup_s"])
        setup_probes.append((before + res["probe_after_s"]) / 2)
    res = _worker({**spec, "mode": "run"}, work / "run.spec.json", deadline)
    res["setup_samples_s"] = setups
    res["setup_probe_s"] = setup_probes
    res["run_id"] = run_id
    (work / "result.json").write_text(json.dumps(res, indent=2),
                                      encoding="utf-8")

    passes = res["pass_s"]
    if trace:
        metrics = res["metrics"]
    else:
        metrics = {"wall_s": (scaled_wall(passes, res["pass_variant"],
                                          res["probe_s"]), "s"),
                   "setup_s": (scaled_setup(setups, res["setup_probe_s"]),
                               "s"),
                   "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    return res, metrics


def report(name, seed, trace, res, metrics):
    """Human-readable lines for one run (the JSON result line comes last)."""
    passes = res["pass_s"]
    print(f"perfbench {name} seed={seed} trace={trace}")
    for key, (val, unit) in metrics.items():
        note = ""
        if key == "wall_s":
            note = (f"  mean of {len(passes)} passes over "
                    f"{len(set(res['pass_variant']))} input variants, "
                    "at reference speed")
        elif key == "setup_s":
            note = (f"  median of {len(res['setup_samples_s'])} set-ups, "
                    "at reference speed")
        print(f"  {key:44s} {val:14.6g} {unit}{note}")
    if not trace:
        tail_s, rank = tail(passes)
        print(f"  {'wall_median_s':44s} {statistics.median(passes):14.6g} s"
              f"  median of {len(passes)} passes, as measured")
        print(f"  {'wall_tail_s':44s} {tail_s:14.6g} s  p{rank:.0f} of "
              f"{len(passes)} passes ({TAIL_BEYOND} or more beyond it, "
              "else the median), as measured")
        print(f"  {'setup_median_s':44s} "
              f"{statistics.median(res['setup_samples_s']):14.6g} s  "
              f"median of {len(res['setup_samples_s'])} set-ups, as measured")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':44s} {ratio:14.6g} ratio  "
          f"{res['failed']}/{res['attempted']} operations")
    probe = statistics.fmean(res["probe_s"])
    print(f"  calibration_s {probe:.6g}  mean of {len(res['probe_s'])} speed "
          f"probes; speed factor {speed.REF_S / probe:.4g} of the reference")
    print(f"  env {json.dumps(res['env'])}")
    for msg in res["messages"]:
        print(f"  FAIL {msg}")


def run_all(args):
    """Every workload in turn, each in its own benchmark process."""
    rows = []
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             check=True).stdout
        print(out, end="")
        rows.append((name, json.loads(out.strip().splitlines()[-1])))
    first = rows[0][1]["metrics"]
    print("\n" + f"{'metric':44s}{'unit':>7s}"
          + "".join(f"{name:>20s}" for name, _ in rows))
    for key in first:
        print(f"{key:44s}{first[key]['unit']:>7s}"
              + "".join(f"{res['metrics'][key]['value']:20.6g}"
                        for _, res in rows))
    print(f"{'fail_ratio':44s}{'ratio':>7s}"
          + "".join(f"{res['failed'] / res['attempted']:20.6g}"
                    for _, res in rows))
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.NAMES)
    ap.add_argument("--all", action="store_true",
                    help="run every workload and print a table")
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    ap.add_argument("--reference", help="reference values to check against "
                    "(default: perfbench/reference.json)")
    ap.add_argument("--write-reference", action="store_true",
                    help="record this commit's outputs at the default seed "
                    "into perfbench/reference.json")
    args = ap.parse_args(argv)
    if not (Path.cwd() / "src" / "emergence_lab" / "cli.py").is_file():
        print("perfbench: run from the repository root; "
              "src/emergence_lab not found", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    size = "tiny" if args.tiny else "full"
    if args.write_reference:
        return write_reference(args.workload, size)
    res, metrics = run_workload(args.workload, args.seed, args.seconds,
                                args.trace, size, args.reference)
    report(args.workload, args.seed, args.trace, res, metrics)
    print(json.dumps({
        "correct": res["failed"] == 0, "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def write_reference(name, size):
    res, _ = run_workload(name, workloads.DEFAULT_SEED, 0.0, 0, size,
                          record=True)
    if res["failed"]:
        print("\n".join(res["messages"]), file=sys.stderr)
        return 1
    path = HERE / "reference.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data.setdefault(size, {})[name] = {
        k: v for k, v in res["reference"].items() if v is not None}
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
