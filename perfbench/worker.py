"""One workload in a fresh process: set-up, timed passes, oracle checks.

    python3 worker.py SPEC.json

SPEC.json is written by run.py.  Set-up is everything from process start to
the first experiment: interpreter start, importing emergence_lab and loading
and validating every config.  A pass runs each experiment once through the
public CLI (`emergence_lab.cli.main`); its wall time is the sum of the CLI
calls, without the oracle checks that follow each call.  Before and after
every call the speed probe (speed.py) runs, untimed, so that the run's times
can be scaled to a fixed machine speed.  The result goes to the JSON file
named in the spec.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed


def environment():
    import importlib.util
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
            "nproc": os.cpu_count(), "cpu": cpu}


class Run:
    def __init__(self, spec, cli):
        self.spec = spec
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.probes = []
        self.pass_variants = []

    def experiments(self, variant):
        return [e for e in self.spec["experiments"]
                if e["variant"] == variant]

    def operation(self, fails):
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages.extend(fails[:3])

    def call(self, exp, threads):
        argv = [exp["sub"], "--config", exp["config"],
                "--threads", str(threads)]
        t = time.perf_counter()
        try:
            self.cli.main(argv, standalone_mode=False)
            rc = 0
        except SystemExit as exc:
            rc = exc.code
        except Exception:               # a crash is a failed operation
            rc = traceback.format_exc(limit=3)
        return time.perf_counter() - t, rc

    def passes(self, budget, min_passes, threads=None, variant=None):
        """Run passes until the next one would end past `budget` seconds.

        Each pass runs one input variant: `variant`, or else the variants
        in turn.  Only variant 0 is checked against the reference."""
        import workloads
        times = []
        begin = time.monotonic()
        while True:
            v = (len(self.pass_variants) % self.spec["variants"]
                 if variant is None else variant)
            self.pass_variants.append(v)
            ref = self.spec["reference"] if v == 0 else None
            total = 0.0
            for exp in self.experiments(v):
                self.probes.append(speed.probe())
                dt, rc = self.call(exp, threads or exp["threads"])
                self.probes.append(speed.probe())
                total += dt
                if rc != 0:
                    self.operation([f"{exp['label']}: CLI exit {rc}"])
                    continue
                try:
                    self.operation(workloads.check_output(
                        self.spec["workload"], exp["label"], exp["cfg"],
                        exp["out"], ref))
                except Exception:       # unreadable output fails the check
                    self.operation([f"{exp['label']}: "
                                    + traceback.format_exc(limit=2)])
            times.append(total)
            spent = time.monotonic() - begin
            if (len(times) >= min_passes
                    and spent + statistics.median(times) > budget):
                return times

    def data_digest(self):
        """sha256 of every data file variant 0 wrote (manifests aside)."""
        out = {}
        for exp in self.experiments(0):
            for f in sorted(Path(exp["out"]).iterdir()):
                if f.name != "manifest.json" and not f.name.startswith("."):
                    out[f"{exp['label']}/{f.name}"] = hashlib.sha256(
                        f.read_bytes()).hexdigest()
        return out

    def compare_data(self, before, label):
        after = self.data_digest()
        diff = sorted(k for k in before.keys() | after.keys()
                      if before.get(k) != after.get(k))
        self.operation([f"{label}: data files differ: {diff}"] if diff else [])

    def end_checks(self):
        """Checks too costly to repeat each pass: the orbits that input
        variant 0 constructed."""
        import workloads
        if self.spec["workload"] != "construct-saturate":
            return
        for exp in self.experiments(0):
            try:
                self.operation(workloads.check_orbit(
                    exp["label"], exp["cfg"], exp["out"],
                    self.spec["reference"]))
            except Exception:
                self.operation([f"{exp['label']}: "
                                + traceback.format_exc(limit=2)])


def untraced(run, seconds):
    times = run.passes(seconds, min_passes=1)
    return {"pass_s": times, "pass_variant": run.pass_variants,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def traced(run, seconds):
    """Untraced and traced passes in turn, so that drift in machine speed
    reaches both alike; the data files must not change.

    Workloads with a threaded experiment add one traced single-threaded
    pass for the pool's scaling efficiency.  Every pass runs input variant
    0, so that the counts repeat exactly from run to run.
    """
    import tracing
    spec = run.spec
    tracer = tracing.Tracer(spec["run_id"])
    plain, traced_s, digest = [], [], None
    begin = time.monotonic()
    while (not plain or time.monotonic() - begin + statistics.median(plain)
           + statistics.median(traced_s) <= 0.8 * seconds):
        plain += run.passes(0.0, min_passes=1, variant=0)
        digest = digest or run.data_digest()
        tracer.install()
        try:
            traced_s += run.passes(0.0, min_passes=1, variant=0)
        finally:
            tracer.uninstall()
    run.compare_data(digest, "traced passes")
    metrics = tracing.layer_metrics(tracer.spans, len(traced_s))
    tracer.write(spec["spans"], "traced")

    eff = 0.0
    if any(e["sub"] == "emergence" and e["threads"] > 1
           for e in spec["experiments"]):
        single = tracing.Tracer(spec["run_id"])
        single.install()
        try:
            run.passes(0.0, min_passes=1, threads=1, variant=0)
        finally:
            single.uninstall()
        run.compare_data(digest, "single-threaded pass")
        single.write(spec["spans"], "single-thread")
        t1 = tracing.layer_metrics(single.spans, 1)[
            "emergence.pairwise_w1.busy_s"][0]
        t2 = metrics["emergence.pairwise_w1.busy_s"][0]
        eff = t1 / (2.0 * t2) if t2 > 0 else 0.0
    metrics["emergence.pairwise_w1.scaling_eff"] = (eff, "ratio")
    base = statistics.median(plain)
    metrics["trace.overhead_ratio"] = (
        (statistics.median(traced_s) - base) / base, "ratio")
    return {"metrics": metrics, "pass_s": plain, "traced_pass_s": traced_s}


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    from emergence_lab import cli, config
    for exp in spec["experiments"]:
        config.load_config(exp["config"])
    result = {"setup_s": time.monotonic() - spec["t0"]}
    if spec["mode"] == "setup":
        result["probe_after_s"] = speed.probe(speed.SETUP_REPS)
    if spec["mode"] == "run":
        run = Run(spec, cli)
        if spec["trace"]:
            result.update(traced(run, spec["seconds"]))
        else:
            result.update(untraced(run, spec["seconds"]))
        result["probe_s"] = run.probes
        run.end_checks()
        if spec.get("record"):
            import workloads
            result["reference"] = {
                e["label"]: workloads.reference_entry(
                    spec["workload"], e["label"], e["cfg"], e["out"],
                    spec["size"])
                for e in run.experiments(0)}
        result.update(attempted=run.attempted, failed=run.failed,
                      messages=run.messages[:20], env=environment())
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1])
