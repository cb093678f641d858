"""Batch experiment runner.

emergence-lab <subcommand> --config <path> [--threads N] [--out DIR]

Each subcommand loads a JSON config, runs one experiment, and writes its
outputs atomically (temp file + rename) into the config's output directory.
A run manifest listing every produced file is written last; on any error the
output directory receives only a machine-readable error JSON.
"""

from __future__ import annotations

import datetime
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import click
import numpy as np

from . import carath, config as config_mod, constructor, emergence, measures, sofic
from .errors import EmergenceLabError, InputError

ARTIFACT_VERSION = "1.0"


def _resolve_threads(flag):
    if flag is not None:
        return max(1, int(flag))
    env = os.environ.get("EMERGENCE_THREADS")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            raise InputError(f"EMERGENCE_THREADS is not an integer: {env!r}",
                             module="cli", operation="threads")
    return max(1, os.cpu_count() or 1)


def _atomic_write(directory, name, data):
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(data)
        os.replace(tmp, directory / name)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return name


def _fmt(value):
    return f"{float(value):.17g}"


def _csv(header, rows):
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _markov_family(cfg):
    mats = cfg.parameters["family"]
    return constructor.MeasureFamily(measures=tuple(
        measures.MarkovMeasure(np.asarray(m, dtype=np.float64), cfg.space)
        for m in mats))


def _table(cfg):
    return {tuple(int(s) for s in k.split(",")): float(v)
            for k, v in cfg.parameters["table"].items()}


def _structure(cfg):
    kind = cfg.parameters.get("kind") or "entropy"
    window = int(cfg.parameters.get("window") or 1)
    table = _table(cfg) if kind in ("pressure", "appendix") else None
    return carath.CStructure(kind=kind, window=window, table=table,
                             space=cfg.space)


# ---------------------------------------------------------------- experiments

def _run_entropy(cfg, threads):
    h = sofic.topological_entropy(cfg.space)
    rows = [[str(cfg.space.m), _fmt(cfg.space.beta), _fmt(h)]]
    return {"entropy.csv": _csv(["m", "beta", "topological_entropy"], rows)}


def _run_pressure(cfg, threads):
    table = _table(cfg)
    window = int(cfg.parameters.get("window") or 1)
    lengths = sorted(int(n) for n in cfg.parameters.get("lengths", [8, 16, 24]))
    exact = carath.pressure_exact(cfg.space, table, window=window)
    s = carath.CStructure(kind="pressure", space=cfg.space, window=window,
                          table=table)
    rows = []
    for n in lengths:
        part = carath.pressure_partition(s, n)
        rows.append([str(n), _fmt(part), _fmt(exact)])
    return {"pressure.csv": _csv(["n", "partition_estimate", "exact"], rows)}


def _run_bowen(cfg, threads):
    table = _table(cfg)
    window = int(cfg.parameters.get("window") or 1)
    root = carath.bowen_dimension(cfg.space, table, window=window)
    h = sofic.topological_entropy(cfg.space)
    return {"bowen.csv": _csv(["topological_entropy", "bowen_root"],
                              [[_fmt(h), _fmt(root)]])}


def _run_outer_sweep(cfg, threads):
    s = _structure(cfg)
    m_blk = int(cfg.parameters.get("m_blk", 1))
    rows = []
    for t in sorted(cfg.parameters["t_grid"]):
        for cap in sorted(cfg.parameters["depth_caps"]):
            cap_n = m_blk * ((cap + m_blk - 1) // m_blk)
            m_val = carath.outer_measure_M(s, "X", float(t), cap)
            n_val = carath.outer_measure_N(s, "X", float(t), m_blk, cap_n)
            rows.append([_fmt(t), str(cap), _fmt(m_val), _fmt(n_val)])
    return {"outer_sweep.csv": _csv(["t", "depth_cap", "M", "N"], rows)}


def _emergence_source(cfg):
    src = cfg.parameters["source"]
    n_need = int(cfg.parameters["n_max"]) + int(cfg.parameters["depth"]) - 1
    rng = measures.make_rng(cfg.seed)
    if src["kind"] == "bernoulli":
        mu = measures.MarkovMeasure.bernoulli(src["probs"], cfg.space)
        return sofic.PointPrefix(mu.sample(n_need, rng))
    if src["kind"] == "markov":
        mu = measures.MarkovMeasure(
            np.asarray(src["stochastic_list"][0], dtype=np.float64), cfg.space)
        return sofic.PointPrefix(mu.sample(n_need, rng))
    if src["kind"] == "oscillating":
        mu_a = measures.MarkovMeasure.bernoulli(src["probs_a"], cfg.space)
        mu_b = measures.MarkovMeasure.bernoulli(src["probs_b"], cfg.space)
        return constructor.oscillating_orbit(
            mu_a, mu_b, n_need, cfg.seed,
            first_block=int(src.get("first_block", 64)),
            growth=float(src.get("growth", 2.0)))
    raise InputError(f"unknown source kind {src['kind']!r}",
                     module="cli", operation="emergence")


def _run_emergence(cfg, threads):
    p = cfg.parameters
    x = _emergence_source(cfg)
    cloud = emergence.build_cloud(x, int(p["n_min"]), int(p["n_max"]),
                                  int(p["count"]), int(p["depth"]), cfg.space)
    report = emergence.emergence_report(cloud, tuple(p["epsilons"]),
                                        tail_fraction=float(
                                            p.get("tail_fraction", 0.5)),
                                        threads=threads)
    return {"emergence.csv": report.to_csv(), "fit.json": report.to_json()}


def _build_from_config(cfg):
    p = cfg.parameters
    family = _markov_family(cfg)
    l_max = int(p["l_max"])
    eps_tilde = tuple(p.get("eps_tilde") or
                      constructor.default_eps_tilde(l_max))
    nets = None
    if p.get("nets") is not None:
        nets = tuple(constructor.SimplexNet(
            level=int(nd["level"]), mesh=float(nd["mesh"]),
            nodes=tuple(tuple(float(v) for v in node) for node in nd["nodes"]))
            for nd in p["nets"])
    else:
        nets = tuple(constructor.simplex_net(L, eps_tilde[L])
                     for L in range(l_max + 1))
    eps_hat = tuple(p.get("eps_hat") or
                    constructor.default_eps_hat(l_max, nets))
    metric_depth = int(p.get("metric_depth", 6))
    if p.get("gamma") is not None:
        gamma = {tuple(int(v) for v in k.split(",")): int(n)
                 for k, n in p["gamma"].items()}
    else:
        gamma = constructor.estimate_gamma_thresholds(
            family, l_max, eps_tilde, eps_hat, cfg.seed,
            metric_depth=metric_depth)
    itinerary = constructor.block_schedule(
        family, l_max, eps_tilde, eps_hat, gamma, nets=nets,
        length_cap=int(p.get("length_cap", 2 ** 27)))
    orbit = constructor.build_orbit(itinerary, family, cfg.space, cfg.seed,
                                    metric_depth=metric_depth)
    return family, itinerary, orbit, metric_depth


def _run_construct(cfg, threads):
    family, itinerary, orbit, _ = _build_from_config(cfg)
    rows = [[str(L), str(j), str(l), str(start), str(end)]
            for (L, j, l, start, end) in orbit.block_map]
    return {"itinerary.json": itinerary.to_json(),
            "orbit.json": orbit.to_json(),
            "blocks.csv": _csv(["level", "group", "component", "start", "end"],
                               rows)}


def _run_saturate(cfg, threads):
    family, itinerary, orbit, metric_depth = _build_from_config(cfg)
    net = itinerary.nets[-1]
    report = constructor.verify_saturation(orbit, net, family,
                                           float(cfg.parameters["slack"]),
                                           metric_depth=metric_depth)
    return {"saturation.json": report.to_json(),
            "orbit.json": orbit.to_json()}


def _run_conditions(cfg, threads):
    s = _structure(cfg)
    report = carath.check_conditions(s, int(cfg.parameters["depth"]),
                                     tuple(cfg.parameters["t_grid"]))
    return {"conditions.json": json.dumps(report.to_json(), indent=2,
                                          sort_keys=True)}


def _run_restricted_probe(cfg, threads):
    p = cfg.parameters
    mu = measures.MarkovMeasure(
        np.asarray(p["stochastic_list"][0], dtype=np.float64), cfg.space)
    z = tuple(int(s) for s in p["word"])
    val = carath.restricted_outer_measure(
        _structure(cfg), z, mu, int(p["n"]), float(p["eps"]), float(p["t"]),
        int(p["m_blk"]), int(p["depth_cap"]),
        metric_depth=int(p.get("metric_depth", 6)))
    out = {"value": val, "n": int(p["n"]), "eps": float(p["eps"]),
           "t": float(p["t"]), "m_blk": int(p["m_blk"]),
           "depth_cap": int(p["depth_cap"])}
    return {"restricted_probe.json": json.dumps(out, indent=2, sort_keys=True)}


_RUNNERS = {
    "entropy": _run_entropy,
    "pressure": _run_pressure,
    "bowen": _run_bowen,
    "outer-sweep": _run_outer_sweep,
    "emergence": _run_emergence,
    "construct": _run_construct,
    "saturate": _run_saturate,
    "conditions": _run_conditions,
    "restricted-probe": _run_restricted_probe,
}


def _execute(subcommand, config_path, threads_flag, out_override):
    out_dir = None
    try:
        threads = _resolve_threads(threads_flag)
        cfg = config_mod.load_config(config_path)
        out_dir = Path(out_override) if out_override else cfg.output_dir
        if cfg.experiment != subcommand:
            raise InputError(
                f"config experiment {cfg.experiment!r} does not match "
                f"subcommand {subcommand!r}",
                module="cli", operation=subcommand)
        started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        outputs = _RUNNERS[subcommand](cfg, threads)
        finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
        files = sorted(outputs)
        for name in files:
            _atomic_write(out_dir, name, outputs[name])
        manifest = {
            "artifact_version": ARTIFACT_VERSION,
            "config_sha256": cfg.sha256(),
            "experiment": cfg.experiment,
            "seed": cfg.seed,
            "started": started,
            "finished": finished,
            "files": files,
        }
        _atomic_write(out_dir, "manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True))
        return 0
    except EmergenceLabError as exc:
        payload = json.dumps(exc.to_json(), indent=2, sort_keys=True)
        target = out_dir if out_dir is not None else (
            Path(out_override) if out_override else None)
        if target is not None:
            try:
                _atomic_write(target, "error.json", payload)
            except OSError:
                pass
        click.echo(payload, err=True)
        return 1


@click.group()
def main():
    """Batch experiments for orbit emergence and dimension structures."""


_HELP = {
    "entropy": "Topological entropy of the configured shift space.",
    "pressure": "Partition-sum pressure estimates against the exact value.",
    "bowen": "Root of the pressure equation for a positive potential.",
    "outer-sweep": "Outer measures M and block-restricted N over a (t, depth) grid.",
    "emergence": "Covering-number brackets and exponent fit for one orbit.",
    "construct": "Build a scheduled block orbit and write its layout.",
    "saturate": "Build an orbit and verify its empirical sweep of the top net.",
    "conditions": "Numeric diagnostics for the structure's weight conditions.",
    "restricted-probe": "Outer measure restricted to measure-tracking cylinders.",
}


def _register(name):
    @main.command(name=name, help=_HELP[name])
    @click.option("--config", "config_path", required=True,
                  type=click.Path(), help="Path to the experiment JSON config.")
    @click.option("--threads", type=int, default=None,
                  help="Worker threads (overrides EMERGENCE_THREADS).")
    @click.option("--out", "out_override", type=click.Path(), default=None,
                  help="Override the config's output directory.")
    def _cmd(config_path, threads, out_override, _name=name):
        sys.exit(_execute(_name, config_path, threads, out_override))
    _cmd.__name__ = f"cmd_{name.replace('-', '_')}"
    return _cmd


for _name in config_mod.EXPERIMENTS:
    _register(_name)


@main.command(name="validate")
@click.option("--config", "config_path", required=True, type=click.Path())
def _cmd_validate(config_path):
    """Validate a config file; report every violation with its location."""
    try:
        cfg = config_mod.load_config(config_path)
    except EmergenceLabError as exc:
        click.echo(json.dumps(exc.to_json(), indent=2, sort_keys=True), err=True)
        sys.exit(1)
    click.echo(json.dumps({"valid": True, "experiment": cfg.experiment,
                           "config_sha256": cfg.sha256()},
                          indent=2, sort_keys=True))
    sys.exit(0)


if __name__ == "__main__":
    main()
