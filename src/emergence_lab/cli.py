"""Batch experiment runner.

emergence-lab <subcommand> --config <path> [--threads N] [--out DIR]

Each subcommand loads a JSON config, runs one experiment, and writes its
outputs atomically (temp file + rename) into the config's output directory.
`--threads` sets the workers of the pairwise W1 pool, by default the CPU
count; results are the same at any count.
Config validation returns the parsed parameters, typed and with every
default filled in; a runner reads `cfg.parameters` and nothing else.
A run manifest listing every produced file is written last; on any error the
output directory receives only a machine-readable error JSON.  A run removes
the other status file an earlier run left, and the data files that the
earlier run's manifest names and this run does not write, so the
directory's status file and data files always belong to its last run.
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

from . import carath, config as config_mod, constructor, emergence, measures, sofic
from .errors import EmergenceLabError, InputError

ARTIFACT_VERSION = "1.0"


def _resolve_threads(flag):
    """Worker threads: the --threads flag, else the CPU count; a flag below
    1 raises InputError."""
    if flag is None:
        return max(1, os.cpu_count() or 1)
    if flag < 1:
        raise InputError(f"--threads must be >= 1, got {flag}",
                         module="cli", operation="threads")
    return flag


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


def _remove_stale(directory, keep):
    """Remove the files that the directory's manifest names and `keep` does
    not: bare file names only, never a status file, and none at all if the
    manifest is missing or does not parse."""
    try:
        names = json.loads((directory / "manifest.json").read_bytes())["files"]
    except (OSError, ValueError, TypeError, KeyError):
        return
    for name in names if isinstance(names, list) else ():
        if (isinstance(name, str) and name == Path(name).name
                and name not in ("manifest.json", "error.json", *keep)
                and (directory / name).is_file()):
            (directory / name).unlink()


def _fmt(value):
    return f"{float(value):.17g}"


def _csv(header, rows):
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def _structure(cfg):
    p = cfg.parameters
    return carath.CStructure(kind=p["kind"], window=p["window"],
                             table=p["table"], space=cfg.space)


# ---------------------------------------------------------------- experiments

def _run_entropy(cfg, threads):
    h = sofic.topological_entropy(cfg.space)
    rows = [[str(cfg.space.m), _fmt(cfg.space.beta), _fmt(h)]]
    return {"entropy.csv": _csv(["m", "beta", "topological_entropy"], rows)}


def _run_pressure(cfg, threads):
    s = _structure(cfg)
    exact = carath.pressure_exact(s)
    rows = [[str(n), _fmt(carath.pressure_partition(s, n)), _fmt(exact)]
            for n in sorted(cfg.parameters["lengths"])]
    return {"pressure.csv": _csv(["n", "partition_estimate", "exact"], rows)}


def _run_bowen(cfg, threads):
    root = carath.bowen_dimension(_structure(cfg))
    h = sofic.topological_entropy(cfg.space)
    return {"bowen.csv": _csv(["topological_entropy", "bowen_root"],
                              [[_fmt(h), _fmt(root)]])}


def _run_outer_sweep(cfg, threads):
    s = _structure(cfg)
    m_blk = cfg.parameters["m_blk"]
    cells = [(t, cap) for t in sorted(cfg.parameters["t_grid"])
             for cap in sorted(cfg.parameters["depth_caps"])]
    grid = []   # M at each cap, then N at the cap rounded up to m_blk
    for t, cap in cells:
        cap_n = m_blk * ((cap + m_blk - 1) // m_blk)
        grid += [(t, 1, cap), (t, m_blk, cap_n)]
    vals = carath.outer_measures(s, "X", grid)
    rows = [[_fmt(t), str(cap), _fmt(m_val), _fmt(n_val)]
            for (t, cap), m_val, n_val in zip(cells, vals[::2], vals[1::2])]
    return {"outer_sweep.csv": _csv(["t", "depth_cap", "M", "N"], rows)}


def _emergence_source(cfg):
    p = cfg.parameters
    src = p["source"]
    n_need = p["n_max"] + p["depth"] - 1
    if src["kind"] == "oscillating":
        mu_a, mu_b = (measures.MarkovMeasure.bernoulli(src[key], cfg.space)
                      for key in ("probs_a", "probs_b"))
        return constructor.oscillating_orbit(mu_a, mu_b, n_need, cfg.seed,
                                             src["first_block"], src["growth"])
    mu = (measures.MarkovMeasure.bernoulli(src["probs"], cfg.space)
          if src["kind"] == "bernoulli"
          else measures.MarkovMeasure(src["stochastic_list"][0], cfg.space))
    return sofic.PointPrefix(mu.sample(n_need, measures.make_rng(cfg.seed)))


def _run_emergence(cfg, threads):
    p = cfg.parameters
    x = _emergence_source(cfg)
    cloud = emergence.build_cloud(x, p["n_min"], p["n_max"], p["count"],
                                  p["depth"], cfg.space)
    report = emergence.emergence_report(cloud, p["epsilons"],
                                        p["tail_fraction"], threads=threads)
    return {"emergence.csv": report.to_csv(), "fit.json": report.to_json()}


def _build_from_config(cfg):
    """The family, itinerary and orbit of a construct or saturate config.
    Without nets, level L uses the simplex net of mesh eps_tilde[L]; the
    default eps_hat and the estimated gamma follow from the nets of levels
    0..l_max, the ones the itinerary lists, so a net past l_max changes
    nothing."""
    p = cfg.parameters
    family = constructor.MeasureFamily(measures=tuple(
        measures.MarkovMeasure(mat, cfg.space) for mat in p["family"]))
    l_max, eps_tilde = p["l_max"], p["eps_tilde"]
    nets = p["nets"] or tuple(constructor.simplex_net(L, eps_tilde[L])
                              for L in range(l_max + 1))
    eps_hat = p["eps_hat"] or constructor.default_eps_hat(l_max,
                                                           nets[:l_max + 1])
    gamma = p["gamma"]
    if gamma is None:   # an empty table is an error, not the default
        gamma = constructor.estimate_gamma_thresholds(
            family, l_max, eps_tilde, eps_hat, cfg.seed, p["metric_depth"])
    itinerary = constructor.block_schedule(family, l_max, eps_tilde, eps_hat,
                                           gamma, nets, p["length_cap"])
    orbit = constructor.build_orbit(itinerary, family, cfg.space, cfg.seed,
                                    p["metric_depth"])
    return family, itinerary, orbit


def _run_construct(cfg, threads):
    family, itinerary, orbit = _build_from_config(cfg)
    rows = [[str(L), str(j), str(l), str(start), str(end)]
            for (L, j, l, start, end) in orbit.block_map]
    return {"itinerary.json": itinerary.to_json(),
            "orbit.json": orbit.to_json(),
            "blocks.csv": _csv(["level", "group", "component", "start", "end"],
                               rows)}


def _run_saturate(cfg, threads):
    p = cfg.parameters
    family, itinerary, orbit = _build_from_config(cfg)
    top = itinerary.nets[itinerary.l_max]
    report = constructor.verify_saturation(orbit, top, family, p["slack"],
                                           p["metric_depth"])
    return {"saturation.json": report.to_json(),
            "orbit.json": orbit.to_json()}


def _run_conditions(cfg, threads):
    p = cfg.parameters
    report = carath.check_conditions(_structure(cfg), p["depth"], p["t_grid"])
    return {"conditions.json": json.dumps(report.to_json(), indent=2,
                                          sort_keys=True)}


def _run_restricted_probe(cfg, threads):
    p = cfg.parameters
    mu = measures.MarkovMeasure(p["stochastic_list"][0], cfg.space)
    val = carath.restricted_outer_measure(
        _structure(cfg), p["word"], mu, p["n"], p["eps"], p["t"], p["m_blk"],
        p["depth_cap"], p["metric_depth"])
    out = {"value": val, **{key: p[key] for key in
                            ("n", "eps", "t", "m_blk", "depth_cap")}}
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
    out_dir = Path(out_override) if out_override else None
    try:
        threads = _resolve_threads(threads_flag)
        cfg = config_mod.load_config(config_path)
        out_dir = out_dir or cfg.output_dir
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
        _remove_stale(out_dir, files)
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
        (out_dir / "error.json").unlink(missing_ok=True)
        return 0
    except EmergenceLabError as exc:
        payload = json.dumps(exc.to_json(), indent=2, sort_keys=True)
        if out_dir is not None:
            try:
                _remove_stale(out_dir, ())
                (out_dir / "manifest.json").unlink(missing_ok=True)
                _atomic_write(out_dir, "error.json", payload)
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
                  help="Worker threads (default: the CPU count).")
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
