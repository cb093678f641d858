"""Workload definitions: CLI configs generated from a seed, and their oracles.

Each workload is a list of experiments, each one JSON config run through the
public CLI.  `experiments()` builds the configs of one input variant, and
`inputs()` the VARIANTS variants a run cycles through, one per pass, so that
a run's time averages over several draws of the seed-dependent inputs
(sampled orbits, typical-word draws, LP data).  The check functions read the
CLI's output files and return failure messages (an empty list means the
operation passed).  Checks that compare against recorded values of this
commit (`reference.json`) apply only at DEFAULT_SEED; the others hold for
every seed.

This module runs in the parent without numpy; the check functions import
numpy and emergence_lab lazily, inside the worker process.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from pathlib import Path

DEFAULT_SEED = 0
NAMES = ("emergence-cloud", "construct-saturate", "outer-sweep",
         "restricted-probe")

FULL2 = {"m": 2, "beta": 2.0, "transition": [[1, 1], [1, 1]]}
FULL3 = {"m": 3, "beta": 2.0,
         "transition": [[1, 1, 1], [1, 1, 1], [1, 1, 1]]}

# Level-3 net nodes of the repository's level-3 acceptance construction
# (the first 14 of its 19); a prefix of them keeps its code paths.
L3_NODES = (
    (0.35642091592747016, 0.21715930647175316, 0.28402312749260011, 0.14239665010817662),
    (0.49599183849493522, 0.073261293084254706, 0.2223240245769687, 0.20842284384384147),
    (0.22964584740424884, 0.076196485684677323, 0.49018226851229324, 0.20397539839878059),
    (0.030712802132707502, 0.17830871360310685, 0.60484024153274352, 0.18613824273144211),
    (0.10731339448565724, 0.48700561687190524, 0.30198491816550299, 0.1036960704769346),
    (0.23616374516641125, 0.18630545331596379, 0.57753080151762481, 0.0),
    (0.48576755695897644, 0.22663664355880347, 0.27748943487690902, 0.010106364605311098),
    (0.54673991367194286, 0.0, 0.037878477852951828, 0.41538160847510536),
    (0.074061917280034431, 0.0, 0.71303614800717885, 0.21290193471278671),
    (0.34949994690722724, 0.15195635119056808, 0.11615360500150683, 0.38239009690069775),
    (0.0024228030720717417, 0.20596365051116206, 0.47961729866450703, 0.31199624775225915),
    (0.32139418318615542, 0.27206352436821923, 0.19360419413204671, 0.21293809831357857),
    (0.21304172099883981, 0.39363492822650059, 0.21354428161588349, 0.17977906915877595),
    (0.092247441530987503, 0.16113127336935776, 0.13215950642452315, 0.61446177867513152),
)

# Sizes of one pass.  "full" is what the benchmark measures; "tiny" is for
# the benchmark's own tests.  Both are scaled down from the acceptance tests
# so that one pass takes about a second (see README.md).
SIZES = {
    "full": {"em_n": (2 ** 9, 2 ** 14), "em_count": 10, "em_depth": 8,
             "l2_nodes": 4, "l3_nodes": 10, "caps": (10, 11, 12),
             "rp_cap": 8},
    "tiny": {"em_n": (2 ** 7, 2 ** 10), "em_count": 6, "em_depth": 6,
             "l2_nodes": 3, "l3_nodes": 6, "caps": (6, 7, 8),
             "rp_cap": 5},
}

# Input variants per run (see `inputs`).
VARIANTS = {"full": 8, "tiny": 2}

EPSILONS = [0.2, 0.1, 0.05, 0.025]
PRESSURE_TABLE = {"1,1": 0.1, "1,2": -0.3, "2,1": 0.25, "2,2": -0.05}


def _bern(probs, m):
    return [list(probs)] * m


def inputs(name, seed, size="full"):
    """[(variant, label, subcommand, config dict, threads)] of every input
    variant of one run.  Variant 0 is `experiments(name, seed, size)` with
    its labels; variant v > 0 draws its own inputs from the seed and adds
    `.v<v>` to its labels.  Only variant 0 at DEFAULT_SEED is the recorded
    reference input."""
    out = []
    for v in range(VARIANTS[size]):
        for label, sub, cfg, threads in experiments(name, seed, size, v):
            out.append((v, f"{label}.v{v}" if v else label, sub, cfg,
                        threads))
    return out


def experiments(name, seed, size="full", variant=0):
    """[(label, subcommand, config dict, threads)] for one workload, seed
    and input variant."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    z = SIZES[size]
    rng = random.Random(f"{name}:{seed}:{variant}" if variant
                        else f"{name}:{seed}")
    default = seed == DEFAULT_SEED and variant == 0

    def sub_seed(fixed):
        return fixed if default else rng.randrange(2 ** 32)

    if name == "emergence-cloud":
        n_min, n_max = z["em_n"]
        common = {"n_min": n_min, "n_max": n_max, "count": z["em_count"],
                  "depth": z["em_depth"], "epsilons": EPSILONS,
                  "tail_fraction": 0.5}
        return [
            ("generic", "emergence", {
                "space": FULL2, "experiment": "emergence",
                "seed": sub_seed(40),
                "parameters": {"source": {"kind": "bernoulli",
                                          "probs": [0.5, 0.5]}, **common}}, 2),
            ("oscillating", "emergence", {
                "space": FULL2, "experiment": "emergence",
                "seed": sub_seed(41),
                "parameters": {"source": {"kind": "oscillating",
                                          "probs_a": [0.1, 0.9],
                                          "probs_b": [0.9, 0.1],
                                          "first_block": 64, "growth": 2.0},
                               **common}}, 2),
        ]

    if name == "construct-saturate":
        l2_nets = [
            {"level": 0, "mesh": 1.0, "nodes": [[1.0]]},
            {"level": 1, "mesh": 1.0,
             "nodes": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]},
            {"level": 2, "mesh": 1.0,
             "nodes": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                       [0.5, 0.5, 0.0], [0.0, 0.5, 0.5],
                       [1 / 3, 1 / 3, 1 / 3]][:z["l2_nodes"]]}]
        e = 0.005
        alt13 = [[e, e, 1 - 2 * e], [0.4, 0.2, 0.4], [1 - 2 * e, e, e]]
        l3_nets = [
            {"level": 0, "mesh": 1.0, "nodes": [[1.0]]},
            {"level": 1, "mesh": 1.0, "nodes": [[0.5, 0.5]]},
            {"level": 2, "mesh": 1.0, "nodes": [[1 / 3, 1 / 3, 1 / 3]]},
            {"level": 3, "mesh": 0.8,
             "nodes": [list(n) for n in L3_NODES[:z["l3_nodes"]]]}]
        return [
            ("saturate-l2", "saturate", {
                "space": FULL2, "experiment": "saturate",
                "seed": sub_seed(101),
                "parameters": {
                    "family": [_bern([0.2, 0.8], 2), _bern([0.8, 0.2], 2),
                               _bern([0.5, 0.5], 2)],
                    "l_max": 2, "eps_tilde": [0.9, 0.8, 0.5, 0.4],
                    "eps_hat": [0.1] * 4,
                    "gamma": {f"{L},{l}": 32 for L in range(4)
                              for l in range(L + 1)},
                    "nets": l2_nets, "metric_depth": 5,
                    # the stated 0.05 plus the metric tail at depth 5
                    "slack": 0.05 + 2.0 ** -5}}, 2),
            ("construct-l3", "construct", {
                "space": FULL3, "experiment": "construct",
                "seed": sub_seed(424242),
                "parameters": {
                    "family": [alt13, _bern([1 - 2 * e, e, e], 3),
                               _bern([e, 1 - 2 * e, e], 3),
                               _bern([e, e, 1 - 2 * e], 3)],
                    "l_max": 3,
                    "eps_tilde": [0.995, 0.99, 0.985, 0.98, 0.9],
                    "eps_hat": [0.02] * 5,
                    "gamma": {f"{L},{l}": 16 for L in range(5)
                              for l in range(L + 1)},
                    "nets": l3_nets, "metric_depth": 5}}, 2),
        ]

    if name == "outer-sweep":
        t_grid = [0.5, 0.8, 1.2]
        t_press = 0.8
        table = dict(PRESSURE_TABLE)
        if not default:
            t_grid = [round(t + rng.uniform(-0.05, 0.05), 6) for t in t_grid]
            t_press = round(t_press + rng.uniform(-0.05, 0.05), 6)
            table = {k: round(rng.uniform(-0.3, 0.3), 6) for k in table}
        caps = list(z["caps"])
        return [
            ("entropy", "outer-sweep", {
                "space": FULL2, "experiment": "outer-sweep", "seed": 0,
                "parameters": {"kind": "entropy", "t_grid": t_grid,
                               "depth_caps": caps, "m_blk": 2}}, 2),
            ("pressure-w2", "outer-sweep", {
                "space": FULL2, "experiment": "outer-sweep", "seed": 0,
                "parameters": {"kind": "pressure", "window": 2,
                               "table": table, "t_grid": [t_press],
                               "depth_caps": caps, "m_blk": 2}}, 2),
        ]

    p = 0.5 if default else round(rng.uniform(0.4, 0.6), 6)
    word = [1] if default else [rng.choice([1, 2])]
    return [
        ("probe", "restricted-probe", {
            "space": FULL2, "experiment": "restricted-probe",
            "seed": sub_seed(7),
            "parameters": {"kind": "entropy", "word": word,
                           "stochastic_list": [_bern([p, 1 - p], 2)],
                           "n": 64, "eps": 0.15, "t": 0.8, "m_blk": 1,
                           "depth_cap": z["rp_cap"], "metric_depth": 4}}, 2),
    ]


# ------------------------------------------------------------------ oracles

def _rel_close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b)) or a == b


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _ls_slope(eps, counts):
    """Least-squares slope of log(count) against -log(eps); 0 if flat."""
    if len(set(counts)) == 1:
        return 0.0
    x = [-math.log(e) for e in eps]
    y = [math.log(c) for c in counts]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    return (sum((a - mx) * (b - my) for a, b in zip(x, y))
            / sum((a - mx) ** 2 for a in x))


def _check_emergence(label, p, out, ref):
    fails = []
    rows = _read_csv(out / "emergence.csv")
    fit = json.loads((out / "fit.json").read_text(encoding="utf-8"))
    eps = [float(r["epsilon"]) for r in rows]
    lower = [int(r["lower"]) for r in rows]
    upper = [int(r["upper"]) for r in rows]
    tail = math.ceil(p["tail_fraction"] * p["count"])
    if eps != p["epsilons"]:
        fails.append(f"{label}: scales {eps} != {p['epsilons']}")
    for e, lo, up in zip(eps, lower, upper):
        if not 1 <= lo <= up <= tail:
            fails.append(f"{label}: bracket [{lo}, {up}] at eps {e} "
                         f"outside 1 <= lower <= upper <= {tail}")
    if any(b < a for a, b in zip(upper, upper[1:])):
        fails.append(f"{label}: upper counts {upper} decrease as eps shrinks")
    if fit["lower"] != lower or fit["upper"] != upper:
        fails.append(f"{label}: fit.json counts differ from emergence.csv")
    slope = fit["exponent_fit"]["slope"]
    if abs(slope - _ls_slope(eps, upper)) > 1e-9:
        fails.append(f"{label}: slope {slope} is not the least-squares fit "
                     f"{_ls_slope(eps, upper)} of the counts")
    if ref is not None:
        want = ref[label]
        if not _rel_close(slope, want["slope"], 1e-9):
            fails.append(f"{label}: slope {slope} != reference "
                         f"{want['slope']}")
        if "slope_range" in want:
            lo_b, hi_b = want["slope_range"]
            if not lo_b <= slope <= hi_b:
                fails.append(f"{label}: slope {slope} outside "
                             f"[{lo_b}, {hi_b}]")
    return fails


def _check_construct_saturate(label, p, out, ref):
    if not label.startswith("saturate"):
        return _check_construct_files(label, out, ref)
    fails = []
    rep = json.loads((out / "saturation.json").read_text(encoding="utf-8"))
    if not rep["passed"] or rep["unreachable"]:
        fails.append(f"{label}: saturation passed={rep['passed']} "
                     f"unreachable={rep['unreachable']}")
    mins = [nd["min_w1"] for nd in rep["nodes"]]
    if len(mins) != len(p["nets"][-1]["nodes"]):
        fails.append(f"{label}: {len(mins)} node minima for "
                     f"{len(p['nets'][-1]['nodes'])} nodes")
    if ref is not None:
        want = ref[label]["min_w1"]
        if len(want) != len(mins) or not all(
                _rel_close(a, b, 1e-9) for a, b in zip(mins, want)):
            fails.append(f"{label}: min_w1 {mins} != reference {want}")
    return fails


def _check_outer_sweep(label, p, out, ref):
    fails = []
    rows = _read_csv(out / "outer_sweep.csv")
    by_t = {}
    for r in rows:
        t, cap = float(r["t"]), int(r["depth_cap"])
        m_val, n_val = float(r["M"]), float(r["N"])
        by_t.setdefault(t, []).append((cap, m_val))
        # N is taken at cap rounded up to a multiple of m_blk; below an
        # equal cap its covers are a subset of M's
        if cap % p["m_blk"] == 0 and not m_val <= n_val * (1 + 1e-12):
            fails.append(f"{label}: M {m_val} > N {n_val} at t={t}, "
                         f"cap={cap}")
        if p["kind"] == "entropy":
            closed = min((2.0 * math.exp(-t)) ** l for l in range(1, cap + 1))
            if not _rel_close(m_val, closed, 1e-12):
                fails.append(f"{label}: M {m_val} != closed form {closed} "
                             f"at t={t}, cap={cap}")
    for t, vals in by_t.items():
        vals.sort()
        if any(b[1] > a[1] * (1 + 1e-12) for a, b in zip(vals, vals[1:])):
            fails.append(f"{label}: M increases with cap at t={t}")
    if len(rows) != len(p["t_grid"]) * len(p["depth_caps"]):
        fails.append(f"{label}: {len(rows)} rows for the grid")
    if ref is not None and label in ref:
        want = ref[label]["rows"]
        got = [[float(r["M"]), float(r["N"])] for r in rows]
        if len(got) != len(want) or not all(
                _rel_close(a, b, 1e-9)
                for g, w in zip(got, want) for a, b in zip(g, w)):
            fails.append(f"{label}: values {got} != reference {want}")
    return fails


def _check_restricted_probe(label, p, out, ref):
    fails = []
    rep = json.loads((out / "restricted_probe.json").read_text(
        encoding="utf-8"))
    val = rep["value"]
    for key in ("n", "eps", "t", "m_blk", "depth_cap"):
        if rep[key] != p[key]:
            fails.append(f"{label}: echoed {key} {rep[key]} != {p[key]}")
    # every node is at most the sum of its children, so the value is at
    # most the weight of all depth_cap cylinders below the word
    cap = p["depth_cap"]
    bound = 2.0 ** (cap - len(p["word"])) * math.exp(-p["t"] * cap)
    if not (math.isfinite(val) and 0.0 <= val <= bound * (1 + 1e-12)):
        fails.append(f"{label}: value {val} outside [0, {bound}]")
    if ref is not None and not _rel_close(val, ref[label]["value"], 1e-9):
        fails.append(f"{label}: value {val} != reference "
                     f"{ref[label]['value']}")
    return fails


CHECKS = {"emergence-cloud": _check_emergence,
          "construct-saturate": _check_construct_saturate,
          "outer-sweep": _check_outer_sweep,
          "restricted-probe": _check_restricted_probe}


def check_output(workload, label, cfg, out_dir, ref):
    """Oracle checks on one CLI call's output files.

    `ref` is this workload's entry in reference.json when the run uses the
    default seed, else None.  Returns failure messages.
    """
    return CHECKS[workload](label, cfg["parameters"], Path(out_dir), ref)


def _itinerary_from_json(obj):
    from emergence_lab.constructor import Itinerary, SimplexNet
    return Itinerary(
        eps_tilde=tuple(obj["eps_tilde"]), eps_hat=tuple(obj["eps_hat"]),
        blocks=tuple(tuple(b) for b in obj["blocks"]),
        connector_slots=tuple(obj["connector_slots"]),
        gamma_n={tuple(int(v) for v in k.split(",")): n
                 for k, n in obj["gamma_n"].items()},
        nets=tuple(SimplexNet(level=n["level"], mesh=n["mesh"],
                              nodes=tuple(tuple(v) for v in n["nodes"]))
                   for n in obj["nets"]))


def _check_construct_files(label, out, ref):
    from emergence_lab.constructor import check_itinerary
    fails = []
    it = _itinerary_from_json(json.loads(
        (out / "itinerary.json").read_text(encoding="utf-8")))
    violations = check_itinerary(it)
    if violations:
        fails.append(f"{label}: check_itinerary: {violations[:3]}")
    rows = _read_csv(out / "blocks.csv")
    lengths = [int(r["end"]) - int(r["start"]) for r in rows]
    if lengths != [b[3] for b in it.blocks]:
        fails.append(f"{label}: blocks.csv lengths differ from the itinerary")
    if any(int(b["start"]) < int(a["end"]) for a, b in zip(rows, rows[1:])):
        fails.append(f"{label}: blocks.csv blocks overlap")
    if ref is not None and _sha256(out / "blocks.csv") != ref[label][
            "blocks_sha256"]:
        fails.append(f"{label}: blocks.csv sha256 differs from reference")
    return fails


def rebuild_orbit(cfg):
    """The orbit a construct/saturate config describes, built through the
    public constructor API (the CLI writes only its block layout)."""
    import numpy as np
    from emergence_lab import constructor, measures, sofic
    p = cfg["parameters"]
    space = sofic.ShiftSpace(alphabet_size=cfg["space"]["m"],
                             transition=np.array(cfg["space"]["transition"]),
                             beta=cfg["space"]["beta"])
    family = constructor.MeasureFamily(tuple(
        measures.MarkovMeasure(np.asarray(m, dtype=np.float64), space)
        for m in p["family"]))
    nets = tuple(constructor.SimplexNet(
        level=n["level"], mesh=n["mesh"],
        nodes=tuple(tuple(v) for v in n["nodes"])) for n in p["nets"])
    gamma = {tuple(int(v) for v in k.split(",")): n
             for k, n in p["gamma"].items()}
    it = constructor.block_schedule(family, p["l_max"], p["eps_tilde"],
                                    p["eps_hat"], gamma, nets=nets)
    return space, constructor.build_orbit(it, family, space, cfg["seed"],
                                          metric_depth=p["metric_depth"])


def check_orbit(label, cfg, out_dir, ref):
    """End-of-run check of a constructed orbit: admissibility by an array
    test of our own, a valid itinerary, the CLI's block layout, and (at the
    default seed) the orbit's bytes."""
    import numpy as np
    from emergence_lab.constructor import check_itinerary
    fails = []
    space, orbit = rebuild_orbit(cfg)
    w = np.asarray(orbit.word.symbols, dtype=np.int64)
    trans = np.asarray(cfg["space"]["transition"], dtype=bool)
    if w.min() < 1 or w.max() > trans.shape[0]:
        fails.append(f"{label}: orbit symbols outside the alphabet")
    elif not trans[w[:-1] - 1, w[1:] - 1].all():
        fails.append(f"{label}: orbit has a forbidden transition")
    violations = check_itinerary(orbit.itinerary)
    if violations:
        fails.append(f"{label}: check_itinerary: {violations[:3]}")
    cli_orbit = json.loads((Path(out_dir) / "orbit.json").read_text(
        encoding="utf-8"))
    if ([list(b) for b in orbit.block_map] != cli_orbit["block_map"]
            or orbit.word.usable_depth != cli_orbit["length"]):
        fails.append(f"{label}: CLI orbit.json differs from the rebuilt orbit")
    if ref is not None:
        digest = hashlib.sha256(orbit.symbols_bytes()).hexdigest()
        if digest != ref[label]["orbit_sha256"]:
            fails.append(f"{label}: orbit sha256 differs from reference")
    return fails


def reference_entry(workload, label, cfg, out_dir, size):
    """This commit's values for one experiment, as stored in reference.json
    (None when the experiment has no recorded values)."""
    out = Path(out_dir)
    if workload == "emergence-cloud":
        fit = json.loads((out / "fit.json").read_text(encoding="utf-8"))
        entry = {"slope": fit["exponent_fit"]["slope"]}
        if size == "full":
            # the acceptance bounds on the exponent of each orbit kind
            entry["slope_range"] = ([0.0, 0.3] if label == "generic"
                                    else [0.7, 1.3])
        return entry
    if workload == "construct-saturate":
        entry = {"orbit_sha256": hashlib.sha256(
            rebuild_orbit(cfg)[1].symbols_bytes()).hexdigest()}
        if label.startswith("saturate"):
            rep = json.loads((out / "saturation.json").read_text(
                encoding="utf-8"))
            entry["min_w1"] = [nd["min_w1"] for nd in rep["nodes"]]
        else:
            entry["blocks_sha256"] = _sha256(out / "blocks.csv")
        return entry
    if workload == "outer-sweep":
        if cfg["parameters"]["kind"] == "entropy":
            return None     # checked against its closed form instead
        rows = _read_csv(out / "outer_sweep.csv")
        return {"rows": [[float(r["M"]), float(r["N"])] for r in rows]}
    rep = json.loads((out / "restricted_probe.json").read_text(
        encoding="utf-8"))
    return {"value": rep["value"]}
