"""Experiment configuration: parse a JSON config into typed run parameters.

Validation is hand-rolled so every problem in a config is reported at once,
each with a JSON-pointer location, instead of failing at the first issue.
It parses as it checks: `ExperimentConfig.parameters` holds exactly the
values the experiment's runner reads, typed (potential tables keyed by
symbol tuples, matrices as float arrays, gamma keyed by (L, l), nets as
`SimplexNet`s), with every absent or null optional key at its default.  The
runners read nothing else, so each default is stated here and only here.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .carath import KINDS
from .constructor import LENGTH_CAP, SimplexNet, default_eps_tilde
from .errors import ConfigError, InvariantError
from .sofic import ShiftSpace

EXPERIMENTS = ("entropy", "pressure", "bowen", "outer-sweep", "emergence",
               "construct", "saturate", "conditions", "restricted-probe")


@dataclass(frozen=True)
class ExperimentConfig:
    space: ShiftSpace
    experiment: str
    parameters: dict
    seed: int
    output_dir: Path
    raw: dict

    def sha256(self):
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()


class _Collector:
    def __init__(self):
        self.violations = []

    def add(self, pointer, message):
        self.violations.append((pointer, message))

    def require(self, obj, key, typ, pointer):
        """Fetch obj[key], recording a violation if missing or mistyped."""
        if not isinstance(obj, dict) or key not in obj:
            self.add(f"{pointer}/{key}", "required field is missing")
            return None
        val = obj[key]
        if typ is float:
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                self.add(f"{pointer}/{key}",
                         f"expected number, got {type(val).__name__}")
                return None
            return float(val)
        if typ is int and isinstance(val, bool):
            self.add(f"{pointer}/{key}", "expected integer, got bool")
            return None
        if not isinstance(val, typ):
            self.add(f"{pointer}/{key}",
                     f"expected {typ.__name__}, got {type(val).__name__}")
            return None
        return val

    def optional(self, obj, key, typ, pointer, default):
        """obj[key] as require() fetches it; default when absent or null."""
        if not isinstance(obj, dict) or key not in obj or obj[key] is None:
            return default
        return self.require(obj, key, typ, pointer)

    def integer(self, obj, key, pointer, lo, default=None):
        """obj[key] as an integer >= lo; required without a default."""
        val = (self.require(obj, key, int, pointer) if default is None
               else self.optional(obj, key, int, pointer, default))
        if val is not None and val < lo:
            self.add(f"{pointer}/{key}", f"must be >= {lo}, got {val}")
        return val


def _validate_space(obj, col):
    m = col.require(obj, "m", int, "/space")
    beta = col.require(obj, "beta", float, "/space")
    trans = col.require(obj, "transition", list, "/space")
    if m is not None and m < 2:
        col.add("/space/m", f"alphabet size must be >= 2, got {m}")
    if beta is not None and beta <= 1.0:
        col.add("/space/beta", f"beta must be > 1, got {beta}")
    if None in (m, beta, trans) or m < 2 or beta <= 1.0:
        return None
    if len(trans) != m or not all(isinstance(r, list) and len(r) == m
                                  for r in trans):
        col.add("/space/transition", f"must be an {m}x{m} 0/1 matrix")
        return None
    if not all(v in (0, 1) for r in trans for v in r):
        col.add("/space/transition", "entries must be 0 or 1")
        return None
    try:
        return ShiftSpace(alphabet_size=m,
                          transition=np.asarray(trans, dtype=np.int8),
                          beta=beta)
    except InvariantError as exc:  # a dead symbol, or not primitive
        col.add("/space", str(exc))
        return None


def _validate_structure(params, col, pointer, kind):
    """A structure's kind (one of KINDS), its window (an integer in 1..8,
    default 1) and its potential table keyed by symbol tuples, which only
    the pressure and appendix kinds carry (None for the others)."""
    if kind is not None and kind not in KINDS:
        col.add(f"{pointer}/kind", f"must be one of {KINDS}")
    win = col.optional(params, "window", int, pointer, 1)
    if win is not None and not 1 <= win <= 8:
        col.add(f"{pointer}/window", f"window must be in 1..8, got {win}")
    out = {"kind": kind, "window": win, "table": None}
    if kind not in ("pressure", "appendix"):
        return out
    tab = col.require(params, "table", dict, pointer)
    if tab is None:
        return out
    out["table"] = {}
    for k, v in tab.items():
        try:
            word = tuple(int(s) for s in k.split(","))
        except ValueError:
            col.add(f"{pointer}/table/{k}", "key must be comma-separated symbols")
            continue
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            col.add(f"{pointer}/table/{k}", "value must be a number")
            continue
        out["table"][word] = float(v)
    return out


def _number_list(params, col, key, pointer, required=True, positive=False):
    lst = (col.require(params, key, list, pointer) if required
           else col.optional(params, key, list, pointer, None))
    if lst is None:
        return None
    if not lst:
        col.add(f"{pointer}/{key}", "must be nonempty")
        return None
    out = []
    for i, v in enumerate(lst):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            col.add(f"{pointer}/{key}/{i}", "must be a number")
            return None
        if positive and v <= 0:
            col.add(f"{pointer}/{key}/{i}", f"must be > 0, got {v}")
            return None
        out.append(float(v))
    return out


def _positive_ints(lst, col, pointer):
    """lst, recording a violation if it is empty and at each entry that is
    not a positive integer."""
    if lst is not None and not lst:
        col.add(pointer, "must be nonempty")
    for i, n in enumerate(lst or ()):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            col.add(f"{pointer}/{i}", "must be a positive integer")
    return lst


def _validate_matrix_list(params, col, key, pointer, m, single=False):
    """params[key]: a nonempty list of m x m matrices, exactly one if `single`."""
    fams = col.require(params, key, list, pointer)
    if fams is None:
        return None
    if single and len(fams) != 1:
        col.add(f"{pointer}/{key}",
                f"must hold exactly one matrix, got {len(fams)}")
        return None
    if not fams:
        col.add(f"{pointer}/{key}", "must hold at least one matrix")
        return None
    out = []
    for i, mat in enumerate(fams):
        arr = np.asarray(mat, dtype=object)
        try:
            arr = arr.astype(np.float64)
        except (TypeError, ValueError):
            col.add(f"{pointer}/{key}/{i}", "must be a numeric matrix")
            return None
        if m is not None and arr.shape != (m, m):
            col.add(f"{pointer}/{key}/{i}", f"must be {m}x{m}")
            return None
        out.append(arr)
    return out


def _validate_gamma(params, col, pointer):
    """Entry thresholds keyed by (L, l), from keys "L,l" with integers
    L, l >= 0 and positive integer values; None when absent."""
    gamma = col.optional(params, "gamma", dict, pointer, None)
    if gamma is None:
        return None
    out = {}
    for key, n in gamma.items():
        match = re.fullmatch(r"\s*([0-9]+)\s*,\s*([0-9]+)\s*", key)
        if match:
            out[int(match[1]), int(match[2])] = n
        else:
            col.add(f"{pointer}/gamma/{key}",
                    'key must be "L,l" with integers L, l >= 0')
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            col.add(f"{pointer}/gamma/{key}", "value must be a positive integer")
    return out


def _validate_nets(params, col, pointer, l_max):
    """Simplex nets: net L has level L, a mesh > 0 and a nonempty list of
    nodes of L + 1 nonnegative numbers summing to 1 within 1e-12 (the
    tolerance of the mixture weights of `truncation_proxy`); one net per
    level 0..l_max.  A tuple of `SimplexNet`s, or None when absent."""
    nets = col.optional(params, "nets", list, pointer, None)
    if nets is None:
        return None
    if l_max is not None and len(nets) < l_max + 1:
        col.add(f"{pointer}/nets", f"need at least {l_max + 1} nets")
    out = []
    for i, net in enumerate(nets):
        q = f"{pointer}/nets/{i}"
        if not isinstance(net, dict):
            col.add(q, "must be an object")
            continue
        before = len(col.violations)
        level = col.require(net, "level", int, q)
        if level is not None and level != i:
            col.add(f"{q}/level", f"net {i} must have level {i}, got {level}")
        mesh = col.require(net, "mesh", float, q)
        if mesh is not None and mesh <= 0:
            col.add(f"{q}/mesh", f"must be > 0, got {mesh}")
        nodes = col.require(net, "nodes", list, q)
        if nodes is not None and not nodes:
            col.add(f"{q}/nodes", "must be nonempty")
        for k, node in enumerate(nodes or []):
            if not (isinstance(node, list) and len(node) == i + 1 and all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    and v >= 0 for v in node)):
                col.add(f"{q}/nodes/{k}",
                        f"must be a list of {i + 1} nonnegative numbers")
            elif abs(float(np.sum(node)) - 1.0) > 1e-12:
                col.add(f"{q}/nodes/{k}",
                        f"node {node} must sum to 1 within 1e-12")
        if len(col.violations) == before:
            out.append(SimplexNet(level=level, mesh=mesh, nodes=tuple(
                tuple(float(v) for v in node) for node in nodes)))
    return tuple(out)


def _metric_depth(params, col, pointer):
    """The truncation depth of the W1 comparisons: an integer >= 1."""
    return col.integer(params, "metric_depth", pointer, 1, 6)


def _validate_source(src, col, pointer, m):
    """The orbit source of an emergence run: its kind and the parameters of
    that kind."""
    kind = col.require(src, "kind", str, pointer)
    out = {"kind": kind}
    if kind == "markov":
        out["stochastic_list"] = _validate_matrix_list(
            src, col, "stochastic_list", pointer, m, single=True)
    elif kind in ("bernoulli", "oscillating"):
        for key in (("probs",) if kind == "bernoulli"
                    else ("probs_a", "probs_b")):
            out[key] = _number_list(src, col, key, pointer)
            if out[key] is not None and m is not None and len(out[key]) != m:
                col.add(f"{pointer}/{key}", f"need {m} probabilities")
    elif kind is not None:
        col.add(f"{pointer}/kind",
                "must be one of ('bernoulli', 'markov', 'oscillating')")
    if kind == "oscillating":
        out["first_block"] = col.integer(src, "first_block", pointer, 1, 64)
        out["growth"] = growth = col.optional(src, "growth", float, pointer,
                                              2.0)
        if growth is not None and growth <= 1.0:
            col.add(f"{pointer}/growth", f"must be > 1, got {growth}")
    return out


def _validate_parameters(experiment, params, space, col):
    """The parameters the runner of `experiment` reads, parsed."""
    p = "/parameters"
    m = space.m if space is not None else None
    if experiment == "entropy":
        return {}
    if experiment == "pressure":
        out = _validate_structure(params, col, p, "pressure")
        out["lengths"] = _positive_ints(
            col.optional(params, "lengths", list, p, [8, 16, 24]), col,
            f"{p}/lengths")
        return out
    if experiment == "bowen":
        out = _validate_structure(params, col, p, "appendix")
        if out["table"] is not None and any(v <= 0
                                            for v in out["table"].values()):
            col.add(f"{p}/table", "all values must be positive for a root search")
        return out
    if experiment == "outer-sweep":
        out = _validate_structure(params, col, p,
                                  col.require(params, "kind", str, p))
        out["t_grid"] = _number_list(params, col, "t_grid", p)
        out["depth_caps"] = _positive_ints(
            col.require(params, "depth_caps", list, p), col, f"{p}/depth_caps")
        out["m_blk"] = col.integer(params, "m_blk", p, 1, 1)
        return out
    if experiment == "emergence":
        src = col.require(params, "source", dict, p)
        out = {"source": (_validate_source(src, col, f"{p}/source", m)
                          if src is not None else None)}
        out["epsilons"] = eps = _number_list(params, col, "epsilons", p,
                                             positive=True)
        if eps is not None and (len(eps) < 3
                                or any(b >= a for a, b in zip(eps, eps[1:]))):
            col.add(f"{p}/epsilons", ">= 3 strictly decreasing scales required")
        for key in ("n_min", "n_max", "count", "depth"):
            out[key] = col.integer(params, key, p, 2 if key == "count" else 1)
        # the time grid of `emergence.geometric_times`
        n_min, n_max, count = out["n_min"], out["n_max"], out["count"]
        if None not in (n_min, n_max, count) and n_min >= 1 and count >= 2:
            if n_max <= n_min:
                col.add(f"{p}/n_max", f"must be > n_min = {n_min}, got {n_max}")
            elif n_max - n_min + 1 < count:
                col.add(f"{p}/count", f"[{n_min}, {n_max}] holds fewer than "
                                      f"{count} integers")
        out["tail_fraction"] = tf = col.optional(params, "tail_fraction",
                                                 float, p, 0.5)
        if tf is not None and not 0.0 < tf <= 1.0:
            col.add(f"{p}/tail_fraction", f"must be in (0, 1], got {tf}")
        return out
    if experiment in ("construct", "saturate"):
        family = _validate_matrix_list(params, col, "family", p, m)
        l_max = col.integer(params, "l_max", p, 0)
        if None not in (family, l_max) and l_max >= len(family):
            col.add(f"{p}/l_max", f"levels 0..{l_max} need {l_max + 1} "
                                  f"family matrices, got {len(family)}")
        out = {"family": family, "l_max": l_max}
        for key in ("eps_tilde", "eps_hat"):
            vals = _number_list(params, col, key, p, required=False,
                                positive=True)
            if (vals is not None and l_max is not None
                    and len(vals) < l_max + 2):
                col.add(f"{p}/{key}", f"need at least {l_max + 2} entries")
            out[key] = tuple(vals) if vals else None
        if out["eps_hat"] is not None and l_max is not None:
            # (0, 1) at every level `block_schedule` reads
            for i, e in enumerate(out["eps_hat"][:l_max + 2]):
                if e >= 1:
                    col.add(f"{p}/eps_hat/{i}", f"must lie in (0, 1), got {e}")
        out["length_cap"] = col.integer(params, "length_cap", p, 1, LENGTH_CAP)
        out["metric_depth"] = _metric_depth(params, col, p)
        out["gamma"] = _validate_gamma(params, col, p)
        out["nets"] = _validate_nets(params, col, p, l_max)
        if experiment == "saturate":
            out["slack"] = slack = col.require(params, "slack", float, p)
            if slack is not None and slack < 0:
                col.add(f"{p}/slack", f"must be >= 0, got {slack}")
        # the default schedule has l_max + 2 entries: fill it only once
        # l_max is known to be below the family size
        if out["eps_tilde"] is None and not col.violations:
            out["eps_tilde"] = default_eps_tilde(l_max)
        return out
    if experiment == "conditions":
        out = _validate_structure(params, col, p,
                                  col.require(params, "kind", str, p))
        out["depth"] = col.integer(params, "depth", p, 2)
        out["t_grid"] = _number_list(params, col, "t_grid", p)
        return out
    if experiment == "restricted-probe":
        out = _validate_structure(params, col, p, col.optional(
            params, "kind", str, p, "entropy"))
        word = col.require(params, "word", list, p)
        if word is not None and (not word or not all(
                isinstance(s, int) and not isinstance(s, bool) for s in word)):
            col.add(f"{p}/word", "must be a nonempty list of symbols")
        out["word"] = tuple(word or ())
        out["stochastic_list"] = _validate_matrix_list(
            params, col, "stochastic_list", p, m, single=True)
        for key in ("n", "m_blk", "depth_cap"):
            out[key] = col.integer(params, key, p, 1)
        for key in ("eps", "t"):
            out[key] = col.require(params, key, float, p)
            if out[key] is not None and out[key] < 0:
                col.add(f"{p}/{key}", f"must be >= 0, got {out[key]}")
        out["metric_depth"] = _metric_depth(params, col, p)
        return out
    raise AssertionError(f"unhandled experiment {experiment}")


def validate_config(obj):
    """Parse a JSON config into an ExperimentConfig; collect every violation
    before failing."""
    col = _Collector()
    if not isinstance(obj, dict):
        raise ConfigError([("/", "config root must be a JSON object")],
                          module="config", operation="validate_config")
    space_obj = col.require(obj, "space", dict, "")
    space = _validate_space(space_obj, col) if space_obj is not None else None
    experiment = col.require(obj, "experiment", str, "")
    if experiment is not None and experiment not in EXPERIMENTS:
        col.add("/experiment", f"must be one of {EXPERIMENTS}")
        experiment = None
    params = col.require(obj, "parameters", dict, "")
    seed = col.require(obj, "seed", int, "")
    if seed is not None and not 0 <= seed < 2 ** 64:
        col.add("/seed", "must be a 64-bit unsigned integer")
    out_dir = col.require(obj, "output_dir", str, "")
    if experiment is not None and params is not None:
        params = _validate_parameters(experiment, params, space, col)
    if col.violations:
        raise ConfigError(col.violations,
                          module="config", operation="validate_config")
    return ExperimentConfig(space=space, experiment=experiment,
                            parameters=params, seed=seed,
                            output_dir=Path(out_dir), raw=obj)


def _finite(parse):
    """A json.loads hook parsing a number token with `parse`; rejects any whose
    float value is not finite: NaN, Infinity, 1e400, 400-digit integers."""
    def hook(token):
        if not math.isfinite(float(token)):
            shown = token if len(token) <= 24 else token[:20] + "..."
            raise ConfigError([("/", f"non-finite number {shown} is not allowed")],
                              module="config", operation="load_config")
        return parse(token)
    return hook


def load_config(path):
    p = Path(path)
    if not p.is_file():
        raise ConfigError([("/", f"config file not found: {p}")],
                          module="config", operation="load_config")
    try:
        obj = json.loads(p.read_text(encoding="utf-8"),
                         parse_constant=_finite(float),
                         parse_float=_finite(float), parse_int=_finite(int))
    # also a file that is not UTF-8, or nested past the parser's recursion
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError([("/", f"JSON parse error: {exc}")],
                          module="config", operation="load_config") from exc
    return validate_config(obj)
