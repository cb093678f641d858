"""Spans around the calls into each emergence_lab module, recorded from outside.

`Tracer.install()` replaces public functions of the package with timing
wrappers wherever a module has bound them (module globals and class
attributes), and `uninstall()` puts the originals back.  A function that a
later version of the package no longer has is skipped, and its metrics
read 0.  Nothing is patched
unless a tracer is installed, so untraced runs execute the package as is.

A span records its name, start, end, parent span, run id and thread, plus a
few counts taken at the same boundary.  Spans stay in memory until the run
writes them out.  Work submitted to a thread pool has no parent on its own
thread; it is attributed to the innermost open span of the installing thread,
which is blocked waiting for the pool.
"""

from __future__ import annotations

import itertools
import json
import threading
import time

MODULES = ("sofic", "measures", "emergence", "constructor", "carath", "cli",
           "config")

# W1 size buckets by combined merged atom count of the two measures
W1_BUCKETS = (("tiny", 32), ("mid", 256), ("large", None))


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._owner = threading.current_thread()
        self._owner_stack = self._stack()
        self._patches = []

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, name, fn, attrs=None):
        """fn timed as span `name`; attrs(args, kwargs, result) -> counts."""
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not self._owner and self._owner_stack:
                parent = self._owner_stack[-1]
            else:
                parent = None
            rec = {"id": next(self._ids), "name": name,
                   "parent": parent["id"] if parent else None,
                   "run": self.run_id, "thread": threading.get_ident()}
            stack.append(rec)
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(rec)
            if attrs is not None:
                rec["attrs"] = attrs(args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _patch_function(self, package, fn, wrapper):
        """Rebind fn to wrapper in every module that holds it."""
        for mod in [package] + [getattr(package, m) for m in MODULES]:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    self._patches.append((mod, key, val))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, vars(cls)[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        import emergence_lab as pkg
        from emergence_lab import (carath, cli, config, constructor,
                                   emergence, measures, sofic)
        tls = self._tls
        count_admissible = sofic.count_admissible

        def counting_atoms(fn):
            """W1 that records the merged atom counts of its two measures."""
            def w1(*args, **kwargs):
                tls.atoms = []
                try:
                    return fn(*args, **kwargs)
                finally:
                    tls.last_atoms, tls.atoms = sum(tls.atoms), None
            return w1

        def counted_merge(fn):
            def merged(obj, depth, m):
                out = fn(obj, depth, m)
                acc = getattr(tls, "atoms", None)
                if acc is not None:
                    acc.append(int(out[0].shape[0]))
                return out
            return merged

        def w1_attrs(args, kwargs, result):
            return {"atoms": tls.last_atoms}

        def lp_attrs(args, kwargs, res):
            opts = kwargs.get("options") or {}
            return {"vars": len(args[0]), "nit": int(res.nit),
                    "retry": opts.get("presolve") is False}

        def outer_attrs(args, kwargs, result):
            s, target = args[0], args[1]
            cap = args[-1] if len(args) >= 4 else kwargs["depth_cap"]
            nodes = (sum(count_admissible(s.space, l) for l in range(1, cap + 1))
                     if target in ("X", None) else 0)
            return {"nodes": nodes}

        functions = [
            (cli, "_execute", "cli.execute", None),
            (cli, "_atomic_write", "cli.write",
             lambda a, k, r: {"bytes": len(a[2].encode("utf-8"))}),
            (config, "load_config", "config.load", None),
            (measures, "empirical_measure", "measures.empirical",
             lambda a, k, r: {"windows": int(a[1])}),
            (measures, "empirical_snapshots", "measures.empirical",
             lambda a, k, r: {"windows": max(int(t) for t in a[1])}),
            (measures, "truncation_proxy", "measures.truncation_proxy", None),
            (measures, "linprog", "measures.linprog", lp_attrs),
            (sofic, "is_admissible", "sofic.is_admissible",
             lambda a, k, r: {"symbols": len(a[0])}),
            (sofic, "connector", "sofic.connector", None),
            (sofic, "admissible_words", "sofic.admissible_words", None),
            (constructor, "typical_word", "constructor.typical_word", None),
            (constructor, "build_orbit", "constructor.build_orbit",
             lambda a, k, r: {"symbols": r.word.usable_depth}),
            (constructor, "verify_saturation", "constructor.verify_saturation",
             None),
            (constructor, "block_schedule", "constructor.block_schedule", None),
            (constructor, "check_itinerary", "constructor.check_itinerary",
             None),
            (emergence, "build_cloud", "emergence.build_cloud", None),
            (emergence, "pairwise_w1", "emergence.pairwise_w1",
             lambda a, k, r: {"pairs": len(a[0]) * (len(a[0]) - 1) // 2}),
            (emergence, "covering_number_bounds", "emergence.covering", None),
            (carath, "outer_measure_M", "carath.outer_measure", outer_attrs),
            (carath, "outer_measure_N", "carath.outer_measure", outer_attrs),
            (carath, "restricted_outer_measure", "carath.restricted", None),
            (carath, "_representatives", "carath.member_probe", None),
            (measures, "wasserstein1", "measures.wasserstein1", w1_attrs),
        ]
        for mod, attr, name, attrs in functions:
            fn = getattr(mod, attr, None)
            if fn is None:      # gone from a later version: its metrics read 0
                continue
            inner = counting_atoms(fn) if attr == "wasserstein1" else fn
            self._patch_function(pkg, fn, self.wrap(name, inner, attrs))
        methods = [
            (measures.FinSuppMeasure, "merged", counted_merge),
            (measures.MarkovMeasure, "sample",
             lambda fn: self.wrap("measures.sample", fn, lambda a, k, r: {
                 "iid": a[0].is_bernoulli, "symbols": int(a[1])})),
        ]
        for cls, attr, wrapper in methods:
            if attr in vars(cls):
                self._patch_method(cls, attr, wrapper(vars(cls)[attr]))

    def uninstall(self):
        while self._patches:
            obj, key, val = self._patches.pop()
            setattr(obj, key, val)

    def write(self, path, phase):
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({**rec, "phase": phase}) + "\n")


# ---------------------------------------------------------------- analysis

def self_times(spans):
    """Span id -> duration minus the part its child spans cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def _bucket(atoms):
    for name, top in W1_BUCKETS:
        if top is None or atoms <= top:
            return name


def layer_metrics(spans, passes):
    """Per-layer metrics per pass, as {name: (value, unit)}."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    names = {s["id"]: s["name"] for s in spans}

    def busy(group):
        return sum(s["end"] - s["start"] for s in group) / passes

    def total(group, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in group) / passes

    def get(name):
        return by_name.get(name, [])

    def children_named(group, name):
        ids = {s["id"] for s in group}
        return [s for s in get(name) if s["parent"] in ids]

    m = {}
    w1 = get("measures.wasserstein1")
    for bucket, _ in W1_BUCKETS:
        grp = [s for s in w1 if _bucket(s["attrs"]["atoms"]) == bucket]
        m[f"measures.w1.{bucket}.calls"] = (len(grp) / passes, "count")
        m[f"measures.w1.{bucket}.busy_s"] = (busy(grp), "s")
        m[f"measures.w1.{bucket}.atoms_max"] = (
            max((s["attrs"]["atoms"] for s in grp), default=0), "count")
    lp = get("measures.linprog")
    m["measures.w1.lp_solves"] = (len(lp) / passes, "count")
    m["measures.w1.simplex_iters"] = (total(lp, "nit"), "count")
    m["measures.w1.presolve_retries"] = (total(lp, "retry"), "count")
    m["measures.w1.lp_vars"] = (total(lp, "vars"), "count")
    sample = get("measures.sample")
    for kind, iid in (("iid", True), ("markov", False)):
        grp = [s for s in sample if s["attrs"]["iid"] is iid]
        m[f"measures.sample.{kind}.symbols"] = (total(grp, "symbols"), "count")
        m[f"measures.sample.{kind}.busy_s"] = (busy(grp), "s")
    emp = get("measures.empirical")
    m["measures.empirical.windows"] = (total(emp, "windows"), "count")
    m["measures.empirical.busy_s"] = (busy(emp), "s")
    m["measures.truncation_proxy.busy_s"] = (
        busy(get("measures.truncation_proxy")), "s")

    adm = get("sofic.is_admissible")
    m["sofic.is_admissible.symbols"] = (total(adm, "symbols"), "count")
    m["sofic.is_admissible.busy_s"] = (busy(adm), "s")
    m["sofic.connector.busy_s"] = (busy(get("sofic.connector")), "s")
    m["sofic.admissible_words.busy_s"] = (
        busy(get("sofic.admissible_words")), "s")

    tw = get("constructor.typical_word")
    attempts = len(children_named(tw, "measures.sample"))
    m["constructor.typical_word.calls"] = (len(tw) / passes, "count")
    m["constructor.typical_word.attempts"] = (attempts / passes, "count")
    m["constructor.typical_word.accept_ratio"] = (
        len(tw) / attempts if attempts else 0.0, "ratio")
    m["constructor.typical_word.busy_s"] = (busy(tw), "s")
    bo = get("constructor.build_orbit")
    m["constructor.build_orbit.symbols"] = (total(bo, "symbols"), "count")
    m["constructor.build_orbit.busy_s"] = (busy(bo), "s")
    vs = get("constructor.verify_saturation")
    m["constructor.verify_saturation.busy_s"] = (busy(vs), "s")
    m["constructor.verify_saturation.w1_calls"] = (
        len(children_named(vs, "measures.wasserstein1")) / passes, "count")
    m["constructor.block_schedule.busy_s"] = (
        busy(get("constructor.block_schedule")), "s")
    m["constructor.check_itinerary.busy_s"] = (
        busy(get("constructor.check_itinerary")), "s")

    pw = get("emergence.pairwise_w1")
    m["emergence.pairwise_w1.pairs"] = (total(pw, "pairs"), "count")
    m["emergence.pairwise_w1.busy_s"] = (busy(pw), "s")
    m["emergence.build_cloud.busy_s"] = (busy(get("emergence.build_cloud")), "s")
    m["emergence.covering.busy_s"] = (busy(get("emergence.covering")), "s")

    outer = [s for s in get("carath.outer_measure")
             if names.get(s["parent"]) != "carath.outer_measure"]
    m["carath.outer_measure.calls"] = (len(outer) / passes, "count")
    m["carath.outer_measure.nodes"] = (total(outer, "nodes"), "count")
    m["carath.outer_measure.busy_s"] = (busy(outer), "s")
    m["carath.restricted.member_probes"] = (
        len(get("carath.member_probe")) / passes, "count")
    m["carath.restricted.busy_s"] = (busy(get("carath.restricted")), "s")

    m["config.load.busy_s"] = (busy(get("config.load")), "s")
    writes = get("cli.write")
    m["cli.write.bytes"] = (total(writes, "bytes"), "count")
    m["cli.write.busy_s"] = (busy(writes), "s")

    own = self_times(spans)
    for mod in MODULES:
        m[f"{mod}.self_s"] = (sum(own[s["id"]] for s in spans
                                  if s["name"].split(".")[0] == mod) / passes,
                              "s")
    return m
