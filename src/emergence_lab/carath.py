"""Dimension structures on cylinder trees and their outer measures.

A structure assigns to each cylinder C(u) a weight q(C, t) = xi(C) * eta(C)^t.
Four built-in kinds:

  entropy    xi = 1,                eta = e^{-l}
  pressure   xi = exp(sup S_l phi), eta = e^{-l}
  hausdorff  xi = 1,                eta = (m-1) beta^{-l} / (beta-1)
  appendix   xi = 1,                eta = exp(-sup S_l u), u > 0

Potentials are locally constant with a declared window k (a table over
length-k words).  The sup of a Birkhoff sum over C(u) is the windows inside u
plus the best tail after its last min(l, k-1) symbols, which each structure
works out once by a max-plus recursion over the suffix states.  So for every
kind the ratio q(uc)/q(u) depends only on c and the last span = max(k-1, 1)
symbols of u, and the cover infimum of C(u) is q(u) G(|u|, suffix of u).  M,
N, the partition-sum pressure (any window) and the Q1 and m_of_t condition
probes all come from one recursion over (depth, suffix state) in log space,
with no underflow at deep caps.  A sweep is one recursion over its grid of
(t, m_blk, cap) entries (`outer_measures`): one vectorised pass down from the
deepest cap, O(max cap * entries * m^k) work, in which a repeated entry is
computed once.  The Q3 and C4 probes read
the same per-(state, symbol) steps and hold over all word lengths.  The
exact pressure (pressure kind) and the Bowen root (appendix kind) read the
transfer matrix of e^phi on the steady suffix states, the words of length
span.  The restricted outer measure, whose membership test reads the whole
word, sweeps the words below its cylinder one length at a time, O(m^cap);
each word's empirical masses come from one period of its representative,
and the distinct masses of all probe layers are decided in batches of at
most MEASURE_CAP entries before the sweep.  scipy loads only where it runs:
`bowen_dimension` imports `brentq` (scipy.optimize) and `pressure_partition`
imports `logsumexp` (scipy.special) in their bodies.  Every W1 LP goes
through `measures.linprog`, which loads HiGHS's extension module alone, and
every Perron solve through `sofic.perron`, which takes numpy's `eig`.
Every n and m_blk, and the depth (>= 2) of `check_conditions`, obey
`sofic.integer_count`: any integer type passes, and a bool or a float
raises InputError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .errors import DepthError, InputError, InvariantError, SizeError
from .measures import (MEASURE_CAP, count_masses, periodic_counts,
                       truncation_proxy, w1_below)
from .sofic import ShiftSpace, admissible_words, connector, count_admissible, \
    integer_count, is_admissible, perron, symbol_array, topological_entropy

KINDS = ("entropy", "hausdorff", "pressure", "appendix")
SURVIVOR_CAP = 200_000   # membership probes of one restricted outer measure
STATE_CAP = 2 ** 17      # suffix states of one structure (10^5 at m = 10)
TRANSFER_CAP = 2 ** 12   # states of the dense exact-pressure transfer matrix


@dataclass(frozen=True)
class CStructure:
    """A Caratheodory structure over the cylinder tree of a shift space."""

    kind: str
    space: ShiftSpace
    window: int = 1
    table: dict = None   # word tuple (len == window) -> potential value

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown structure kind {self.kind!r}",
                             module="carath", operation="CStructure")
        if not 1 <= self.window <= 8:
            raise SizeError(f"potential window must be in 1..8, got {self.window}",
                            module="carath", operation="CStructure")
        n_states = count_admissible(self.space, max(self.window - 1, 1))
        if n_states > STATE_CAP:
            raise SizeError(f"{n_states} suffix states exceed cap {STATE_CAP}",
                            module="carath", operation="CStructure")
        if self.kind in ("pressure", "appendix"):
            if self.table is None:
                raise InputError(f"{self.kind} kind needs a potential table",
                                 module="carath", operation="CStructure")
            tbl = {tuple(int(s) for s in w): float(v)
                   for w, v in self.table.items()}
            if (set(tbl) != set(admissible_words(self.space, self.window))
                    or not all(map(math.isfinite, tbl.values()))):
                raise InputError("potential table must map exactly the "
                                 "admissible windows to finite values",
                                 module="carath", operation="CStructure")
            if self.kind == "appendix" and min(tbl.values()) <= 0:
                raise InputError("appendix-kind potential must be strictly positive",
                                 module="carath", operation="CStructure")
            object.__setattr__(self, "table", tbl)

    @cached_property
    def _suffix(self):
        """The suffix-state machine, as a namespace.

        states: the admissible words of length 1..span, span = max(window -
        1, 1), shortest first, with their index and lengths; (rows, cols):
        the pairs (i, c - 1) where c may follow states[i], and steps the
        words states[i] + (c,); nxt[i, c - 1]: the row of the state (last
        min(len + 1, span) symbols) of that word, or of any state of that
        length; layers[j]: the rows of length j and their nxt rows counted
        from the first state of length min(j + 1, span).  phi[i, c - 1]:
        the potential of the last window of w + (c,), for w the i-th steady
        state (length span), -inf where c may not follow w; None without a
        potential.  tail[w]: V_{|w|} maximised over the length-(window - 1)
        states that begin with w, where V_0 = 0 and V_{j+1}(w) = max_c
        (phi(wc) + V_j(state of wc)), the best sum of the Birkhoff terms that
        start inside w and read past it (0 without a table or at window 1).
        sups: sup_birkhoff of the states and of the steps, or None without a
        potential.
        """
        space = self.space
        span = max(self.window - 1, 1)
        words = [admissible_words(space, j) for j in range(1, span + 1)]
        states = [w for layer in words for w in layer]
        index = {w: i for i, w in enumerate(states)}
        start = np.cumsum([0] + [len(layer) for layer in words]).tolist()
        rows, cols = np.nonzero(space.transition[[w[-1] - 1 for w in states]])
        steps = [states[i] + (c + 1,) for i, c in zip(rows.tolist(),
                                                     cols.tolist())]
        nxt = np.array([[start[min(len(w), span - 1)]] * space.m
                        for w in states], dtype=np.intp)
        nxt[rows, cols] = [index[w[-span:]] for w in steps]
        layers = {j: (slice(start[j - 1], start[j]),
                      nxt[start[j - 1]:start[j]] - start[min(j, span - 1)])
                  for j in range(1, span + 1)}
        tail, phi = np.zeros(len(states)), None
        if self.kind in ("pressure", "appendix"):
            first = start[span - 1]
            k = int(np.searchsorted(rows, first))   # the first steady step
            phi = np.full((len(words[-1]), space.m), -np.inf)
            phi[rows[k:] - first, cols[k:]] = [self.table[w[-self.window:]]
                                               for w in steps[k:]]
        if self.window > 1 and phi is not None:
            best, tail[:] = np.zeros(len(phi)), -np.inf
            for j in range(1, span + 1):
                best = (phi + best[layers[span][1]]).max(axis=1)
                np.maximum.at(tail, [index[w[:j]] for w in words[-1]], best)
        tail = dict(zip(states, tail.tolist()))
        sups = ([np.array([_sup(self, tail, u) for u in us])
                 for us in (states, steps)]
                if self.kind in ("pressure", "appendix") else (None, None))
        return SimpleNamespace(states=states, index=index, rows=rows,
                               cols=cols, nxt=nxt, layers=layers,
                               lengths=np.array([len(w) for w in states]),
                               tail=tail, phi=phi, sups=sups)

    def sup_birkhoff(self, u):
        """sup over x in C(u) of the l-term Birkhoff sum of the window
        potential: the windows inside u plus the best tail after it."""
        return _sup(self, self._suffix.tail, tuple(int(s) for s in u))


def _sup(s, tail, u):
    """sup_birkhoff(u) of s, given its table of best tails."""
    k = s.window
    inside = sum(s.table[u[i:i + k]] for i in range(len(u) - k + 1))
    return float(inside + tail[u[-max(k - 1, 1):]])


def _log_q(s, u, t):
    """log q(C(u), t) of a nonempty word, finite at any depth."""
    sup = s.sup_birkhoff(u) if s.kind in ("pressure", "appendix") else None
    return _log_weight(s, len(u), sup, t)


def _log_weight(s, l, sup, t):
    """log q(C(u), t) from l = |u| and sup = s.sup_birkhoff(u), which the
    entropy and hausdorff kinds do not read; elementwise on arrays."""
    if s.kind == "entropy":
        return -l * t
    if s.kind == "hausdorff":
        sp = s.space
        return t * (math.log((sp.m - 1) / (sp.beta - 1.0)) - l * math.log(sp.beta))
    return sup - l * t if s.kind == "pressure" else -t * sup


def _normalize_target(target, space):
    """A target is 'X' (the first-symbol cylinders) or a nonempty list of
    nonempty admissible words of integers; anything else raises InputError."""
    if target == "X":
        return [(c,) for c in range(1, space.m + 1)]
    try:
        words = [np.asarray(w) for w in target]
    except (TypeError, ValueError):     # not a list, or a ragged word
        words = []
    if not (words and all(w.ndim == 1 and w.size and w.dtype.kind in "iu"
                          for w in words)):
        raise InputError(f"target must be 'X' or a nonempty list of nonempty "
                         f"words of integer symbols, got {target!r:.60}",
                         module="carath", operation="outer_measure")
    for w in words:
        if not is_admissible(w, space):
            raise InputError(f"target word {tuple(w.tolist())} is not admissible",
                             module="carath", operation="outer_measure")
    return [tuple(w.tolist()) for w in words]


def _check_t(t, operation):
    if not math.isfinite(t):
        raise InputError(f"t must be finite, got {t}",
                         module="carath", operation=operation)


def outer_measure_M(s, target, t, depth_cap):
    """Infimum of sum q(C_i, t) over covers by cylinders of depth <= depth_cap."""
    return outer_measures(s, target, [(t, 1, depth_cap)])[0]


def outer_measure_N(s, target, t, m_blk, depth_cap):
    """Same infimum with cover cylinders restricted to depths divisible by m_blk."""
    return outer_measures(s, target, [(t, m_blk, depth_cap)])[0]


def outer_measures(s, target, grid):
    """`outer_measure_N(s, target, t, m_blk, depth_cap)` of each entry
    (t, m_blk, depth_cap) of an iterable grid, as a list.  Every entry is
    checked before any work; the whole grid is one `_log_cover_factors`
    call, in which a repeated entry is computed once."""
    grid = [tuple(e) for e in grid]
    for t, m_blk, depth_cap in grid:
        _check_t(t, "outer_measures")
        integer_count(m_blk, "m_blk", "carath", "outer_measures")
        if depth_cap < 1 or depth_cap % m_blk:
            raise DepthError(f"depth_cap must be a positive multiple of "
                             f"m_blk, got {depth_cap} (m_blk={m_blk})",
                             module="carath", operation="outer_measures")
    words = _normalize_target(target, s.space)
    deepest = max(len(w) for w in words)
    if any(deepest > depth_cap for _, _, depth_cap in grid):
        raise DepthError("target is deeper than depth_cap",
                         module="carath", operation="outer_measures")
    sm = s._suffix
    span = max(s.window - 1, 1)
    # each word's row in the layer of its depth
    at = [sm.index[w[-span:]] - sm.layers[min(len(w), span)][0].start
          for w in words]
    factors = _log_cover_factors(s, grid, {len(w) for w in words})
    return [float(sum(math.exp(_log_q(s, w, t) + log_g[len(w)][i])
                      for w, i in zip(words, at)))
            for (t, _, _), log_g in zip(grid, factors)]


def _log_cover_factors(s, grid, depths):
    """log G(l, .) of each entry (t, m_blk, depth_cap) of grid for each l in
    depths, as one {l: array over the states of layer min(l, span)} per
    entry; a repeated entry's dict is computed once and shared.

    The infimum over covers of C(u) by cylinders whose depths are multiples
    of m_blk up to depth_cap is q(u) G(|u|, w), with w the last
    min(|u|, span) symbols of u and span = max(window - 1, 1).  Layers run up
    from depth_cap, where G = 1 (the cap is a multiple of m_blk), through
    log G(l, w) = logsumexp_c(log q(uc) - log q(u) + log G(l + 1, wc)),
    clipped at 0 where the cylinder itself may cover (l divisible by m_blk).
    The distinct entries, deepest cap first, share one pass down the layers
    (in chunks whose temporaries hold at most MEASURE_CAP values), each at
    G = 1 above its own cap and with its own shifts and clip, so its values
    are the same floats as a pass of that entry alone.
    """
    entries = sorted(dict.fromkeys(grid), key=lambda e: -e[2])
    step = max(1, MEASURE_CAP // s._suffix.nxt.size)
    found = {}
    for i in range(0, len(entries), step):
        found.update(zip(entries[i:i + step],
                         _cover_pass(s, entries[i:i + step], depths)))
    return [found[e] for e in grid]


def _cover_pass(s, entries, depths):
    """`_log_cover_factors` of distinct entries sorted by falling cap."""
    sm = s._suffix
    span = max(s.window - 1, 1)
    ts = list(dict.fromkeys(t for t, _, _ in entries))
    inc = np.stack([_log_steps(s, t) for t in ts])
    which = np.array([ts.index(t) for t, _, _ in entries], dtype=np.intp)
    caps = [depth_cap for _, _, depth_cap in entries]
    # log G = fsum(shifts) + rel with max(rel) = 0: summing the per-layer
    # shifts exactly keeps deep caps as accurate as shallow ones; their plain
    # running total only decides whether the clip at G = 1 applies.  Row e
    # of rel holds entry e on the first len(layer) columns; rows below the
    # active ones stay 0, G = 1 at and above their caps
    rel = np.zeros((len(entries), len(sm.layers[span][1])))
    shifts = [[] for _ in entries]
    total = [0.0] * len(entries)
    out = [{} for _ in entries]
    for l in range(caps[0], min(depths) - 1, -1):
        rows, to = sm.layers[min(l, span)]
        n = len(to)
        k = sum(depth_cap > l for depth_cap in caps)
        if k:
            x = inc[which[:k], rows] + rel[:k, to]
            top = x.max(axis=2)
            new = top + np.log(np.exp(x - top[..., None]).sum(axis=2))
            shift = new.max(axis=1)
            new -= shift[:, None]
            rel[:k, :n] = new
            for e, v in enumerate(shift.tolist()):
                shifts[e].append(v)
                total[e] += v
            clip = [e for e in range(k)
                    if l % entries[e][1] == 0 and total[e] > 0]
            if clip:
                base = np.array([math.fsum(shifts[e]) for e in clip])
                rel[clip, :n] = np.minimum(rel[clip, :n] + base[:, None], 0.0)
                for e in clip:
                    shifts[e], total[e] = [], 0.0
        if l in depths:
            base = np.array([math.fsum(sh) for sh in shifts])
            for e, g in enumerate(base[:, None] + rel[:, :n]):
                out[e][l] = g
    return out


def _log_steps(s, t):
    """log q(uc) - log q(u) for each suffix state w of u (a row of
    s._suffix) and symbol c, -inf where c may not follow w.  It is
    log q(wc) - log q(w) for every u ending in w: the sup of a Birkhoff sum
    over C(u) is a part fixed by u plus the best tail after its last
    window - 1 symbols."""
    sm = s._suffix
    sup_w, sup_wc = sm.sups
    here = _log_weight(s, sm.lengths, sup_w, t)
    inc = np.full(sm.nxt.shape, -np.inf)
    inc[sm.rows, sm.cols] = (_log_weight(s, sm.lengths[sm.rows] + 1, sup_wc, t)
                             - here[sm.rows])
    return inc


def _require_kind(s, kind, operation):
    if s.kind != kind:
        raise InputError(f"{operation} needs a {kind}-kind structure, got "
                         f"{s.kind!r}", module="carath", operation=operation)


def pressure_partition(s, n):
    """(1/n) log of the partition sum of exp(sup-Birkhoff) over depth-n cylinders.

    With m_blk = depth_cap = n the only cover is the depth-n partition, so at
    t = 0 the sum over the cylinders inside C(c) is q(c) G(1, c).
    """
    from scipy.special import logsumexp
    n = integer_count(n, "n", "carath", "pressure_partition")
    _require_kind(s, "pressure", "pressure_partition")
    sm = s._suffix
    log_g = _log_cover_factors(s, [(0.0, n, n)], {1})[0][1]
    return float(logsumexp([_log_q(s, w, 0.0) + g for w, g in
                            zip(sm.states[sm.layers[1][0]], log_g.tolist())])
                 / n)


def _log_radius(s, scale, operation):
    """log Perron eigenvalue of the transfer matrix of scale * phi on the
    steady suffix states of s: entry (w, state of wc) is
    e^(scale * phi(wc)) for each step wc that is allowed.  More than
    TRANSFER_CAP states raise SizeError, tagged with `operation`."""
    sm = s._suffix
    to = sm.layers[max(s.window - 1, 1)][1]
    if len(to) > TRANSFER_CAP:
        raise SizeError(f"{len(to)} transfer states exceed cap {TRANSFER_CAP}",
                        module="carath", operation=operation)
    # scatter the allowed steps only: a forbidden step's nxt entry may
    # coincide with an allowed step's target
    i, c = np.nonzero(np.isfinite(sm.phi))
    a = np.zeros((len(to), len(to)))
    a[i, to[i, c]] = np.exp(scale * sm.phi[i, c])
    return float(np.log(perron(a)[0]))


def pressure_exact(s):
    """The topological pressure of a pressure-kind structure's k-window
    potential: the log spectral radius of its (k - 1)-block transfer matrix
    (Walters 1982), on the steady suffix states."""
    _require_kind(s, "pressure", "pressure_exact")
    return _log_radius(s, 1.0, "pressure_exact")


def bowen_dimension(s, tol=1e-9):
    """The unique root r of P(-r u) = 0 for the positive window potential u
    of an appendix-kind structure, located by Brent's method to within tol."""
    from scipy.optimize import brentq
    _require_kind(s, "appendix", "bowen_dimension")
    hi = topological_entropy(s.space) / min(s.table.values()) + tol
    try:
        return float(brentq(lambda r: _log_radius(s, -r, "bowen_dimension"),
                            0.0, hi, xtol=tol))
    except ValueError as exc:   # P at 0 and at hi share a sign
        raise InvariantError("root bracket failed (pressure positive at cap)",
                             module="carath", operation="bowen_dimension") from exc


@dataclass(frozen=True)
class ConditionReport:
    depth: int
    t_grid: tuple
    q1_estimate: float
    q3_estimate: float
    m_of_t: int          # -1 when no tested block size passes
    c1_pass: bool
    c2_pass: bool
    c3_pass: bool
    c4_pass: bool

    def to_json(self):
        return {"depth": self.depth, "t_grid": list(self.t_grid),
                "Q1_estimate": self.q1_estimate, "Q3_estimate": self.q3_estimate,
                "m_of_t": self.m_of_t,
                "C1_pass": self.c1_pass, "C2_pass": self.c2_pass,
                "C3_pass": self.c3_pass, "C4_pass": self.c4_pass}


def check_conditions(s, depth, t_grid):
    """Numeric diagnostics for the quasi-multiplicativity / monotonicity conditions.

    Q3: worst two-sided ratio q(uv) vs q(u)q(v) over all concatenable pairs,
    of any lengths.  C4: eta nonincreasing along every tree edge.  Both are
    exact: log q(uv) - log q(u) - log q(v) and log eta(uc) - log eta(u) read
    only the last span = max(window - 1, 1) symbols of u and the first span
    of v, so they run over the suffix states.
    Q1: worst-case deep-cover deficiency min M(C(u))/q(u) at the test depth.
    m_of_t: smallest block size in 1..8 whose restricted recursion is
    attained by a single enclosing cylinder for all shallow test cylinders.
    Both probes read N(C(u))/q(u) = G(|u|, state of u) over every suffix
    state at once; each state ends some admissible word of every length,
    since no symbol is dead.
    """
    depth = integer_count(depth, "depth", "carath", "check_conditions", 2)
    t_grid = tuple(float(t) for t in t_grid)
    if not t_grid:
        raise InputError("t_grid must be nonempty", module="carath",
                         operation="check_conditions")

    # Q3: growing v one symbol at a time, log q(uv) - log q(u) - log q(v)
    # gains the step from the state of u v[:i] less the step from v[:i].
    # That state ends in v[:i] (i < span), so it fixes both steps, and a
    # max-plus pass over span symbols, indexed by it, gives the largest
    # +-difference over every pair; from span symbols on the steps agree
    sm = s._suffix
    rows, cols = sm.rows, sm.cols
    within_v = [np.array([sm.index[w[-i:]] for w in sm.states])[rows]
                for i in range(1, max(s.window - 1, 1))]
    worst = 0.0
    for t in t_grid:
        _check_t(t, "check_conditions")   # every t, before any probe
        inc = _log_steps(s, t)
        alone = np.array([_log_q(s, (c,), t)
                          for c in range(1, s.space.m + 1)])
        ext = np.zeros((len(sm.states), 2))   # largest +- the difference
        for v_rows in [None] + within_v:
            d = inc[rows, cols] - (alone[cols] if v_rows is None
                                   else inc[v_rows, cols])
            grown = np.full(ext.shape, -np.inf)
            np.maximum.at(grown, sm.nxt[rows, cols],
                          ext[rows] + np.column_stack([d, -d]))
            ext = grown
            worst = max(worst, ext.max())
    with np.errstate(over="ignore"):
        q3 = float(np.exp(worst))
    c3_pass = math.isfinite(q3)

    # log q = log xi + t log eta, so the log-eta steps are the log-q steps at
    # t = 1 less those at t = 0
    d_eta = _log_steps(s, 1.0)[rows, cols] - _log_steps(s, 0.0)[rows, cols]
    c4_pass = bool((d_eta <= 1e-12).all())

    probe_depth = min(depth, 4)
    q1 = min(math.exp(log_g[probe_depth].min()) for log_g in
             _log_cover_factors(s, [(t, 1, probe_depth + 2) for t in t_grid],
                                {probe_depth}))
    c1_pass = q1 > 0

    def attained(m_blk):
        # within a uniform factor: one extra level of depth past the first
        # admissible one may not cut the cover cost below half; one grid
        # holds every (t, cap) that the probes of this m_blk read
        depths = range(1, probe_depth + 1)
        firsts = [-(-l // m_blk) * m_blk for l in depths]
        grid = [(t, m_blk, cap) for first in firsts
                for cap in (first, first + m_blk) for t in t_grid]
        log_g = dict(zip(grid, _log_cover_factors(s, grid, depths)))
        return all((log_g[t, m_blk, first + m_blk][l]
                    - log_g[t, m_blk, first][l] >= math.log(0.5)).all()
                   for l, first in zip(depths, firsts) for t in t_grid)

    m_of_t = next((m_blk for m_blk in range(1, 9) if attained(m_blk)), -1)
    c2_pass = m_of_t > 0

    return ConditionReport(depth=depth, t_grid=t_grid,
                           q1_estimate=float(q1), q3_estimate=float(q3),
                           m_of_t=m_of_t, c1_pass=c1_pass, c2_pass=c2_pass,
                           c3_pass=c3_pass, c4_pass=c4_pass)


def _layer_counts(words, n, depth, space):
    """The (k, m^depth) node counts of the first n depth-windows of the
    representative orbit of each row u of a (k, l) word array: u repeated,
    through the connector when u cannot follow itself.  The connector
    depends only on the pair (last, first) of u, so each pair's words form
    one (rows, period) array, counted from one period each."""
    m = space.m
    counts = np.empty((len(words), m ** depth), dtype=np.int64)
    pair = (words[:, -1].astype(np.int64) - 1) * m + words[:, 0] - 1
    for key in np.unique(pair).tolist():
        rows = np.flatnonzero(pair == key)
        bridge = connector((key // m + 1,), (key % m + 1,), space)
        periods = np.hstack([words[rows], np.tile(np.array(bridge, np.int16),
                                                  (len(rows), 1))])
        counts[rows] = periodic_counts(periods, n, depth, m)
    return counts


def _tracking(counts, proxy, n, eps, depth, space):
    """Whether W1(delta_y^n, proxy) < eps at metric depth `depth` for each
    row of a (k, m^depth) count matrix, the window counts of a
    representative orbit y (`_layer_counts`): the distinct count rows
    become masses (`count_masses`), are decided in one batch (`w1_below`),
    and the decisions are scattered back."""
    distinct, inverse = np.unique(counts, axis=0, return_inverse=True)
    below = w1_below(count_masses(distinct, n), proxy, eps, depth, space)
    return below[inverse.ravel()]


def _memberships(layers, proxy, n, eps, depth, space):
    """`_tracking` of every word of a list of word arrays, one bool array
    per array.  The words are taken in order in chunks of at most
    max(1, MEASURE_CAP // m^depth), which may span arrays, so no chunk's
    counts hold more than MEASURE_CAP entries; each chunk's counts are
    stacked and decided by one `_tracking` call."""
    step = max(1, MEASURE_CAP // space.m ** depth)
    begins = np.cumsum([0] + [len(words) for words in layers]).tolist()
    member = np.empty(begins[-1], dtype=bool)
    for start in range(0, member.size, step):
        stop = min(start + step, member.size)
        counts = np.vstack([
            _layer_counts(words[max(start - b, 0):stop - b], n, depth, space)
            for words, b in zip(layers, begins)
            if b < stop and b + len(words) > start])
        member[start:stop] = _tracking(counts, proxy, n, eps, depth, space)
    return np.split(member, begins[1:-1])


def restricted_outer_measure(s, z, mu, n, eps, t, m_blk, depth_cap,
                             metric_depth):
    """Cover infimum over cylinders whose representatives empirically track mu.

    The covering family is the block-depth family further restricted to
    cylinders C(u) whose representative orbit y has W1(delta_y^n, mu-proxy)
    < eps at the stated metric depth.  Cylinders at depth_cap failing the
    test contribute 0 (treated as disjoint from the tracked set).

    The words below z are one array per length, each row with its parent's
    row.  The probes, the words at positive depths divisible by m_blk, are
    counted against SURVIVOR_CAP before any W1 work.  Membership depends
    neither on t nor on the infimum, so every probe is decided first
    (`_memberships`: chunks of at most MEASURE_CAP count entries that may
    span layers, one deduplicated `w1_below` batch each); then the infimum
    runs up from depth_cap one layer at a time.
    """
    if not eps >= 0:
        raise InputError(f"eps must be >= 0, got {eps}",
                         module="carath", operation="restricted_outer_measure")
    _check_t(t, "restricted_outer_measure")
    n = integer_count(n, "n", "carath", "restricted_outer_measure")
    m_blk = integer_count(m_blk, "m_blk", "carath", "restricted_outer_measure")
    space = s.space
    w = symbol_array(z, space.m, "carath", "restricted_outer_measure")
    z = tuple(w.tolist())
    if w.ndim != 1 or not is_admissible(w, space):
        raise InputError(f"z = {z} is not admissible",
                         module="carath", operation="restricted_outer_measure")
    if len(z) > depth_cap:
        raise DepthError("z is deeper than depth_cap",
                         module="carath", operation="restricted_outer_measure")
    if mu.space != space:
        raise InputError("mu lives on another space than the structure",
                         module="carath", operation="restricted_outer_measure")
    proxy = truncation_proxy((mu,), (1.0,), metric_depth)
    layers, parents, probed = [np.array([z], dtype=np.int16)], [], []
    probes = 0
    for l in range(len(z), depth_cap + 1):
        if l and l % m_blk == 0:
            probed.append(l)
            probes += len(layers[-1])
            if probes > SURVIVOR_CAP:
                raise SizeError(f"membership probes exceed cap {SURVIVOR_CAP}",
                                module="carath",
                                operation="restricted_outer_measure")
        if l < depth_cap:
            # row-major nonzero: each word's children in increasing order
            rows, nxt = np.nonzero(space.transition[layers[-1][:, -1] - 1]
                                   if l else np.ones((1, space.m)))
            layers.append(np.column_stack([layers[-1][rows], nxt + 1])
                          .astype(np.int16))
            parents.append(rows)
    member = {}
    if eps > 0:
        member = dict(zip(probed, _memberships(
            [layers[l - len(z)] for l in probed], proxy, n, eps,
            metric_depth, space)))
    val = np.zeros(len(layers[-1]))
    for l in range(depth_cap, len(z) - 1, -1):
        words = layers[l - len(z)]
        if l < depth_cap:
            # each word's children added left to right
            val = np.bincount(parents[l - len(z)], weights=val,
                              minlength=len(words))
        if l in member:
            for i in np.flatnonzero(member[l]).tolist():
                q = math.exp(_log_q(s, tuple(words[i].tolist()), t))
                val[i] = q if l == depth_cap else min(q, val[i])
    return float(val[0])
