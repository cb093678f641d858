"""Dimension structures on cylinder trees and their outer measures.

A structure assigns to each cylinder C(u) a weight q(C, t) = xi(C) * eta(C)^t.
Four built-in kinds:

  entropy    xi = 1,                eta = e^{-l}
  pressure   xi = exp(sup S_l phi), eta = e^{-l}
  hausdorff  xi = 1,                eta = (m-1) beta^{-l} / (beta-1)
  appendix   xi = 1,                eta = exp(-sup S_l u), u > 0

Potentials are locally constant with a declared window k (a table over length-k
words), so Birkhoff sups over a cylinder are exact finite maxima.  Outer
measures are infima over covers by cylinders of bounded depth; the depth cap is
explicit everywhere and values are monotone in it.  For every kind the ratio
q(uc)/q(u) depends only on c and on the last max(k-1, 1) symbols of u, so the
cover infimum of C(u) is q(u) G(|u|, suffix of u).  M, N, the partition-sum
pressure (any window) and the Q1 and m_of_t condition probes all come from
one recursion over (depth, suffix state) in log space, O(cap m^k) work with
no underflow at deep caps.  The recursion over the whole cylinder tree,
O(m^cap), is kept only for the restricted outer measure, whose membership
test reads the whole word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp

from .errors import DepthError, InputError, InvariantError, SizeError
from .measures import truncation_proxy, wasserstein1, empirical_measure
from .sofic import PointPrefix, ShiftSpace, admissible_words, connector, \
    is_admissible, perron, topological_entropy

KINDS = ("entropy", "hausdorff", "pressure", "appendix")
SURVIVOR_CAP = 200_000   # membership probes of one restricted outer measure


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
        _check_window(self.window, "CStructure")
        if self.kind in ("pressure", "appendix"):
            if self.table is None:
                raise InputError(f"{self.kind} kind needs a potential table",
                                 module="carath", operation="CStructure")
            tbl = _potential_table(self.space, self.table, self.window)
            if self.kind == "appendix" and min(tbl.values()) <= 0:
                raise InputError("appendix-kind potential must be strictly positive",
                                 module="carath", operation="CStructure")
            object.__setattr__(self, "table", tbl)
        object.__setattr__(self, "_sup_cache", {})

    def sup_birkhoff(self, u):
        """sup over x in C(u) of the l-term Birkhoff sum of the window potential."""
        u = tuple(int(s) for s in u)
        cached = self._sup_cache.get(u)
        if cached is not None:
            return cached
        k = self.window
        l = len(u)
        if k == 1:
            val = float(sum(self.table[(s,)] for s in u))
        else:
            fixed = sum(self.table[u[i:i + k]] for i in range(max(l - k + 1, 0)))
            best = -math.inf
            # the admissible continuations of length k - 1 after u[-1] are
            # the admissible k-words starting with u[-1], without it
            for e in admissible_words(self.space, k):
                if e[0] == u[-1]:
                    w = u + e[1:]
                    tail = sum(self.table[w[i:i + k]]
                               for i in range(max(l - k + 1, 0), l))
                    best = max(best, tail)
            val = float(fixed + best)
        self._sup_cache[u] = val
        return val

    def xi(self, u):
        if self.kind == "pressure":
            return math.exp(self.sup_birkhoff(u))
        return 1.0

    def eta(self, u):
        l = len(u)
        if l == 0:
            return 0.0
        if self.kind in ("entropy", "pressure"):
            return math.exp(-l)
        if self.kind == "hausdorff":
            return self.space.metric_tail_bound(l)
        return math.exp(-self.sup_birkhoff(u))

    def to_json(self):
        out = {"kind": self.kind, "window": self.window}
        if self.table is not None:
            out["table"] = {"".join(str(s) for s in w): v
                            for w, v in sorted(self.table.items())}
        return out

    @classmethod
    def from_json(cls, obj, space):
        table = obj.get("table")
        if table is not None:
            table = {tuple(int(c) for c in w): float(v) for w, v in table.items()}
        return cls(kind=obj["kind"], space=space,
                   window=int(obj.get("window", 1)), table=table)


def _check_window(window, operation):
    """Raise unless the potential window is in 1..8: the suffix recursion
    keeps one state per admissible word of length window - 1."""
    if window < 1 or window > 8:
        raise SizeError(f"potential window must be in 1..8, got {window}",
                        module="carath", operation=operation)


def _potential_table(space, table, window):
    """The table of a window potential with int-tuple keys and float values.

    Raises unless the window is in 1..8 and the keys are exactly the
    admissible words of that length.
    """
    _check_window(window, "potential_table")
    tbl = {tuple(int(s) for s in w): float(v) for w, v in table.items()}
    if set(tbl) != set(admissible_words(space, window)):
        raise InputError(
            "potential table must cover exactly the admissible windows",
            module="carath", operation="potential_table")
    return tbl


def q_weight(s, u, t):
    """The cover weight q(C(u), t) = xi * eta^t."""
    u = tuple(int(x) for x in u)
    if not u:
        return 0.0
    return s.xi(u) * s.eta(u) ** t


def _log_q(s, u, t):
    """log q(C(u), t) of a nonempty word, finite at any depth."""
    l = len(u)
    if s.kind == "entropy":
        return -l * t
    if s.kind == "hausdorff":
        sp = s.space
        return t * (math.log((sp.m - 1) / (sp.beta - 1.0)) - l * math.log(sp.beta))
    sup = s.sup_birkhoff(u)
    return sup - l * t if s.kind == "pressure" else -t * sup


def _normalize_target(target, space):
    """A target is 'X', the union of the first-symbol cylinders, or a list of
    nonempty admissible words (union of cylinders)."""
    if target == "X" or target is None:
        return [(c,) for c in range(1, space.m + 1)]
    words = [tuple(int(s) for s in w) for w in target]
    for w in words:
        if not w:
            raise InputError("target words must be nonempty (use 'X' for the whole space)",
                             module="carath", operation="outer_measure")
        if not is_admissible(w, space):
            raise InputError(f"target word {w} is not admissible",
                             module="carath", operation="outer_measure")
    return words


def outer_measure_M(s, target, t, depth_cap):
    """Infimum of sum q(C_i, t) over covers by cylinders of depth <= depth_cap."""
    return outer_measure_N(s, target, t, 1, depth_cap)


def outer_measure_N(s, target, t, m_blk, depth_cap):
    """Same infimum with cover cylinders restricted to depths divisible by m_blk."""
    if m_blk < 1:
        raise InputError(f"m_blk must be >= 1, got {m_blk}",
                         module="carath", operation="outer_measure_N")
    if depth_cap < 1 or depth_cap % m_blk:
        raise DepthError(f"depth_cap must be a positive multiple of m_blk, "
                         f"got {depth_cap} (m_blk={m_blk})",
                         module="carath", operation="outer_measure_N")
    words = _normalize_target(target, s.space)
    if max(len(w) for w in words) > depth_cap:
        raise DepthError("target is deeper than depth_cap",
                         module="carath", operation="outer_measure_N")
    span = max(s.window - 1, 1)
    log_g = _log_cover_factors(s, t, m_blk, depth_cap, {len(w) for w in words})
    return float(sum(math.exp(_log_q(s, w, t) + log_g[len(w)][w[-span:]])
                     for w in words))


def _log_cover_factors(s, t, m_blk, depth_cap, depths):
    """log G(l, w) for each l in depths, as {state w: value}.

    The infimum over covers of C(u) by cylinders whose depths are multiples
    of m_blk up to depth_cap is q(u) G(|u|, w), with w the last
    min(|u|, span) symbols of u and span = max(window - 1, 1).  Layers run up
    from depth_cap, where G = 1 (the cap is a multiple of m_blk), through
    log G(l, w) = logsumexp_c(log q(uc) - log q(u) + log G(l + 1, wc)),
    clipped at 0 where the cylinder itself may cover (l divisible by m_blk).
    """
    span = max(s.window - 1, 1)
    states = {l: admissible_words(s.space, l) for l in range(1, span + 1)}
    steps = {}
    # log G = fsum(shifts) + rel with max(rel) = 0: summing the per-layer
    # shifts exactly keeps deep caps as accurate as shallow ones; their plain
    # running total only decides whether the clip at G = 1 applies
    rel = np.zeros(len(states[min(depth_cap, span)]))
    shifts, total = [], 0.0
    out = {}
    for l in range(depth_cap, min(depths) - 1, -1):
        k = min(l, span)
        if l < depth_cap:
            if k not in steps:
                steps[k] = _log_steps(s, t, states[k], states[min(k + 1, span)])
            nxt, inc = steps[k]
            x = inc + rel[nxt]
            top = x.max(axis=1)
            rel = top + np.log(np.exp(x - top[:, None]).sum(axis=1))
            shifts.append(rel.max())
            rel -= shifts[-1]
            total += shifts[-1]
            if l % m_blk == 0 and total > 0:
                rel = np.minimum(rel + math.fsum(shifts), 0.0)
                shifts, total = [], 0.0
        if l in depths:
            base = math.fsum(shifts)
            out[l] = {w: base + r for w, r in zip(states[k], rel.tolist())}
    return out


def _log_steps(s, t, states, targets):
    """For each state w and symbol c: the index in targets of the state of
    wc (its last len(targets[0]) symbols) and log q(uc) - log q(u), -inf
    where c may not follow w.  That increment equals log q(wc) - log q(w)
    for every u ending in w: the sup of a Birkhoff sum over C(u) is a part
    fixed by u plus the best tail over its last window - 1 symbols."""
    width = len(targets[0])
    index = {w: i for i, w in enumerate(targets)}
    nxt = np.zeros((len(states), s.space.m), dtype=np.intp)
    inc = np.full((len(states), s.space.m), -np.inf)
    for i, w in enumerate(states):
        for c in s.space.successors(w[-1]):
            nxt[i, c - 1] = index[(w + (c,))[-width:]]
            inc[i, c - 1] = _log_q(s, w + (c,), t) - _log_q(s, w, t)
    return nxt, inc


def _cover_recursion(s, t, m_blk, depth_cap, member):
    """The memoised cover infimum rec(u) of C(u) by cylinders C(v) with |v|
    a positive multiple of m_blk, |v| <= depth_cap and member(v), each
    weighing q(C(v), t); a cylinder at depth_cap that fails member costs 0.

    It visits every admissible cylinder down to depth_cap, O(m^depth_cap),
    so it serves only the restricted outer measure, whose member reads the
    whole word."""
    space = s.space
    memo = {}

    def rec(u):
        if u in memo:
            return memo[u]
        l = len(u)
        eligible = l and l % m_blk == 0 and member(u)
        if l >= depth_cap:
            val = q_weight(s, u, t) if eligible else 0.0
        else:
            children = sum(rec(u + (c,)) for c in
                           (space.successors(u[-1]) if u
                            else range(1, space.m + 1)))
            val = min(q_weight(s, u, t), children) if eligible else children
        memo[u] = val
        return val

    return rec


def pressure_partition(s, n):
    """(1/n) log of the partition sum of exp(sup-Birkhoff) over depth-n cylinders.

    With m_blk = depth_cap = n the only cover is the depth-n partition, so at
    t = 0 the sum over the cylinders inside C(c) is q(c) G(1, c).
    """
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}",
                         module="carath", operation="pressure_partition")
    if s.kind != "pressure":
        raise InputError("pressure_partition needs a pressure-kind structure",
                         module="carath", operation="pressure_partition")
    log_g = _log_cover_factors(s, 0.0, n, n, {1})[1]
    return float(logsumexp([_log_q(s, w, 0.0) + g for w, g in log_g.items()]) / n)


def _window_transfer(space, table, window):
    """The checked potential as a vector over the admissible windows, and the
    0/1 matrix of the window shift w -> w[1:] + (c,) between them."""
    tbl = _potential_table(space, table, window)
    states = admissible_words(space, window)
    idx = {w: i for i, w in enumerate(states)}
    shift = np.zeros((len(states), len(states)))
    for w in states:
        for c in space.successors(w[-1]):
            shift[idx[w], idx[w[1:] + (c,)]] = 1.0
    return np.array([tbl[w] for w in states]), shift


def _transfer_pressure(phi, shift):
    """log Perron eigenvalue of the window shift weighted by e^phi."""
    weights = np.array([math.exp(v) for v in phi])
    return float(np.log(perron(shift * weights[:, None])[0]))


def pressure_exact(space, table, window=1):
    """log Perron eigenvalue of the window-block transfer matrix weighted by e^phi."""
    return _transfer_pressure(*_window_transfer(space, table, window))


def bowen_dimension(space, table, window=1, tol=1e-9):
    """The unique root s of pressure_exact(-s * u) = 0 for a positive potential
    u, located by Brent's method to within tol."""
    u, shift = _window_transfer(space, table, window)
    u_min = u.min()
    if u_min <= 0:
        raise InputError("Bowen potential must be strictly positive",
                         module="carath", operation="bowen_dimension")
    hi = topological_entropy(space) / u_min + tol

    def p(sv):
        return _transfer_pressure(-sv * u, shift)

    if p(hi) > 0:
        raise InvariantError("root bracket failed (pressure positive at cap)",
                             module="carath", operation="bowen_dimension")
    return float(brentq(p, 0.0, hi, xtol=tol))


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

    Q3: worst two-sided ratio q(uv) vs q(u)q(v) over concatenable pairs with
    |u|+|v| <= depth.  C4: eta nonincreasing along every tree edge to `depth`.
    Q1: worst-case deep-cover deficiency min M(C(u))/q(u) at the test depth.
    m_of_t: smallest block size in 1..8 whose restricted recursion is
    attained by a single enclosing cylinder for all shallow test cylinders.
    Both probes read N(C(u))/q(u) = G(|u|, state of u) over every suffix
    state at once; each state ends some admissible word of every length,
    since no symbol is dead.
    """
    space = s.space
    if depth < 2:
        raise InputError(f"depth must be >= 2, got {depth}",
                         module="carath", operation="check_conditions")
    t_grid = tuple(float(t) for t in t_grid)

    q3 = 1.0
    for lu in range(1, depth):
        for u in admissible_words(space, lu):
            for lv in range(1, depth - lu + 1):
                for v in admissible_words(space, lv):
                    if not space.allows(u[-1], v[0]):
                        continue
                    for t in t_grid:
                        quv = q_weight(s, u + v, t)
                        qs = q_weight(s, u, t) * q_weight(s, v, t)
                        q3 = max(q3, quv / qs, qs / quv)
    c3_pass = math.isfinite(q3)

    c4_pass = True
    for l in range(1, depth):
        for u in admissible_words(space, l):
            eu = s.eta(u)
            for c in space.successors(u[-1]):
                if s.eta(u + (c,)) > eu * (1 + 1e-12):
                    c4_pass = False

    def log_g(t, m_blk, depth_cap, l):
        return np.array(list(
            _log_cover_factors(s, t, m_blk, depth_cap, {l})[l].values()))

    probe_depth = min(depth, 4)
    q1 = min((math.exp(log_g(t, 1, probe_depth + 2, probe_depth).min())
              for t in t_grid), default=math.inf)
    c1_pass = q1 > 0

    def attained(m_blk):
        # within a uniform factor: one extra level of depth past the first
        # admissible one may not cut the cover cost below half
        for l in range(1, probe_depth + 1):
            first = -(-l // m_blk) * m_blk
            for t in t_grid:
                gain = (log_g(t, m_blk, first + m_blk, l)
                        - log_g(t, m_blk, first, l))
                if not (gain >= math.log(0.5)).all():
                    return False
        return True

    m_of_t = next((m_blk for m_blk in range(1, 9) if attained(m_blk)), -1)
    c2_pass = m_of_t > 0

    return ConditionReport(depth=depth, t_grid=t_grid,
                           q1_estimate=float(q1), q3_estimate=float(q3),
                           m_of_t=m_of_t, c1_pass=c1_pass, c2_pass=c2_pass,
                           c3_pass=c3_pass, c4_pass=c4_pass)


def _representatives(u, space, length):
    """The orbit prefix standing in for the points of C(u): u repeated,
    through a connector when u cannot follow itself."""
    w = list(u)
    if not space.allows(u[-1], u[0]):
        w += list(connector(u, u, space))
    return PointPrefix.periodic(w, length)


def restricted_outer_measure(s, z, mu, n, eps, t, m_blk, depth_cap,
                             metric_depth=6):
    """Cover infimum over cylinders whose representatives empirically track mu.

    The covering family is the block-depth family further restricted to
    cylinders C(u) whose representative orbit y has W1(delta_y^n, mu-proxy)
    < eps at the stated metric depth.  Cylinders at depth_cap failing the
    test contribute 0 (treated as disjoint from the tracked set).
    """
    if eps < 0:
        raise InputError(f"eps must be >= 0, got {eps}",
                         module="carath", operation="restricted_outer_measure")
    space = s.space
    z = tuple(int(c) for c in z)
    if not is_admissible(z, space):
        raise InputError(f"z = {z} is not admissible",
                         module="carath", operation="restricted_outer_measure")
    if len(z) > depth_cap:
        raise DepthError("z is deeper than depth_cap",
                         module="carath", operation="restricted_outer_measure")
    proxy = truncation_proxy(mu, metric_depth, space)
    rep_len = n + metric_depth - 1
    member_cache = {}
    tested = [0]

    def member(u):
        if u in member_cache:
            return member_cache[u]
        tested[0] += 1
        if tested[0] > SURVIVOR_CAP:
            raise SizeError(f"membership probes exceed cap {SURVIVOR_CAP}",
                            module="carath", operation="restricted_outer_measure")
        ok = False
        if eps > 0:
            y = _representatives(u, space, rep_len)
            d, _ = wasserstein1(empirical_measure(y, n, metric_depth, space),
                                proxy, metric_depth, space)
            ok = d < eps
        member_cache[u] = ok
        return ok

    return float(_cover_recursion(s, t, m_blk, depth_cap, member)(z))
