"""Markov measures, empirical measures, and exact Wasserstein-1 transport.

Every finitely supported measure is a mass vector on the grid of the m^depth
symbol prefixes: the prefix (x_0, ..., x_{depth-1}) is the grid node
sum_d (x_d - 1) m^d, the one code that window keys, measures and W1 share.
Truncating to a shallower depth sums the nodes that agree in their low
digits.  A symbol outside 1..m would alias another prefix's node, so window
keys raise InputError on one, and a grid of more than `MEASURE_CAP` nodes
raises SizeError before it is allocated.  A Markov measure's law on the
grid is one product recursion from its stationary vector, and
`truncation_proxy` mixes and normalises those laws.  Its words come from
one inverse-CDF walk, a doubling scan over per-step state tables
(`MarkovMeasure._walk`), which serves several words at once
(`sample_words`): each word's first step draws from the stationary law
whatever the state before it, so no word reads another's draws, and each
equals `sample` on its own uniforms.  Every empirical measure is node
counts c among n windows turned into masses c / n, correctly rounded, by
one rule (`count_masses`): the counts of an orbit's windows
(`snapshot_masses`), or of a periodic point's from one period
(`periodic_counts`), both keyed by one window-key builder (`_window_keys`).
The W1 solver works on ground costs truncated at an explicit depth,
sum_d beta^-(d+1) |x_d - y_d|, which is the path metric of the prefix grid;
W1 is then one min-cost flow on that grid (EMD-L1) with supply mu - nu,
solved by HiGHS at primal and dual feasibility tolerances 1e-10, unless a
side of the supply is one node, where the top-down transport plan is
exact.  Flow grids larger than `GRID_CAP` nodes raise SizeError.  Apart
from the solver tolerance, the only error source is the metric truncation
bound, which is returned alongside every value.  Tests of W1 < eps
(`w1_below`) and saturation minima (`w1_min`) work on a mass matrix, one
row per pair against one target measure, and the covering decisions
d <= eps of `w1_settled` on the pairs of rows of one mass matrix at a few
scales; all of them consult sound bounds (`w1_bounds`, no flow) first:
the coordinate-marginal lower bound, and the smaller of the prefix-tree
bound and the cost of that transport plan as the upper bound.  A bound is
trusted only when it clears the threshold by MARGIN, so every result
equals the exact one, and only the rows or pairs the bounds leave open
reach an LP.  `w1_below` solves its open rows, up to `BLOCK_NODES` grid
nodes at a time, as one block-diagonal flow LP, whose values decide a row
only when they clear eps by MARGIN; the values that are reported
(`wasserstein1`, `w1_min`, `pairwise_w1`) come from single solves.
Every flow LP also hands back its dual potential, scaled to be
1-Lipschitz (`_potentials`), which by Kantorovich-Rubinstein duality
bounds W1 from below for every supply, not only its own: `w1_min` raises
the lower bounds of the rows after each solve by it, and `w1_below`
decides a queued row False, with no LP, when a block's potential puts it
above eps by MARGIN.
Every LP goes through one entry point, `linprog`: one direct HiGHS solve
through scipy's bundled bindings, the extension module
`scipy.optimize._highspy._core`, which `_highs` loads from its file on the
first LP without running `scipy/optimize/__init__.py`, so no process ever
loads scipy.optimize for an LP.  It passes HiGHS the model and options
that `scipy.optimize.linprog(method="highs")` would, and its CSC arrays
come from numpy, built once per grid (`_grid_flow`).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DepthError, InputError, InvariantError, SizeError
from .sofic import ShiftSpace, perron, symbol_array

# Largest symbol grid (m^depth nodes) the W1 flow LP is built on: FULL2 to
# depth 12, FULL3 to depth 7.  HiGHS time grows about quadratically in the
# grid: two atoms a side took 0.85 s at 2^12 nodes and 14 s at 2^14 on a
# 2-core Xeon VM.
GRID_CAP = 2 ** 12

# Node budget of one block-diagonal flow LP in `w1_below`: the rows its
# bounds leave open are solved max(1, BLOCK_NODES // m^depth) to a call, so
# grids of more than 72 nodes are solved one row a call.  On FULL2 at depth
# 4 a row took 2.4 ms alone and 0.4-0.7 ms in blocks of 8 to 64, flat from
# 8 on, while HiGHS's peak memory grew with the block count: by 0.4 MB at
# 16 blocks, 1.5 MB at 32 and 4.3 MB at 64 in one process, and by 0.2-0.3
# MB at 12 over the restricted-probe CLI runs, not at 9 (2-core Xeon VM).
BLOCK_NODES = 144

# Largest prefix grid (m^depth entries) a finitely supported measure is
# stored on, 32 MB of float64: FULL2 to depth 22, metric depth 6 to m = 12.
MEASURE_CAP = 2 ** 22

# How far a W1 bound must clear eps before `w1_below`, `w1_min` or
# `w1_settled` trusts it without an exact solve, and a block LP value before
# `w1_below` trusts it without a single solve: above the flow LP's 1e-10
# tolerances and the bounds' rounding (under 1e-15 on 1,500 random pairs).
MARGIN = 1e-9


# Counter-based RNG used by every sampling operation (documented in the CLI).
def make_rng(seed):
    return np.random.Generator(np.random.Philox(int(seed) & 0xFFFFFFFFFFFFFFFF))


def _inverse_cdf(p):
    """Cumulative sums along the last axis, +inf from each row's last
    positive entry on: a right-sided search for any u in [0, 1) lands on a
    positive entry, even where the float sums fall short of 1."""
    cum = np.cumsum(p, axis=-1)
    last = p.shape[-1] - 1 - np.argmax(p[..., ::-1] > 0, axis=-1)
    cum[np.arange(p.shape[-1]) >= np.expand_dims(last, -1)] = np.inf
    return cum


@dataclass(frozen=True)
class MarkovMeasure:
    """A shift-invariant Markov measure compatible with a given space."""

    stochastic: np.ndarray
    space: ShiftSpace
    stationary: np.ndarray = None

    def __post_init__(self):
        p = np.asarray(self.stochastic, dtype=np.float64)
        m = self.space.m
        if p.shape != (m, m):
            raise InvariantError(f"stochastic matrix must be {m}x{m}, got {p.shape}",
                                 module="measures", operation="MarkovMeasure")
        if not (p >= 0).all():
            raise InvariantError("stochastic entries must be nonnegative",
                                 module="measures", operation="MarkovMeasure")
        if not np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12:
            raise InvariantError("stochastic rows must sum to 1 within 1e-12",
                                 module="measures", operation="MarkovMeasure")
        if ((p > 0) & (self.space.transition == 0)).any():
            raise InvariantError("stochastic support exceeds the transition matrix",
                                 module="measures", operation="MarkovMeasure")
        p.setflags(write=False)
        object.__setattr__(self, "stochastic", p)
        if self.stationary is None:
            object.__setattr__(self, "stationary", perron(p)[1])
        pi = np.asarray(self.stationary, dtype=np.float64)
        if not (pi.shape == (m,) and (pi >= 0).all()
                and abs(pi.sum() - 1.0) <= 1e-10):
            raise InvariantError(f"stationary vector must be a probability "
                                 f"vector of length {m}, got shape {pi.shape}",
                                 module="measures", operation="MarkovMeasure")
        if not np.abs(pi @ p - pi).max() <= 1e-10:
            raise InvariantError("stationary vector is not invariant within 1e-10",
                                 module="measures", operation="MarkovMeasure")
        pi.setflags(write=False)
        object.__setattr__(self, "stationary", pi)

    @property
    def is_bernoulli(self):
        return bool(np.abs(self.stochastic - self.stochastic[0]).max() == 0.0)

    def prefix_law(self, depth):
        """The probabilities pi[x_0] P[x_0, x_1] ... P[x_{depth-2}, x_{depth-1}]
        of the m^depth prefixes on the grid, multiplied left to right: step d
        adds x_d as the top digit, times P[old top digit, x_d]."""
        if depth < 1:
            raise InputError(f"depth must be >= 1, got {depth}",
                             module="measures", operation="prefix_law")
        m = self.space.m
        _grid_size(m, depth, "prefix_law")
        law = self.stationary
        for _ in range(depth - 1):
            law = (self.stochastic.T[:, :, None] * law.reshape(m, -1)).ravel()
        return law

    def entropy(self):
        p = self.stochastic
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(p > 0, p * np.log(p), 0.0)
        return float(-(self.stationary @ plogp.sum(axis=1)))

    def sample(self, n, rng):
        """A length-n word from the stationary chain: the one-word case of
        the inverse-CDF walk `_walk`, on the n uniforms rng.random(n)."""
        if n < 1:
            raise InputError(f"n must be >= 1, got {n}",
                             module="measures", operation="sample")
        return self._walk(rng.random(n), [0])

    def sample_words(self, lengths, rngs):
        """Words of the given lengths from the stationary chain, word i on
        lengths[i] uniforms from rngs[i]: each word equals
        sample(lengths[i], rngs[i]) bit for bit.  The uniforms of all the
        words share one buffer, each word's written in place by
        `Generator.random(out=...)`, and one walk serves them all."""
        lengths = np.asarray(lengths, dtype=np.int64)
        if not lengths.min() >= 1:
            raise InputError(f"lengths must be >= 1, got {lengths.min()}",
                             module="measures", operation="sample")
        ends = np.cumsum(lengths)
        starts = ends - lengths
        u = np.empty(ends[-1])
        for rng, a, b in zip(rngs, starts.tolist(), ends.tolist(),
                             strict=True):
            rng.random(out=u[a:b])
        return np.split(self._walk(u, starts), ends[:-1])

    def _walk(self, u, starts):
        """The symbols of one inverse-CDF walk on the uniforms u, a new word
        starting at each index in starts (0 among them).  Column i of the
        table f maps the state before step i to the one after; a word's
        first column draws from the stationary law, a constant column.  A
        doubling (Hillis-Steele) scan composes the columns until none
        depends on its argument.  A composite that reaches back to a word's
        first column is constant, and composing it further leaves it as it
        is, so no word reads another's draws and each equals its own walk.
        A Bernoulli chain's table is its one distinct row, which depends on
        no argument; a word's first column still draws from the stationary
        law, which for a chain built from a matrix is computed and may
        differ from the row in its last bits."""
        rows = self.stochastic[:1] if self.is_bernoulli else self.stochastic
        f = np.zeros((rows.shape[0], u.shape[0]), dtype=np.int16)
        for s, cum in enumerate(_inverse_cdf(rows)):
            # the right-sided search of u in the nondecreasing cum: the
            # number of its entries <= u, one pass over u per entry
            for c in cum:
                f[s] += u >= c
        f[:, starts] = np.searchsorted(_inverse_cdf(self.stationary), u[starts],
                                       side="right")
        d = 1
        while not (f == f[0]).all():
            f[:, d:] = np.take_along_axis(f[:, d:], f[:, :-d], axis=0)
            d *= 2
        return f[0] + 1

    @classmethod
    def bernoulli(cls, probs, space):
        probs = np.asarray(probs, dtype=np.float64)
        return cls(stochastic=np.tile(probs, (space.m, 1)), space=space,
                   stationary=probs.copy())

    @classmethod
    def parry(cls, space):
        """The measure of maximal entropy."""
        lam, u, v = perron(space.transition)
        a = space.transition.astype(np.float64)
        p = a * v[None, :] / (lam * v[:, None])
        p /= p.sum(axis=1, keepdims=True)
        pi = u * v
        pi /= pi.sum()
        return cls(stochastic=p, space=space, stationary=pi)


@dataclass(frozen=True)
class FinSuppMeasure:
    """A probability measure on the m^depth symbol prefixes: mass[c] is the
    mass of the prefix whose grid node is c."""

    mass: np.ndarray      # (m ** depth,) float64
    depth: int
    m: int

    def __post_init__(self):
        w = np.asarray(self.mass, dtype=np.float64)
        if not (w.shape == (self.m ** self.depth,) and (w >= 0).all()
                and abs(float(w.sum()) - 1.0) <= 1e-12):
            raise InvariantError(f"mass must be {self.m}^{self.depth} nonnegative "
                                 f"entries summing to 1 within 1e-12",
                                 module="measures", operation="FinSuppMeasure")
        w.setflags(write=False)
        object.__setattr__(self, "mass", w)

    def truncated(self, depth):
        """The image measure on the depth-`depth` prefixes: nodes that agree
        in their low `depth` radix-m digits sum."""
        if depth > self.depth:
            raise DepthError(f"depth {depth} exceeds stored depth {self.depth}",
                             module="measures", operation="truncated")
        if depth == self.depth:
            return self
        return FinSuppMeasure(self.mass.reshape(-1, self.m ** depth).sum(axis=0),
                              depth, self.m)


def _grid_size(m, depth, operation):
    """m^depth, the entry count of a measure on the depth-`depth` prefixes;
    raises SizeError above MEASURE_CAP, before anything that size exists."""
    size = int(m) ** int(depth)
    if size > MEASURE_CAP:
        raise SizeError(f"measure grid of {m}^{depth} = {size} prefixes exceeds "
                        f"cap {MEASURE_CAP}", module="measures", operation=operation)
    return size


def _window_keys(symbols, depth, m, operation):
    """The grid nodes sum_d (x_d - 1) m^d of the depth-windows along the
    last axis of a symbol array, as int64: shifted adds of the symbols in
    radix m, then sum_d m^d subtracted once.  A symbol outside 1..m raises
    InputError naming it, tagged with `operation`."""
    w = symbol_array(symbols, m, "measures", operation)
    width = w.shape[-1] - depth + 1
    keys = np.zeros(w.shape[:-1] + (width,), dtype=np.int64)
    for d in reversed(range(depth)):
        keys *= m
        keys += w[..., d:d + width]
    keys -= sum(m ** d for d in range(depth))
    return keys


def empirical_snapshots(x, times, depth, space):
    """Empirical measures at several window counts: the uniform measure on
    the first t shifts of x, at `depth`, for each t in times; each one a
    read-only view of a row of `snapshot_masses`."""
    return [FinSuppMeasure(row, depth, space.m)
            for row in snapshot_masses(x, times, depth, space)]


def snapshot_masses(x, times, depth, space):
    """The (len(times), m^depth) mass matrix of the uniform measures on the
    first t shifts of x, at `depth`, one row per t in times, in any order
    and with repeats.  The times share one pass over the window keys of x:
    each segment between consecutive distinct times is counted once and
    added to the running node counts, O(n + len(times) m^depth) work, and
    each row is `count_masses` of its time's counts."""
    times = [int(t) for t in times]
    if not times or any(t < 1 for t in times):
        raise InputError(f"times must be nonempty positive integers, got {times}",
                         module="measures", operation="empirical_snapshots")
    size = _grid_size(space.m, depth, "empirical_snapshots")
    n = max(times) + depth - 1
    if n > x.symbols.shape[0]:
        raise DepthError(f"need {n} symbols for {max(times)} windows of depth "
                         f"{depth}, have {x.symbols.shape[0]}",
                         module="measures", operation="empirical_snapshots")
    keys = _window_keys(x.symbols[:n], depth, space.m, "empirical_snapshots")
    out = np.empty((len(times), size))
    counts = np.zeros(size, dtype=np.int64)
    start = 0
    for t in sorted(set(times)):
        counts += np.bincount(keys[start:t], minlength=size)
        start = t
        out[np.equal(times, t)] = count_masses(counts[None], t)
    return out


def periodic_counts(periods, n, depth, m):
    """The (k, m^depth) node counts of the first n depth-windows of the
    periodic points of the rows of a (k, p) symbol array: window i repeats
    window i mod p, so a node counts n // p times its windows in one period
    plus its windows among the first n % p.  O(k (p + depth)) work besides
    the count matrix.  A symbol outside 1..m raises InputError."""
    k, p = periods.shape
    size = _grid_size(m, depth, "periodic_counts")
    # the period repeated until it holds p + depth - 1 symbols
    wrapped = np.concatenate([periods] * -(-(p + depth - 1) // p), axis=1)
    keys = _window_keys(wrapped[:, :p + depth - 1], depth, m, "periodic_counts")
    keys += size * np.arange(k)[:, None]
    q, r = divmod(n, p)
    counts = (q * np.bincount(keys.ravel(), minlength=k * size)
              + np.bincount(keys[:, :r].ravel(), minlength=k * size))
    return counts.reshape(k, size)


def count_masses(counts, n):
    """The mass vectors of the empirical measures of n windows with these
    (k, m^depth) node counts, the one rule every empirical mass is built by:
    c / n, correctly rounded.  A row's counts sum to n, so its masses sum to
    1 within a few roundings, inside the 1e-12 `FinSuppMeasure` allows."""
    return counts / n


def truncation_proxy(measures, weights, depth):
    """Exact depth-truncation of the mixture sum_i weights[i] measures[i] of
    Markov measures on one space (InputError otherwise); a single measure mu
    is ((mu,), (1.0,)).  The weights, one per measure, lie on the simplex
    within 1e-12 (InvariantError otherwise).  The component laws sum from 0
    in order, and the result is divided by the sum of its positive masses in
    lexicographic order.  W1 against the true measure is at most the metric
    tail bound at `depth`."""
    w = np.asarray(weights, dtype=np.float64)
    # a NaN weight fails >= 0, an infinite one the sum
    if not (w.shape == (len(measures),) and (w >= 0).all()
            and abs(float(w.sum()) - 1.0) <= 1e-12):
        raise InvariantError("mixture weights must be one nonnegative weight per "
                             "measure, summing to 1 within 1e-12",
                             module="measures", operation="truncation_proxy")
    space = measures[0].space
    if any(mu.space != space for mu in measures[1:]):
        raise InputError("mixture components live on different spaces",
                         module="measures", operation="truncation_proxy")
    law = 0.0
    for t, mu in zip(w, measures):
        law = law + t * mu.prefix_law(depth)
    # the grid is little-endian: reversed axes put x_0 first
    lex = law.reshape((space.m,) * depth).T.ravel()
    return FinSuppMeasure(law / lex[lex > 0].sum(), depth, space.m)


def _check_rows(masses, m, depth, space, operation):
    """Raise unless a (rows, m^depth) mass matrix of measures on m symbols
    fits `space` at `depth` (InputError) and each row is a probability
    vector, as `FinSuppMeasure` checks (InvariantError); an error is tagged
    with the caller's `operation`."""
    if not (m == space.m and masses.shape[1:] == (space.m ** depth,)):
        raise InputError(f"masses of shape {masses.shape} and a measure on "
                         f"{m} symbols, space on {space.m} at depth {depth}",
                         module="measures", operation=operation)
    # a NaN fails >= 0, an infinite mass the sum
    if not ((masses >= 0).all()
            and (np.abs(masses.sum(axis=1) - 1.0) <= 1e-12).all()):
        raise InvariantError("mass rows must be nonnegative and sum to 1 "
                             "within 1e-12", module="measures",
                             operation=operation)


def _net(masses, targets):
    """The supplies masses - targets, with entries of absolute value at
    most 1e-15 set to 0."""
    net = masses - targets
    net[np.abs(net) <= 1e-15] = 0.0
    return net


def _net_rows(masses, nu, depth, space, operation):
    """The supplies row - nu, one per row of a (rows, m^depth) mass matrix
    checked by `_check_rows`."""
    _check_rows(masses, nu.m, depth, space, operation)
    return _net(masses, nu.truncated(depth).mass)


def wasserstein1(mu, nu, depth, space):
    """Exact W1 between finitely supported measures at truncated ground costs.

    The truncated metric sum_d beta^-(d+1) |x_d - y_d| is the path metric of
    the grid of all m^depth symbol prefixes, with an arc between prefixes
    that differ by one in one coordinate d, so W1 is a min-cost flow on that
    grid, whatever the atom counts.  The supply is mu - nu, both truncated
    to `depth`; net masses of at most 1e-15 count as zero.  If a side of the
    supply has at most one node, the top-down plan of `_plan_bound` is
    optimal (every unit moves straight to or from that node), so W1 is its
    cost, with no flow.  Otherwise HiGHS solves the flow at primal and dual
    feasibility tolerances 1e-10; a grid of more than `GRID_CAP` nodes
    raises SizeError before it is built.  `w1_below` and `w1_min` build a
    grid only for a row their bounds leave open, so they raise it only
    then; `w1_below` decides a row with a one-node side by this plan cost
    itself, solves the other rows in block LPs (`_block_values`) and calls
    this function only for a block value within MARGIN of eps.

    Returns (value, error_bound), a `W1Result`.  Truncated costs
    underestimate the true metric, so the true W1 lies in
    [value, value + error_bound].  Its `potential` is the LP's scaled dual
    potential on the grid (`_potentials`), None where the plan gave the
    value.
    """
    m = space.m
    if not mu.m == nu.m == m:
        raise InputError(f"measures on {mu.m} and {nu.m} symbols, space on "
                         f"{m}", module="measures", operation="wasserstein1")
    net = _net_rows(mu.truncated(depth).mass[None], nu, depth, space,
                   "wasserstein1")
    err = space.metric_tail_bound(depth)
    a_codes, b_codes = np.flatnonzero(net[0] > 0), np.flatnonzero(net[0] < 0)
    if min(a_codes.shape[0], b_codes.shape[0]) <= 1:
        return W1Result(float(_plan_bound(net, depth, space)[0]), err)
    # normalize each side (cost is linear in mass; rescale afterwards)
    a_w, b_w = net[0, a_codes], -net[0, b_codes]
    mass = float(a_w.sum())
    incidence, cost, tail, head = _grid_flow(m, depth, float(space.beta))
    supply = np.zeros(m ** depth)
    supply[a_codes] = a_w / mass
    supply[b_codes] = -b_w / b_w.sum()
    res = _solve_flow(cost, incidence, supply[:-1], "wasserstein1")
    return W1Result(mass * float(res.fun), err,
                    _potentials(res.duals[None], tail, head, cost)[0])


class W1Result(tuple):
    """`wasserstein1`'s (value, error_bound), unpacked as a pair like
    `os.stat_result`; `potential` is the flow LP's dual potential scaled by
    `_potentials`, None where the one-node plan gave the value."""

    def __new__(cls, value, error_bound, potential=None):
        out = super().__new__(cls, (value, error_bound))
        out.potential = potential
        return out


def _potentials(duals, tail, head, cost):
    """The (k, m^depth) grid potentials of k flow LPs' duals (k rows of
    `linprog`'s row duals, one per node but the dropped one, which gets 0),
    each divided by max(1, its largest (y_tail - y_head) / c over the arcs).
    HiGHS keeps y_tail - y_head <= c to its dual tolerance, and the division
    makes it hold on every arc, up to the division's rounding, a few ulps
    of y far below MARGIN.  Each row is then 1-Lipschitz in the truncated
    metric, and so is its negation, so by Kantorovich-Rubinstein duality
    mass * |y . s| <= W1 for every supply s normalised as `_unit_supply`
    normalises it, not only the one the LP solved."""
    y = np.append(duals, np.zeros((duals.shape[0], 1)), axis=1)
    slope = ((y[:, tail] - y[:, head]) / cost).max(axis=1)
    return y / np.maximum(slope, 1.0)[:, None]


def _unit_supply(net):
    """(mass, unit) for the rows of a (rows, m^depth) supply matrix: each
    row's positive total, and the row with each side divided by its own
    total, so that W1 of the row is mass times W1 of its unit row; a row
    without two sides gets a zero unit row."""
    pos, neg = np.maximum(net, 0.0), np.maximum(-net, 0.0)
    mass, demand = pos.sum(axis=1), neg.sum(axis=1)
    both = (mass > 0) & (demand > 0)
    unit = np.zeros_like(net)
    unit[both] = pos[both] / mass[both, None] - neg[both] / demand[both, None]
    return mass, unit


def _dual_bounds(mass, unit, potentials):
    """max over the rows y of a (k, m^depth) potential matrix of
    mass * |y . unit|, for each row of `_unit_supply`'s (mass, unit): a
    sound lower bound on each row's W1.  One matrix-vector product per
    potential: a single matrix product raised the peak memory of the
    restricted-probe CLI runs by about 0.3 MB (BLAS buffers), the
    matrix-vector products by under 0.1 MB (2-core Xeon VM)."""
    return mass * np.max([np.abs(unit @ y) for y in potentials], axis=0)


def _solve_flow(cost, incidence, supply, operation):
    """HiGHS's optimum of the flow LP min cost.x, A x = supply, x >= 0, for
    the CSC arrays `incidence` of A (`linprog`); InvariantError, tagged with
    `operation`, if it fails."""
    res = linprog(cost, incidence, supply)
    if not res.success:
        raise InvariantError(f"transport flow LP failed: {res.message}",
                             module="measures", operation=operation)
    return res


class LPResult(NamedTuple):
    """`linprog`'s outcome: the optimum's objective `fun`, its primal `x`
    and its row duals `duals`, None unless `success`; `nit` counts the
    simplex iterations."""

    success: bool
    message: str
    fun: float
    x: np.ndarray
    duals: np.ndarray
    nit: int


_HIGHS = "scipy.optimize._highspy._core"
_HIGHS_LOCK = threading.Lock()


def _highs():
    """scipy's bundled HiGHS bindings, the extension module `_HIGHS`.  The
    first call imports `scipy` itself, so that its distributor set-up runs,
    then loads the extension from its file under `scipy/optimize/_highspy`
    and registers it in `sys.modules` under its dotted name, so a later
    `import scipy.optimize` reuses the same module object; the package
    `scipy.optimize` and its 300-odd submodules are never imported.  An
    entry already in `sys.modules` is reused.  The lock makes the first
    load happen once when the first LPs start on several threads."""
    with _HIGHS_LOCK:
        module = sys.modules.get(_HIGHS)
        if module is not None:
            return module
        import scipy
        path = os.path.join(scipy.__path__[0], "optimize", "_highspy")
        spec = importlib.machinery.PathFinder.find_spec(_HIGHS, [path])
        if spec is None:
            raise ImportError(f"scipy {scipy.__version__} has no HiGHS "
                              f"bindings {_HIGHS} in {path}; emergence-lab "
                              "needs scipy >= 1.15", name=_HIGHS)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_HIGHS] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[_HIGHS]
            raise
        return module


def linprog(cost, incidence, supply):
    """min cost.x subject to A x = supply and x >= 0, for the CSC arrays
    (start, index, value) of A: one HiGHS solve (dual revised simplex,
    Huangfu & Hall 2018) in a fresh solver, through scipy's bundled
    bindings (`_highs`), so it never loads scipy.optimize.  HiGHS gets the
    model and options that `scipy.optimize.linprog(method="highs")` passes
    at primal and dual feasibility tolerances 1e-10, so `fun`, `x`, the
    duals (`eqlin.marginals` there) and `nit` are that call's bits, and
    `success` is its post-check: an optimal status, then x >= -tol and
    |supply - A x| <= tol, no NaN, with tol = 10 sqrt(1e-9)."""
    hs = _highs()
    cols, rows = cost.shape[0], supply.shape[0]
    lp = hs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = cols
    lp.num_row_ = lp.a_matrix_.num_row_ = rows
    lp.a_matrix_.format_ = hs.MatrixFormat.kColwise
    start, index, value = incidence
    # the bindings copy a float array at once but an integer one entry by
    # entry, slower than from a list
    lp.a_matrix_.start_, lp.a_matrix_.index_ = start.tolist(), index.tolist()
    lp.a_matrix_.value_ = value
    lp.col_cost_ = cost
    lp.col_lower_, lp.col_upper_ = np.zeros(cols), np.full(cols, np.inf)
    lp.row_lower_ = lp.row_upper_ = supply
    highs = hs._Highs()
    for name, setting in (
            ("presolve", "on"),
            ("highs_debug_level", int(hs.kHighsDebugLevelNone)),
            ("primal_feasibility_tolerance", 1e-10),
            ("dual_feasibility_tolerance", 1e-10),
            ("log_to_console", False), ("output_flag", False),
            ("simplex_strategy",
             int(hs.simplex_constants.SimplexStrategy.kSimplexStrategyDual))):
        highs.setOptionValue(name, setting)
    if highs.passModel(lp) == hs.HighsStatus.kError:
        return LPResult(False, "HiGHS rejected the model", None, None, None, 0)
    highs.run()
    status, info = highs.getModelStatus(), highs.getInfo()
    nit = info.simplex_iteration_count or info.ipm_iteration_count
    if status != hs.HighsModelStatus.kOptimal:
        return LPResult(False, f"HiGHS model status "
                        f"{highs.modelStatusToString(status)}", None, None,
                        None, nit)
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun, tol = info.objective_function_value, 10 * np.sqrt(1e-9)
    # NaN fails every comparison
    feasible = bool((x >= -tol).all() and not np.isnan(fun) and (np.abs(
        supply - np.array(solution.row_value)) <= tol).all())
    return LPResult(feasible, "optimal" if feasible else
                    f"the optimum misses x >= 0 or A x = supply by more than "
                    f"{tol:.2e}", fun, x, np.array(solution.row_dual), nit)


def _block_values(net, depth, space):
    """The W1 values of the rows of a (k, m^depth) supply matrix, each with
    at least two nodes on either side, and the k block potentials
    (`_potentials`), from one block-diagonal flow LP: k copies of the grid
    flow of `wasserstein1`, one per row, sharing no variable, so each block
    is solved optimally.  Each block's supply is normalised as
    `wasserstein1` normalises it, and its value is its mass times its
    flow's cost.  The values match single solves to within the LP's
    tolerances, not bit for bit."""
    k, n = net.shape
    (start, index, value), cost, tail, head = _grid_flow(
        space.m, depth, float(space.beta))
    mass, supply = _unit_supply(net)
    # k copies of the grid's CSC arrays, copy j's row indices shifted by j
    # times the n - 1 rows and its column starts by j times the nonzeros
    nnz, copy = value.shape[0], np.arange(k)[:, None]
    blocks = (np.append((start[:-1] + nnz * copy).ravel(), nnz * k),
              (index + (n - 1) * copy).ravel(), np.tile(value, k))
    res = _solve_flow(np.tile(cost, k), blocks, supply[:, :-1].ravel(),
                      "w1_below")
    return (mass * (res.x.reshape(k, -1) @ cost),
            _potentials(res.duals.reshape(k, n - 1), tail, head, cost))


def w1_bounds(masses, nu, depth, space):
    """Bounds lb <= W1(row, nu) <= ub at the truncated costs of
    `wasserstein1`, as two arrays, one entry per row of a (rows, m^depth)
    mass matrix; O(rows * m^depth * depth * m) work with no flow, so also
    beyond `GRID_CAP`.  lb is the coordinate-marginal bound, ub the smaller
    of the prefix-tree and the transport-plan bounds (`_tree_bounds`,
    `_plan_bound`)."""
    net = _net_rows(masses, nu, depth, space, "w1_bounds")
    return _bounds(net, depth, space)


def _bounds(net, depth, space):
    """Row-wise lb and ub of `w1_bounds` for a (rows, m^depth) supply matrix."""
    lb, ub = _tree_bounds(net, depth, space)
    return lb, np.minimum(ub, _plan_bound(net, depth, space))


def _tree_bounds(net, depth, space):
    """Row-wise lb and prefix-tree ub of a (rows, m^depth) supply matrix.

    lb: the cost splits over coordinates, so W1 is at least the sum over d
    of beta^-(d+1) times the 1-D W1 of the coordinate-d marginals, the
    summed absolute differences of their distribution functions.
    ub: greedy matching on the prefix tree (Evans & Matsen 2012; Le et al.
    2019).  With e_l half the summed |mu(c) - nu(c)| over the depth-l
    cylinders c, mass e_{l+1} - e_l is first matched inside a depth-l
    cylinder, at most its truncated diameter (m-1) sum_{d>=l} beta^-(d+1)
    apart.
    """
    m, rows = space.m, net.shape[0]
    # the depth-l cylinder masses, deepest first: digit l is the top digit
    # of a depth-(l+1) cylinder, axis 1 of the (m, m^l) view of their masses
    marginals = np.empty((rows, depth, m))
    e = np.empty((rows, depth + 1))
    e[:, depth] = np.abs(net).sum(axis=1)
    cylinders = net
    for l in reversed(range(depth)):
        v = cylinders.reshape(rows, m, m ** l)
        marginals[:, l] = v.sum(axis=2)
        cylinders = v.sum(axis=1)
        e[:, l] = np.abs(cylinders).sum(axis=1)
    scale = space.beta ** -np.arange(1.0, depth + 1)
    lb = np.abs(np.cumsum(marginals, axis=2)[:, :, :-1]).sum(axis=2) @ scale
    diameter = (m - 1) * np.cumsum(scale[::-1])[::-1]
    return lb, 0.5 * np.diff(e, axis=1) @ diameter


def _plan_bound(net, depth, space):
    """Row-wise cost of a feasible flow for each row of a (rows, m^depth)
    supply matrix, in the true truncated metric: an upper bound on W1.

    The flow balances the tree top down (Flowtree, Backurs et al. 2020).
    For l = 0..depth-1, inside each depth-l cylinder, the net masses of the
    m children (digit l) are balanced by 1-D transport along digit l: the
    mass F crossing each child boundary, the running sum of the children's
    net masses, moves one child over, first rightwards over the boundaries
    in turn, then leftwards.  The moved mass keeps its deeper digits and is
    taken from the source child's nodes in proportion to their positive
    parts, which cover it; each unit pays beta^-(l+1) per boundary.  After
    depth - 1 every node is balanced.
    """
    m, rows = space.m, net.shape[0]
    x = net.copy()
    cost = np.zeros(rows)
    for l in range(depth):
        # axes: deeper digits, digit l, the depth-l cylinder (lower digits)
        v = x.reshape(rows, m ** (depth - l - 1), m, m ** l)
        flow = np.cumsum(v.sum(axis=1), axis=1)[:, :-1]
        cost += space.beta ** -(l + 1) * np.abs(flow).sum(axis=(1, 2))
        if l == depth - 1:
            break
        for c in range(m - 1):
            _shift(v, c, c + 1, np.maximum(flow[:, c], 0.0))
        for c in reversed(range(m - 1)):
            _shift(v, c + 1, c, np.maximum(-flow[:, c], 0.0))
    return cost


def _shift(v, src, dst, amount):
    """Move amount[r, j] of row r from child src to child dst of cylinder j
    in the (rows, deeper digits, m, cylinders) view v, taken from the nodes
    of src in proportion to their positive parts; each unit keeps its
    deeper digits."""
    pos = np.maximum(v[:, :, src], 0.0)
    total = pos.sum(axis=1)
    frac = np.divide(amount, total, out=np.zeros_like(total), where=total > 0)
    take = pos * frac[:, None]
    v[:, :, src] -= take
    v[:, :, dst] += take


def w1_below(masses, nu, eps, depth, space):
    """Whether W1(row, nu) < eps at the truncated costs of `wasserstein1`,
    as a bool array, one entry per row of a (rows, m^depth) mass matrix.

    A bound decides a row when it clears eps by MARGIN, which exceeds the
    flow LP's tolerances and the bounds' rounding.  The marginal and
    prefix-tree bounds run on every row, the plan bound on the rows they
    leave open.  An open row with at most one node on a side is decided by
    its plan cost alone: that plan is optimal, its cost `wasserstein1`'s
    value bit for bit.  The others are solved max(1, BLOCK_NODES // m^depth)
    to one block-diagonal flow LP (`_block_values`), whose value decides a
    row when it clears eps by MARGIN; a row within MARGIN of eps is compared
    by its single `wasserstein1` value, so every decision equals the exact
    one.  After each block LP, a row still queued is decided False without
    an LP when one of the block's potentials bounds it above eps + MARGIN.
    """
    net = _net_rows(masses, nu, depth, space, "w1_below")
    lb, ub = _tree_bounds(net, depth, space)
    below = ub < eps - MARGIN
    todo = np.flatnonzero(~below & ~(lb > eps + MARGIN))
    if not todo.size:
        return below
    plan = _plan_bound(net[todo], depth, space)
    # at most one node on a side: the plan is optimal, its cost the exact W1
    exact = np.minimum((net[todo] > 0).sum(axis=1),
                       (net[todo] < 0).sum(axis=1)) <= 1
    below[todo] = np.where(exact, plan < eps, plan < eps - MARGIN)
    todo = todo[~exact & ~below[todo]]
    chunk = max(1, BLOCK_NODES // net.shape[1])
    while todo.size:
        rows, todo = todo[:chunk], todo[chunk:]
        value, potentials = _block_values(net[rows], depth, space)
        below[rows] = value < eps
        for i in rows[np.abs(value - eps) <= MARGIN].tolist():
            row = FinSuppMeasure(masses[i], depth, space.m)
            below[i] = wasserstein1(row, nu, depth, space)[0] < eps
        if todo.size:
            # a queued row that a block potential puts above eps stays False
            lb = _dual_bounds(*_unit_supply(net[todo]), potentials)
            todo = todo[~(lb > eps + MARGIN)]
    return below


def w1_min(masses, nu, depth, space):
    """(min W1(row, nu), the first row attaining it) over the rows of a
    (rows, m^depth) mass matrix at the truncated costs of `wasserstein1`;
    (inf, -1) for no rows.

    The bounds of every row come first; rows are then taken in order, and
    one whose lower bound exceeds the minimum so far, or the smallest upper
    bound, by MARGIN is skipped without an exact solve.  Each LP solve
    raises the lower bound of every later row r to mass_r * |y . s_r|, its
    potential y against the row's unit supply (`_dual_bounds`).
    """
    net = _net_rows(masses, nu, depth, space, "w1_min")
    lbs, ubs = _bounds(net, depth, space)
    mass, unit = _unit_supply(net)
    top = ubs.min(initial=np.inf)
    best, best_row = np.inf, -1
    for i in range(lbs.shape[0]):
        # d >= lb > min(best, top) >= the minimum: this row can neither
        # attain nor tie it
        if lbs[i] > min(best, top) + MARGIN:
            continue
        row = FinSuppMeasure(masses[i], depth, space.m)
        w1 = wasserstein1(row, nu, depth, space)
        if w1.potential is not None:
            later = slice(i + 1, None)
            lbs[later] = np.maximum(lbs[later], _dual_bounds(
                mass[later], unit[later], w1.potential[None]))
        d = w1[0]
        if d < best:
            best, best_row = d, i
    return best, best_row


def w1_settled(masses, scales, depth, space):
    """The pairs i < j of rows of a (k, m^depth) mass matrix, in
    `np.triu_indices` order, that sound bounds settle at every eps in
    `scales`: one value per pair, its upper bound where it is settled and
    NaN where it is not.

    Each pair gets the bracket of `w1_bounds` on the supply row i - row j.
    A pair is settled at eps below it when ub < eps - MARGIN and above it
    when lb > eps + MARGIN, the rule of `w1_below`, so a settled pair's ub
    lies on the same side of every scale as the exact W1 (d <= eps exactly
    when ub <= eps); a NaN pair needs the exact value, as does every pair
    at a NaN scale.  The bounds run on chunks of at most
    max(1, MEASURE_CAP // m^depth) pairs, so no supply batch holds more
    than MEASURE_CAP entries, at any depth.
    """
    _check_rows(masses, space.m, depth, space, "w1_settled")
    rows, cols = np.triu_indices(masses.shape[0], 1)
    eps = np.asarray(scales, dtype=np.float64)
    out = np.full(rows.shape[0], np.nan)
    chunk = max(1, MEASURE_CAP // masses.shape[1])
    for start in range(0, rows.shape[0], chunk):
        pairs = slice(start, start + chunk)
        net = _net(masses[rows[pairs]], masses[cols[pairs]])
        lb, ub = _bounds(net, depth, space)
        settled = ((ub[:, None] < eps - MARGIN)
                   | (lb[:, None] > eps + MARGIN)).all(axis=1)
        out[pairs][settled] = ub[settled]
    return out


@lru_cache(maxsize=8)
def _grid_flow(m, depth, beta):
    """Node-arc incidence (last node row dropped) as CSC arrays
    (start, index, value), arc costs, and the arcs' tail and head nodes of
    the m^depth symbol grid; node sum_d (x_d - 1) m^d, arcs both ways
    between nodes one apart in coordinate d, at cost beta^-(d+1).  Dropping
    a row leaves the flow LP feasible for any supply.  Shared read-only by
    every caller, the threads of `pairwise_w1`'s pool included, which solve
    the pairs `w1_settled` leaves open."""
    n = m ** depth
    if n > GRID_CAP:
        raise SizeError(f"W1 grid of {m}^{depth} = {n} nodes exceeds cap {GRID_CAP}",
                        module="measures", operation="wasserstein1")
    node = np.arange(n, dtype=np.int64)
    tails, heads, costs = [], [], []
    for d in range(depth):
        step = m ** d
        low = node[(node // step) % m < m - 1]
        tails += [low, low + step]
        heads += [low + step, low]
        costs.append(np.full(2 * low.shape[0], beta ** (-(d + 1))))
    tail, head = np.concatenate(tails), np.concatenate(heads)
    # column j: arc j's two rows in increasing order, +1 at its tail and -1
    # at its head, without the dropped row n - 1
    rows = np.sort(np.stack([tail, head], axis=1), axis=1)
    keep = rows < n - 1
    incidence = (np.append(0, np.cumsum(keep.sum(axis=1))), rows[keep],
                 np.where(rows == tail[:, None], 1.0, -1.0)[keep])
    cost = np.concatenate(costs)
    for a in (*incidence, cost, tail, head):
        a.setflags(write=False)
    return incidence, cost, tail, head
