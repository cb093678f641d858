"""Oracles that compute library quantities the direct way.

The library works with log q on suffix states; these compute the same
quantities one word at a time from the definitions: the Birkhoff sup over a
cylinder by a scan of every admissible continuation, the cover weight
q(C(u), t) = xi(u) * eta(u)^t, and the cover infimum by a memoised walk down
the cylinder tree, O(m^cap).  The library runs every (t, m_blk, cap) entry
of a grid in one pass down its suffix-state layers; `layer_cover_factors`
runs one entry alone, and `one_entry_outer_measure`, `layer_conditions` and
`layer_pressure_partition` build the outer measure, the Q1 and m_of_t
probes and the partition pressure on it.  The library's exact pressure and Bowen root
read the transfer matrix on a structure's suffix states, the words of
length window - 1; `window_shift_pressure` and `window_shift_bowen_root`
build the window shift w -> w[1:] + (c,) on the admissible windows
themselves, m times as many states.  W1 is solved on the symbol grid as a
min-cost flow, or by the transport plan when a side of the supply is one
node; `grid_w1` solves the flow LP for every supply with
`scipy.optimize.linprog`, and `dense_transport` the dense bipartite
transportation LP between the two sets of atoms.  The library builds the
grid's CSC incidence arrays with numpy; `grid_incidence` builds the
incidence as a `scipy.sparse` matrix from its arcs.
Measures are mass vectors on the m^depth prefix grid; `sparse_snapshots`
and `sparse_proxy` build the same measures as sorted distinct prefix codes
(`_pack_prefixes` packs the rows of the sliding window view one digit at a
time, `_unpack_keys` inverts it) and their weights, merged by `np.unique`,
and `from_atoms` builds one from symbol rows.  `tree_bounds` finds the W1
bounds' cylinders by sorting the atoms in prefix order, and `plan_bound`
balances the library's transport plan one cylinder, boundary and node at a
time.  The restricted outer
measure builds the masses of a layer of words from one period of each;
`representatives` materialises each word's periodic orbit (`periodic`)
for `empirical_snapshots`.  The library's Markov law
is one product recursion over the whole grid; `cylinder_probability`
multiplies out one word at a time, and `sparse_proxy` runs it on every
admissible word.  The connector
is found by breadth-first search; `product_connector` tries every word in
length and then lexicographic order, O(m^length).  A Markov sample is one
prefix scan over the per-step state tables, each read by counting the
inverse-CDF entries at or below each uniform; `loop_chain_walk` walks the
chain one symbol at a time, and `searchsorted_sample` reads the tables by
`np.searchsorted`.  `periodic_counts` extends each period by concatenating
copies, `indexed_periodic_counts` by a column index, and `snapshot_masses`
adds the counts of the segments between consecutive times, where
`per_time_snapshot_masses` counts every prefix of the keys afresh.  The
emergence time grid repairs rounding
collisions with a running maximum; `loop_geometric_times` moves one point at
a time.  The constructor decides every open block's typical-word attempt of
a round together; `sequential_typical_word` runs one block's attempts in a
loop, deciding each alone.  Its schedule search probes block lengths on
Python scalars; `numpy_candidate_lengths` and `numpy_group_feasible` probe
them on numpy arrays.  The library's Perron solve takes the eigenvalue and
right vector from numpy's `eig(a)` and the left vector from `eig(a.T)`;
`scipy_perron` takes all three from one `scipy.linalg.eig` call.
"""

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.optimize import brentq, linprog
from scipy.special import logsumexp

from emergence_lab import constructor
from emergence_lab.carath import _log_q, _log_steps
from emergence_lab.errors import InputError, InvariantError, SamplingError
from emergence_lab.measures import (FinSuppMeasure, _grid_flow, _grid_size,
                                    _inverse_cdf, _window_keys, count_masses,
                                    make_rng, periodic_counts,
                                    truncation_proxy, w1_below)
from emergence_lab.sofic import (PointPrefix, admissible_words, connector,
                                 is_admissible, perron, symbol_array,
                                 topological_entropy)


def scan_sup_birkhoff(s, u):
    """sup over x in C(u) of the |u|-term Birkhoff sum of the window
    potential, maximised over the admissible continuations of length
    window - 1 after u."""
    u = tuple(int(c) for c in u)
    k, l = s.window, len(u)
    if k == 1:
        return float(sum(s.table[(c,)] for c in u))
    fixed = sum(s.table[u[i:i + k]] for i in range(max(l - k + 1, 0)))
    best = -math.inf
    for e in _windows(s.space, k):
        if e[0] == u[-1]:
            w = u + e[1:]
            best = max(best, sum(s.table[w[i:i + k]]
                                 for i in range(max(l - k + 1, 0), l)))
    return float(fixed + best)


_WINDOWS = {}


def _windows(space, k):
    key = (space.transition.tobytes(), space.m, k)
    if key not in _WINDOWS:
        _WINDOWS[key] = admissible_words(space, k)
    return _WINDOWS[key]


def xi(s, u):
    return math.exp(scan_sup_birkhoff(s, u)) if s.kind == "pressure" else 1.0


def eta(s, u):
    l = len(u)
    if s.kind in ("entropy", "pressure"):
        return math.exp(-l)
    if s.kind == "hausdorff":
        return s.space.metric_tail_bound(l)
    return math.exp(-scan_sup_birkhoff(s, u))


def q_weight(s, u, t):
    """The cover weight q(C(u), t) = xi * eta^t of a nonempty word."""
    return xi(s, u) * eta(s, u) ** t


def window_shift_pressure(space, table, window):
    """log Perron eigenvalue of the window shift w -> w[1:] + (c,) on the
    admissible windows, row w weighted by e^table[w]."""
    states = admissible_words(space, window)
    idx = {w: i for i, w in enumerate(states)}
    a = np.zeros((len(states), len(states)))
    for w in states:
        for c in successors(space, w[-1]):
            a[idx[w], idx[w[1:] + (c,)]] = math.exp(table[w])
    return float(np.log(perron(a)[0]))


def scipy_perron(a):
    """(lam, left, right) of `sofic.perron` from one
    `scipy.linalg.eig(left=True, right=True)`: the eigenvalue of largest
    real part and its two vectors, each normalised to sum 1."""
    vals, left, right = scipy.linalg.eig(np.asarray(a, dtype=np.float64),
                                         left=True, right=True)
    k = int(np.argmax(vals.real))
    return (float(vals[k].real),
            *(v[:, k].real / v[:, k].real.sum() for v in (left, right)))


def window_shift_bowen_root(space, table, window, tol):
    """The root r of window_shift_pressure(-r u) = 0 for a positive table u,
    by Brent's method on [0, h_top / min u + tol]."""
    hi = topological_entropy(space) / min(table.values()) + tol

    def p(r):
        return window_shift_pressure(
            space, {w: -r * v for w, v in table.items()}, window)

    return brentq(p, 0.0, hi, xtol=tol)


def _cover_recursion(s, t, m_blk, depth_cap, member):
    """The memoised cover infimum rec(u) of C(u) by cylinders C(v) with |v|
    a positive multiple of m_blk, |v| <= depth_cap and member(v), each
    weighing q(C(v), t); a cylinder at depth_cap that fails member costs 0."""
    space = s.space
    memo = {}

    def rec(u):
        if u in memo:
            return memo[u]
        l = len(u)
        eligible = l and l % m_blk == 0 and member(u)
        q = math.exp(_log_q(s, u, t)) if eligible else 0.0
        if l >= depth_cap:
            val = q
        else:
            children = sum(rec(u + (c,)) for c in
                           (successors(space, u[-1]) if u
                            else range(1, space.m + 1)))
            val = min(q, children) if eligible else children
        memo[u] = val
        return val

    return rec


def layer_cover_factors(s, t, m_blk, depth_cap, depths):
    """log G(l, w) of one (t, m_blk, depth_cap) for each l in depths, as
    {state w: value}: the library's cover recursion run for that entry
    alone, from depth_cap up to min(depths)."""
    sm = s._suffix
    inc = _log_steps(s, t)
    span = max(s.window - 1, 1)
    rel = np.zeros(len(sm.layers[min(depth_cap, span)][1]))
    shifts, total = [], 0.0
    out = {}
    for l in range(depth_cap, min(depths) - 1, -1):
        rows, to = sm.layers[min(l, span)]
        if l < depth_cap:
            x = inc[rows] + rel[to]
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
            out[l] = {w: base + r
                      for w, r in zip(sm.states[rows], rel.tolist())}
    return out


def one_entry_outer_measure(s, target, t, m_blk, depth_cap):
    """`carath.outer_measure_N` of valid inputs from `layer_cover_factors`:
    the sum over the target words u of q(u) G(|u|, state of u)."""
    words = ([(c,) for c in range(1, s.space.m + 1)] if target == "X"
             else [tuple(w) for w in target])
    span = max(s.window - 1, 1)
    log_g = layer_cover_factors(s, t, m_blk, depth_cap,
                                {len(w) for w in words})
    return float(sum(math.exp(_log_q(s, w, t) + log_g[len(w)][w[-span:]])
                     for w in words))


def layer_conditions(s, depth, t_grid):
    """Q1 and m_of_t of `carath.check_conditions`, one `layer_cover_factors`
    run per (t, m_blk, cap, depth) probe."""
    def log_g(t, m_blk, depth_cap, l):
        return np.array(list(
            layer_cover_factors(s, t, m_blk, depth_cap, {l})[l].values()))

    probe = min(depth, 4)
    q1 = min(math.exp(log_g(t, 1, probe + 2, probe).min()) for t in t_grid)
    for m_blk in range(1, 9):
        if all((log_g(t, m_blk, first + m_blk, l) - log_g(t, m_blk, first, l)
                >= math.log(0.5)).all()
               for l in range(1, probe + 1)
               for first in [-(-l // m_blk) * m_blk] for t in t_grid):
            return q1, m_blk
    return q1, -1


def layer_pressure_partition(s, n):
    """`carath.pressure_partition` from `layer_cover_factors`."""
    log_g = layer_cover_factors(s, 0.0, n, n, {1})[1]
    return float(logsumexp([_log_q(s, w, 0.0) + g for w, g in log_g.items()])
                 / n)


def grid_w1(mu, nu, depth, space):
    """W1 as the min-cost flow LP on the m^depth prefix grid for every
    supply mu - nu, a one-node side included: `scipy.optimize.linprog`
    (HiGHS) at primal and dual feasibility tolerances 1e-10 on the
    library's grid arcs and CSC incidence arrays."""
    net = mu.truncated(depth).mass - nu.truncated(depth).mass
    net[np.abs(net) <= 1e-15] = 0.0
    incidence, cost = _grid_flow(space.m, depth, float(space.beta))[:2]
    res = scipy_flow(cost, csc(incidence, net.shape[0] - 1), net[:-1])
    assert res.success, res.message
    return float(res.fun)


def csc(incidence, rows):
    """The `scipy.sparse` matrix of the library's CSC arrays
    (start, index, value) with `rows` rows."""
    start, index, value = incidence
    return sp.csc_array((value, index, start),
                        shape=(rows, start.shape[0] - 1))


def scipy_flow(cost, incidence, supply):
    """`scipy.optimize.linprog`'s solve of min cost.x, incidence x = supply,
    x >= 0 by HiGHS at primal and dual feasibility tolerances 1e-10."""
    return linprog(cost, A_eq=incidence, b_eq=supply, bounds=(0, None),
                   method="highs",
                   options={"primal_feasibility_tolerance": 1e-10,
                            "dual_feasibility_tolerance": 1e-10})


def grid_incidence(m, depth, beta):
    """The node-arc incidence of the library's grid arcs (+1 at an arc's
    tail, -1 at its head), the last node's row dropped, as a
    `scipy.sparse` CSR matrix built from (row, column) pairs."""
    tail, head = _grid_flow(m, depth, beta)[2:]
    arc = np.arange(tail.shape[0])
    return sp.csr_matrix(
        (np.concatenate([np.ones(arc.shape[0]), -np.ones(arc.shape[0])]),
         (np.concatenate([tail, head]), np.concatenate([arc, arc]))),
        shape=(m ** depth, arc.shape[0]))[:-1]


def dense_transport(cost, supply, demand, tol):
    """Optimal cost of moving `supply` onto `demand` (equal totals) at the
    (n_a, n_b) ground costs `cost`: HiGHS on the n_a * n_b plan, with the
    last demand row dropped as redundant and primal and dual feasibility
    tolerances `tol`."""
    na, nb = cost.shape
    rows = np.concatenate([np.repeat(np.arange(na), nb),
                           na + np.tile(np.arange(nb - 1), na)])
    cols = np.concatenate([np.arange(na * nb),
                           (np.arange(na)[:, None] * nb
                            + np.arange(nb - 1)[None, :]).ravel()])
    a_eq = sp.csr_matrix((np.ones(rows.shape[0]), (rows, cols)),
                         shape=(na + nb - 1, na * nb))
    res = linprog(cost.ravel(), A_eq=a_eq,
                  b_eq=np.concatenate([supply, demand[:-1]]), bounds=(0, None),
                  method="highs",
                  options={"primal_feasibility_tolerance": tol,
                           "dual_feasibility_tolerance": tol})
    assert res.success, res.message
    return float(res.fun)


def product_connector(u, v, space):
    """The first bridge word omega, in length and then lexicographic order,
    with u omega v admissible, among the words up to the Wielandt length."""
    a, b = int(u[-1]), int(v[0])
    if space.allows(a, b):
        return ()
    max_len = (space.m - 1) ** 2 + 2
    for length in range(1, max_len + 1):
        for cand in itertools.product(range(1, space.m + 1), repeat=length):
            if not space.allows(a, cand[0]):
                continue
            ok = all(space.allows(p, q) for p, q in zip(cand, cand[1:]))
            if ok and space.allows(cand[-1], b):
                return cand
    raise InvariantError(f"no bridge of length <= {max_len} between symbols "
                         f"{a} and {b}")


def loop_chain_walk(mu, u):
    """The inverse-CDF walk of the Markov measure mu on the uniforms u, one
    symbol at a time: the first state from the stationary law, each next
    one from the row of the current one."""
    cums = _inverse_cdf(mu.stochastic)
    s = int(np.searchsorted(_inverse_cdf(mu.stationary), u[0], side="right"))
    out = np.empty(u.shape[0], dtype=np.int16)
    out[0] = s + 1
    for i in range(1, u.shape[0]):
        s = int(np.searchsorted(cums[s], u[i], side="right"))
        out[i] = s + 1
    return out


def searchsorted_sample(mu, n, rng):
    """`MarkovMeasure.sample` with each step table read by a right-sided
    `np.searchsorted` of the uniforms in the row's inverse CDF, the same
    doubling scan after it."""
    u = rng.random(n)
    rows = mu.stochastic[:1] if mu.is_bernoulli else mu.stochastic
    f = np.empty((rows.shape[0], n), dtype=np.int16)
    for s, cum in enumerate(_inverse_cdf(rows)):
        f[s] = np.searchsorted(cum, u, side="right")
    f[:, 0] = np.searchsorted(_inverse_cdf(mu.stationary), u[0], side="right")
    d = 1
    while not (f == f[0]).all():
        f[:, d:] = np.take_along_axis(f[:, d:], f[:, :-d], axis=0)
        d *= 2
    return f[0] + 1


def indexed_periodic_counts(periods, n, depth, m):
    """`periodic_counts` with each period extended to p + depth - 1 symbols
    by the column index np.arange(p + depth - 1) % p."""
    k, p = periods.shape
    size = _grid_size(m, depth, "periodic_counts")
    keys = _window_keys(periods[:, np.arange(p + depth - 1) % p], depth, m,
                        "periodic_counts")
    keys += size * np.arange(k)[:, None]
    q, r = divmod(n, p)
    counts = (q * np.bincount(keys.ravel(), minlength=k * size)
              + np.bincount(keys[:, :r].ravel(), minlength=k * size))
    return counts.reshape(k, size)


def per_time_snapshot_masses(x, times, depth, space):
    """`snapshot_masses` with the first t window keys counted afresh for
    every t in times."""
    size = space.m ** depth
    keys = _window_keys(x.symbols[:max(times) + depth - 1], depth, space.m,
                        "empirical_snapshots")
    return np.array([count_masses(np.bincount(keys[:t], minlength=size)[None],
                                  t)[0] for t in times])


def _pack_prefixes(rows, m):
    """The grid nodes sum_d (x_d - 1) m^d of the rows of a (k, width) symbol
    array, as int64 radix-m codes, one digit at a time."""
    codes = np.zeros(rows.shape[0], dtype=np.int64)
    for d in reversed(range(rows.shape[1])):
        codes *= m
        codes += rows[:, d]
        codes -= 1
    return codes


def _unpack_keys(codes, width, m):
    """The (k, width) symbol rows of prefix codes; inverse of `_pack_prefixes`."""
    out = np.empty((codes.shape[0], width), dtype=np.int16)
    k = codes.copy()
    for d in range(width):
        out[:, d] = k % m + 1
        k //= m
    return out


def merged(atoms, weights, space):
    """Atoms with duplicate prefixes merged: the sorted distinct prefix codes
    and the summed weight of each."""
    rows = symbol_array(atoms, space.m, "oracles", "merged")
    codes, inverse = np.unique(_pack_prefixes(rows, space.m),
                               return_inverse=True)
    return codes, np.bincount(inverse, weights=weights,
                              minlength=codes.shape[0])


def sparse_snapshots(x, times, depth, space):
    """[(codes, weights)] of the empirical measures of x at the window counts
    `times`: np.unique of the window keys, one bincount of the inverse per
    t, the empty codes dropped and the rest divided by t."""
    n = max(times)
    rows = symbol_array(np.lib.stride_tricks.sliding_window_view(
        x.symbols[:n + depth - 1], depth), space.m, "oracles", "snapshots")
    uniq, inverse = np.unique(_pack_prefixes(rows, space.m),
                              return_inverse=True)
    out = []
    for t in times:
        c = np.bincount(inverse[:t], minlength=uniq.shape[0])
        keep = c > 0
        out.append((uniq[keep], c[keep] / t))
    return out


def cylinder_probability(measures, weights, word):
    """The probability of the cylinder of `word` under the mixture
    sum_i weights[i] measures[i]: each component's pi[x_0] P[x_0, x_1] ...
    multiplied left to right, one word at a time, and the components summed
    as t * p by Python's `sum`."""
    w = [int(c) - 1 for c in word]

    def product(mu):
        p = mu.stationary[w[0]] if w else 1.0
        for a, b in zip(w, w[1:]):
            p = p * mu.stochastic[a, b]
        return p

    return sum(t * product(mu) for t, mu in zip(weights, measures))


def sparse_proxy(measures, weights, depth):
    """(codes, weights) of the depth-truncation of a mixture of Markov
    measures: the admissible words of positive probability, in
    lexicographic order, normalised, then merged."""
    space = measures[0].space
    words = np.asarray(admissible_words(space, depth), dtype=np.int16)
    probs = np.array([cylinder_probability(measures, weights, u)
                      for u in words.tolist()])
    keep = probs > 0
    w = probs[keep]
    return merged(words[keep], w / w.sum(), space)


def tree_bounds(mu, nu, depth, space):
    """The W1 bounds of `measures.w1_bounds` on the nonzero nodes alone:
    the coordinate marginals by one bincount over the digits, and the
    cylinder masses by sorting the nodes in prefix order, so that each
    depth-l cylinder is a run of rows."""
    m = space.m
    parts = []
    for sign, x in ((1.0, mu), (-1.0, nu)):
        c = np.flatnonzero(x.mass)
        parts.append((c % m ** depth, sign * x.mass[c]))
    codes, inverse = np.unique(np.concatenate([c for c, _ in parts]),
                               return_inverse=True)
    net = np.bincount(inverse, weights=np.concatenate([w for _, w in parts]))
    keep = np.abs(net) > 1e-15
    codes, net = codes[keep], net[keep]
    if not ((net > 0).any() and (net < 0).any()):
        return 0.0, 0.0
    scale = space.beta ** -np.arange(1.0, depth + 1)
    digits = _unpack_keys(codes, depth, m) - 1     # (k, depth), 0..m-1
    marginals = np.bincount((digits + m * np.arange(depth)).ravel(),
                            weights=np.repeat(net, depth),
                            minlength=m * depth).reshape(depth, m)
    lb = float(scale @ np.abs(np.cumsum(marginals, axis=1)[:, :-1]).sum(axis=1))
    # rows in prefix order; row i opens a depth-l cylinder when the first
    # digit unlike row i-1's is below l
    order = np.lexsort(digits.T[::-1])
    digits, net = digits[order], net[order]
    first_change = np.argmax(digits[1:] != digits[:-1], axis=1)
    opens = np.vstack([np.ones((1, depth + 1), dtype=bool),
                       first_change[:, None] < np.arange(depth + 1)])
    cylinders = np.cumsum(opens.ravel(order="F")) - 1    # level-major ids
    mass = np.bincount(cylinders, weights=np.tile(net, depth + 1))
    e = 0.5 * np.bincount(np.repeat(np.arange(depth + 1), opens.sum(axis=0)),
                          weights=np.abs(mass), minlength=depth + 1)
    diameter = (m - 1) * np.cumsum(scale[::-1])[::-1]
    return lb, float(np.diff(e) @ diameter)


def from_atoms(atoms, weights, space):
    """The measure with weight w_i on the prefix in row i of a (k, depth)
    symbol array; rows with the same prefix add up in one bincount."""
    rows = symbol_array(atoms, space.m, "oracles", "from_atoms")
    w = np.asarray(weights, dtype=np.float64)
    if not (rows.ndim == 2 and w.shape == rows.shape[:1] and (w >= 0).all()):
        raise InvariantError("need a (k, depth) symbol array and k "
                             "nonnegative weights",
                             module="oracles", operation="from_atoms")
    size = _grid_size(space.m, rows.shape[1], "from_atoms")
    mass = np.bincount(_pack_prefixes(rows, space.m), weights=w,
                       minlength=size)
    return FinSuppMeasure(mass, rows.shape[1], space.m)


def successors(space, a):
    """The symbols that may follow a, in increasing order, read from the
    transition matrix."""
    return [c for c in range(1, space.m + 1) if space.allows(a, c)]


def periodic(word, depth, space):
    """The point repeating `word`, materialized to `depth` symbols; the
    word and its wrap pair must be admissible in `space` (InputError)."""
    w = np.asarray(word, dtype=np.int16)
    if not w.size:
        raise InputError("periodic point needs a nonempty word",
                         module="oracles", operation="periodic")
    if not is_admissible(w, space):
        raise InputError(f"word {w.tolist()} is not admissible",
                         module="oracles", operation="periodic")
    if not space.allows(int(w[-1]), int(w[0])):
        raise InputError(f"word {w.tolist()} cannot be repeated "
                         "(wrap pair forbidden)",
                         module="oracles", operation="periodic")
    return PointPrefix(np.resize(w, depth))


def representatives(u, space, length):
    """The orbit prefix standing in for the points of C(u): u repeated,
    through a connector when u cannot follow itself."""
    w = list(u)
    if not space.allows(u[-1], u[0]):
        w += list(connector(u, u, space))
    return periodic(w, length, space)


def plan_bound(mu, nu, depth, space):
    """The cost of the library's top-down transport plan for mu - nu, one
    cylinder, child boundary and node at a time: inside each depth-l
    cylinder the mass F_c crossing boundary c (the children's running net
    mass) moves one child over, rightwards for c = 0..m-2, then leftwards
    for c = m-2..0, taken from the source child's nodes in proportion to
    their positive parts and landing on the nodes with the same other
    digits, at beta^-(l+1) per unit.  Only nodes that hold or have received
    mass are kept: a node with none moves nothing and adds no flow."""
    m = space.m
    net = mu.truncated(depth).mass - nu.truncated(depth).mass
    codes = np.flatnonzero(np.abs(net) > 1e-15)
    supply = {tuple(digits - 1): float(net[c])
              for c, digits in zip(codes, _unpack_keys(codes, depth, m))}
    cost = 0.0
    for l in range(depth):
        step = space.beta ** -(l + 1)
        children = {}
        for x in supply:
            children.setdefault(x[:l], [[] for _ in range(m)])[x[l]].append(x)
        for child in children.values():
            flow = list(itertools.accumulate(
                sum(supply[x] for x in child[c]) for c in range(m - 1)))
            cost += step * sum(abs(f) for f in flow)
            moves = ([(c, c + 1, max(flow[c], 0.0)) for c in range(m - 1)]
                     + [(c + 1, c, max(-flow[c], 0.0))
                        for c in reversed(range(m - 1))])
            for src, dst, amount in moves:
                total = sum(max(supply[x], 0.0) for x in child[src])
                if amount <= 0 or total <= 0:
                    continue
                for x in child[src]:
                    take = max(supply[x], 0.0) * (amount / total)
                    if take == 0:
                        continue
                    supply[x] -= take
                    y = x[:l] + (dst,) + x[l + 1:]
                    if y not in supply:
                        supply[y] = 0.0
                        child[dst].append(y)
                    supply[y] += take
    return cost


def loop_geometric_times(n_min, n_max, count):
    """The rounded geometric grid of `emergence.geometric_times`, each point
    that rounding sent to or below its predecessor moved to one above it."""
    raw = np.rint(np.geomspace(n_min, n_max, count)).astype(np.int64)
    raw[0], raw[-1] = n_min, n_max
    for i in range(1, count):
        if raw[i] <= raw[i - 1]:
            raw[i] = raw[i - 1] + 1
    return tuple(int(n) for n in raw)


def sequential_typical_word(mu, n, eps, seed, metric_depth):
    """(word, rejected) of `constructor.typical_word`, its attempts drawn
    and decided one at a time: each a `sample` of the chain on
    make_rng(seed), rejected ("wrap") if its last symbol cannot precede its
    first, or ("far") unless `w1_below` puts its periodic continuation
    within eps of the proxy of mu.  rejected lists the rejected attempts'
    reasons in order; SamplingError after `constructor.ATTEMPT_CAP`."""
    space = mu.space
    proxy = truncation_proxy((mu,), (1.0,), metric_depth)
    rng = make_rng(seed)
    rejected = []
    for _ in range(constructor.ATTEMPT_CAP):
        w = mu.sample(n, rng)
        if not space.allows(int(w[-1]), int(w[0])):
            rejected.append("wrap")
            continue
        counts = periodic_counts(w[None], n, metric_depth, space.m)
        if w1_below(count_masses(counts, n), proxy, eps, metric_depth,
                    space)[0]:
            return w, rejected
        rejected.append("far")
    raise SamplingError(
        f"typical_word budget {constructor.ATTEMPT_CAP} exhausted "
        f"(n={n}, eps={eps})", module="constructor",
        operation="typical_word")


def numpy_candidate_lengths(s, node, floors):
    """`constructor._candidate_lengths` on numpy arrays: an int64 array."""
    t = np.asarray(node)
    n = np.maximum(np.ceil(s * t), floors).astype(np.int64)
    n = np.maximum(n, 1)
    jstar = int(np.argmax(t))
    others = int(n.sum() - n[jstar])
    if t[jstar] < 1.0 - 1e-12:
        n[jstar] = max(int(round(others * t[jstar] / (1.0 - t[jstar]))),
                       int(floors[jstar]), 1)
    else:
        n[jstar] = max(int(round(s)), int(floors[jstar]), 1)
    return n


def numpy_group_feasible(n, node, L, prefix, gaps, eps_t, gamma_n, l_max):
    """`constructor._group_feasible` on an int64 array of lengths."""
    s = int(n.sum())
    if np.abs(n / s - np.asarray(node)).max() > eps_t / (L + 1) + 1e-15:
        return False
    past = prefix + gaps
    if 2.0 * past / (past + s) + 2.0 * (L + 1) / s >= eps_t:
        return False
    cum = prefix
    for l in range(L + 1):
        cum += int(n[l])
        nxt = gamma_n.get((L, l + 1) if l < L else (L + 1, 0))
        if nxt is not None and nxt / cum > eps_t:
            return False
    return True
