"""Markov measures, empirical measures, and exact Wasserstein-1 transport.

Finitely supported measures store their atoms as a (k, width) array of
symbol prefixes.  One prefix code serves windows, merged atoms and W1: the
prefix (x_0, ..., x_{D-1}) is the grid node sum_d (x_d - 1) m^d, and sorted
codes list prefixes in reversed-lexicographic order.  A symbol outside 1..m
would alias another prefix's code, so window keys and merged atoms raise
InputError on one.  The W1 solver works on
ground costs truncated at an explicit depth, sum_d beta^-(d+1) |x_d - y_d|,
which is the path metric of the grid of all m^depth prefixes; W1 is then one
min-cost flow on that grid (EMD-L1) with supply mu - nu, solved by HiGHS at
primal and dual feasibility tolerances 1e-10.  Grids larger than `GRID_CAP`
nodes raise SizeError.  Apart from the solver tolerance, the only error
source is the metric truncation bound, which is returned alongside every
value.  Tests of W1 < eps go through `w1_below`, and saturation minima
prune by the lower bound: both consult sound O(atoms * depth) bounds
(`w1_bounds`, no grid) first and trust one only when it clears the
threshold by MARGIN, so every decision equals the exact one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view
from scipy.optimize import linprog

from .errors import DepthError, InputError, InvariantError, SizeError
from .sofic import ShiftSpace, admissible_words, perron, symbol_array

# Largest symbol grid (m^depth nodes) the W1 flow LP is built on: FULL2 to
# depth 12, FULL3 to depth 7.  HiGHS time grows about quadratically in the
# grid: two atoms a side took 0.85 s at 2^12 nodes and 14 s at 2^14 on a
# 2-core Xeon VM.
GRID_CAP = 2 ** 12

# How far a W1 bound must clear eps before `w1_below` trusts it without an
# exact solve: above the flow LP's 1e-10 tolerances and the bounds' rounding
# (under 1e-15 on 1,500 random pairs).
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
        if not ((pi >= 0).all() and abs(pi.sum() - 1.0) <= 1e-10):
            raise InvariantError("stationary vector must be a probability vector",
                                 module="measures", operation="MarkovMeasure")
        if not np.abs(pi @ p - pi).max() <= 1e-10:
            raise InvariantError("stationary vector is not invariant within 1e-10",
                                 module="measures", operation="MarkovMeasure")
        pi.setflags(write=False)
        object.__setattr__(self, "stationary", pi)

    @property
    def is_bernoulli(self):
        return bool(np.abs(self.stochastic - self.stochastic[0]).max() == 0.0)

    def cylinder_probability(self, word):
        """Probability of the cylinder of a word, or an array of the
        probabilities of the rows of a (k, d) word array."""
        w = symbol_array(word, self.space, "measures", "cylinder_probability") - 1
        p = self.stationary[w[..., 0]] if w.shape[-1] else np.ones(w.shape[:-1])
        for j in range(1, w.shape[-1]):
            p = p * self.stochastic[w[..., j - 1], w[..., j]]
        return float(p) if w.ndim == 1 else p

    def entropy(self):
        p = self.stochastic
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(p > 0, p * np.log(p), 0.0)
        return float(-(self.stationary @ plogp.sum(axis=1)))

    def sample(self, n, rng):
        """A length-n word from the stationary chain, by an inverse-CDF walk
        on n uniforms.  Column i of the table f maps the state before step i
        to the one after (column 0 draws from the stationary law); a doubling
        (Hillis-Steele) scan composes the columns until none depends on its
        argument, which iid rows satisfy from the start."""
        if n < 1:
            raise InputError(f"n must be >= 1, got {n}",
                             module="measures", operation="sample")
        u = rng.random(n)
        f = np.empty((self.space.m, n), dtype=np.int16)
        for s, cum in enumerate(_inverse_cdf(self.stochastic)):
            f[s] = np.searchsorted(cum, u, side="right")
        f[:, 0] = np.searchsorted(_inverse_cdf(self.stationary), u[0], side="right")
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
    """Weighted atoms, each a symbol prefix of uniform width."""

    atoms: np.ndarray     # (k, width) int16
    weights: np.ndarray   # (k,) float64

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.atoms, dtype=np.int16))
        w = np.asarray(self.weights, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != w.shape[0]:
            raise InvariantError("atoms/weights shape mismatch",
                                 module="measures", operation="FinSuppMeasure")
        if not ((w >= 0).all() and abs(float(w.sum()) - 1.0) <= 1e-12):
            raise InvariantError("weights must be nonnegative and sum to 1 within 1e-12",
                                 module="measures", operation="FinSuppMeasure")
        a.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "weights", w)

    @property
    def width(self):
        return int(self.atoms.shape[1])

    @property
    def n_atoms(self):
        return int(self.atoms.shape[0])

    def merged(self, depth, space):
        """Atoms truncated to `depth` with duplicate prefixes merged.

        Returns (codes, weights): the sorted distinct prefix codes (grid
        nodes, see `_pack_prefixes`) and the summed weight of each.
        """
        if depth > self.width:
            raise DepthError(f"depth {depth} exceeds stored atom width {self.width}",
                             module="measures", operation="merged")
        rows = symbol_array(self.atoms[:, :depth], space, "measures", "merged")
        codes, inverse = np.unique(_pack_prefixes(rows, space.m),
                                   return_inverse=True)
        return codes, np.bincount(inverse, weights=self.weights,
                                  minlength=codes.shape[0])


def _pack_prefixes(rows, m):
    """The grid nodes sum_d (x_d - 1) m^d of the rows of a (k, width) symbol
    array, as int64 radix-m codes; requires m^width < 2^62."""
    width = rows.shape[1]
    if int(m) ** width >= 2 ** 62:
        raise SizeError(f"prefix width {width} too large to pack for m={m}",
                        module="measures", operation="_pack_prefixes")
    codes = np.zeros(rows.shape[0], dtype=np.int64)
    for d in reversed(range(width)):
        codes *= m
        codes += rows[:, d]
        codes -= 1
    return codes


def _window_keys(symbols, n, depth, space):
    """Prefix codes of the n sliding depth-windows of a symbol array."""
    if n + depth - 1 > symbols.shape[0]:
        raise DepthError(
            f"need {n + depth - 1} symbols for {n} windows of depth {depth}, "
            f"have {symbols.shape[0]}",
            module="measures", operation="empirical_measure")
    head = symbol_array(symbols[:n + depth - 1], space, "measures",
                        "empirical_measure")
    return _pack_prefixes(sliding_window_view(head, depth), space.m)


def empirical_measure(x, n, depth, space):
    """The uniform measure on the first n shifts of x, merged at `depth`."""
    return empirical_snapshots(x, [n], depth, space)[0]


def empirical_snapshots(x, times, depth, space):
    """Empirical measures at several window counts, sharing one key pass:
    the uniform measure on the first t shifts of x, merged at `depth`, for
    each t in times."""
    times = [int(t) for t in times]
    if not times or any(t < 1 for t in times):
        raise InputError(f"times must be nonempty positive integers, got {times}",
                         module="measures", operation="empirical_snapshots")
    keys = _window_keys(x.symbols, max(times), depth, space)
    uniq, inverse = np.unique(keys, return_inverse=True)
    del keys
    atoms_all = _unpack_keys(uniq, depth, space.m)
    out = []
    for t in times:
        w = np.bincount(inverse[:t], weights=np.full(t, 1.0 / t),
                        minlength=uniq.shape[0])
        keep = w > 0
        w = w[keep]
        out.append(FinSuppMeasure(atoms=np.ascontiguousarray(atoms_all[keep]),
                                  weights=w / w.sum()))
    return out


def _unpack_keys(codes, width, m):
    """The (k, width) symbol rows of prefix codes; inverse of `_pack_prefixes`."""
    out = np.empty((codes.shape[0], width), dtype=np.int16)
    k = codes.copy()
    for d in range(width):
        out[:, d] = k % m + 1
        k //= m
    return out


@dataclass(frozen=True)
class MarkovMixture:
    """A convex combination of Markov measures (a point of the simplex A_L)."""

    components: tuple
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if not ((w >= 0).all() and abs(float(w.sum()) - 1.0) <= 1e-12):
            raise InvariantError("mixture weights must lie on the probability simplex",
                                 module="measures", operation="MarkovMixture")
        if w.shape[0] != len(self.components):
            raise InvariantError("mixture weights/components length mismatch",
                                 module="measures", operation="MarkovMixture")
        w.setflags(write=False)
        object.__setattr__(self, "components", tuple(self.components))
        object.__setattr__(self, "weights", w)

    @property
    def space(self):
        return self.components[0].space

    def cylinder_probability(self, word):
        p = sum(t * c.cylinder_probability(word)
                for t, c in zip(self.weights, self.components))
        return float(p) if np.ndim(word) == 1 else p


def truncation_proxy(mu, depth, space):
    """Exact depth-truncation of a Markov measure or mixture.

    Atoms are the admissible depth-cylinders weighted by their exact
    probabilities; W1 against the true measure is at most the metric tail
    bound at `depth`.
    """
    words = np.asarray(admissible_words(space, depth), dtype=np.int16)
    probs = mu.cylinder_probability(words)
    keep = probs > 0
    w = probs[keep]
    return FinSuppMeasure(atoms=words[keep], weights=w / w.sum())


def _net_supply(mu, nu, depth, space):
    """The supply mu - nu on the union of both measures' prefix codes at
    `depth`: (codes, net), with net masses of at most 1e-15 dropped."""
    a_codes, a_w = mu.merged(depth, space)
    b_codes, b_w = nu.merged(depth, space)
    codes, inverse = np.unique(np.concatenate([a_codes, b_codes]),
                               return_inverse=True)
    net = np.bincount(inverse, weights=np.concatenate([a_w, -b_w]),
                      minlength=codes.shape[0])
    keep = np.abs(net) > 1e-15
    return codes[keep], net[keep]


def wasserstein1(mu, nu, depth, space):
    """Exact W1 between finitely supported measures at truncated ground costs.

    The truncated metric sum_d beta^-(d+1) |x_d - y_d| is the path metric of
    the grid of all m^depth symbol prefixes, with an arc between prefixes
    that differ by one in one coordinate d, so W1 is a min-cost flow on that
    grid, whatever the atom counts.  Both measures are merged to prefix
    codes, which are grid nodes, and the supply is mu - nu on the union of
    their codes; net masses of at most 1e-15 count as zero.  If either side
    of the supply is one atom, W1 is its mass times the mean distance to the
    other side, with no grid, at any depth.  Otherwise HiGHS solves the flow
    at primal and dual feasibility tolerances 1e-10; a grid of more than
    `GRID_CAP` nodes raises SizeError before it is built.  `w1_below`, which
    needs the exact value only when `w1_bounds` leave a test open, raises
    it only then.

    Returns (value, error_bound).  Truncated costs underestimate the true
    metric, so the true W1 lies in [value, value + error_bound].
    """
    m = space.m
    codes, net = _net_supply(mu, nu, depth, space)
    err = space.metric_tail_bound(depth)
    src, dst = net > 0, net < 0
    if not (src.any() and dst.any()):
        return 0.0, err
    # normalize each side (cost is linear in mass; rescale afterwards)
    a_codes, a_w = codes[src], net[src]
    b_codes, b_w = codes[dst], -net[dst]
    mass = float(a_w.sum())
    a_w = a_w / mass
    b_w = b_w / b_w.sum()
    if min(a_codes.shape[0], b_codes.shape[0]) == 1:
        one, many, w = ((a_codes, b_codes, b_w) if a_codes.shape[0] == 1
                        else (b_codes, a_codes, a_w))
        x = _unpack_keys(one, depth, m)[0]
        y = _unpack_keys(many, depth, m)
        cost = np.zeros(many.shape[0])
        for d in range(depth):
            cost += np.abs(y[:, d] - x[d]) * space.beta ** (-(d + 1))
        return mass * float(cost @ w), err

    incidence, cost = _grid_flow(m, depth, float(space.beta))
    supply = np.zeros(m ** depth)
    supply[a_codes] = a_w
    supply[b_codes] = -b_w
    res = linprog(cost, A_eq=incidence, b_eq=supply[:-1], bounds=(0, None),
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise InvariantError(f"transport flow LP failed: {res.message}",
                             module="measures", operation="wasserstein1")
    return mass * float(res.fun), err


def w1_bounds(mu, nu, depth, space):
    """Bounds lb <= W1 <= ub at the truncated costs of `wasserstein1`, in
    O(atoms * depth) with no grid, so also beyond `GRID_CAP`.

    lb: the cost splits over coordinates, so W1 is at least the sum over d
    of beta^-(d+1) times the 1-D W1 of the coordinate-d marginals, the
    summed absolute differences of their distribution functions.
    ub: greedy matching on the prefix tree (Evans & Matsen 2012; Le et al.
    2019).  With e_l half the summed |mu(c) - nu(c)| over the depth-l
    cylinders c, mass e_{l+1} - e_l is first matched inside a depth-l
    cylinder, at most its truncated diameter (m-1) sum_{d>=l} beta^-(d+1)
    apart.
    """
    m = space.m
    codes, net = _net_supply(mu, nu, depth, space)
    if not ((net > 0).any() and (net < 0).any()):
        return 0.0, 0.0
    scale = space.beta ** -np.arange(1.0, depth + 1)
    digits = _unpack_keys(codes, depth, m) - 1     # (k, depth), 0..m-1
    marginals = np.bincount((digits + m * np.arange(depth)).ravel(),
                            weights=np.repeat(net, depth),
                            minlength=m * depth).reshape(depth, m)
    lb = float(scale @ np.abs(np.cumsum(marginals, axis=1)[:, :-1]).sum(axis=1))
    # rows in prefix order, so each cylinder is a run of rows; row i opens
    # a depth-l cylinder when the first digit unlike row i-1's is below l
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


def w1_below(mu, nu, eps, depth, space):
    """Whether W1(mu, nu) < eps at the truncated costs of `wasserstein1`.

    `w1_bounds` decide when they clear eps by MARGIN, which exceeds the flow
    LP's tolerances and the bounds' rounding; otherwise the exact value is
    compared with eps.
    """
    lb, ub = w1_bounds(mu, nu, depth, space)
    if ub < eps - MARGIN:
        return True
    if lb > eps + MARGIN:
        return False
    return wasserstein1(mu, nu, depth, space)[0] < eps


@lru_cache(maxsize=8)
def _grid_flow(m, depth, beta):
    """Node-arc incidence (last node row dropped) and arc costs of the
    m^depth symbol grid; node sum_d (x_d - 1) m^d, arcs both ways between
    nodes one apart in coordinate d, at cost beta^-(d+1).  Dropping a row
    leaves the flow LP feasible for any supply.  Shared read-only by every
    caller, the `pairwise_w1` pool threads included."""
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
    arc = np.arange(tail.shape[0])
    incidence = sp.csr_matrix(
        (np.concatenate([np.ones(arc.shape[0]), -np.ones(arc.shape[0])]),
         (np.concatenate([tail, head]), np.concatenate([arc, arc]))),
        shape=(n, arc.shape[0]))[:-1]
    cost = np.concatenate(costs)
    for a in (incidence.data, incidence.indices, incidence.indptr, cost):
        a.setflags(write=False)
    return incidence, cost
