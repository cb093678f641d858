"""Irregular-orbit construction by scheduled block concatenation.

Given a family of Markov measures mu^(0), ..., mu^(K), a mesh of the
probability simplex at each level L, and decreasing tolerance schedules
eps_tilde / eps_hat, the builder lays out block groups (L, j) — one per net
node t_{L,j} — each consisting of L+1 typical words for the component
measures with lengths proportional to t_{L,j}.  Three inequalities govern the
lengths:

  (I1)  the next entry threshold stays small against the cumulative length:
        gamma_n[(L,l)+1] / cum_length(L,j,l) <= eps_tilde[L]
  (I2)  each group dominates its past:
        2 * prefix / (prefix + s) + 2 (L+1) / s < eps_tilde[L]
  (I3)  realized proportions track the node:
        |n / s - t_{L,j}|_inf <= eps_tilde[L] / (L+1)

An independent checker re-evaluates every inequality from its definition
after construction.  Empirical measures along the built orbit then sweep the
whole simplex of the family, which is what the saturation report verifies.
Typical words, entry thresholds and saturation minima all compare against
`truncation_proxy`: one family measure, or a net node's mixture of them,
through the bound-first W1 tests of `measures` (`w1_below`, `w1_min`).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (AlignmentError, InputError, InvariantError, SamplingError,
                     ScheduleError, SizeError)
from .measures import (count_masses, make_rng, periodic_counts,
                       snapshot_masses, truncation_proxy, w1_below, w1_min)
from .sofic import PointPrefix, connector, is_admissible, symbol_array

NODE_CAP = 50_000       # lattice points of one simplex net
GAMMA_N_CAP = 2 ** 16   # largest entry threshold the estimate tries
ATTEMPT_CAP = 10_000    # chain samples per typical word
LENGTH_CAP = 2 ** 27    # default cap on the total length of a block schedule


@dataclass(frozen=True)
class MeasureFamily:
    """Pairwise-distinct Markov measures on one space."""

    measures: tuple

    def __post_init__(self):
        ms = tuple(self.measures)
        if not ms:
            raise InputError("family needs at least one measure",
                             module="constructor", operation="MeasureFamily")
        space = ms[0].space
        for mu in ms[1:]:
            if mu.space != space:
                raise InputError("family measures live on different spaces",
                                 module="constructor", operation="MeasureFamily")
        for a, b in itertools.combinations(range(len(ms)), 2):
            # the largest difference on a depth-2 cylinder
            if np.abs(ms[a].prefix_law(2) - ms[b].prefix_law(2)).max() <= 1e-9:
                raise InputError(
                    f"measures {a} and {b} are indistinguishable on short cylinders",
                    module="constructor", operation="MeasureFamily")
        object.__setattr__(self, "measures", ms)

    @property
    def space(self):
        return self.measures[0].space

    def __len__(self):
        return len(self.measures)


@dataclass(frozen=True)
class SimplexNet:
    """A lattice mesh of the L-dimensional probability simplex."""

    level: int
    mesh: float
    nodes: tuple   # tuples of floats, each summing to 1, length level+1

    @property
    def cardinality(self):
        return len(self.nodes)


def simplex_net(level, mesh):
    """All lattice points k/q on the simplex, q = ceil((level+1)/mesh).

    The largest-remainder rounding of any simplex point to this lattice moves
    each coordinate by < 1/q, so the L1 covering radius is <= (level+1)/q
    <= mesh.
    """
    if level < 0:
        raise InputError(f"level must be >= 0, got {level}",
                         module="constructor", operation="simplex_net")
    if not 0 < mesh < math.inf:
        raise InputError(f"mesh must be finite and > 0, got {mesh}",
                         module="constructor", operation="simplex_net")
    if level == 0:
        return SimplexNet(level=0, mesh=mesh, nodes=((1.0,),))
    if (level + 1) / mesh == math.inf:
        raise SizeError(f"mesh {mesh} overflows the lattice denominator",
                        module="constructor", operation="simplex_net")
    q = math.ceil((level + 1) / mesh)
    count = math.comb(q + level, level)
    if count > NODE_CAP:
        raise SizeError(f"net would have {count} nodes (cap {NODE_CAP})",
                        module="constructor", operation="simplex_net")
    nodes = []
    for parts in _compositions(q, level + 1):
        nodes.append(tuple(p / q for p in parts))
    return SimplexNet(level=level, mesh=mesh, nodes=tuple(nodes))


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


@dataclass(frozen=True)
class Itinerary:
    """The full block layout: schedules and per-block lengths."""

    eps_tilde: tuple          # indexed by level, length >= L_max + 2
    eps_hat: tuple
    blocks: tuple             # records (L, j, l, n)
    connector_slots: tuple    # planned gap lengths, one per block boundary
    gamma_n: dict             # (L, l) -> entry threshold n-tilde
    nets: tuple               # SimplexNet per level 0..L_max

    @property
    def l_max(self):
        return max(b[0] for b in self.blocks)

    def to_json(self):
        return json.dumps({
            "eps_tilde": list(self.eps_tilde),
            "eps_hat": list(self.eps_hat),
            "blocks": [list(b) for b in self.blocks],
            "connector_slots": list(self.connector_slots),
            "gamma_n": {f"{L},{l}": int(n) for (L, l), n in sorted(self.gamma_n.items())},
            "nets": [{"level": net.level, "mesh": net.mesh,
                      "nodes": [list(nd) for nd in net.nodes]} for net in self.nets],
        }, indent=2, sort_keys=True)


def default_eps_tilde(l_max):
    return tuple(1.0 / (L + 2) for L in range(l_max + 2))


def default_eps_hat(l_max, nets):
    """2^-(L+1) / max(1, L |net L|) at levels 0..l_max+1, inside (0, 1)."""
    out = []
    for L in range(l_max + 2):
        j = nets[L].cardinality if L < len(nets) else 1
        out.append(2.0 ** (-L - 1) / max(1, L * j))
    return tuple(out)


def estimate_gamma_thresholds(family, l_max, eps_tilde, eps_hat, seed,
                              metric_depth, samples=200):
    """Empirical entry thresholds: smallest n (powers of two) at which a
    1 - eps_hat fraction of sampled length-n words track their measure
    within eps_tilde under W1."""
    space = family.space
    table = {}
    for L in range(l_max + 2):
        eps = eps_tilde[L]
        need = 1.0 - eps_hat[L]
        top = 0 if L == l_max + 1 else L   # only (l_max+1, 0) is consulted
        for l in range(top + 1):
            if l >= len(family):
                continue
            mu = family.measures[l]
            proxy = truncation_proxy((mu,), (1.0,), metric_depth)
            rng = make_rng(seed + 1009 * L + l)
            n = 16
            found = None
            while n <= GAMMA_N_CAP:
                hits = 0
                for _ in range(samples):
                    w = mu.sample(n + metric_depth - 1, rng)
                    emp = snapshot_masses(PointPrefix(w), [n], metric_depth,
                                          space)
                    if w1_below(emp, proxy, eps, metric_depth, space)[0]:
                        hits += 1
                if hits / samples >= need:
                    found = n
                    break
                n *= 2
            if found is None:
                raise SamplingError(
                    f"no n <= {GAMMA_N_CAP} reaches acceptance {need:.3f} "
                    f"at level {L}, component {l}",
                    module="constructor", operation="estimate_gamma_thresholds")
            table[(L, l)] = found
    return table


def _next_index(L, l, l_max):
    return (L, l + 1) if l < L else (L + 1, 0)


def _candidate_lengths(s, node, floors):
    """Block lengths ~ s * t with entry-threshold floors, largest coordinate
    repaired toward the target proportion."""
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


def _group_feasible(n, node, L, prefix, gaps, eps_t, gamma_n, l_max):
    """All three inequalities for the group (L, j) with lengths n, after
    `prefix` block symbols and up to `gaps` connector symbols.  (I2)'s left
    side grows with the connectors and (I1)'s ratios shrink, so (I2) is
    tested with all of them and (I1) with none."""
    s = int(n.sum())
    # (I3) proportion tracking
    if np.abs(n / s - np.asarray(node)).max() > eps_t / (L + 1) + 1e-15:
        return False
    # (I2) dominate the past
    past = prefix + gaps
    if 2.0 * past / (past + s) + 2.0 * (L + 1) / s >= eps_t:
        return False
    # (I1) next threshold vs cumulative, checked at each block of the group
    cum = prefix
    for l in range(L + 1):
        cum += int(n[l])
        nxt = gamma_n.get(_next_index(L, l, l_max))
        if nxt is not None and nxt / cum > eps_t:
            return False
    return True


def _longest_bridge(space):
    """The longest `connector` bridge between two symbols of `space`, the
    most symbols `build_orbit` inserts at a block boundary: 0 on a full
    shift."""
    pairs = np.argwhere(space.transition == 0) + 1
    return max((len(connector((a,), (b,), space)) for a, b in pairs.tolist()),
               default=0)


def block_schedule(family, l_max, eps_tilde, eps_hat, gamma_n, nets,
                   length_cap=LENGTH_CAP):
    """Lay out block lengths group by group, one group per node of nets[L]
    at level L; minimal scale via doubling then binary search, with the
    floors gamma_n[(L, l)] enforced throughout.  Connector slots are planned
    as 0, but a group must meet (I2) with a longest bridge at every block
    boundary of its past, so that any connectors `build_orbit` inserts keep
    the layout valid."""
    if l_max + 1 > len(family):
        raise InputError(f"need {l_max + 1} measures for levels 0..{l_max}",
                         module="constructor", operation="block_schedule")
    eps_tilde = tuple(float(e) for e in eps_tilde)
    eps_hat = tuple(float(e) for e in eps_hat)
    if len(eps_tilde) < l_max + 2 or len(eps_hat) < l_max + 2:
        raise InputError("schedules must cover levels 0..l_max+1",
                         module="constructor", operation="block_schedule")
    if any(not 0 < e < 1 for e in eps_hat[:l_max + 2]):
        raise ScheduleError("eps_hat must lie in (0,1) (product positivity)",
                            module="constructor", operation="block_schedule")
    if any(not b > 0 for b in eps_tilde):
        raise ScheduleError("eps_tilde must be positive",
                            module="constructor", operation="block_schedule")
    if (l_max + 1, 0) not in gamma_n:
        raise InputError("gamma_n must include the (l_max+1, 0) sentinel entry",
                         module="constructor", operation="block_schedule")

    bridge = _longest_bridge(family.space)
    blocks = []
    prefix = 0
    for L in range(l_max + 1):
        eps_t = eps_tilde[L]
        floors = np.array([gamma_n.get((L, l), 1) for l in range(L + 1)],
                          dtype=np.int64)
        for j, node in enumerate(nets[L].nodes):
            # the boundaries between the blocks before the group
            gaps = bridge * max(len(blocks) - 1, 0)

            def feasible(s):
                n = _candidate_lengths(s, node, floors)
                return _group_feasible(n, node, L, prefix, gaps, eps_t,
                                       gamma_n, l_max)

            s = max(int(floors.sum()), L + 2)
            while not feasible(s):
                s *= 2
                if prefix + s > length_cap:
                    raise ScheduleError(
                        f"group (L={L}, j={j}) infeasible under length cap "
                        f"{length_cap}: inequality (I2)/(I3) cannot be met",
                        module="constructor", operation="block_schedule")
            lo, hi = s // 2, s
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if feasible(mid):
                    hi = mid
                else:
                    lo = mid
            n = _candidate_lengths(hi, node, floors)
            for l in range(L + 1):
                blocks.append((L, j, l, int(n[l])))
            prefix += int(n.sum())
            if prefix > length_cap:
                raise ScheduleError(f"total length {prefix} exceeds cap {length_cap}",
                                    module="constructor", operation="block_schedule")

    it = Itinerary(eps_tilde=eps_tilde, eps_hat=eps_hat, blocks=tuple(blocks),
                   connector_slots=tuple(0 for _ in blocks), gamma_n=dict(gamma_n),
                   nets=tuple(nets[:l_max + 1]))
    violations = check_itinerary(it)
    if violations:
        raise ScheduleError("; ".join(violations),
                            module="constructor", operation="block_schedule")
    return it


def check_itinerary(it):
    """Independent re-evaluation of every itinerary inequality from scratch.

    Shares no code with the search: walks the block list, accumulates
    cumulative lengths (connector slots included), and tests each inequality
    literally.  Returns a list of violation strings (empty = valid).
    """
    out = []
    l_max = it.l_max
    if len(it.eps_tilde) < l_max + 2:
        out.append("eps_tilde schedule too short")
        return out
    for L in range(l_max + 2):
        if not 0 < it.eps_hat[L] < 1:
            out.append(f"eps_hat[{L}] outside (0,1)")
    order = [(b[0], b[1], b[2]) for b in it.blocks]
    if order != sorted(order):
        out.append("blocks not in lexicographic (L, j, l) order")

    cum = 0
    group_start = {}
    group_sum = {}
    group_nodes = {}
    for idx, (L, j, l, n) in enumerate(it.blocks):
        key = (L, j)
        if key not in group_start:
            group_start[key] = cum
        cum += n + it.connector_slots[idx]
        group_sum[key] = group_sum.get(key, 0) + n
        nxt = (L, l + 1) if l < L else (L + 1, 0)
        gnext = it.gamma_n.get(nxt)
        if gnext is not None and gnext / cum > it.eps_tilde[L] + 1e-15:
            out.append(f"(I1) fails at block {(L, j, l)}: {gnext}/{cum} "
                       f"> {it.eps_tilde[L]}")
        group_nodes.setdefault(key, {})[l] = n
    for (L, j), s in group_sum.items():
        prefix = group_start[(L, j)]
        lhs = 2.0 * prefix / (prefix + s) + 2.0 * (L + 1) / s
        if lhs >= it.eps_tilde[L]:
            out.append(f"(I2) fails at group {(L, j)}: {lhs:.6f} >= {it.eps_tilde[L]}")
        node = it.nets[L].nodes[j]
        dev = max(abs(group_nodes[(L, j)].get(l, 0) / s - node[l])
                  for l in range(L + 1))
        if dev > it.eps_tilde[L] / (L + 1) + 1e-12:
            out.append(f"(I3) fails at group {(L, j)}: deviation {dev:.6f} "
                       f"> {it.eps_tilde[L] / (L + 1):.6f}")
    return out


def typical_word(mu, n, eps, seed, metric_depth):
    """A length-n word whose periodic continuation empirically tracks mu.

    Rejection-samples from the chain until W1(delta_y^n, proxy of mu) < eps,
    where y is the word continued periodically.
    """
    if n < 1 or not eps > 0:
        raise InputError(f"need n >= 1 and eps > 0, got n={n}, eps={eps}",
                         module="constructor", operation="typical_word")
    space = mu.space
    proxy = truncation_proxy((mu,), (1.0,), metric_depth)
    rng = make_rng(seed)
    for _ in range(ATTEMPT_CAP):
        w = mu.sample(n, rng)
        if not space.allows(int(w[-1]), int(w[0])):
            continue
        counts = periodic_counts(w[None], n, metric_depth, space.m)
        if w1_below(count_masses(counts, n), proxy, eps, metric_depth,
                    space)[0]:
            return w
    raise SamplingError(
        f"typical_word budget {ATTEMPT_CAP} exhausted (n={n}, eps={eps})",
        module="constructor", operation="typical_word")


def _log_cylinder_probability(mu, word):
    w = symbol_array(word, mu.space.m, "constructor",
                     "log_cylinder_probability") - 1
    with np.errstate(divide="ignore"):
        logp = np.log(mu.stochastic)
    return float(np.log(mu.stationary[w[0]]) + logp[w[:-1], w[1:]].sum())


@dataclass(frozen=True)
class ConstructedOrbit:
    """A finite orbit prefix assembled from scheduled typical blocks."""

    word: PointPrefix
    block_map: tuple      # records (L, j, l, start, end) — measure index = l
    itinerary: Itinerary
    seed: int

    def boundary_times(self):
        return tuple(b[4] for b in self.block_map)

    def to_json(self):
        return json.dumps({
            "seed": self.seed,
            "length": self.word.usable_depth,
            "block_map": [list(b) for b in self.block_map],
        }, indent=2, sort_keys=True)

    def symbols_bytes(self):
        return self.word.symbols.astype(np.uint8).tobytes()


def build_orbit(it, family, space, seed, metric_depth):
    """Concatenate typical words per the itinerary, bridging with minimal
    connectors; deterministic for a fixed (itinerary, family, seed)."""
    pieces = []
    block_map = []
    slots = []
    pos = 0
    prev_last = None
    for idx, (L, j, l, n) in enumerate(it.blocks):
        w = typical_word(family.measures[l], n, it.eps_tilde[L],
                         seed ^ (idx + 1), metric_depth=metric_depth)
        gap = 0
        if prev_last is not None and not space.allows(prev_last, int(w[0])):
            bridge = connector((prev_last,), (int(w[0]),), space)
            pieces.append(np.asarray(bridge, dtype=np.int16))
            gap = len(bridge)
            pos += gap
        slots.append(gap)
        pieces.append(w)
        block_map.append((L, j, l, pos, pos + n))
        pos += n
        prev_last = int(w[-1])
    word = PointPrefix(np.concatenate(pieces))
    if not is_admissible(word.symbols, space):
        raise InvariantError("assembled orbit is not admissible",
                             module="constructor", operation="build_orbit")
    # connector slot for block idx is the gap *before* it; re-check with reality
    it2 = replace(it, connector_slots=tuple(slots))
    violations = check_itinerary(it2)
    if violations:
        raise ScheduleError("connector insertion broke the layout: "
                            + "; ".join(violations),
                            module="constructor", operation="build_orbit")
    return ConstructedOrbit(word=word, block_map=tuple(block_map),
                            itinerary=it2, seed=seed)


def log_lambda_measure(orbit, family, prefix_len):
    """log Lambda of the first prefix_len symbols: the summed log cylinder
    probabilities of the completed block words; connector gaps add 0.
    prefix_len must be 0 or a recorded block end.
    """
    if prefix_len == 0:
        return 0.0
    ends = {b[4] for b in orbit.block_map}
    if prefix_len not in ends:
        raise AlignmentError(f"prefix_len {prefix_len} is not a block boundary",
                             module="constructor", operation="log_lambda_measure")
    total = 0.0
    for L, j, l, start, end in orbit.block_map:
        if end > prefix_len:
            break
        total += _log_cylinder_probability(family.measures[l],
                                           orbit.word.symbols[start:end])
    return total


@dataclass(frozen=True)
class SaturationReport:
    level: int
    slack: float
    eps_level: float
    node_minima: tuple    # (node, min distance, boundary time) per net node
    unreachable: bool
    passed: bool

    def to_json(self):
        return json.dumps({
            "level": self.level, "slack": self.slack, "eps_level": self.eps_level,
            "unreachable": self.unreachable, "passed": self.passed,
            "nodes": [{"node": list(nd), "min_w1": d, "at_time": t}
                      for nd, d, t in self.node_minima],
        }, indent=2, sort_keys=True)


def verify_saturation(orbit, net, family, slack, metric_depth):
    """For each net node, the closest approach of the empirical measure (over
    block-boundary times) to the node's mixture, the first time attaining
    it from `w1_min`; pass iff every node is reached within
    eps_tilde[level] + slack."""
    space = family.space
    L = net.level
    if not any(b[0] == L for b in orbit.block_map):
        return SaturationReport(level=L, slack=slack,
                                eps_level=orbit.itinerary.eps_tilde[L],
                                node_minima=(), unreachable=True, passed=False)
    sym = orbit.word.symbols
    # wrap the tail so the last boundary still has metric_depth-1 lookahead
    if space.allows(int(sym[-1]), int(sym[0])):
        ext = PointPrefix(np.concatenate([sym, sym[:metric_depth - 1]]))
        max_time = sym.shape[0]
    else:
        ext = orbit.word
        max_time = sym.shape[0] - metric_depth + 1
    times = sorted({t for t in orbit.boundary_times() if 0 < t <= max_time})
    masses = (snapshot_masses(ext, times, metric_depth, space) if times
              else np.empty((0, space.m ** metric_depth)))
    minima = []
    worst = 0.0
    for node in net.nodes:
        proxy = truncation_proxy(family.measures[:L + 1], node, metric_depth)
        best, row = w1_min(masses, proxy, metric_depth, space)
        minima.append((tuple(node), float(best), times[row] if times else -1))
        worst = max(worst, best)
    eps_level = orbit.itinerary.eps_tilde[L]
    return SaturationReport(level=L, slack=slack, eps_level=eps_level,
                            node_minima=tuple(minima), unreachable=False,
                            passed=bool(worst <= eps_level + slack))


def oscillating_orbit(mu_a, mu_b, total_len, seed, first_block, growth):
    """An orbit alternating ever-longer blocks from two measures, so its
    empirical measure sweeps back and forth along the segment between them."""
    if total_len < first_block:
        raise InputError("total_len shorter than the first block",
                         module="constructor", operation="oscillating_orbit")
    rng = make_rng(seed)
    pieces = []
    cum = 0
    which = 0
    block = first_block
    while cum < total_len:
        mu = (mu_a, mu_b)[which]
        n = min(block, total_len - cum)
        pieces.append(mu.sample(n, rng))
        cum += n
        which ^= 1
        block = max(int(np.ceil(growth * cum)), 1)
    return PointPrefix(np.concatenate(pieces))
