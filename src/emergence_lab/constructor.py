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

The scheduler searches each group's scale by doubling and bisection, each
probe on Python ints and floats.  An independent checker re-evaluates every
inequality from its definition after construction.  Each block is a typical
word drawn by rejection from its own stream make_rng(seed ^ (idx + 1));
`build_orbit` decides the attempts of all blocks in rounds
(`_typical_words`), attempt r of every open block in round r, so each block
gets the word it would get alone.  Empirical measures along the built orbit
then sweep the whole simplex of the family, which is what the saturation
report verifies.  Typical words, entry thresholds and saturation minima all
compare against `truncation_proxy`: one family measure, or a net node's
mixture of them, through the bound-first W1 tests of `measures`
(`w1_below`, `w1_min`).
"""

from __future__ import annotations

import itertools
import json
import math
from collections import defaultdict
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
    (the first of equal ones) repaired toward the target proportion; a list
    of ints, from float64 operations on Python scalars."""
    n = [max(math.ceil(s * t), f, 1) for t, f in zip(node, floors)]
    jstar = max(range(len(node)), key=node.__getitem__)
    t = node[jstar]
    others = sum(n) - n[jstar]
    if t < 1.0 - 1e-12:
        n[jstar] = max(round(others * t / (1.0 - t)), floors[jstar], 1)
    else:
        n[jstar] = max(s, floors[jstar], 1)
    return n


def _group_feasible(n, node, L, prefix, gaps, eps_t, gamma_n, l_max):
    """All three inequalities for the group (L, j) with lengths n, after
    `prefix` block symbols and up to `gaps` connector symbols.  (I2)'s left
    side grows with the connectors and (I1)'s ratios shrink, so (I2) is
    tested with all of them and (I1) with none."""
    s = sum(n)
    # (I3) proportion tracking
    if max(abs(k / s - t) for k, t in zip(n, node)) > eps_t / (L + 1) + 1e-15:
        return False
    # (I2) dominate the past
    past = prefix + gaps
    if 2.0 * past / (past + s) + 2.0 * (L + 1) / s >= eps_t:
        return False
    # (I1) next threshold vs cumulative, checked at each block of the group
    cum = prefix
    for l in range(L + 1):
        cum += n[l]
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
        floors = [int(gamma_n.get((L, l), 1)) for l in range(L + 1)]
        for j, node in enumerate(nets[L].nodes):
            # the boundaries between the blocks before the group
            gaps = bridge * max(len(blocks) - 1, 0)

            def feasible(s):
                n = _candidate_lengths(s, node, floors)
                return _group_feasible(n, node, L, prefix, gaps, eps_t,
                                       gamma_n, l_max)

            s = max(sum(floors), L + 2)
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
                blocks.append((L, j, l, n[l]))
            prefix += sum(n)
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
    if len(it.eps_hat) < l_max + 2:
        out.append("eps_hat schedule too short")
    for L, e in enumerate(it.eps_hat[:l_max + 2]):
        if not 0 < e < 1:
            out.append(f"eps_hat[{L}] outside (0,1)")
    if len(it.connector_slots) != len(it.blocks):
        out.append(f"connector_slots hold {len(it.connector_slots)} entries "
                   f"for {len(it.blocks)} blocks")
        return out
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

    Rejection-samples from the chain on make_rng(seed) until
    W1(delta_y^n, proxy of mu) < eps, where y is the word continued
    periodically: the one-block case of `_typical_words`.
    """
    return _typical_words((mu,), [(0, n, eps, seed)], metric_depth)[0]


def _typical_words(measures, blocks, metric_depth):
    """One typical word per block (l, n, eps, seed), for measures[l] on one
    space, each the word `typical_word(measures[l], n, eps, seed)` returns
    alone: attempt r of a block is the r-th length-n word of its own chain
    on make_rng(seed), rejected if its last symbol cannot precede its first
    or its periodic continuation is not within eps of the measure's proxy.

    The attempts are decided in rounds.  Round r draws attempt r of every
    block still open, one `sample_words` walk per batch of a measure's
    blocks that holds at most the longest block's symbols (so a walk
    allocates about what the longest word alone did), counts each word
    with `periodic_counts`, turns the counts into masses by one
    `count_masses` call per length, and decides them by one `w1_below` per
    (measure, eps) against a proxy built once per measure; each decision is
    exact, whatever rows share the call.  A block still open after
    ATTEMPT_CAP rounds raises SamplingError, the first such block's.
    """
    for _, n, eps, _ in blocks:
        if n < 1 or not eps > 0:
            raise InputError(f"need n >= 1 and eps > 0, got n={n}, eps={eps}",
                             module="constructor", operation="typical_word")
    space = measures[0].space
    used = sorted({l for l, _, _, _ in blocks})
    proxies = {l: truncation_proxy((measures[l],), (1.0,), metric_depth)
               for l in used}
    rngs = [make_rng(seed) for _, _, _, seed in blocks]
    cap = max(n for _, n, _, _ in blocks)
    words = [None] * len(blocks)
    todo = list(range(len(blocks)))
    for _ in range(ATTEMPT_CAP):
        drawn = {}
        for l in used:
            open_ = [i for i in todo if blocks[i][0] == l]
            for batch in _batches(open_, [blocks[i][1] for i in open_], cap):
                attempts = measures[l].sample_words(
                    [blocks[i][1] for i in batch], [rngs[i] for i in batch])
                drawn.update((i, w) for i, w in zip(batch, attempts)
                             if space.allows(int(w[-1]), int(w[0])))
        by_length, by_test = defaultdict(list), defaultdict(list)
        for i in drawn:
            l, n, eps, _ = blocks[i]
            by_length[n].append(i)
            by_test[l, eps].append(i)
        masses = {}
        for n, rows in by_length.items():
            counts = np.concatenate([periodic_counts(
                drawn[i][None], n, metric_depth, space.m) for i in rows])
            masses.update(zip(rows, count_masses(counts, n)))
        for (l, eps), rows in by_test.items():
            below = w1_below(np.array([masses[i] for i in rows]), proxies[l],
                             eps, metric_depth, space)
            for i, accepted in zip(rows, below.tolist()):
                if accepted:
                    words[i] = drawn[i]
        todo = [i for i in todo if words[i] is None]
        if not todo:
            return words
    _, n, eps, _ = blocks[todo[0]]
    raise SamplingError(
        f"typical_word budget {ATTEMPT_CAP} exhausted (n={n}, eps={eps})",
        module="constructor", operation="typical_word")


def _batches(items, sizes, cap):
    """The items in order, in runs whose sizes sum to at most cap; an item
    larger than cap runs alone."""
    batch, total = [], 0
    for item, size in zip(items, sizes):
        if batch and total + size > cap:
            yield batch
            batch, total = [], 0
        batch.append(item)
        total += size
    if batch:
        yield batch


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
    words = _typical_words(family.measures, [
        (l, n, it.eps_tilde[L], seed ^ (idx + 1))
        for idx, (L, j, l, n) in enumerate(it.blocks)], metric_depth)
    for (L, j, l, n), w in zip(it.blocks, words):
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
