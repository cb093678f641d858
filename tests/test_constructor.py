import math
from dataclasses import replace

import numpy as np
import pytest

from emergence_lab import constructor, measures
from emergence_lab.carath import CStructure, restricted_outer_measure
from emergence_lab.constructor import (ConstructedOrbit, Itinerary,
                                       _candidate_lengths, _group_feasible,
                                       _log_cylinder_probability,
                                       _longest_bridge,
                                       MeasureFamily, SimplexNet,
                                       block_schedule,
                                       build_orbit, check_itinerary,
                                       default_eps_tilde,
                                       estimate_gamma_thresholds,
                                       log_lambda_measure, oscillating_orbit,
                                       simplex_net, typical_word,
                                       verify_saturation)
from emergence_lab.errors import (AlignmentError, InputError, InvariantError,
                                  SamplingError, ScheduleError, SizeError)
from emergence_lab.measures import (MarkovMeasure, empirical_snapshots,
                                    make_rng, truncation_proxy, wasserstein1)
from emergence_lab.sofic import ShiftSpace, is_admissible
from oracles import (cylinder_probability, numpy_candidate_lengths,
                     numpy_group_feasible, periodic, sequential_typical_word)

FULL2 = ShiftSpace.full_shift(2)
FULL3 = ShiftSpace.full_shift(3)
GM = ShiftSpace.golden_mean()


def bern(p, space=FULL2):
    return MarkovMeasure.bernoulli(p, space)


def small_family():
    return MeasureFamily((bern([0.2, 0.8]), bern([0.8, 0.2]),
                          bern([0.5, 0.5])))


# ------------------------------------------------------------ MeasureFamily

def test_family_rejects_duplicates():
    with pytest.raises(InputError):
        MeasureFamily((bern([0.5, 0.5]), bern([0.5, 0.5])))


def test_family_rejects_mixed_spaces():
    with pytest.raises(InputError):
        MeasureFamily((bern([0.5, 0.5]), MarkovMeasure.parry(GM)))


# --------------------------------------------------------------- SimplexNet

def test_simplex_net_nodes_sum_to_one():
    net = simplex_net(2, 0.5)
    assert net.cardinality > 0
    for nd in net.nodes:
        assert sum(nd) == pytest.approx(1.0, abs=1e-12)
        assert all(c >= 0 for c in nd)


def test_simplex_net_level_zero_is_singleton():
    assert simplex_net(0, 0.3).nodes == ((1.0,),)


def net_covering_radius(net, samples, seed):
    """Monte Carlo max L1 distance from random simplex points to the net."""
    rng = make_rng(seed)
    nodes = np.array(net.nodes)
    return max(float(np.abs(nodes - rng.dirichlet(np.ones(net.level + 1)))
                     .sum(axis=1).min()) for _ in range(samples))


def test_simplex_net_covering_radius():
    net = simplex_net(2, 0.4)
    assert net_covering_radius(net, samples=300, seed=1) <= 0.4 + 1e-12


def test_simplex_net_guards():
    with pytest.raises(InputError):
        simplex_net(-1, 0.5)
    with pytest.raises(InputError):
        simplex_net(1, 0.0)
    with pytest.raises(SizeError):
        simplex_net(6, 0.01)
    # an infinite mesh divided by a zero denominator, and (level + 1) / 1e-320
    # overflowed on conversion to an integer; level 0 needs no denominator
    with pytest.raises(InputError):
        simplex_net(1, math.inf)
    with pytest.raises(SizeError):
        simplex_net(1, 1e-320)
    assert simplex_net(0, 1e-320).nodes == ((1.0,),)


# ------------------------------------------------------------- typical_word

def test_typical_word_tracks_measure():
    mu = bern([0.3, 0.7])
    n, eps, depth = 2048, 0.05, 4
    w = typical_word(mu, n, eps, seed=7, metric_depth=depth)
    assert len(w) == n
    y = periodic(tuple(int(c) for c in w), n + depth - 1, FULL2)
    emp = empirical_snapshots(y, [n], depth, FULL2)[0]
    d, _ = wasserstein1(emp, truncation_proxy((mu,), (1.0,), depth), depth,
                        FULL2)
    assert d < eps


def test_typical_word_deterministic():
    mu = MarkovMeasure.parry(GM)
    a = typical_word(mu, 512, 0.1, seed=3, metric_depth=4)
    b = typical_word(mu, 512, 0.1, seed=3, metric_depth=4)
    assert np.array_equal(a, b)
    assert is_admissible(a, GM)


def test_typical_word_guards():
    with pytest.raises(InputError):
        typical_word(bern([0.5, 0.5]), 0, 0.1, seed=0, metric_depth=4)
    with pytest.raises(InputError):
        typical_word(bern([0.5, 0.5]), 10, 0.0, seed=0, metric_depth=4)


def test_constructor_rejects_nan_tolerances():
    # eps = nan ran the whole attempt budget of typical_word before a
    # SamplingError; a nan mesh or schedule entry passed the range checks
    with pytest.raises(InputError):
        typical_word(bern([0.5, 0.5]), 32, math.nan, seed=1, metric_depth=3)
    with pytest.raises(InputError):
        simplex_net(1, math.nan)
    gamma = {(0, 0): 32, (1, 0): 32}
    nets = (simplex_net(0, 0.5),)
    for eps_tilde, eps_hat in (((0.5, math.nan), (0.5, 0.1)),
                               ((0.5, 0.25), (math.nan, 0.1))):
        with pytest.raises(ScheduleError):
            block_schedule(small_family(), 0, eps_tilde, eps_hat, gamma, nets)


# ----------------------------------------------------------- block_schedule

_SCHEDULE_CACHE = {}


def tiny_schedule():
    """A two-level layout kept deliberately small for test speed: loose
    tolerances and a three-node level-1 net."""
    if "it" not in _SCHEDULE_CACHE:
        fam = small_family()
        eps_tilde = (0.9, 0.8, 0.7)
        nets = (simplex_net(0, 0.9),
                SimplexNet(level=1, mesh=0.6,
                           nodes=((1.0, 0.0), (0.5, 0.5), (0.0, 1.0))))
        gamma = {(L, l): 32 for L in range(3) for l in range(L + 1)}
        it = block_schedule(fam, 1, eps_tilde, (0.1,) * 3, gamma, nets=nets)
        _SCHEDULE_CACHE["it"] = (fam, it)
    return _SCHEDULE_CACHE["it"]


def tiny_orbit():
    if "orbit" not in _SCHEDULE_CACHE:
        fam, it = tiny_schedule()
        _SCHEDULE_CACHE["orbit"] = build_orbit(it, fam, FULL2, seed=11,
                                               metric_depth=4)
    return _SCHEDULE_CACHE["orbit"]


def test_block_schedule_checker_clean():
    _, it = tiny_schedule()
    assert check_itinerary(it) == []
    assert it.l_max == 1
    assert sum(b[3] for b in it.blocks) > 0


def test_block_schedule_group_proportions():
    _, it = tiny_schedule()
    totals, per_group = {}, {}
    for L, j, l, n in it.blocks:
        totals[(L, j)] = totals.get((L, j), 0) + n
        per_group.setdefault((L, j), {})[l] = n
    for (L, j), parts in per_group.items():
        s = totals[(L, j)]
        node = it.nets[L].nodes[j]
        dev = max(abs(parts.get(l, 0) / s - node[l]) for l in range(L + 1))
        assert dev <= it.eps_tilde[L] / (L + 1) + 1e-12


def test_block_schedule_needs_sentinel():
    fam = small_family()
    eps_tilde = default_eps_tilde(1)
    nets = tuple(simplex_net(L, eps_tilde[L]) for L in range(2))
    eps_hat = (0.1, 0.1, 0.1)
    gamma = {(0, 0): 32, (1, 0): 32, (1, 1): 32}   # no (2, 0) sentinel
    with pytest.raises(InputError):
        block_schedule(fam, 1, eps_tilde, eps_hat, gamma, nets=nets)


def test_block_schedule_rejects_bad_eps():
    fam = small_family()
    gamma = {(0, 0): 32, (1, 0): 32}
    nets = (simplex_net(0, 0.5),)
    with pytest.raises(ScheduleError):
        block_schedule(fam, 0, (0.5, 0.25), (1.5, 0.1), gamma, nets)
    with pytest.raises(InputError):
        block_schedule(fam, 0, (0.5,), (0.1,), gamma, nets)


def test_block_schedule_length_cap():
    fam = small_family()
    gamma = {(0, 0): 32, (1, 0): 32}
    with pytest.raises(ScheduleError):
        block_schedule(fam, 0, (1e-4, 1e-4), (0.1, 0.1), gamma,
                       (simplex_net(0, 1e-4),), length_cap=10000)


def test_schedule_probes_equal_numpy_oracle():
    # random nodes, nodes whose largest coordinate is tied (the first one
    # is repaired, as np.argmax picks it) and nodes with a coordinate 1
    rng = make_rng(25)
    nodes = [(1.0,), (0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
             (0.5, 0.5), (1 / 3, 1 / 3, 1 / 3), (0.4, 0.2, 0.4),
             (0.1, 0.45, 0.45), (0.25, 0.25, 0.25, 0.25),
             *simplex_net(2, 0.6).nodes]
    nodes += [tuple(rng.dirichlet(np.ones(k)).tolist())
              for k in (1, 2, 3, 4) for _ in range(10)]
    outcomes = set()
    for node in nodes:
        L = len(node) - 1
        for _ in range(30):
            floors = rng.integers(1, 65, L + 1)
            s = int(rng.choice([rng.integers(1, 100),
                                rng.integers(1, 2 ** 24)]))
            want = numpy_candidate_lengths(s, node, floors)
            n = _candidate_lengths(s, node, floors.tolist())
            assert n == want.tolist(), (s, node, floors)
            assert all(type(k) is int for k in n)
            gamma = {(L, l): int(g) for l, g in
                     enumerate(rng.integers(1, 4096, L + 1))}
            gamma[L + 1, 0] = int(rng.integers(1, 4096))
            args = (node, L, int(rng.integers(0, 2 ** 20)),
                    int(rng.integers(0, 64)), float(rng.uniform(0.01, 1.0)),
                    gamma, L)
            feasible = _group_feasible(n, *args)
            assert feasible == numpy_group_feasible(want, *args)
            outcomes.add(feasible)
    assert outcomes == {True, False}


def test_check_itinerary_reports_short_inputs():
    # both used to raise IndexError: tuple index out of range
    _, it = tiny_schedule()
    fields = dict(eps_tilde=it.eps_tilde, eps_hat=it.eps_hat, blocks=it.blocks,
                  connector_slots=it.connector_slots, gamma_n=it.gamma_n,
                  nets=it.nets)
    short_hat = Itinerary(**{**fields, "eps_hat": it.eps_hat[:2]})
    assert check_itinerary(short_hat) == ["eps_hat schedule too short"]
    k = len(it.blocks)
    few_slots = Itinerary(**{**fields,
                             "connector_slots": it.connector_slots[:-2]})
    assert check_itinerary(few_slots) == [
        f"connector_slots hold {k - 2} entries for {k} blocks"]


def test_check_itinerary_flags_broken_order():
    _, it = tiny_schedule()
    blocks = (it.blocks[1], it.blocks[0]) + it.blocks[2:]
    broken = Itinerary(eps_tilde=it.eps_tilde, eps_hat=it.eps_hat,
                       blocks=blocks, connector_slots=it.connector_slots,
                       gamma_n=it.gamma_n, nets=it.nets)
    assert any("order" in v for v in check_itinerary(broken))


def test_gamma_thresholds_monotone_ready():
    fam = small_family()
    eps_tilde = (0.6, 0.5, 0.4)
    eps_hat = (0.2, 0.2, 0.2)
    tbl = estimate_gamma_thresholds(fam, 1, eps_tilde, eps_hat, seed=5,
                                    metric_depth=3, samples=40)
    assert (2, 0) in tbl
    assert all(n >= 16 and n & (n - 1) == 0 for n in tbl.values())


# -------------------------------------------------------------- build_orbit

def test_build_orbit_deterministic_and_admissible():
    fam, it = tiny_schedule()
    a = tiny_orbit()
    b = build_orbit(it, fam, FULL2, seed=11, metric_depth=4)
    assert a.symbols_bytes() == b.symbols_bytes()
    assert is_admissible(a.word.symbols, FULL2)
    assert a.word.usable_depth == (sum(b[3] for b in a.itinerary.blocks)
                                   + sum(a.itinerary.connector_slots))
    # block map covers the word without overlap
    ends = a.boundary_times()
    assert all(t2 > t1 for t1, t2 in zip(ends, ends[1:]))


def test_build_orbit_blocks_track_their_measures():
    fam, it = tiny_schedule()
    orbit = tiny_orbit()
    depth = 4
    for L, j, l, start, end in orbit.block_map:
        n = end - start
        if n < depth:
            continue
        block = orbit.word.symbols[start:end]
        y = periodic(tuple(int(c) for c in block), n + depth - 1, FULL2)
        emp = empirical_snapshots(y, [n], depth, FULL2)[0]
        proxy = truncation_proxy((fam.measures[l],), (1.0,), depth)
        d, _ = wasserstein1(emp, proxy, depth, FULL2)
        assert d < it.eps_tilde[L]


def test_lambda_measure_products():
    fam, it = tiny_schedule()
    orbit = tiny_orbit()
    first_end = orbit.block_map[0][4]
    lp = log_lambda_measure(orbit, fam, first_end)
    mu = fam.measures[orbit.block_map[0][2]]
    word = orbit.word.symbols[orbit.block_map[0][3]:first_end]
    expected = math.log(cylinder_probability((mu,), (1.0,), word))
    assert lp == pytest.approx(expected, rel=1e-9)
    assert log_lambda_measure(orbit, fam, 0) == 0.0
    with pytest.raises(AlignmentError):
        log_lambda_measure(orbit, fam, first_end + 1)


def test_log_cylinder_probability_rejects_symbols_outside_alphabet():
    mu = bern([0.3, 0.7])
    assert _log_cylinder_probability(mu, (1, 2)) == pytest.approx(
        math.log(0.21), rel=1e-12)
    for word in ((0, 1), np.array([1, 2, 3], dtype=np.int16)):
        with pytest.raises(InputError):
            _log_cylinder_probability(mu, word)


def test_lambda_measure_is_product_of_blocks():
    fam, it = tiny_schedule()
    orbit = tiny_orbit()
    second_end = orbit.block_map[1][4]
    lp2 = log_lambda_measure(orbit, fam, second_end)
    parts = 0.0
    for L, j, l, start, end in orbit.block_map[:2]:
        w = tuple(int(c) for c in orbit.word.symbols[start:end])
        parts += math.log(cylinder_probability((fam.measures[l],), (1.0,), w))
    assert lp2 == pytest.approx(parts, rel=1e-9)


# ---------------------------------------------------------------- saturation

def test_verify_saturation_level_one():
    fam, it = tiny_schedule()
    orbit = tiny_orbit()
    rep = verify_saturation(orbit, it.nets[1], fam, slack=0.15, metric_depth=4)
    assert not rep.unreachable
    assert rep.passed
    for node, d, t in rep.node_minima:
        assert d <= rep.eps_level + rep.slack
        assert t in set(orbit.boundary_times())
    # a level-1 node mixes two measures: three weights are one too many
    wrong = SimplexNet(level=1, mesh=1.0, nodes=((0.5, 0.25, 0.25),))
    with pytest.raises(InvariantError):
        verify_saturation(orbit, wrong, fam, slack=0.15, metric_depth=4)


def test_verify_saturation_unreachable_level():
    fam, it = tiny_schedule()
    orbit = tiny_orbit()
    missing = SimplexNet(level=2, mesh=0.5, nodes=((1 / 3, 1 / 3, 1 / 3),))
    rep = verify_saturation(orbit, missing, fam, slack=0.1, metric_depth=4)
    assert rep.unreachable and not rep.passed


def golden_mean_schedule():
    fam = MeasureFamily((MarkovMeasure(np.array([[0.3, 0.7], [1.0, 0.0]]), GM),
                         MarkovMeasure(np.array([[0.8, 0.2], [1.0, 0.0]]), GM)))
    nets = (simplex_net(0, 0.9),
            SimplexNet(level=1, mesh=0.6,
                       nodes=((1.0, 0.0), (0.5, 0.5), (0.0, 1.0))))
    gamma = {(L, l): 32 for L in range(3) for l in range(L + 1)}
    return fam, block_schedule(fam, 1, (0.95, 0.9, 0.9), (0.1,) * 3, gamma,
                               nets)


def test_golden_mean_orbit_with_connector_and_no_wrap():
    # on the golden mean shift 2 cannot follow 2: block 5 starts with the 2
    # that ends block 4, so a connector bridges them; the orbit also ends
    # and starts with 2, so saturation cannot wrap the tail and reads only
    # the boundary times with depth - 1 symbols of lookahead
    fam, it = golden_mean_schedule()
    orbit = build_orbit(it, fam, GM, seed=148, metric_depth=4)
    slots = orbit.itinerary.connector_slots
    assert slots == (0, 0, 0, 0, 0, 1, 0)
    blocks = orbit.block_map
    assert [b[3] - a[4] for a, b in zip(blocks, blocks[1:])] == list(slots[1:])
    sym = orbit.word.symbols
    assert is_admissible(sym, GM)
    assert not GM.allows(int(sym[-1]), int(sym[0]))
    rep = verify_saturation(orbit, it.nets[1], fam, slack=0.1, metric_depth=4)
    times = [b[4] for b in blocks if b[4] <= sym.shape[0] - 3]
    assert times == [b[4] for b in blocks[:-1]]
    for node, d, t in rep.node_minima:
        proxy = truncation_proxy(fam.measures, node, 4)
        assert (d, t) == min(
            (wasserstein1(empirical_snapshots(orbit.word, [n], 4, GM)[0],
                          proxy, 4, GM)[0], n) for n in times)


def test_golden_mean_connectors_keep_the_layout():
    # the schedule leaves room for a one-symbol bridge at every boundary
    # before a group: seeds 0, 6 and 7 used to insert connectors that broke
    # (I2) at groups (1, 1) and (1, 2)
    assert _longest_bridge(GM) == 1
    assert _longest_bridge(FULL2) == _longest_bridge(FULL3) == 0
    fam, it = golden_mean_schedule()
    # a bridge at every boundary at once still meets every inequality
    assert check_itinerary(replace(
        it, connector_slots=(0,) + (1,) * (len(it.blocks) - 1))) == []
    bridged = 0
    for seed in range(8):
        orbit = build_orbit(it, fam, GM, seed=seed, metric_depth=4)
        assert check_itinerary(orbit.itinerary) == []
        assert is_admissible(orbit.word.symbols, GM)
        bridged += any(orbit.itinerary.connector_slots)
    assert bridged >= 3


def tight_full2_schedule():
    """A FULL2 layout with entry thresholds of 2, so that blocks of 2
    symbols must come within 0.3 of their measure: at seeds 1, 5, 6 and 7
    some block needs two or three attempts."""
    fam = small_family()
    nets = (simplex_net(0, 0.9),
            SimplexNet(level=1, mesh=0.6,
                       nodes=((1.0, 0.0), (0.5, 0.5), (0.0, 1.0))))
    gamma = {(L, l): 2 for L in range(3) for l in range(L + 1)}
    return fam, block_schedule(fam, 1, (0.35, 0.3, 0.25), (0.1,) * 3, gamma,
                               nets)


def sequential_blocks(it, family, seed, metric_depth):
    """(word, rejected attempts) of each block, each drawn by the
    sequential attempt loop on the block's own seed."""
    return [sequential_typical_word(family.measures[l], n, it.eps_tilde[L],
                                    seed ^ (idx + 1), metric_depth)
            for idx, (L, j, l, n) in enumerate(it.blocks)]


@pytest.mark.parametrize("schedule, space", [(golden_mean_schedule, GM),
                                             (tight_full2_schedule, FULL2)],
                         ids=["golden-mean", "full2-tight"])
def test_build_orbit_equals_sequential_attempts(schedule, space):
    fam, it = schedule()
    rejected = []
    for seed in range(8):
        orbit = build_orbit(it, fam, space, seed=seed, metric_depth=4)
        want = sequential_blocks(it, fam, seed, 4)
        assert len(orbit.block_map) == len(want)
        for (L, j, l, start, end), (word, reasons) in zip(orbit.block_map,
                                                          want):
            assert np.array_equal(orbit.word.symbols[start:end], word)
            rejected.append(reasons)
    if space is GM:
        # attempts that start and end with a 2, which cannot follow a 2
        assert any("wrap" in r for r in rejected)
    else:
        assert max(len(r) for r in rejected) >= 2


def test_exhausted_attempts_raise_the_sequential_error(monkeypatch):
    # at seed 6 block 2 meets eps on its second attempt and block 5 on its
    # third, so two attempts leave block 5 open
    fam, it = tight_full2_schedule()
    monkeypatch.setattr(constructor, "ATTEMPT_CAP", 2)
    with pytest.raises(SamplingError) as want:
        sequential_blocks(it, fam, 6, 4)
    with pytest.raises(SamplingError) as got:
        build_orbit(it, fam, FULL2, seed=6, metric_depth=4)
    assert got.value.to_json() == want.value.to_json()
    assert "(n=2, eps=0.3)" in str(got.value)
    # every block open at the end: the first one's error, as in sequence
    hopeless = replace(it, eps_tilde=(1e-6,) * 3)
    with pytest.raises(SamplingError) as want:
        sequential_blocks(hopeless, fam, 6, 4)
    with pytest.raises(SamplingError) as got:
        build_orbit(hopeless, fam, FULL2, seed=6, metric_depth=4)
    assert got.value.to_json() == want.value.to_json()
    mu = bern([0.5, 0.5])
    with pytest.raises(SamplingError) as want:
        sequential_typical_word(mu, 64, 1e-6, 3, 4)
    with pytest.raises(SamplingError) as got:
        typical_word(mu, 64, 1e-6, seed=3, metric_depth=4)
    assert got.value.to_json() == want.value.to_json()


def test_bound_decisions_match_exact_path(monkeypatch):
    # bounds that settle nothing send every decision to the exact solve: the
    # results are bit-identical, and the real bounds spare some of the solves
    fam, it = tiny_schedule()
    orbit = tiny_orbit()
    # a boundary every 16 symbols and an 11-node net, so that the minima
    # move often and some times fall between a node's bounds
    orbit = replace(orbit, block_map=tuple(
        (1, 0, 0, t - 16, t)
        for t in range(16, orbit.word.usable_depth + 1, 16)))
    net = SimplexNet(level=1, mesh=0.1,
                     nodes=tuple((i / 10, 1 - i / 10) for i in range(11)))
    s = CStructure(kind="entropy", space=FULL2)
    half = bern([0.5, 0.5])

    def run():
        return (
            [typical_word(mu, n, eps, seed=3, metric_depth=4).tobytes()
             for mu in (bern([0.2, 0.8]), half, MarkovMeasure.parry(GM))
             for n in (64, 256) for eps in (0.1, 0.3)],
            estimate_gamma_thresholds(fam, 1, (0.1, 0.08, 0.06), (0.2,) * 3,
                                      seed=5, metric_depth=3, samples=40),
            verify_saturation(orbit, net, fam, slack=0.15,
                              metric_depth=3).node_minima,
            [restricted_outer_measure(s, z, half, n=16, eps=eps, t=0.7,
                                      m_blk=m_blk, depth_cap=4,
                                      metric_depth=3)
             for z in ((), (1,)) for eps in (0.15, 0.4) for m_blk in (1, 2)],
        )

    solves = []

    def exact(*args):
        solves.append(args)
        return wasserstein1(*args)

    monkeypatch.setattr(measures, "wasserstein1", exact)
    with_bounds = run()
    bounded_solves = len(solves)
    # every decision and saturation minimum trusts a bound only when it
    # clears the threshold by MARGIN: at inf none does
    monkeypatch.setattr(measures, "MARGIN", math.inf)
    solves.clear()
    assert run() == with_bounds
    assert bounded_solves < len(solves)


# --------------------------------------------------------------- oscillator

def test_oscillating_orbit_alternates():
    a, b = bern([0.05, 0.95]), bern([0.95, 0.05])
    x = oscillating_orbit(a, b, 4000, seed=2, first_block=64, growth=2.0)
    assert x.usable_depth == 4000
    # early prefix dominated by measure a (mostly symbol 2)
    head = x.symbols[:64]
    assert (head == 2).mean() > 0.7
    with pytest.raises(InputError):
        oscillating_orbit(a, b, 10, seed=0, first_block=64, growth=2.0)
