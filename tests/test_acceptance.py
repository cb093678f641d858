"""End-to-end acceptance checks for the library's headline guarantees.

Each test states its tolerance and, where the expected value is nontrivial,
derives it from an independent closed form or a brute-force enumeration
rather than from the code under test.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from emergence_lab import emergence, measures
from emergence_lab.carath import (CStructure, bowen_dimension,
                                  check_conditions, outer_measure_M,
                                  outer_measure_N, pressure_exact,
                                  pressure_partition,
                                  restricted_outer_measure)
from emergence_lab.constructor import (MeasureFamily, SimplexNet,
                                       block_schedule, build_orbit,
                                       log_lambda_measure, oscillating_orbit,
                                       verify_saturation)
from emergence_lab.emergence import (TrajectoryCloud, _greedy_cover,
                                     _greedy_packing, build_cloud,
                                     cloud_at_times,
                                     covering_number_bounds,
                                     emergence_report, pairwise_w1)
from emergence_lab.measures import (MARGIN, MarkovMeasure,
                                    empirical_snapshots, make_rng,
                                    truncation_proxy, wasserstein1)
from emergence_lab.sofic import (PointPrefix, ShiftSpace, admissible_words,
                                 topological_entropy)
from oracles import eta, from_atoms, q_weight, successors

FULL2 = ShiftSpace.full_shift(2)
FULL3 = ShiftSpace.full_shift(3)
GM = ShiftSpace.golden_mean()

PHI = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------- criterion 1

def test_entropy_oracles():
    for m in (2, 3, 5):
        space = ShiftSpace.full_shift(m)
        assert abs(topological_entropy(space) - math.log(m)) <= 1e-12
    assert abs(topological_entropy(GM) - math.log(PHI)) <= 1e-9


# ---------------------------------------------------------------- criterion 2

def test_pressure_partition_brackets_entropy():
    for space in (FULL2, GM):
        h = topological_entropy(space)
        table = {w: 0.0 for w in admissible_words(space, 1)}
        s = CStructure(kind="pressure", space=space, window=1, table=table)
        for n in (8, 16, 24):
            assert abs(pressure_partition(s, n) - h) <= 2.0 / n


def test_pressure_exact_log_bernoulli_weights_vanish():
    for p in ([0.5, 0.5], [0.2, 0.8], [0.3, 0.3, 0.4], [0.05, 0.9, 0.05]):
        space = FULL2 if len(p) == 2 else FULL3
        table = {(i + 1,): math.log(pi) for i, pi in enumerate(p)}
        s = CStructure(kind="pressure", space=space, window=1, table=table)
        assert abs(pressure_exact(s)) <= 1e-9


# ---------------------------------------------------------------- criterion 3

def test_bowen_roots():
    for space in (FULL2, GM):
        h = topological_entropy(space)
        for u, want in [(1.0, h)] + [(math.log(beta), h / math.log(beta))
                                     for beta in (2.0, 3.0)]:
            s = CStructure(kind="appendix", space=space, window=1,
                           table={w: u for w in admissible_words(space, 1)})
            assert abs(bowen_dimension(s, tol=1e-11) - want) <= 1e-9


# ---------------------------------------------------------------- criterion 4

def test_outer_measure_entropy_closed_forms():
    s = CStructure(kind="entropy", space=FULL2)
    # 2 e^{-t} > 1 for t < log 2, so the depth-1 cover is optimal at every cap
    for t in (0.3, 0.5):
        for cap in range(4, 13):
            assert outer_measure_M(s, "X", t, cap) == pytest.approx(
                2.0 * math.exp(-t), abs=1e-12)
    # t = 1: each extra level multiplies the optimal cover weight by 2/e
    vals = [outer_measure_M(s, "X", 1.0, cap) for cap in range(4, 13)]
    for a, b in zip(vals, vals[1:]):
        assert b / a == pytest.approx(2.0 / math.e, abs=1e-9)


def test_outer_measure_m_below_n_random_grid():
    rng = np.random.default_rng(12)
    structures = (CStructure(kind="entropy", space=FULL2),
                  CStructure(kind="hausdorff", space=FULL2),
                  CStructure(kind="entropy", space=GM),
                  CStructure(kind="hausdorff", space=GM))
    for _ in range(50):
        s = structures[int(rng.integers(len(structures)))]
        t = float(rng.uniform(0.05, 2.0))
        m_blk = int(rng.integers(1, 4))
        cap = m_blk * int(rng.integers(1, 4))
        assert (outer_measure_M(s, "X", t, cap)
                <= outer_measure_N(s, "X", t, m_blk, cap) + 1e-15)


# ---------------------------------------------------------------- criterion 5

def test_weight_multiplicativity_depth_8():
    s = CStructure(kind="entropy", space=FULL2)
    rep = check_conditions(s, depth=8, t_grid=(0.3, 0.7, 1.2))
    assert abs(rep.q3_estimate - 1.0) <= 1e-12


def test_eta_monotone_depth_10_all_kinds():
    ones = {w: 1.0 for w in admissible_words(FULL2, 1)}
    phi = {(1,): 0.4, (2,): -0.3}
    structures = (CStructure(kind="entropy", space=FULL2),
                  CStructure(kind="hausdorff", space=FULL2),
                  CStructure(kind="pressure", space=FULL2, window=1, table=phi),
                  CStructure(kind="appendix", space=FULL2, window=1, table=ones))
    for s in structures:
        # exhaustive monotonicity of eta along every tree edge to depth 10
        for l in range(1, 10):
            for u in admissible_words(FULL2, l):
                eu = eta(s, u)
                for c in successors(FULL2, u[-1]):
                    assert eta(s, u + (c,)) <= eu * (1 + 1e-12)
        assert check_conditions(s, depth=2, t_grid=(1.0,)).c4_pass


# ---------------------------------------------------------------- criterion 6

def _random_finsupp(rng, depth=4):
    n_atoms = int(rng.integers(1, 9))
    atoms = rng.integers(1, 3, size=(n_atoms, depth)).astype(np.int16)
    atoms = np.unique(atoms, axis=0)
    w = rng.random(atoms.shape[0]) + 0.05
    return from_atoms(atoms, w / w.sum(), FULL2)


def test_w1_axioms_thousand_triples():
    rng = np.random.default_rng(6)
    depth = 4
    for _ in range(1000):
        mus = [_random_finsupp(rng, depth) for _ in range(3)]
        d01, err = wasserstein1(mus[0], mus[1], depth, FULL2)
        d10, _ = wasserstein1(mus[1], mus[0], depth, FULL2)
        d12, _ = wasserstein1(mus[1], mus[2], depth, FULL2)
        d02, _ = wasserstein1(mus[0], mus[2], depth, FULL2)
        dself, _ = wasserstein1(mus[0], mus[0], depth, FULL2)
        assert dself == 0.0
        assert d01 == pytest.approx(d10, abs=1e-9)
        assert d01 >= 0.0
        assert d02 <= d01 + d12 + 3 * err


def test_w1_prefix_shift_inequality():
    # prepending n1 symbols perturbs the time-n empirical measure by at most
    # 2 n1 / n plus twice the truncated-metric tail
    rng = np.random.default_rng(7)
    mu = MarkovMeasure.bernoulli([0.5, 0.5], FULL2)
    depth = 4
    tail = FULL2.metric_tail_bound(depth)
    for _ in range(500):
        n = int(rng.integers(64, 513))
        n1 = int(rng.integers(1, 11))
        word = mu.sample(n + n1 + depth - 1, make_rng(int(rng.integers(2**32))))
        zx = PointPrefix(word)
        x = PointPrefix(word[n1:])
        d, _ = wasserstein1(empirical_snapshots(x, [n], depth, FULL2)[0],
                            empirical_snapshots(zx, [n + n1], depth, FULL2)[0],
                            depth, FULL2)
        assert d <= 2.0 * n1 / n + 2.0 * tail + 1e-12


# ---------------------------------------------------------------- criterion 7

SCALES_GENERIC = (0.2, 0.1, 0.05, 0.025)


def test_generic_orbit_slope_small():
    mu = MarkovMeasure.bernoulli([0.5, 0.5], FULL2)
    depth = 8
    x = PointPrefix(mu.sample(2 ** 14 + depth - 1, make_rng(40)))
    cloud = build_cloud(x, 2 ** 9, 2 ** 14, 24, depth, FULL2)
    rep = emergence_report(cloud, SCALES_GENERIC, tail_fraction=0.5)
    assert rep.exponent_fit["slope"] <= 0.3


def test_oscillating_orbit_slope_near_one():
    mu_a = MarkovMeasure.bernoulli([0.1, 0.9], FULL2)
    mu_b = MarkovMeasure.bernoulli([0.9, 0.1], FULL2)
    depth = 8
    x = oscillating_orbit(mu_a, mu_b, 2 ** 14 + depth - 1, seed=41,
                          first_block=64, growth=2.0)
    cloud = build_cloud(x, 2 ** 9, 2 ** 14, 24, depth, FULL2)
    rep = emergence_report(cloud, SCALES_GENERIC, tail_fraction=0.5)
    assert 0.7 <= rep.exponent_fit["slope"] <= 1.3


# Level-3 steered construction: the level-3 net nodes below were chosen so
# that the mixtures they schedule end up pairwise separated (> 0.1 in W1)
# while the whole trajectory cloud stays within one 0.4-ball.  Counting the
# separated snapshots at the three scales then doubles twice, giving a
# box-counting slope of at least 2.
L3_EPS_TILDE = (0.995, 0.99, 0.985, 0.98, 0.9)
L3_EPS_HAT = (0.02,) * 5
L3_SEED = 424242
L3_METRIC_DEPTH = 5
L3_SCALES = (0.2, 0.1, 0.05)

L3_NODES = (
    (0.35642091592747016, 0.21715930647175316, 0.28402312749260011, 0.14239665010817662),
    (0.49599183849493522, 0.073261293084254706, 0.2223240245769687, 0.20842284384384147),
    (0.22964584740424884, 0.076196485684677323, 0.49018226851229324, 0.20397539839878059),
    (0.030712802132707502, 0.17830871360310685, 0.60484024153274352, 0.18613824273144211),
    (0.10731339448565724, 0.48700561687190524, 0.30198491816550299, 0.1036960704769346),
    (0.23616374516641125, 0.18630545331596379, 0.57753080151762481, 0.0),
    (0.48576755695897644, 0.22663664355880347, 0.27748943487690902, 0.010106364605311098),
    (0.54673991367194286, 0.0, 0.037878477852951828, 0.41538160847510536),
    (0.074061917280034431, 0.0, 0.71303614800717885, 0.21290193471278671),
    (0.34949994690722724, 0.15195635119056808, 0.11615360500150683, 0.38239009690069775),
    (0.0024228030720717417, 0.20596365051116206, 0.47961729866450703, 0.31199624775225915),
    (0.32139418318615542, 0.27206352436821923, 0.19360419413204671, 0.21293809831357857),
    (0.21304172099883981, 0.39363492822650059, 0.21354428161588349, 0.17977906915877595),
    (0.092247441530987503, 0.16113127336935776, 0.13215950642452315, 0.61446177867513152),
    (0.42614159046950484, 0.49629324445675116, 0.017417960536234286, 0.060147204537509727),
    (0.105889343453102, 0.24585308305960693, 0.14932946653972698, 0.49892810694756407),
    (0.073795486542247296, 0.55778766952656389, 0.22505505057706016, 0.14336179335412871),
    (0.0, 0.20549942673028124, 0.49839426708641293, 0.29610630618330586),
    (0.036756553108458649, 0.50887225431939864, 0.26081365888112801, 0.19355753369101475),
)


def _l3_family(e=0.005):
    alt13 = MarkovMeasure(np.array([[e, e, 1 - 2 * e],
                                    [0.4, 0.2, 0.4],
                                    [1 - 2 * e, e, e]]), FULL3)
    return MeasureFamily((alt13,
                          MarkovMeasure.bernoulli([1 - 2 * e, e, e], FULL3),
                          MarkovMeasure.bernoulli([e, 1 - 2 * e, e], FULL3),
                          MarkovMeasure.bernoulli([e, e, 1 - 2 * e], FULL3)))


def _l3_orbit():
    fam = _l3_family()
    nets = (SimplexNet(level=0, mesh=1.0, nodes=((1.0,),)),
            SimplexNet(level=1, mesh=1.0, nodes=((0.5, 0.5),)),
            SimplexNet(level=2, mesh=1.0,
                       nodes=((1 / 3, 1 / 3, 1 / 3),)),
            SimplexNet(level=3, mesh=0.8, nodes=L3_NODES))
    gamma = {(L, l): 16 for L in range(5) for l in range(L + 1)}
    gamma[(4, 0)] = 16
    it = block_schedule(fam, 3, L3_EPS_TILDE, L3_EPS_HAT, gamma, nets=nets)
    return fam, it, build_orbit(it, fam, FULL3, L3_SEED,
                                metric_depth=L3_METRIC_DEPTH)


def test_constructed_orbit_superlinear_slope():
    fam, it, orbit = _l3_orbit()
    # the orbit's bytes pin the sampling contract: a change that moves one
    # symbol of any block shows here
    assert hashlib.sha256(orbit.symbols_bytes()).hexdigest() == (
        "eec92b0e4a189a148023f80ae53506ef28e532e6727130718961f999e043356e")
    length = orbit.word.usable_depth
    usable = length - L3_METRIC_DEPTH + 1
    # cloud: the ends of the level-3 groups (where the steering lands on the
    # designed targets) plus a few probes just before each of the last ends
    ends = sorted({end for (L, j, l, start, end) in orbit.block_map
                   if L == 3 and l == L})
    times = set(min(t, usable) for t in ends[1:])
    totals = {}
    for L, j, l, n in it.blocks:
        totals[(L, j)] = totals.get((L, j), 0) + n
    l3_sizes = sorted(s for (L, _), s in totals.items() if L == 3)
    for end, s in zip(ends[-8:], l3_sizes[-8:]):
        times.add(min(max(end - int(0.02 * s), 1), usable))
    cloud = cloud_at_times(orbit.word, sorted(times), L3_METRIC_DEPTH, FULL3)
    rep = emergence_report(cloud, L3_SCALES, tail_fraction=1.0)
    assert rep.lower[0] >= 1
    assert rep.exponent_fit["lower_slope"] >= 2.0


# ---------------------------------------------------------------- criterion 8

L2_EPS_TILDE = (0.9, 0.8, 0.5, 0.4)
L2_EPS_HAT = (0.1,) * 4
L2_DEPTH = 5


def _l2_family():
    return MeasureFamily((MarkovMeasure.bernoulli([0.2, 0.8], FULL2),
                          MarkovMeasure.bernoulli([0.8, 0.2], FULL2),
                          MarkovMeasure.bernoulli([0.5, 0.5], FULL2)))


def _l2_orbit(seed):
    fam = _l2_family()
    nets = (SimplexNet(level=0, mesh=1.0, nodes=((1.0,),)),
            SimplexNet(level=1, mesh=1.0,
                       nodes=((1.0, 0.0), (0.0, 1.0), (0.5, 0.5))),
            SimplexNet(level=2, mesh=1.0,
                       nodes=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                              (0.0, 0.0, 1.0), (0.5, 0.5, 0.0),
                              (0.0, 0.5, 0.5), (1 / 3, 1 / 3, 1 / 3))))
    gamma = {(L, l): 32 for L in range(4) for l in range(L + 1)}
    it = block_schedule(fam, 2, L2_EPS_TILDE, L2_EPS_HAT, gamma, nets=nets)
    return fam, it, build_orbit(it, fam, FULL2, seed, metric_depth=L2_DEPTH)


def test_level2_saturation_three_seeds():
    for seed in (101, 202, 303):
        fam, it, orbit = _l2_orbit(seed)
        # slack: the stated 0.05 plus the truncated-metric tail of the
        # comparison depth (truncation slack); block sampling error is
        # already inside eps_tilde via the typical-word acceptance test
        slack = 0.05 + FULL2.metric_tail_bound(L2_DEPTH)
        rep = verify_saturation(orbit, it.nets[2], fam, slack,
                                metric_depth=L2_DEPTH)
        assert not rep.unreachable
        assert rep.passed, rep.node_minima
        if seed == 101:
            # the report's bytes pin every node's min_w1 and at_time, so a
            # proxy or W1 change that moves one last digit shows here
            assert hashlib.sha256(rep.to_json().encode()).hexdigest() == (
                "467087f2b663c7c5054fa671b9d81700b69bc163d447652f982a45a4033068a1")


# ---------------------------------------------------------------- criterion 9

def test_level2_lambda_measure_dimension_probe():
    fam, it, orbit = _l2_orbit(101)
    h_min = min(mu.entropy() for mu in fam.measures)
    bound = h_min - it.eps_tilde[2] - 0.05
    for t in orbit.boundary_times():
        log_lam = log_lambda_measure(orbit, fam, t)
        assert -log_lam / t >= bound


# --------------------------------------------------------------- criterion 10

def _exact_cover_count(dist, eps):
    k = dist.shape[0]
    for size in range(1, k + 1):
        for centers in itertools.combinations(range(k), size):
            if all(any(dist[i, c] <= eps for c in centers) for i in range(k)):
                return size
    return k


@pytest.fixture(scope="module")
def clouds_200():
    """200 random FULL2 clouds at depth 3 from default_rng(10): each cloud's
    snapshots, its random scale and its all-exact distance matrix."""
    rng = np.random.default_rng(10)
    clouds = []
    for _ in range(200):
        k = int(rng.integers(2, 13))
        snaps = [_random_finsupp(rng, 3) for _ in range(k)]
        eps = float(rng.uniform(0.02, 0.4))
        clouds.append((snaps, eps, pairwise_w1(snaps, 3, FULL2)))
    return clouds


def test_exact_covering_inside_greedy_sandwich_200_clouds(clouds_200):
    for _, eps, dist in clouds_200:
        lo_g, up_g = _greedy_packing(dist, eps), _greedy_cover(dist, eps)
        lo_e, up_e = covering_number_bounds(dist, eps)
        assert lo_e == up_e == _exact_cover_count(dist, eps)
        assert lo_g <= lo_e <= up_g


def test_emergence_counts_from_w1_decisions_equal_exact_200_clouds(
        monkeypatch, clouds_200):
    # the clouds above, each reported at its random scale, a distance of
    # one of its pairs and that distance +- MARGIN / 2: the bounds cannot
    # settle the pairs at such scales, so some pairs go to the exact solve
    pick = np.random.default_rng(11)
    depth = 3
    clouds = []
    for snaps, eps, exact in clouds_200:
        k = len(snaps)
        i, j = sorted(pick.choice(k, 2, replace=False))
        d = exact[i, j] if exact[i, j] > MARGIN else exact.max()
        scales = tuple(sorted({eps, d + MARGIN / 2, d, d - MARGIN / 2},
                              reverse=True))
        cloud = TrajectoryCloud(times=range(1, k + 1), snapshots=snaps,
                                depth=depth, space=FULL2)
        counts = [covering_number_bounds(exact, e) for e in scales]
        clouds.append((cloud, scales, exact, counts))

    solves = []

    def spy(*args):
        solves.append(args)
        return wasserstein1(*args)

    monkeypatch.setattr(emergence, "wasserstein1", spy)
    reports, pairs = [], 0
    for cloud, scales, exact, counts in clouds:
        rep = emergence_report(cloud, scales, tail_fraction=1.0)
        assert list(zip(rep.lower, rep.upper)) == counts
        # a settled entry lies on the exact value's side of every scale
        dist = pairwise_w1(cloud.snapshots, depth, FULL2, scales=scales)
        for e in scales:
            assert np.array_equal(dist <= e, exact <= e)
        reports.append(rep)
        pairs += cloud.count * (cloud.count - 1) // 2
    assert 0 < len(solves) < pairs
    # bounds trusted at no margin settle nothing: every pair of the first
    # 50 clouds is solved, to the same reports
    monkeypatch.setattr(measures, "MARGIN", math.inf)
    solves.clear()
    for (cloud, scales, _, _), rep in zip(clouds[:50], reports):
        assert emergence_report(cloud, scales, tail_fraction=1.0) == rep
    assert len(solves) == sum(c.count * (c.count - 1) // 2
                              for c, *_ in clouds[:50])


def _enumerate_cut_costs(s, t, depth_cap, u=()):
    """Minimal cover weight by explicit enumeration of all antichain cuts.

    Extra cylinders only add positive weight, so the infimum over arbitrary
    subsets that cover the target equals the infimum over tree cuts.
    """
    options = []
    if u:
        options.append(q_weight(s, u, t))
    if len(u) < depth_cap:
        children = [_enumerate_cut_costs(s, t, depth_cap, u + (c,))
                    for c in (successors(s.space, u[-1]) if u
                              else range(1, s.space.m + 1))]
        for combo in itertools.product(*children):
            options.append(sum(combo))
    return tuple(sorted(set(np.round(options, 15))))


def test_outer_measure_matches_cover_enumeration():
    s = CStructure(kind="entropy", space=FULL2)
    for t in (0.3, 1.0):
        for cap in (1, 2, 3, 4):
            brute = min(_enumerate_cut_costs(s, t, cap))
            assert outer_measure_M(s, "X", t, cap) == pytest.approx(
                brute, abs=1e-12)
