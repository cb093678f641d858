import itertools
import math

import numpy as np
import pytest

from emergence_lab import emergence, measures
from emergence_lab.constructor import oscillating_orbit
from emergence_lab.emergence import (EXACT_CAP, EmergenceReport,
                                     TrajectoryCloud, _exact_cover,
                                     _greedy_cover, _greedy_packing,
                                     build_cloud, cloud_at_times,
                                     covering_number_bounds,
                                     emergence_exponent, emergence_report,
                                     geometric_times, pairwise_w1)
from emergence_lab.errors import InputError, SizeError
from emergence_lab.measures import MARGIN, MarkovMeasure, make_rng, w1_settled
from emergence_lab.sofic import PointPrefix, ShiftSpace
from oracles import from_atoms, loop_geometric_times

FULL2 = ShiftSpace.full_shift(2)


def test_geometric_times_endpoints_and_monotone():
    times = geometric_times(10, 10000, 12)
    assert times[0] == 10 and times[-1] == 10000
    assert all(b > a for a, b in zip(times, times[1:]))


def test_geometric_times_collision_repair():
    times = geometric_times(3, 12, 8)
    assert len(set(times)) == 8
    assert times[0] == 3 and times[-1] == 12


def test_geometric_times_exhaustive_small_grids():
    # every grid with n_min < 60, a span up to 79 and every count it holds
    for n_min in range(1, 60):
        for n_max in range(n_min + 1, n_min + 80):
            for count in range(2, n_max - n_min + 2):
                times = geometric_times(n_min, n_max, count)
                assert len(times) == count
                assert times[0] == n_min and times[-1] == n_max
                assert all(b > a for a, b in zip(times, times[1:]))


def test_geometric_times_match_loop_repair():
    rng = np.random.default_rng(5)
    for _ in range(300):
        n_min = int(rng.integers(1, 10 ** 6))
        span = int(rng.integers(1, 10 ** 5))
        count = int(rng.integers(2, min(span + 1, 2000) + 1))
        assert geometric_times(n_min, n_min + span, count) == \
            loop_geometric_times(n_min, n_min + span, count)


def test_geometric_times_guards():
    with pytest.raises(InputError):
        geometric_times(10, 5, 3)
    with pytest.raises(InputError):
        geometric_times(1, 3, 5)
    # non-integers: 1.5 would start the grid below n_min and 10.7 end it
    # below n_max; integers of any integer type are accepted
    for args in ((1.5, 10, 3), (1, 10.7, 3), (1, 10, 3.0), (True, 10, 3),
                 (1, 10, True), ("1", 10, 3)):
        with pytest.raises(InputError, match="must be an integer"):
            geometric_times(*args)
    with pytest.raises(InputError, match="count must be >= 2"):
        geometric_times(1, 10, 1)
    assert geometric_times(np.int64(1), np.int32(10), np.uint8(3)) == \
        geometric_times(1, 10, 3)


def brute_force_cover(dist, eps):
    """Smallest number of data-centered eps-balls covering all points."""
    k = dist.shape[0]
    for size in range(1, k + 1):
        for centers in itertools.combinations(range(k), size):
            if all(any(dist[i, c] <= eps for c in centers) for i in range(k)):
                return size
    return k


def random_dist(rng, k):
    pts = rng.random((k, 2))
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    return d


def test_exact_cover_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(40):
        k = int(rng.integers(2, 9))
        dist = random_dist(rng, k)
        eps = float(rng.uniform(0.05, 0.8))
        assert _exact_cover(dist, eps) == brute_force_cover(dist, eps)


def test_greedy_sandwich_brackets_exact():
    rng = np.random.default_rng(1)
    for _ in range(40):
        k = int(rng.integers(2, 12))
        dist = random_dist(rng, k)
        eps = float(rng.uniform(0.05, 0.6))
        exact = _exact_cover(dist, eps)
        assert _greedy_packing(dist, eps) <= exact <= _greedy_cover(dist, eps)


def test_covering_bounds_exact_for_small_clouds():
    rng = np.random.default_rng(2)
    dist = random_dist(rng, 8)
    lo, up = covering_number_bounds(dist, 0.3)
    assert lo == up == _exact_cover(dist, 0.3)


def test_covering_bounds_greedy_for_large_or_forced():
    rng = np.random.default_rng(3)
    dist = random_dist(rng, 10)
    lo, up = _greedy_packing(dist, 0.2), _greedy_cover(dist, 0.2)
    assert lo <= _exact_cover(dist, 0.2) <= up
    # a cloud above the exact-solve size takes the greedy path
    dist = random_dist(rng, EXACT_CAP + 1)
    lo, up = covering_number_bounds(dist, 0.2)
    assert lo == _greedy_packing(dist, 0.2)
    assert up == _greedy_cover(dist, 0.2)
    assert lo <= up


def test_covering_bounds_reject_nan_scale():
    # eps = nan gave (3, 3) on three points
    dist = random_dist(np.random.default_rng(4), 3)
    with pytest.raises(InputError):
        covering_number_bounds(dist, math.nan)
    with pytest.raises(InputError, match="at least one snapshot"):
        covering_number_bounds(np.zeros((0, 0)), 0.1)


def test_emergence_exponent_doubling_counts():
    eps = (0.2, 0.1, 0.05)
    slope, _, res, degenerate = emergence_exponent(eps, (1, 4, 16))
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert not degenerate
    assert res == pytest.approx(0.0, abs=1e-12)


def test_emergence_exponent_flat_counts_degenerate():
    slope, _, _, degenerate = emergence_exponent((0.2, 0.1, 0.05), (3, 3, 3))
    assert degenerate and slope == 0.0


def test_emergence_exponent_needs_three_scales():
    with pytest.raises(InputError):
        emergence_exponent((0.2, 0.1), (1, 2))


def test_cloud_validation():
    with pytest.raises(InputError):
        TrajectoryCloud(times=(10, 10), snapshots=(None, None), depth=3,
                        space=FULL2)
    with pytest.raises(InputError, match="length mismatch"):
        TrajectoryCloud(times=(10, 20), snapshots=(None,), depth=3,
                        space=FULL2)


def test_cloud_tail_selects_late_times():
    mu = MarkovMeasure.bernoulli([0.5, 0.5], FULL2)
    x = PointPrefix(mu.sample(1100, make_rng(0)))
    cloud = build_cloud(x, 10, 1000, 8, 4, FULL2)
    times, snaps = cloud.tail(0.5)
    assert len(times) == 4
    assert times == cloud.times[-4:]
    with pytest.raises(InputError):
        cloud.tail(0.0)


def test_cloud_at_times_matches_build_cloud():
    mu = MarkovMeasure.bernoulli([0.3, 0.7], FULL2)
    x = PointPrefix(mu.sample(600, make_rng(4)))
    a = build_cloud(x, 10, 500, 6, 4, FULL2)
    b = cloud_at_times(x, a.times, 4, FULL2)
    assert a.times == b.times
    d = pairwise_w1((a.snapshots[2], b.snapshots[2]), 4, FULL2)
    assert d[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_pairwise_w1_symmetric_and_thread_invariant():
    mu = MarkovMeasure.bernoulli([0.4, 0.6], FULL2)
    x = PointPrefix(mu.sample(2100, make_rng(9)))
    cloud = build_cloud(x, 50, 2000, 5, 4, FULL2)
    d1 = pairwise_w1(cloud.snapshots, 4, FULL2, threads=1)
    d2 = pairwise_w1(cloud.snapshots, 4, FULL2, threads=3)
    assert np.array_equal(d1, d2)
    assert np.allclose(d1, d1.T)
    assert np.all(np.diag(d1) == 0)


def test_generic_orbit_report_structure():
    mu = MarkovMeasure.bernoulli([0.5, 0.5], FULL2)
    x = PointPrefix(mu.sample(4200, make_rng(21)))
    cloud = build_cloud(x, 100, 4096, 10, 5, FULL2)
    rep = emergence_report(cloud, (0.2, 0.1, 0.05), tail_fraction=0.5)
    assert all(l <= u for l, u in zip(rep.lower, rep.upper))
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "epsilon,lower,upper,n_window_start,n_window_end"
    assert len(lines) == 4
    # late-time generic snapshots concentrate: one ball suffices at 0.2
    assert rep.upper[0] == 1


def test_report_validation():
    with pytest.raises(InputError):
        EmergenceReport(epsilons=(0.1, 0.2), lower=(1, 1), upper=(1, 1),
                        exponent_fit={}, tail_fraction=0.5,
                        n_window_start=1, n_window_end=2)
    with pytest.raises(InputError):
        EmergenceReport(epsilons=(0.2, 0.1), lower=(5, 5), upper=(1, 1),
                        exponent_fit={}, tail_fraction=0.5,
                        n_window_start=1, n_window_end=2)


# ------------------------------------------------- W1 decisions in the report

def random_cloud(seed, k, depth=3):
    rng = np.random.default_rng(seed)
    snaps = []
    for _ in range(k):
        atoms = np.unique(rng.integers(1, 3, size=(int(rng.integers(1, 9)),
                                                   depth)), axis=0)
        w = rng.random(atoms.shape[0]) + 0.05
        snaps.append(from_atoms(atoms.astype(np.int16), w / w.sum(), FULL2))
    return TrajectoryCloud(times=range(1, k + 1), snapshots=snaps,
                           depth=depth, space=FULL2)


def counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_benchmark_clouds_need_no_lp(monkeypatch):
    # the generic and oscillating FULL2 depth-8 clouds of the benchmark's
    # reference input: the bounds settle every pair at every scale, and
    # the reports equal those of the all-exact path
    depth, scales = 8, (0.2, 0.1, 0.05, 0.025)
    n = 2 ** 14 + depth - 1
    generic = PointPrefix(MarkovMeasure.bernoulli([0.5, 0.5], FULL2).sample(
        n, make_rng(40)))
    oscillating = oscillating_orbit(
        MarkovMeasure.bernoulli([0.1, 0.9], FULL2),
        MarkovMeasure.bernoulli([0.9, 0.1], FULL2), n, 41, 64, 2.0)
    clouds = [build_cloud(x, 2 ** 9, 2 ** 14, 10, depth, FULL2)
              for x in (generic, oscillating)]
    solves = counting(monkeypatch, measures, "linprog")
    reports = [emergence_report(c, scales, tail_fraction=0.5) for c in clouds]
    assert solves == []
    monkeypatch.setattr(measures, "MARGIN", math.inf)
    assert [emergence_report(c, scales, tail_fraction=0.5)
            for c in clouds] == reports
    assert len(solves) > 0


def test_report_with_open_pairs_is_thread_invariant(monkeypatch):
    cloud = random_cloud(7, 9)
    exact = pairwise_w1(cloud.snapshots, 3, FULL2)
    d = exact[0, 1]
    scales = (d + MARGIN / 2, d, d - MARGIN / 2)
    solves = counting(monkeypatch, emergence, "wasserstein1")
    one = emergence_report(cloud, scales, tail_fraction=1.0, threads=1)
    assert 0 < len(solves) < 36
    assert emergence_report(cloud, scales, tail_fraction=1.0,
                            threads=3) == one
    assert np.array_equal(
        pairwise_w1(cloud.snapshots, 3, FULL2, threads=1, scales=scales),
        pairwise_w1(cloud.snapshots, 3, FULL2, threads=3, scales=scales))
    assert list(zip(one.lower, one.upper)) == \
        [covering_number_bounds(exact, e) for e in scales]


def test_large_cloud_solves_every_pair(monkeypatch):
    # the greedy cover compares distances with one another, so a tail above
    # EXACT_CAP gets every pair exact
    cloud = random_cloud(8, EXACT_CAP + 2)
    solves = counting(monkeypatch, emergence, "wasserstein1")
    emergence_report(cloud, (0.4, 0.2, 0.1), tail_fraction=1.0)
    assert len(solves) == cloud.count * (cloud.count - 1) // 2


@pytest.mark.parametrize("scales", [
    (0.2, math.nan, 0.05), (0.2, 0.1, math.inf), (math.inf, 0.1, 0.05),
    (0.2, 0.1, 0.0), (0.2, -0.1, -0.2), (0.2, 0.1), (0.1, 0.2, 0.05),
    (0.2, 0.1, 0.1)])
def test_report_checks_scales_before_w1_work(monkeypatch, scales):
    cloud = random_cloud(9, 5)
    solves = counting(monkeypatch, emergence, "wasserstein1")
    bounds = counting(monkeypatch, emergence, "w1_settled")
    with pytest.raises(InputError) as ei:
        emergence_report(cloud, scales, tail_fraction=1.0)
    assert ei.value.operation == "emergence_report"
    assert solves == bounds == []
    with pytest.raises(InputError, match="tail_fraction"):
        emergence_report(cloud, scales, tail_fraction=0.0)


def test_w1_settled_chunks_and_rule(monkeypatch):
    cloud = random_cloud(10, 12)
    masses = np.stack([mu.mass for mu in cloud.snapshots])
    exact = pairwise_w1(cloud.snapshots, 3, FULL2)[np.triu_indices(12, 1)]
    d = float(exact[3])
    scales = (0.3, d, 0.05)
    whole = w1_settled(masses, scales, 3, FULL2)
    assert np.isnan(whole[3])
    for e in scales:
        done = ~np.isnan(whole)
        assert np.array_equal(whole[done] <= e, exact[done] <= e)
    # chunks of one pair (the cap below one grid) and of five pairs
    for cap in (4, 40):
        monkeypatch.setattr(measures, "MEASURE_CAP", cap)
        assert np.array_equal(w1_settled(masses, scales, 3, FULL2), whole,
                              equal_nan=True)
    # a NaN scale settles nothing
    assert np.isnan(w1_settled(masses, (0.3, math.nan), 3, FULL2)).all()


def test_settled_pairs_need_no_grid():
    # lb = 0 and ub = 0.49988 at depth 13, a grid above GRID_CAP: scales
    # above ub settle the pair, one below leaves it to the exact solve
    atoms = np.array([[1] * 13, [2] * 13, [1, 2] * 6 + [1], [2, 1] * 6 + [2]],
                     dtype=np.int16)
    snaps = (from_atoms(atoms[:2], np.array([0.5, 0.5]), FULL2),
             from_atoms(atoms[2:], np.array([0.5, 0.5]), FULL2))
    dist = pairwise_w1(snaps, 13, FULL2, scales=(0.9, 0.7, 0.5))
    assert dist[0, 1] == dist[1, 0] < 0.5
    with pytest.raises(SizeError, match="grid"):
        pairwise_w1(snaps, 13, FULL2, scales=(0.9, 0.3))
    # masses of another depth are an input error
    with pytest.raises(InputError):
        w1_settled(np.stack([mu.mass for mu in snaps]), (0.5,), 12, FULL2)
