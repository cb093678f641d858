import itertools
import math

import numpy as np
import pytest

from emergence_lab.emergence import (EXACT_CAP, EmergenceReport,
                                     TrajectoryCloud, _exact_cover,
                                     _greedy_cover, _greedy_packing,
                                     build_cloud, cloud_at_times,
                                     covering_number_bounds,
                                     emergence_exponent, emergence_report,
                                     geometric_times, pairwise_w1)
from emergence_lab.errors import InputError
from emergence_lab.measures import MarkovMeasure, make_rng
from emergence_lab.sofic import PointPrefix, ShiftSpace
from oracles import loop_geometric_times

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
