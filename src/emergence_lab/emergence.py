"""Pointwise-emergence estimation from finite orbit data.

The accumulation set of the empirical-measure sequence of an orbit is proxied
by a finite cloud of late-time snapshots; its epsilon-covering number under W1
is bracketed by a greedy cover / packing sandwich, with an exact set-cover
solve for small clouds.  The exact cover reads only d <= eps at the report's
scales, so a small cloud's pairs get W1 decisions: sound bounds settle most
of them, and only a pair whose bracket comes within MARGIN of a scale is
solved exactly; the counts equal the all-exact ones.  Slopes of log(count)
against -log(eps) estimate the emergence exponent.
"""

from __future__ import annotations

import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .measures import empirical_snapshots, w1_settled, wasserstein1


@dataclass(frozen=True)
class TrajectoryCloud:
    """Empirical-measure snapshots of one orbit at an increasing time schedule."""

    times: tuple
    snapshots: tuple
    depth: int
    space: object

    def __post_init__(self):
        t = tuple(int(n) for n in self.times)
        if any(b <= a for a, b in zip(t, t[1:])):
            raise InputError("cloud times must be strictly increasing",
                             module="emergence", operation="TrajectoryCloud")
        if len(t) != len(self.snapshots):
            raise InputError("times/snapshots length mismatch",
                             module="emergence", operation="TrajectoryCloud")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "snapshots", tuple(self.snapshots))

    @property
    def count(self):
        return len(self.times)

    def tail(self, tail_fraction):
        if not 0.0 < tail_fraction <= 1.0:
            raise InputError(f"tail_fraction must be in (0, 1], got {tail_fraction}",
                             module="emergence", operation="tail")
        k = int(np.ceil(tail_fraction * self.count))
        return self.times[-k:], self.snapshots[-k:]


def geometric_times(n_min, n_max, count):
    """count strictly increasing integers, geometrically spaced in [n_min, n_max].

    A point that rounding sent to or below its predecessor moves to one
    above it.  That never moves n_max: geometric points lie on or below the
    chord, so raw[j] + count - 1 - j <= n_max when n_max - n_min >= count - 1.
    """
    if any(isinstance(v, bool) or not isinstance(v, (int, np.integer))
           for v in (n_min, n_max, count)):
        raise InputError(f"n_min, n_max and count must be integers, got "
                         f"{n_min!r}, {n_max!r}, {count!r}",
                         module="emergence", operation="build_cloud")
    if count < 2:
        raise InputError(f"count must be >= 2, got {count}",
                         module="emergence", operation="build_cloud")
    if not 1 <= n_min < n_max:
        raise InputError(f"need 1 <= n_min < n_max, got ({n_min}, {n_max})",
                         module="emergence", operation="build_cloud")
    if n_max - n_min + 1 < count:
        raise InputError(f"[{n_min}, {n_max}] holds fewer than {count} integers",
                         module="emergence", operation="build_cloud")
    raw = np.rint(np.geomspace(n_min, n_max, count)).astype(np.int64)
    raw[0], raw[-1] = n_min, n_max
    # a running maximum of raw[i] - i lifts each entry above its predecessor
    step = np.arange(count)
    return tuple((np.maximum.accumulate(raw - step) + step).tolist())


def build_cloud(x, n_min, n_max, count, depth, space):
    """A trajectory cloud at `count` geometrically spaced times."""
    return cloud_at_times(x, geometric_times(n_min, n_max, count), depth, space)


def cloud_at_times(x, times, depth, space):
    """A trajectory cloud at an explicit strictly increasing time schedule."""
    times = tuple(int(t) for t in times)
    snaps = tuple(empirical_snapshots(x, times, depth, space))
    return TrajectoryCloud(times=times, snapshots=snaps, depth=depth,
                           space=space)


def pairwise_w1(snapshots, depth, space, threads=1, scales=None):
    """Symmetric matrix of W1 distances between snapshots.

    Every entry is exact unless `scales` is given: then a pair that the W1
    bounds settle at every scale (`w1_settled`) holds its upper bound, which
    lies on the same side of each scale as the exact W1, so any count that
    reads only d <= eps at those scales is unchanged.  The pairs left open
    are solved exactly, one per task of a pool of `threads` workers; the
    bounds run before the pool, so the matrix is the same at any thread
    count.
    """
    k = len(snapshots)
    rows, cols = np.triu_indices(k, 1)
    vals = np.full(rows.shape[0], np.nan)
    if scales is not None and k > 1:
        masses = np.stack([mu.truncated(depth).mass for mu in snapshots])
        vals = w1_settled(masses, scales, depth, space)
    todo = np.flatnonzero(np.isnan(vals))

    def solve(p):
        return wasserstein1(snapshots[rows[p]], snapshots[cols[p]], depth,
                            space)[0]

    with ThreadPoolExecutor(max_workers=threads) as pool:
        vals[todo] = list(pool.map(solve, todo))
    dist = np.zeros((k, k))
    dist[rows, cols] = dist[cols, rows] = vals
    return dist


def _greedy_cover(dist, eps):
    """Farthest-point insertion; returns the number of eps-balls used."""
    k = dist.shape[0]
    centers = [0]
    nearest = dist[0].copy()
    while True:
        far = int(np.argmax(nearest))
        if nearest[far] <= eps:
            return len(centers)
        centers.append(far)
        np.minimum(nearest, dist[far], out=nearest)
        if len(centers) == k:
            return k


def _greedy_packing(dist, eps):
    """Points pairwise more than 2*eps apart, scanned in index order."""
    kept = []
    for i in range(dist.shape[0]):
        if all(dist[i, j] > 2 * eps for j in kept):
            kept.append(i)
    return len(kept)


def _exact_cover(dist, eps):
    """Minimum number of eps-balls centered at data points covering all points.

    Branch and bound on bitmasks; intended for <= 24 points.
    """
    k = dist.shape[0]
    full = (1 << k) - 1
    balls = []
    for i in range(k):
        mask = 0
        for j in range(k):
            if dist[i, j] <= eps:
                mask |= 1 << j
        balls.append(mask)
    order = sorted(range(k), key=lambda i: -bin(balls[i]).count("1"))
    best = [k]

    def recurse(covered, used):
        if covered == full:
            best[0] = min(best[0], used)
            return
        if used + 1 >= best[0]:
            return
        missing = full & ~covered
        elem = (missing & -missing).bit_length() - 1
        for i in order:
            if balls[i] >> elem & 1:
                recurse(covered | balls[i], used + 1)

    recurse(0, 0)
    return best[0]


EXACT_CAP = 24   # largest cloud whose covering number is solved exactly


def covering_number_bounds(dist, eps):
    """(lower, upper) bracket of the eps-covering number of a point set with
    pairwise distance matrix dist.

    Exact set cover for small clouds (returned in both slots); otherwise a
    greedy farthest-point cover above and a greedy 2*eps packing below.
    """
    if not eps > 0:
        raise InputError(f"eps must be positive, got {eps}",
                         module="emergence", operation="covering_number_bounds")
    k = dist.shape[0]
    if k == 0:
        raise InputError("need at least one snapshot",
                         module="emergence", operation="covering_number_bounds")
    if k <= EXACT_CAP:
        exact = _exact_cover(dist, eps)
        return exact, exact
    return _greedy_packing(dist, eps), _greedy_cover(dist, eps)


@dataclass(frozen=True)
class EmergenceReport:
    epsilons: tuple
    lower: tuple
    upper: tuple
    exponent_fit: dict
    tail_fraction: float
    n_window_start: int
    n_window_end: int

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise InputError("epsilons must be strictly decreasing",
                             module="emergence", operation="EmergenceReport")
        if any(l > u for l, u in zip(self.lower, self.upper)):
            raise InputError("lower bound exceeds upper bound",
                             module="emergence", operation="EmergenceReport")
        object.__setattr__(self, "epsilons", eps)
        object.__setattr__(self, "lower", tuple(int(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(int(v) for v in self.upper))

    def to_csv(self):
        buf = io.StringIO()
        buf.write("epsilon,lower,upper,n_window_start,n_window_end\n")
        for e, lo, up in zip(self.epsilons, self.lower, self.upper):
            buf.write(f"{e:.17g},{lo},{up},{self.n_window_start},{self.n_window_end}\n")
        return buf.getvalue()

    def to_json(self):
        return json.dumps({
            "epsilons": list(self.epsilons),
            "lower": list(self.lower),
            "upper": list(self.upper),
            "tail_fraction": self.tail_fraction,
            "n_window_start": self.n_window_start,
            "n_window_end": self.n_window_end,
            "exponent_fit": self.exponent_fit,
        }, indent=2, sort_keys=True)


def emergence_exponent(epsilons, counts):
    """Least-squares slope of log(count) against -log(eps).

    Returns (slope, intercept, residual, degenerate).  All-equal counts are
    flagged degenerate with slope 0.
    """
    eps = np.asarray(epsilons, dtype=np.float64)
    cnt = np.asarray(counts, dtype=np.float64)
    if eps.shape[0] < 3:
        raise InputError(f"need >= 3 scales, got {eps.shape[0]}",
                         module="emergence", operation="emergence_exponent")
    if np.all(cnt == cnt[0]):
        return 0.0, float(np.log(cnt[0])), 0.0, True
    x = -np.log(eps)
    y = np.log(cnt)
    (slope, intercept), res, *_ = np.polyfit(x, y, 1, full=True)
    residual = float(res[0]) if res.size else 0.0
    return float(slope), float(intercept), residual, False


def _check_scales(epsilons):
    """The checks that the covering counts, the fits and the report make on
    the scales after the W1 work, made before it, and finiteness on top:
    each scale finite and > 0, at least three, strictly decreasing."""
    for eps in epsilons:
        if not 0 < eps < math.inf:
            raise InputError(f"eps must be positive and finite, got {eps}",
                             module="emergence", operation="emergence_report")
    if len(epsilons) < 3:
        raise InputError(f"need >= 3 scales, got {len(epsilons)}",
                         module="emergence", operation="emergence_report")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise InputError("epsilons must be strictly decreasing",
                         module="emergence", operation="emergence_report")


def emergence_report(cloud, epsilons, tail_fraction, threads=1):
    """Per-scale covering brackets plus two-sided exponent fits for one orbit.

    The tail fraction and the scales are checked before any W1 work.  A
    tail of at most `EXACT_CAP` snapshots is counted exactly, which reads
    only d <= eps at the scales, so its pairs get W1 decisions: a pair the
    bounds settle at every scale skips the exact solve (`pairwise_w1` with
    `scales`).  The greedy cover of a larger tail compares distances with
    one another, so every pair of it is solved exactly; that branch goes
    when an exact covering solve replaces the greedy cover.
    """
    times, snaps = cloud.tail(tail_fraction)
    _check_scales(epsilons)
    scales = epsilons if len(snaps) <= EXACT_CAP else None
    dist = pairwise_w1(snaps, cloud.depth, cloud.space, threads=threads,
                       scales=scales)
    lowers, uppers = [], []
    for eps in epsilons:
        lo, up = covering_number_bounds(dist, eps)
        lowers.append(lo)
        uppers.append(up)
    u_slope, u_int, u_res, u_deg = emergence_exponent(epsilons, uppers)
    l_slope, l_int, l_res, l_deg = emergence_exponent(epsilons, lowers)
    fit = {"slope": u_slope, "intercept": u_int, "residual": u_res,
           "degenerate": u_deg,
           "lower_slope": l_slope, "lower_intercept": l_int,
           "lower_residual": l_res, "lower_degenerate": l_deg}
    return EmergenceReport(epsilons=tuple(epsilons), lower=tuple(lowers),
                           upper=tuple(uppers), exponent_fit=fit,
                           tail_fraction=tail_fraction,
                           n_window_start=times[0], n_window_end=times[-1])
