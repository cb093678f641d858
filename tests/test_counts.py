"""One rule for every integer count the lab takes (`sofic.integer_count`):
an integer of any integer type at or above the parameter's floor is read as
an int; a bool, a float (3.0 too), a string or a smaller value raises
InputError tagged with the entry's module and operation."""

import numpy as np
import pytest

from emergence_lab.carath import (CStructure, check_conditions,
                                  outer_measures, pressure_partition,
                                  restricted_outer_measure)
from emergence_lab.cli import _resolve_threads
from emergence_lab.constructor import simplex_net, typical_word
from emergence_lab.emergence import (cloud_at_times, emergence_report,
                                     geometric_times, pairwise_w1)
from emergence_lab.errors import InputError
from emergence_lab.measures import (FinSuppMeasure, MarkovMeasure,
                                    empirical_snapshots, make_rng,
                                    snapshot_masses)
from emergence_lab.sofic import (PointPrefix, ShiftSpace, admissible_words,
                                 count_admissible, integer_count)

FULL2 = ShiftSpace.full_shift(2)
MU = MarkovMeasure.bernoulli([0.5, 0.5], FULL2)
ENTROPY = CStructure(kind="entropy", space=FULL2)
PRESSURE = CStructure(kind="pressure", space=FULL2,
                      table={(1,): 0.2, (2,): -0.3})
X = PointPrefix(MU.sample(400, make_rng(3)))
CLOUD = cloud_at_times(X, [100, 200, 300], 2, FULL2)
PROBE = dict(eps=0.15, t=0.8, depth_cap=6, metric_depth=3)

# entry -> (module, operation, floor, a valid value, call of one value)
ENTRIES = {
    "count_admissible.n": ("sofic", "count_admissible", 1, 5,
                           lambda v: count_admissible(FULL2, v)),
    "admissible_words.n": ("sofic", "admissible_words", 1, 3,
                           lambda v: admissible_words(FULL2, v)),
    "prefix_law.depth": ("measures", "prefix_law", 1, 3, MU.prefix_law),
    "sample.n": ("measures", "sample", 1, 7,
                 lambda v: MU.sample(v, make_rng(0))),
    "sample_words.length": ("measures", "sample", 1, 7,
                            lambda v: MU.sample_words([4, v],
                                                      [make_rng(0),
                                                       make_rng(1)])),
    "snapshot_masses.time": ("measures", "empirical_snapshots", 1, 50,
                             lambda v: snapshot_masses(X, [10, v], 2, FULL2)),
    "empirical_snapshots.time": ("measures", "empirical_snapshots", 1, 50,
                                 lambda v: empirical_snapshots(X, [v], 2,
                                                               FULL2)),
    "outer_measures.m_blk": ("carath", "outer_measures", 1, 3,
                             lambda v: outer_measures(ENTROPY, "X",
                                                      [(0.5, v, 3)])),
    "pressure_partition.n": ("carath", "pressure_partition", 1, 6,
                             lambda v: pressure_partition(PRESSURE, v)),
    "check_conditions.depth": ("carath", "check_conditions", 2, 3,
                               lambda v: check_conditions(ENTROPY, v,
                                                          (0.5,))),
    "restricted_outer_measure.n": (
        "carath", "restricted_outer_measure", 1, 64,
        lambda v: restricted_outer_measure(ENTROPY, (1,), MU, n=v, m_blk=2,
                                           **PROBE)),
    "restricted_outer_measure.m_blk": (
        "carath", "restricted_outer_measure", 1, 2,
        lambda v: restricted_outer_measure(ENTROPY, (1,), MU, n=64, m_blk=v,
                                           **PROBE)),
    "simplex_net.level": ("constructor", "simplex_net", 0, 2,
                          lambda v: simplex_net(v, 0.5)),
    "typical_word.n": ("constructor", "typical_word", 1, 64,
                       lambda v: typical_word(MU, v, 0.3, seed=0,
                                              metric_depth=3)),
    "geometric_times.n_min": ("emergence", "build_cloud", 1, 2,
                              lambda v: geometric_times(v, 100, 5)),
    "geometric_times.n_max": ("emergence", "build_cloud", 1, 100,
                              lambda v: geometric_times(2, v, 5)),
    "geometric_times.count": ("emergence", "build_cloud", 2, 5,
                              lambda v: geometric_times(2, 100, v)),
    "pairwise_w1.threads": ("emergence", "pairwise_w1", 1, 2,
                            lambda v: pairwise_w1(CLOUD.snapshots, 2, FULL2,
                                                  threads=v)),
    "emergence_report.threads": ("emergence", "emergence_report", 1, 2,
                                 lambda v: emergence_report(
                                     CLOUD, [0.3, 0.2, 0.1], 1.0,
                                     threads=v)),
    "cli.threads": ("cli", "threads", 1, 3, _resolve_threads),
}


def same(a, b):
    """Equal values of equal types, arrays with equal dtypes, recursively."""
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(same, a, b)))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, FinSuppMeasure):
        return same(a.mass, b.mass) and (a.depth, a.m) == (b.depth, b.m)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("entry", ENTRIES)
def test_every_count_follows_one_rule(entry):
    module, operation, floor, good, call = ENTRIES[entry]
    for bad in (2.5, 3.0, True, np.True_, "3", floor - 1):
        with pytest.raises(InputError) as ei:
            call(bad)
        assert (ei.value.module, ei.value.operation) == (module, operation)
    want = call(good)
    for kind in (np.int32, np.int64, np.uint16):
        assert same(call(kind(good)), want), kind


@pytest.mark.parametrize("call", [
    lambda: outer_measures(ENTROPY, "X", [(0.5, 1.5, 3)]),
    lambda: restricted_outer_measure(ENTROPY, (1,), MU, n=64, m_blk=1.5,
                                     **PROBE),
    lambda: restricted_outer_measure(ENTROPY, (1,), MU, n=True, m_blk=1.5,
                                     **PROBE),
    lambda: simplex_net(True, 0.5),
    lambda: empirical_snapshots(X, [2.5], 2, FULL2),
    lambda: MU.sample_words([2.5], [make_rng(0)]),
], ids=["outer_measures", "restricted-m_blk", "restricted-n-true",
        "simplex_net", "empirical_snapshots", "sample_words"])
def test_fractional_and_bool_counts_no_longer_return_numbers(call):
    # each returned a number before the rule: 1.785 for the outer measure,
    # 0.1399 and 0.0 for the restricted one, a 5-node net, and masses or
    # a word at a count cut from 2.5 to 2
    with pytest.raises(InputError):
        call()


def test_integer_count_message_names_the_parameter():
    with pytest.raises(InputError, match=r"depth must be an integer, got 2\.5"):
        integer_count(2.5, "depth", "m", "op")
    with pytest.raises(InputError, match="level must be >= 0, got -1"):
        integer_count(np.int8(-1), "level", "m", "op", 0)
    assert type(integer_count(np.uint64(7), "n", "m", "op")) is int
