import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from emergence_lab import measures
from emergence_lab.constructor import (MeasureFamily, SimplexNet,
                                       block_schedule, build_orbit,
                                       verify_saturation)
from emergence_lab.errors import (DepthError, InputError, InvariantError,
                                  SizeError)
from emergence_lab.measures import (GRID_CAP, MARGIN, MEASURE_CAP,
                                    FinSuppMeasure, MarkovMeasure,
                                    count_masses, empirical_snapshots,
                                    make_rng,
                                    periodic_counts, snapshot_masses,
                                    truncation_proxy, w1_below, w1_bounds,
                                    w1_min, wasserstein1)
from emergence_lab.sofic import (PointPrefix, ShiftSpace, admissible_words,
                                 is_admissible)
from oracles import (_pack_prefixes, _unpack_keys, csc, cylinder_probability,
                     dense_transport, from_atoms, grid_incidence, grid_w1,
                     indexed_periodic_counts, loop_chain_walk,
                     per_time_snapshot_masses, plan_bound, scipy_flow,
                     searchsorted_sample, sparse_proxy, sparse_snapshots,
                     tree_bounds)

FULL2 = ShiftSpace.full_shift(2)
FULL3 = ShiftSpace.full_shift(3)
GM = ShiftSpace.golden_mean()
# a 3-symbol SFT that is not full: 1 -> 3 and 2 -> 1 are forbidden
SFT3 = ShiftSpace(3, np.array([[1, 1, 0], [0, 1, 1], [1, 1, 1]]), 2.0)


def bern(p, space=FULL2):
    return MarkovMeasure.bernoulli(p, space)


def law_at(mu, word):
    """The mass of one word's prefix in mu's grid law."""
    m = mu.space.m
    return mu.prefix_law(len(word))[sum((x - 1) * m ** d
                                        for d, x in enumerate(word))]


# ------------------------------------------------------------- MarkovMeasure

def test_bernoulli_stationary_is_row():
    mu = bern([0.3, 0.7])
    assert np.allclose(mu.stationary, [0.3, 0.7])
    assert mu.is_bernoulli


def test_row_sum_validation():
    with pytest.raises(InvariantError):
        MarkovMeasure(np.array([[0.5, 0.4], [0.5, 0.5]]), FULL2)
    with pytest.raises(InvariantError, match="must be 2x2"):
        MarkovMeasure(np.full((3, 3), 1 / 3), FULL2)


def test_support_must_respect_transitions():
    with pytest.raises(InvariantError):
        MarkovMeasure(np.array([[0.5, 0.5], [0.5, 0.5]]), GM)


def test_parry_measure_golden_mean():
    mu = MarkovMeasure.parry(GM)
    phi = (1 + math.sqrt(5)) / 2
    # the Parry measure attains the topological entropy
    assert mu.entropy() == pytest.approx(math.log(phi), abs=1e-9)
    assert law_at(mu, (2, 2)) == 0.0


def test_cylinder_probability_markov():
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    mu = MarkovMeasure(p, FULL2)
    pi = mu.stationary
    assert law_at(mu, (1, 2, 2)) == pytest.approx(pi[0] * 0.1 * 0.8, rel=1e-12)
    assert cylinder_probability((mu,), (1.0,), ()) == 1.0
    assert mu.prefix_law(1).tolist() == pi.tolist()
    with pytest.raises(InputError):
        mu.prefix_law(0)


def test_cylinder_probability_word_array_matches_per_word():
    # the grid law holds each admissible word's per-word product, bit for
    # bit, at the word's node, and 0 at every other node
    p = np.array([[0.9, 0.1], [0.2, 0.8]])
    for mu in (MarkovMeasure(p, FULL2), bern([0.3, 0.7]),
               MarkovMeasure.parry(GM), MarkovMeasure.parry(FULL3)):
        space = mu.space
        for d in (1, 2, 5):
            words = np.asarray(admissible_words(space, d), dtype=np.int16)
            codes = _pack_prefixes(words, space.m)
            law = mu.prefix_law(d)
            assert law.shape == (space.m ** d,)
            assert law[codes].tolist() == [
                cylinder_probability((mu,), (1.0,), w) for w in words.tolist()]
            assert not np.delete(law, codes).any()


def test_entropy_bernoulli_half():
    assert bern([0.5, 0.5]).entropy() == pytest.approx(math.log(2))
    assert bern([1.0, 0.0]).entropy() == pytest.approx(0.0, abs=1e-12)


def test_sampling_deterministic_and_admissible():
    mu = MarkovMeasure.parry(GM)
    w1 = mu.sample(500, make_rng(99))
    w2 = mu.sample(500, make_rng(99))
    assert np.array_equal(w1, w2)
    assert all(not (a == 2 and b == 2) for a, b in zip(w1, w1[1:]))


def test_sampling_frequencies_track_stationary():
    p = np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.3, 0.3, 0.4]])
    mu = MarkovMeasure(p, FULL3)
    w = mu.sample(200000, make_rng(5))
    freq = np.bincount(w, minlength=4)[1:] / len(w)
    assert np.abs(freq - mu.stationary).max() < 0.01


def test_chain_walk_jit_matches_python_semantics():
    p = np.array([[0.2, 0.3, 0.5], [0.5, 0.2, 0.3], [0.3, 0.5, 0.2]])
    mu = MarkovMeasure(p, FULL3)
    short = mu.sample(4096, make_rng(3))
    long = mu.sample(8192, make_rng(3))
    assert np.array_equal(short, long[:4096])


class _FixedUniform:
    """A stand-in rng whose `random` returns the given values in turn,
    repeating them as often as needed."""

    def __init__(self, *u):
        self.u = np.array(u)

    def random(self, n):
        return np.resize(self.u, n)


def test_bernoulli_sample_stays_in_alphabet():
    # ten 0.1s sum to 0.9999999999999999, so the largest uniform rng.random
    # can return lies past the last cumulative weight
    space = ShiftSpace.full_shift(10)
    mu = MarkovMeasure.bernoulli([0.1] * 10, space)
    assert np.cumsum(mu.stochastic[0])[-1] < 1.0
    w = mu.sample(3, _FixedUniform(1.0 - 2.0 ** -53))
    assert w.tolist() == [10, 10, 10]


# 0.7 + 0.2 + 0.1 sums to 0.9999999999999999, the largest uniform rng.random
# can return; symbol 4 has probability 0 after these weights
ROW = [0.7, 0.2, 0.1, 0.0]


def test_bernoulli_sample_skips_zero_probability_symbol():
    mu = MarkovMeasure.bernoulli(ROW, ShiftSpace.full_shift(4))
    w = mu.sample(3, _FixedUniform(1.0 - 2.0 ** -53))
    assert w.tolist() == [3, 3, 3]


def test_markov_sample_skips_forbidden_symbol():
    t = np.ones((4, 4), dtype=np.int8)
    t[0, 3] = 0
    space = ShiftSpace(alphabet_size=4, transition=t, beta=2.0)
    p = np.full((4, 4), 0.25)
    p[0] = ROW
    mu = MarkovMeasure(p, space)
    w = mu.sample(2, _FixedUniform(0.0, 1.0 - 2.0 ** -53))
    assert w.tolist() == [1, 3]
    assert is_admissible(w, space)


E = 0.005
# an iid chain given as a matrix (its stationary law comes from `perron`),
# an iid chain whose stationary law differs from its row in the last bits
# (a first uniform of 0.5 draws symbol 1 from it, 2 from the row), the
# level-3 alt13 chain, a chain with a forbidden transition, and a period-2
# chain whose step tables never coalesce, so every scan round runs
WALK_CHAINS = {
    "tiled-bernoulli": MarkovMeasure(np.array([[0.2, 0.8], [0.2, 0.8]]),
                                     FULL2),
    "nudged-bernoulli": MarkovMeasure(
        np.full((2, 2), 0.5), FULL2,
        stationary=np.array([0.5 + 2.0 ** -40, 0.5 - 2.0 ** -40])),
    "alt13": MarkovMeasure(np.array([[E, E, 1 - 2 * E], [0.4, 0.2, 0.4],
                                     [1 - 2 * E, E, E]]), FULL3),
    "parry-gm": MarkovMeasure.parry(GM),
    "period-2": MarkovMeasure(np.array([[0.0, 1.0], [1.0, 0.0]]), FULL2),
}


@pytest.mark.parametrize("name", WALK_CHAINS)
def test_sample_matches_loop_walk(name):
    mu = WALK_CHAINS[name]
    lengths = [1, 2, 3] + [2 ** k + d for k in (2, 5, 12) for d in (-1, 0, 1)]
    for n in lengths:
        for seed in (0, 1):
            w = mu.sample(n, make_rng(seed))
            assert w.dtype == np.int16
            want = loop_chain_walk(mu, make_rng(seed).random(n))
            assert np.array_equal(w, want), (n, seed)


@pytest.mark.parametrize("name", WALK_CHAINS)
def test_sample_matches_loop_walk_at_edge_uniforms(name):
    mu = WALK_CHAINS[name]
    top = 1.0 - 2.0 ** -53
    for u in ((0.0,), (top,), (0.0, top), (top, 0.0, 0.5), (0.5, top)):
        for n in (1, 2, 5):
            want = loop_chain_walk(mu, _FixedUniform(*u).random(n))
            assert np.array_equal(mu.sample(n, _FixedUniform(*u)), want)


@pytest.mark.parametrize("name", WALK_CHAINS)
def test_sample_words_equal_loop_walks(name):
    # one walk over words of 1, 2 and several thousand symbols, each on its
    # own rng: no word reads another's uniforms
    mu = WALK_CHAINS[name]
    lengths = [1, 2, 4097, 1, 3000, 2, 2, 1]
    words = mu.sample_words(lengths, [make_rng(s) for s in range(8)])
    assert [w.shape[0] for w in words] == lengths
    for seed, (n, w) in enumerate(zip(lengths, words)):
        assert w.dtype == np.int16
        want = loop_chain_walk(mu, make_rng(seed).random(n))
        assert np.array_equal(w, want), (n, seed)
        assert np.array_equal(w, mu.sample(n, make_rng(seed)))
    for n in (1, 2, 5000):
        [w] = mu.sample_words([n], [make_rng(9)])
        assert np.array_equal(w, loop_chain_walk(mu, make_rng(9).random(n)))
    with pytest.raises(InputError):
        mu.sample_words([3, 0], [make_rng(0), make_rng(1)])
    with pytest.raises(InputError, match="nonempty"):
        mu.sample_words([], [])
    # one generator per length, no fewer and no more
    for lengths, rngs in (([3], []), ([3, 2], [make_rng(0)]),
                          ([3], [make_rng(0), make_rng(1)])):
        with pytest.raises(InputError, match="one rng each"):
            mu.sample_words(lengths, rngs)
    with pytest.raises(InputError, match="n must be >= 1"):
        mu.sample(0, make_rng(0))


# sha256 of the int16 bytes of mu.sample(n, make_rng(seed)), as the
# per-symbol walk wrote them; a sampling change that moves a symbol shows here
SAMPLE_SHA256 = {
    ("tiled-bernoulli", 0, 4097):
        "92c1b5d4894000d0aaa3855a5813be36e24ed5c119f9758eaad47094ef3cab75",
    ("tiled-bernoulli", 7, 100000):
        "d494c2ee8100e31ddb1b222b82ca8fb4799b474956f1e82b821ccacd6f81742b",
    ("alt13", 0, 4097):
        "a83749e55fdf14c5e54bc569829e81a8c2a59d9136270265211802c425e52222",
    ("alt13", 7, 100000):
        "3f6bd63a58e55067531746f28a70298b1344fc4b79710badae696b8d8dc18c33",
    ("parry-gm", 0, 4097):
        "5b8d07469e62d959f7f8213ca56359ae84e4d02712259c56085a9445011dc6b9",
    ("parry-gm", 7, 100000):
        "3d1f92e3fe302a33b5e9c56e5522f19c68ebb467f4118333abd1255da2a2b763",
    ("period-2", 0, 4097):
        "a7b2a25884aa06b0e5e5b6d05f26ac4dcd74f9885f45a178f6281919a23f0bd1",
    ("period-2", 7, 100000):
        "6e682dbf6b15fdc69d9e4b57df6aa555a70943b45b9075ac15aed2a49b8e89e4",
}


def test_sample_bytes_are_pinned():
    for (name, seed, n), digest in SAMPLE_SHA256.items():
        w = WALK_CHAINS[name].sample(n, make_rng(seed))
        assert hashlib.sha256(w.tobytes()).hexdigest() == digest, (name, n)


@pytest.mark.parametrize("name", [*WALK_CHAINS, "tenths", "zero-tail"])
def test_sample_equals_searchsorted_oracle_at_cdf_entries(name):
    # every finite inverse-CDF entry below 1, of the step rows and of the
    # stationary law, as a uniform (a right-sided search passes an equal
    # entry), 0, and the largest uniform, which lands in a +inf tail:
    # past ten 0.1s summing to 0.9999999999999999, and past a zero last
    # probability; each of them also as the first uniform
    mu = {**WALK_CHAINS,
          "tenths": bern(np.full(10, 0.1), ShiftSpace.full_shift(10)),
          "zero-tail": bern([0.25, 0.75, 0.0], FULL3)}[name]
    cdf = np.concatenate([measures._inverse_cdf(mu.stochastic).ravel(),
                          measures._inverse_cdf(mu.stationary)])
    special = [*cdf[cdf < 1].tolist(), 0.0, 1.0 - 2.0 ** -53]
    rest = make_rng(3).random(40).tolist()
    n = len(special) + len(rest) + 1
    for first in special:
        rng = _FixedUniform(first, *special, *rest)
        assert np.array_equal(mu.sample(n, rng),
                              searchsorted_sample(mu, n, rng)), first


def test_stationary_of_period_two_chain():
    # irreducible but not aperiodic: eigenvalues 1, -1 and 0
    p = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    mu = MarkovMeasure(p, FULL3)
    assert np.abs(mu.stationary - [0.5, 0.25, 0.25]).max() <= 1e-15


def test_stationary_of_slow_mixing_chain():
    # dyadic entries: the rows sum to exactly 1, so pi is exactly (2/3, 1/3)
    a, b = 2.0 ** -13, 2.0 ** -12
    mu = MarkovMeasure(np.array([[1 - a, a], [b, 1 - b]]), FULL2)
    assert np.abs(mu.stationary - [2 / 3, 1 / 3]).max() <= 1e-15
    # decimal entries: 1 - 1e-4 rounds, so the stored rows miss 1 by about
    # 1e-17 and the stored matrix's own Perron vector lies 8.2e-15 from
    # (2/3, 1/3); an eigen-solve is good to about 2.2e-16 / gap, gap = 3e-4
    p = np.array([[1 - 1e-4, 1e-4], [2e-4, 1 - 2e-4]])
    mu = MarkovMeasure(p, FULL2)
    assert np.abs(mu.stationary - [2 / 3, 1 / 3]).max() <= 1e-12


def test_stationary_of_reducible_chain_is_a_probability_vector():
    # P = I is reducible and every probability vector is stationary for it
    mu = MarkovMeasure(np.eye(3), FULL3)
    assert (mu.stationary >= 0).all()
    assert abs(mu.stationary.sum() - 1.0) <= 1e-15


def test_stationary_must_have_length_m():
    # on FULL2 a (1, 2) vector was stored 2-D, and (1,) and (3,) escaped as
    # a ValueError from the invariance product
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    for pi in ([[0.5, 0.5]], [1.0], [0.5, 0.25, 0.25]):
        with pytest.raises(InvariantError, match="length 2"):
            MarkovMeasure(p, FULL2, stationary=np.array(pi))


def test_stationary_must_be_invariant():
    p = np.array([[0.9, 0.1], [0.5, 0.5]])
    with pytest.raises(InvariantError, match="not invariant"):
        MarkovMeasure(p, FULL2, stationary=np.array([0.5, 0.5]))


def test_stationary_must_be_finite():
    p = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(InvariantError):
        MarkovMeasure(p, FULL2, stationary=np.array([np.nan, 1.0]))
    with pytest.raises(InvariantError):
        MarkovMeasure(np.array([[np.nan, 0.5], [0.5, 0.5]]), FULL2)


# ----------------------------------------------------------- FinSuppMeasure

def atom_masses(measure):
    """{prefix: mass} over the nonzero nodes of a measure."""
    codes = np.flatnonzero(measure.mass)
    rows = _unpack_keys(codes, measure.depth, measure.m)
    return {tuple(a): w for a, w in zip(rows.tolist(), measure.mass[codes])}


def test_finsupp_weight_validation():
    with pytest.raises(InvariantError):
        from_atoms(np.array([[1, 1]], dtype=np.int16),
                   np.array([0.9]), FULL2)
    with pytest.raises(InvariantError):
        from_atoms(np.array([[1], [1]], dtype=np.int16),
                   np.array([1.5, -0.5]), FULL2)
    with pytest.raises(InvariantError):
        FinSuppMeasure(np.array([0.5, 0.5, 0.0]), 1, 2)


def test_from_atoms_sums_duplicate_prefixes_and_truncates():
    atoms = np.array([[1, 1, 1], [1, 1, 2], [2, 1, 1], [1, 1, 2]],
                     dtype=np.int16)
    mu = from_atoms(atoms, np.array([0.25, 0.125, 0.5, 0.125]), FULL2)
    # prefix (x_0, x_1, x_2) is the grid node (x_0 - 1) + 2 (x_1 - 1) + 4 (x_2 - 1)
    assert mu.mass.tolist() == [0.25, 0.5, 0, 0, 0.25, 0, 0, 0]
    assert mu.truncated(2).mass.tolist() == [0.5, 0.5, 0, 0]
    assert mu.truncated(3) is mu
    with pytest.raises(DepthError):
        mu.truncated(4)


@pytest.mark.parametrize("space", [FULL2, GM, FULL3])
def test_prefix_codes_are_grid_nodes_and_round_trip(space):
    for width in range(1, 7):
        words = np.asarray(admissible_words(space, width), dtype=np.int16)
        codes = _pack_prefixes(words, space.m)
        nodes = [sum((x - 1) * space.m ** d for d, x in enumerate(w))
                 for w in words.tolist()]
        assert codes.tolist() == nodes
        assert np.array_equal(_unpack_keys(codes, width, space.m), words)


def test_empirical_measure_counts_windows():
    x = PointPrefix((1, 1, 2, 1, 1))
    mu = empirical_snapshots(x, [4], 2, FULL2)[0]
    got = atom_masses(mu)
    assert got[(1, 1)] == pytest.approx(0.5)
    assert got[(1, 2)] == pytest.approx(0.25)
    assert got[(2, 1)] == pytest.approx(0.25)


def test_empirical_measure_rejects_symbols_outside_alphabet():
    # symbol 3 used to be packed as a second atom (1,) on the full 2-shift
    x = PointPrefix((1, 3, 1, 2, 1))
    with pytest.raises(InputError, match="symbol 3 outside") as exc:
        empirical_snapshots(x, [4], 1, FULL2)
    assert exc.value.operation == "empirical_snapshots"
    with pytest.raises(DepthError) as exc:
        empirical_snapshots(x, [5], 2, FULL2)
    assert exc.value.operation == "empirical_snapshots"
    # only the symbols the windows read are checked
    y = PointPrefix((1, 2, 1, 2, 0))
    assert np.count_nonzero(empirical_snapshots(y, [4], 1, FULL2)[0].mass) == 2


def test_periodic_counts_rejects_symbols_outside_alphabet():
    # [[1, 3], [1, 1]] used to count row 0's window (3, 1) as node 4, row 1's
    # first node, and return [[0, 0, 2, 0], [6, 0, 0, 0]]; the other two
    # raised bare numpy ValueErrors
    for periods, bad in (([[1, 3], [1, 1]], 3), ([[1, 3]], 3), ([[0, 1]], 0)):
        with pytest.raises(InputError,
                           match=f"symbol {bad} outside alphabet 1..2") as exc:
            periodic_counts(np.array(periods, dtype=np.int16), 4, 2, 2)
        assert exc.value.operation == "periodic_counts"
    assert periodic_counts(np.array([[1, 2], [1, 1]], dtype=np.int16),
                           4, 2, 2).tolist() == [[0, 2, 2, 0], [4, 0, 0, 0]]


@pytest.mark.parametrize("space,depth", [(FULL2, 4), (FULL3, 3), (GM, 6)])
def test_periodic_counts_equal_indexed_oracle(space, depth):
    # periods shorter than, as long as and longer than the depth - 1
    # symbols a window reads past them, at window counts below, at and
    # past one period
    rng = make_rng(71 + depth)
    for p in sorted({1, 2, depth - 2, depth - 1, depth, 10 ** 4} - {0}):
        periods = rng.integers(1, space.m + 1, size=(3, p)).astype(np.int16)
        for n in (1, p, 3 * p + 1, 5 * p + depth):
            assert np.array_equal(
                periodic_counts(periods, n, depth, space.m),
                indexed_periodic_counts(periods, n, depth, space.m)), (p, n)


@pytest.mark.parametrize("space", [FULL2, GM, FULL3])
def test_snapshot_masses_equal_per_time_oracle(space):
    # bit for bit, at unsorted and repeated times
    x = PointPrefix(MarkovMeasure.parry(space).sample(5000, make_rng(17)))
    for times in ([4990, 1, 300, 300, 17], [5, 5, 5], [1], [2, 4990, 2, 999]):
        for depth in (1, 3, 6):
            assert np.array_equal(
                snapshot_masses(x, times, depth, space),
                per_time_snapshot_masses(x, times, depth, space)), times


def test_empirical_snapshots_match_single_calls():
    mu = bern([0.4, 0.6])
    x = PointPrefix(mu.sample(3000, make_rng(11)))
    times = [100, 700, 2995]
    snaps = empirical_snapshots(x, times, 6, FULL2)
    for t, snap in zip(times, snaps):
        single = empirical_snapshots(x, [t], 6, FULL2)[0]
        d, _ = wasserstein1(snap, single, 6, FULL2)
        assert d == pytest.approx(0.0, abs=1e-12)
    for bad, match in (([], "times must be nonempty"),
                       ([0, 5], "each time must be >= 1, got 0")):
        with pytest.raises(InputError, match=match):
            empirical_snapshots(x, bad, 6, FULL2)


def test_count_masses_are_exact_rationals_rounded_once():
    # every mass, bit for bit, is the correctly rounded c / n: random
    # compositions of n up to 2^40 into up to 64 counts, and the edges
    # n = 1, a count of 0 and a count of n
    rng = make_rng(23)
    rows = [(np.array([[1, 0]]), 1), (np.array([[0, 2 ** 40]]), 2 ** 40)]
    for _ in range(300):
        n = int(rng.integers(1, 2 ** int(rng.integers(1, 41)), endpoint=True))
        cuts = np.sort(rng.integers(0, n, size=int(rng.integers(0, 64)),
                                    endpoint=True))
        rows.append((np.diff(cuts, prepend=0, append=n)[None], n))
    for counts, n in rows:
        mass = count_masses(counts, n)
        assert mass.shape == counts.shape
        for c, got in zip(counts[0].tolist(), mass[0].tolist()):
            assert got == float(Fraction(c, n)), (c, n)


def test_count_masses_rows_pass_the_sum_check_on_the_largest_grid():
    # rows of MEASURE_CAP nodes counted up to about 2^20 times each sum to
    # 1 within the 1e-12 of FinSuppMeasure with no second division: uniform
    # counts, counts of a few sizes, and one dominant node among ones
    rng = make_rng(29)
    uniform = rng.integers(0, 2 ** 20, size=MEASURE_CAP, endpoint=True)
    sizes = rng.choice(np.array([1, 3, 2 ** 20 - 1]), size=MEASURE_CAP)
    dominant = np.ones(MEASURE_CAP, dtype=np.int64)
    dominant[7] = 2 ** 20
    for counts in (uniform, sizes, dominant):
        mass = count_masses(counts[None], int(counts.sum()))[0]
        FinSuppMeasure(mass, 22, 2)     # InvariantError if the sum is off


def test_truncation_proxy_masses_are_cylinder_probabilities():
    mu = bern([0.3, 0.7])
    proxy = truncation_proxy((mu,), (1.0,), 3)
    got = atom_masses(proxy)
    assert got[(1, 1, 1)] == pytest.approx(0.3 ** 3, rel=1e-12)
    assert got[(2, 1, 2)] == pytest.approx(0.7 * 0.3 * 0.7, rel=1e-12)
    assert sum(got.values()) == pytest.approx(1.0)


def test_truncation_proxy_respects_support():
    mu = MarkovMeasure.parry(GM)
    proxy = truncation_proxy((mu,), (1.0,), 4)
    for a in atom_masses(proxy):
        assert not any(x == 2 and y == 2 for x, y in zip(a, a[1:]))


def scatter(codes, weights, size):
    out = np.zeros(size)
    out[codes] = weights
    return out


def random_chain(rng, space):
    """A Markov measure with random positive rows on the allowed transitions."""
    p = space.transition * (rng.random((space.m, space.m)) + 0.05)
    return MarkovMeasure(p / p.sum(axis=1, keepdims=True), space)


def zero_bernoulli(space):
    """A Bernoulli measure, uniform on the symbols that may follow every
    symbol but one of them at least, so some symbol has probability 0."""
    probs = space.transition.all(axis=0).astype(np.float64)
    if probs.all():
        probs[0] = 0.0
    return bern(probs / probs.sum(), space)


@pytest.mark.parametrize("space", [FULL2, GM, FULL3, SFT3])
def test_grid_measures_equal_sparse_oracle(space):
    # each snapshot and proxy, bit for bit, against the sorted-unique-code
    # path: the oracle's weights scattered onto their codes.  The proxies
    # are those of 5 measures and 6 mixtures (zero weights included) at each
    # depth, against the oracle's per-word products
    rng = make_rng(5)
    x = PointPrefix(MarkovMeasure.parry(space).sample(3000, make_rng(3)))
    for depth in range(1, 7):
        size = space.m ** depth
        for _ in range(3):
            times = rng.integers(1, 2995, size=int(rng.integers(1, 9))).tolist()
            snaps = empirical_snapshots(x, times, depth, space)
            for snap, (codes, w) in zip(snaps, sparse_snapshots(x, times, depth,
                                                                space)):
                assert np.array_equal(snap.mass, scatter(codes, w, size))
        singles = (MarkovMeasure.parry(space), random_chain(rng, space),
                   random_chain(rng, space), random_chain(rng, space),
                   zero_bernoulli(space))
        parry, c1, c2, c3, zb = singles
        cases = [((mu,), (1.0,)) for mu in singles] + [
            ((parry, c1), (0.3, 0.7)), ((c1, c2, c3), (0.0, 0.5, 0.5)),
            ((parry, zb), (0.25, 0.75)), ((c2, zb, c3), (0.6, 0.4, 0.0)),
            ((zb, c1), (1.0, 0.0)), (singles, (0.1, 0.2, 0.0, 0.3, 0.4))]
        for ms, weights in cases:
            proxy = truncation_proxy(ms, weights, depth)
            assert np.array_equal(
                proxy.mass, scatter(*sparse_proxy(ms, weights, depth), size))


def test_measure_grid_cap():
    # FULL2 at depth 40 has 2^40 prefixes: a typed error, not a MemoryError
    assert MEASURE_CAP == 2 ** 22
    x = PointPrefix(np.ones(100, dtype=np.int16))
    with pytest.raises(SizeError, match="measure grid"):
        empirical_snapshots(x, [10], 40, FULL2)
    with pytest.raises(SizeError, match="measure grid"):
        from_atoms(np.ones((1, 40), np.int16), [1.0], FULL2)
    with pytest.raises(SizeError, match="measure grid"):
        truncation_proxy((bern([0.5, 0.5]),), (1.0,), 40)
    # metric depth 6 fits up to m = 12 and raises from m = 13 on
    assert from_atoms(np.ones((1, 6), np.int16), [1.0],
                      ShiftSpace.full_shift(12)).mass[0] == 1.0
    with pytest.raises(SizeError, match="measure grid"):
        from_atoms(np.ones((1, 6), np.int16), [1.0],
                   ShiftSpace.full_shift(13))


# ------------------------------------------------------------- Wasserstein-1

def point(word, width):
    return from_atoms(
        np.asarray(word, dtype=np.int16)[None, :width], np.array([1.0]), FULL2)


def bounds(mu, nu, depth, space):
    """`w1_bounds` on the one row mu, as two floats."""
    lb, ub = w1_bounds(mu.truncated(depth).mass[None], nu, depth, space)
    return float(lb[0]), float(ub[0])


def below(mu, nu, eps, depth, space):
    """`w1_below` on the one row mu."""
    return bool(w1_below(mu.truncated(depth).mass[None], nu, eps, depth,
                         space)[0])


def test_w1_point_masses_equals_truncated_metric():
    a = point((1,) * 6, 6)
    b = point((2,) * 6, 6)
    val, err = wasserstein1(a, b, 6, FULL2)
    assert val == pytest.approx(1.0 - 2.0 ** -6, abs=1e-14)
    assert err == pytest.approx(2.0 ** -6)


def test_w1_half_mass_move():
    # move half the mass from 111 to 211: cost 0.5 * beta^-1
    a = from_atoms(np.array([[1, 1, 1]], dtype=np.int16),
                   np.array([1.0]), FULL2)
    b = from_atoms(
        np.array([[1, 1, 1], [2, 1, 1]], dtype=np.int16),
        np.array([0.5, 0.5]), FULL2)
    val, _ = wasserstein1(a, b, 3, FULL2)
    assert val == pytest.approx(0.25, abs=1e-12)


def test_w1_identity_and_symmetry():
    mu = truncation_proxy((bern([0.3, 0.7]),), (1.0,), 5)
    nu = truncation_proxy((bern([0.6, 0.4]),), (1.0,), 5)
    d_self, _ = wasserstein1(mu, mu, 5, FULL2)
    assert d_self == 0.0
    d_ab, _ = wasserstein1(mu, nu, 5, FULL2)
    d_ba, _ = wasserstein1(nu, mu, 5, FULL2)
    assert d_ab == pytest.approx(d_ba, rel=1e-9)
    assert d_ab > 0


def test_w1_triangle_inequality_random():
    rng = make_rng(17)
    for _ in range(25):
        ps = rng.random(3)
        mus = [truncation_proxy((bern([p, 1 - p]),), (1.0,), 4) for p in ps]
        d01, _ = wasserstein1(mus[0], mus[1], 4, FULL2)
        d12, _ = wasserstein1(mus[1], mus[2], 4, FULL2)
        d02, _ = wasserstein1(mus[0], mus[2], 4, FULL2)
        assert d02 <= d01 + d12 + 1e-9


def test_w1_bernoulli_shift_one_step_oracle():
    # depth-1 marginals alone: |p - q| * beta^-1 is a lower bound, and for
    # product measures the optimal coupling realizes it at depth 1
    mu = truncation_proxy((bern([0.2, 0.8]),), (1.0,), 1)
    nu = truncation_proxy((bern([0.5, 0.5]),), (1.0,), 1)
    val, _ = wasserstein1(mu, nu, 1, FULL2)
    assert val == pytest.approx(0.3 * 0.5, abs=1e-12)


def test_w1_one_atom_side_needs_no_grid():
    # depth 20 is far beyond GRID_CAP; one atom a side is settled by the
    # transport plan
    a = point((1,) * 20, 20)
    b = point((2,) * 20, 20)
    assert wasserstein1(a, b, 20, FULL2)[0] == 1.0 - 2.0 ** -20


def test_w1_one_node_side_matches_grid_lp():
    # a one-node side of the supply takes the transport plan instead of the
    # flow LP: a point against 1 to all words of random positive weight, in
    # both orientations
    rng = make_rng(41)
    for space, depth in ((FULL2, 4), (FULL2, 6), (FULL2, 8), (FULL3, 4),
                         (ShiftSpace.full_shift(3, beta=3.0), 5),
                         (ShiftSpace.full_shift(4), 4)):
        words = np.asarray(admissible_words(space, depth), dtype=np.int16)
        for _ in range(25):
            one = from_atoms(words[rng.integers(len(words))][None], [1.0],
                             space)
            many = random_pair(rng, words, len(words), space)[0]
            for mu, nu in ((one, many), (many, one)):
                got, _ = wasserstein1(mu, nu, depth, space)
                want = grid_w1(mu, nu, depth, space)
                assert abs(got - want) <= 1e-12, (space.m, depth, got, want)


def test_w1_rejects_atoms_outside_alphabet():
    # (3, 1) used to be packed as (1, 2), (0, 1) as a node off the grid, and
    # a one-atom side (5, 1) took the closed form: W1 0.375, 0.125 and 0.5;
    # such a measure cannot be built
    for atoms, bad in (([[3, 1], [1, 1]], 3), ([[0, 1], [1, 1]], 0),
                       ([[5, 1]], 5)):
        with pytest.raises(InputError, match=f"symbol {bad} outside"):
            from_atoms(np.array(atoms, dtype=np.int16),
                       np.full(len(atoms), 1 / len(atoms)),
                       FULL2)
    # nor compared on a space of another alphabet
    mu = from_atoms([[1, 2], [2, 2]], [0.5, 0.5], FULL2)
    nu = from_atoms([[1, 2], [3, 2]], [0.5, 0.5], FULL3)
    for a, b in ((mu, nu), (nu, mu)):
        with pytest.raises(InputError, match="symbols, space on 2"):
            wasserstein1(a, b, 2, FULL2)


def test_w1_grid_cap():
    # two atoms a side, so the flow LP is needed: the depth-13 grid has
    # 2^13 nodes, more than GRID_CAP; the depth-12 grid is at the cap
    assert GRID_CAP == 2 ** 12
    atoms = np.array([[1] * 13, [2] * 13, [1, 2] * 6 + [1], [2, 1] * 6 + [2]],
                     dtype=np.int16)
    mu = from_atoms(atoms[:2], np.array([0.5, 0.5]), FULL2)
    nu = from_atoms(atoms[2:], np.array([0.5, 0.5]), FULL2)
    with pytest.raises(SizeError, match="grid"):
        wasserstein1(mu, nu, 13, FULL2)
    assert wasserstein1(mu, nu, 12, FULL2)[0] == pytest.approx(
        (1 - 2.0 ** -12) / 3, rel=1e-12)
    # a test the bounds settle needs no grid (lb = 0, ub = 0.49988 at depth
    # 13); one they leave open needs the exact value and so the grid
    assert bounds(mu, nu, 13, FULL2)[1] < 0.5 - MARGIN
    assert below(mu, nu, 0.5, 13, FULL2)
    with pytest.raises(SizeError, match="grid"):
        below(mu, nu, 0.3, 13, FULL2)


def dense_w1(mu, nu, depth, space):
    """W1 by the dense transportation LP between the prefixes where mu - nu
    is positive and those where it is negative, at tolerance 1e-10."""
    net = {}
    for sign, measure in ((1.0, mu), (-1.0, nu)):
        for atom, w in atom_masses(measure).items():
            net[atom[:depth]] = net.get(atom[:depth], 0.0) + sign * w
    a = np.array([x for x, v in net.items() if v > 1e-15]).reshape(-1, depth)
    b = np.array([x for x, v in net.items() if v < -1e-15]).reshape(-1, depth)
    if not a.size or not b.size:
        return 0.0
    a_w = np.array([v for v in net.values() if v > 1e-15])
    b_w = -np.array([v for v in net.values() if v < -1e-15])
    scale = space.beta ** -np.arange(1.0, depth + 1)
    cost = np.abs(a[:, None, :].astype(float) - b[None, :, :]) @ scale
    return a_w.sum() * dense_transport(cost, a_w / a_w.sum(),
                                       b_w / b_w.sum(), 1e-10)


def w1_oracle_cases():
    """The W1-axiom and triangle data above, random pairs on FULL2, the
    golden mean and FULL3 up to depth 6, and residual masses near 1e-9."""
    mu = truncation_proxy((bern([0.3, 0.7]),), (1.0,), 5)
    nu = truncation_proxy((bern([0.6, 0.4]),), (1.0,), 5)
    yield mu, nu, 5, FULL2
    rng = make_rng(17)
    for _ in range(25):
        mus = [truncation_proxy((bern([p, 1 - p]),), (1.0,), 4)
               for p in rng.random(3)]
        for i, j in ((0, 1), (1, 2), (0, 2)):
            yield mus[i], mus[j], 4, FULL2
    rng = make_rng(23)
    for space in (FULL2, GM, FULL3):
        words = np.asarray(admissible_words(space, 6), dtype=np.int16)
        for depth in range(1, 7):
            for _ in range(4):
                yield (*random_pair(rng, words, 60, space), depth, space)
    # about 1e-9 of the mass moves, from two atoms to two others (the first,
    # second, seventh and eighth words in lexicographic order)
    w = mu.mass.copy()
    moved = _pack_prefixes(np.array([[1, 1, 1, 1, 1], [1, 1, 1, 1, 2],
                                     [1, 1, 2, 2, 1], [1, 1, 2, 2, 2]]), 2)
    w[moved[:2]] -= [6e-10, 4e-10]
    w[moved[2:]] += [5e-10, 5e-10]
    yield mu, FinSuppMeasure(w, 5, 2), 5, FULL2
    # one residual atom of relative mass about 1e-9 beside atoms of about 1/2
    a = from_atoms(
        np.array([[1, 1, 1], [1, 2, 1], [2, 2, 2]], np.int16),
        np.array([0.5, 0.5 - 1e-9, 1e-9]), FULL2)
    b = from_atoms(np.array([[2, 1, 1], [2, 1, 2]], np.int16),
                   np.array([0.5, 0.5]), FULL2)
    yield a, b, 3, FULL2


def test_w1_flow_matches_dense_oracle():
    for mu, nu, depth, space in w1_oracle_cases():
        got, _ = wasserstein1(mu, nu, depth, space)
        want = dense_w1(mu, nu, depth, space)
        assert abs(got - want) <= 1e-12 * want, (depth, got, want)


def unit_supplies(rng, k, n):
    """k random unit supplies on n nodes, as `_unit_supply` normalises
    them: the difference of two random masses, each on a random share of
    the nodes."""
    a, b = (rng.random((2, k, n)) * (rng.random((2, k, n))
                                     < rng.uniform(0.2, 1.0, (2, k, 1))))
    a[np.arange(k), rng.integers(0, n, k)] += 0.1
    b[np.arange(k), rng.integers(0, n, k)] += 0.1
    return unit_rows(a / a.sum(axis=1)[:, None]
                     - b / b.sum(axis=1)[:, None])[1]


@pytest.mark.parametrize("m,depth", [(2, 1), (2, 4), (2, 5), (3, 3), (3, 5),
                                     (2, 8), (4, 3)])
def test_grid_flow_csc_equals_sparse_oracle(monkeypatch, m, depth):
    # the numpy CSC arrays of one grid and of a 5-block LP equal those that
    # scipy.sparse makes of the incidence built from (row, column) pairs
    n = m ** depth
    oracle = grid_incidence(m, depth, float(m))
    incidence = measures._grid_flow(m, depth, float(m))[0]
    lps = spying(monkeypatch, "linprog")
    measures._block_values(unit_supplies(make_rng(m * depth), 5, n), depth,
                           ShiftSpace.full_shift(m))
    blocks = lps[0][0][1]
    for got, want in ((incidence, sp.csc_array(oracle)),
                      (blocks, sp.csc_array(sp.block_diag([oracle] * 5)))):
        for a, b in zip(got, (want.indptr, want.indices, want.data)):
            assert a.shape == b.shape and np.array_equal(a, b)


def test_direct_lp_equals_scipy_linprog(monkeypatch):
    # `measures.linprog` against `scipy.optimize.linprog(method="highs")`
    # on the same model at the same tolerances: the same bits in the
    # objective, the flow, the row duals and the iteration count, on single
    # grids and on block LPs of 2 to 9 copies
    rng = make_rng(53)
    models = []
    for space, depth in ([(FULL2, d) for d in range(1, 9)]
                         + [(FULL3, d) for d in (3, 4, 5)] + [(GM, 5)]):
        incidence, cost = measures._grid_flow(space.m, depth,
                                              float(space.beta))[:2]
        models += [(cost, incidence, s[:-1])
                   for s in unit_supplies(rng, 4, space.m ** depth)]
    lps = spying(monkeypatch, "linprog")
    for space, depth in ((FULL2, 4), (GM, 4), (FULL3, 2)):
        for k in range(2, 10):
            measures._block_values(unit_supplies(rng, k, space.m ** depth),
                                   depth, space)
    models += [args for args, _ in lps]
    assert len(models) == 48 + 24
    for cost, incidence, supply in models:
        got = measures.linprog(cost, incidence, supply)
        want = scipy_flow(cost, csc(incidence, supply.shape[0]), supply)
        assert got.success and want.success
        assert got.fun == want.fun and got.nit == want.nit
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(got.duals, want.eqlin.marginals)


# A fresh interpreter that solves a few flow LPs with `measures.linprog`
# and with `scipy.optimize.linprog(method="highs")`, importing
# scipy.optimize before the first `measures.linprog` or after the last, and
# reports the models whose bits differ and whether one module object of
# HiGHS's bindings serves both.
IMPORT_ORDER = """
import sys
import numpy as np
from emergence_lab import measures

if sys.argv[1] == "scipy-first":
    import scipy.optimize
rng = np.random.default_rng(61)
models = []
for m, depth in ((2, 1), (2, 3), (2, 5), (2, 7), (3, 2), (3, 4)):
    incidence, cost = measures._grid_flow(m, depth, 2.0)[:2]
    a, b = rng.random((2, 4, m ** depth)) + 0.01
    unit = measures._unit_supply(a / a.sum(axis=1)[:, None]
                                 - b / b.sum(axis=1)[:, None])[1]
    models += [(cost, incidence, s[:-1]) for s in unit]
loaded = "scipy.optimize" in sys.modules
got = [measures.linprog(*model) for model in models]
from oracles import csc, scipy_flow
want = [scipy_flow(cost, csc(incidence, supply.shape[0]), supply)
        for cost, incidence, supply in models]
wrapper = sys.modules["scipy.optimize._highspy._highs_wrapper"]
print(loaded, len(models), sum(
    not (g.success and w.success and g.fun == w.fun and g.nit == w.nit
         and np.array_equal(g.x, w.x)
         and np.array_equal(g.duals, w.eqlin.marginals))
    for g, w in zip(got, want)),
      wrapper._h is measures._highs()
      is sys.modules["scipy.optimize._highspy._core"])
"""


@pytest.mark.parametrize("order", ["lab-first", "scipy-first"])
def test_direct_lp_equals_scipy_linprog_in_either_import_order(order):
    # the bindings `measures.linprog` loads from their file are the module
    # scipy.optimize's own HiGHS wrapper uses, whichever is imported first,
    # and both solves give the same bits as in the test above
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tests.parent / "src"), str(tests)])}
    done = subprocess.run([sys.executable, "-c", IMPORT_ORDER, order],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(order == "scipy-first"), "24", "0",
                                   "True"]


# A fresh interpreter in which 8 threads load HiGHS's bindings at once, with
# a thread switch every microsecond; prints how many times the extension
# module was made and whether every thread got the one `sys.modules` holds.
# scipy is imported first, so that no thread waits on its import lock.
CONCURRENT_LOAD = """
import importlib.util, sys, threading
from concurrent.futures import ThreadPoolExecutor
import scipy
from emergence_lab import measures

made = []
module_from_spec = importlib.util.module_from_spec


def counted(spec):
    made.append(spec.name)
    return module_from_spec(spec)


def load(_):
    start.wait(timeout=60)
    return measures._highs()


importlib.util.module_from_spec = counted
sys.setswitchinterval(1e-6)
start = threading.Barrier(8)
with ThreadPoolExecutor(8) as pool:
    got = list(pool.map(load, range(8), timeout=120))
print(made.count(measures._HIGHS),
      all(m is sys.modules[measures._HIGHS] for m in got))
"""


def test_highs_bindings_load_once_under_concurrent_first_calls():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", CONCURRENT_LOAD],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "True"]


@pytest.mark.parametrize("operation", ["wasserstein1", "w1_below"])
def test_failed_flow_lp_raises_invariant_error(operation):
    # one row -x = 1 with x >= 0 has no solution, and a row index past the
    # last row makes no model
    for index, value, reason in (([0], [-1.0], "Infeasible"),
                                 ([1], [1.0], "rejected")):
        incidence = (np.array([0, 1]), np.array(index), np.array(value))
        res = measures.linprog(np.ones(1), incidence, np.ones(1))
        assert not res.success and reason in res.message
        with pytest.raises(InvariantError, match=reason) as err:
            measures._solve_flow(np.ones(1), incidence, np.ones(1), operation)
        assert err.value.operation == operation


def test_w1_scale_invariance_under_common_mass():
    # adding identical extra mass to both sides must not change the distance
    a = from_atoms(np.array([[1, 1], [2, 2]], dtype=np.int16),
                   np.array([0.5, 0.5]), FULL2)
    b = from_atoms(np.array([[1, 2], [2, 2]], dtype=np.int16),
                   np.array([0.5, 0.5]), FULL2)
    val, _ = wasserstein1(a, b, 2, FULL2)
    # only 0.5 mass moves from 11 to 12: 0.5 * 2^-2
    assert val == pytest.approx(0.125, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.05, max_value=0.95))
def test_w1_nonnegative_and_bounded(p, q):
    mu = truncation_proxy((bern([p, 1 - p]),), (1.0,), 4)
    nu = truncation_proxy((bern([q, 1 - q]),), (1.0,), 4)
    val, err = wasserstein1(mu, nu, 4, FULL2)
    assert 0.0 <= val <= 1.0  # diameter of the depth-4 truncated metric
    assert err > 0


def random_pair(rng, words, max_atoms, space):
    """Two measures, each on 1..max_atoms distinct rows of words with random
    positive weights."""
    pair = []
    for _ in range(2):
        k = int(rng.integers(1, min(len(words), max_atoms) + 1))
        pick = rng.choice(len(words), size=k, replace=False)
        w = rng.random(k) + 0.05
        pair.append(from_atoms(words[pick], w / w.sum(), space))
    return pair


def test_w1_bounds_sound():
    # lb <= W1 <= ub on random pairs of 1-40 atoms a side
    rng = make_rng(31)
    for space, depth in ((FULL2, 4), (FULL2, 5), (FULL2, 8), (GM, 5),
                         (FULL3, 5)):
        words = np.asarray(admissible_words(space, depth), dtype=np.int16)
        for _ in range(40):
            mu, nu = random_pair(rng, words, 40, space)
            lb, ub = bounds(mu, nu, depth, space)
            d, _ = wasserstein1(mu, nu, depth, space)
            assert lb - 1e-12 <= d <= ub + 1e-12, (space.m, depth, lb, d, ub)
    # one atom against many, on both sides
    a = point((1, 2, 2, 1, 2), 5)
    b = truncation_proxy((bern([0.3, 0.7]),), (1.0,), 5)
    for x, y in ((a, b), (b, a)):
        lb, ub = bounds(x, y, 5, FULL2)
        assert lb - 1e-12 <= wasserstein1(x, y, 5, FULL2)[0] <= ub + 1e-12
    # identical measures
    assert bounds(b, b, 5, FULL2) == (0.0, 0.0)
    # at depth 1 on FULL2 both bounds are the distance itself
    for p, q in ((0.2, 0.5), (0.9, 0.1)):
        mu = truncation_proxy((bern([p, 1 - p]),), (1.0,), 1)
        nu = truncation_proxy((bern([q, 1 - q]),), (1.0,), 1)
        d, _ = wasserstein1(mu, nu, 1, FULL2)
        lb, ub = bounds(mu, nu, 1, FULL2)
        assert lb == pytest.approx(d, abs=1e-15)
        assert ub == pytest.approx(d, abs=1e-15)


def grid_arcs(space, depth):
    """(tail, head, cost) of the arcs of the m^depth prefix grid, built
    from the metric: both ways between nodes one apart in coordinate d, at
    cost beta^-(d+1)."""
    node = np.arange(space.m ** depth)
    tails, heads, costs = [], [], []
    for d in range(depth):
        step = space.m ** d
        low = node[(node // step) % space.m < space.m - 1]
        tails += [low, low + step]
        heads += [low + step, low]
        costs += [np.full(2 * low.size, space.beta ** -(d + 1))]
    return np.concatenate(tails), np.concatenate(heads), np.concatenate(costs)


def unit_rows(net):
    """(mass, unit supply) of each supply row: the positive total, and each
    side divided by its own total."""
    pos, neg = np.maximum(net, 0.0), np.maximum(-net, 0.0)
    mass = pos.sum(axis=1)
    return mass, pos / mass[:, None] - neg / neg.sum(axis=1)[:, None]


def test_w1_potentials_are_feasible_and_attain_the_value():
    # on the pairs of the soundness test: every scaled potential, of a
    # single solve and of each block of a block LP, keeps
    # (y_tail - y_head) / c <= 1 on every arc with no tolerance, and
    # mass * |y . s| lies within 1e-12 of the value its LP gave
    rng = make_rng(31)
    for space, depth in ((FULL2, 4), (FULL2, 5), (FULL2, 8), (GM, 5),
                         (FULL3, 5)):
        words = np.asarray(admissible_words(space, depth), dtype=np.int16)
        tail, head, cost = grid_arcs(space, depth)
        nets, solved = [], 0
        for _ in range(40):
            mu, nu = random_pair(rng, words, 40, space)
            net = mu.mass - nu.mass
            net[np.abs(net) <= 1e-15] = 0.0
            d, _ = res = wasserstein1(mu, nu, depth, space)
            if min((net > 0).sum(), (net < 0).sum()) <= 1:
                assert res.potential is None
                continue
            y = res.potential
            assert ((y[tail] - y[head]) / cost).max() <= 1.0
            mass, unit = unit_rows(net[None])
            assert abs(mass[0] * abs(unit[0] @ y) - d) <= 1e-12
            nets.append(net)
            solved += 1
        assert solved >= 20
        values, ys = measures._block_values(np.array(nets[:4]), depth, space)
        mass, unit = unit_rows(np.array(nets[:4]))
        for y, value, m_r, u_r in zip(ys, values, mass, unit):
            assert ((y[tail] - y[head]) / cost).max() <= 1.0
            assert abs(m_r * abs(u_r @ y) - value) <= 1e-12


def test_w1_min_potentials_save_solves(monkeypatch):
    # the level-2 saturation check of the construct-saturate benchmark's
    # reference input (FULL2, metric depth 5, four net nodes against the
    # orbit's snapshots): the potentials of earlier solves settle 4 of the
    # 11 rows that the bounds alone leave to an LP, and the minima and the
    # times attaining them stay bit for bit those of no potentials
    fam = MeasureFamily(tuple(MarkovMeasure(np.array([p, p]), FULL2)
                              for p in ([0.2, 0.8], [0.8, 0.2], [0.5, 0.5])))
    nets = (SimplexNet(0, 1.0, ((1.0,),)),
            SimplexNet(1, 1.0, ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5))),
            SimplexNet(2, 1.0, ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                (0.0, 0.0, 1.0), (0.5, 0.5, 0.0))))
    gamma = {(L, l): 32 for L in range(4) for l in range(L + 1)}
    it = block_schedule(fam, 2, (0.9, 0.8, 0.5, 0.4), (0.1,) * 4, gamma, nets)
    orbit = build_orbit(it, fam, FULL2, seed=101, metric_depth=5)
    lps = spying(monkeypatch, "linprog")
    with_potentials = verify_saturation(orbit, nets[2], fam, 0.08125, 5)
    assert len(lps) == 7
    lps.clear()
    monkeypatch.setattr(measures, "_potentials", lambda duals, *_: np.zeros(
        (duals.shape[0], duals.shape[1] + 1)))
    without = verify_saturation(orbit, nets[2], fam, 0.08125, 5)
    assert len(lps) == 11
    assert with_potentials.node_minima == without.node_minima


def test_w1_bounds_match_prefix_tree_oracle():
    # the random pairs of the soundness test, then FULL2 at depth 13, beyond
    # GRID_CAP, and bounds at a depth below the stored one
    rng = make_rng(31)
    cases = []
    for space, depth in ((FULL2, 4), (FULL2, 5), (FULL2, 8), (GM, 5),
                         (FULL3, 5), (FULL2, 13)):
        words = np.asarray(admissible_words(space, depth), dtype=np.int16)
        cases += [(*random_pair(rng, words, 40, space), depth, space)
                  for _ in range(40)]
    cases += [(mu, nu, depth - 2, space) for mu, nu, depth, space in cases[:80]]
    assert len(cases) == 320
    for mu, nu, depth, space in cases:
        got = bounds(mu, nu, depth, space)
        lb, tree_ub = tree_bounds(mu, nu, depth, space)
        want = (lb, min(tree_ub, plan_bound(mu, nu, depth, space)))
        assert np.abs(np.subtract(got, want)).max() <= 1e-14, (depth, got, want)


def test_w1_plan_bound_sound():
    # lb <= W1 <= plan <= tree ub on the soundness test's random pairs; the
    # plan is not proved to beat the tree bound, so w1_bounds takes the
    # smaller of the two
    rng = make_rng(31)
    for space, depth in ((FULL2, 4), (FULL2, 5), (FULL2, 8), (GM, 5),
                         (FULL3, 5)):
        words = np.asarray(admissible_words(space, depth), dtype=np.int16)
        for _ in range(40):
            mu, nu = random_pair(rng, words, 40, space)
            lb, tree_ub = tree_bounds(mu, nu, depth, space)
            plan = plan_bound(mu, nu, depth, space)
            d, _ = wasserstein1(mu, nu, depth, space)
            assert lb - 1e-12 <= d <= plan + 1e-12, (space.m, depth, d, plan)
            assert plan <= tree_ub + 1e-12, (space.m, depth, plan, tree_ub)


def test_w1_rows_must_be_probability_vectors():
    # every row is checked as FinSuppMeasure checks its mass, even one the
    # bounds would settle without an exact solve
    nu = truncation_proxy((bern([0.3, 0.7]),), (1.0,), 3)
    point_mass = np.eye(8)[0]
    for bad in ([1.1, -0.1, 0, 0, 0, 0, 0, 0], [0.5, 0, 0, 0, 0, 0, 0, 0],
                [np.nan, 1, 0, 0, 0, 0, 0, 0], [np.inf, 0, 0, 0, 0, 0, 0, 0],
                point_mass * (1 + 1e-11)):
        masses = np.array([point_mass, bad])
        with pytest.raises(InvariantError):
            w1_bounds(masses, nu, 3, FULL2)
        for eps in (1e-3, 10.0):
            with pytest.raises(InvariantError):
                w1_below(masses, nu, eps, 3, FULL2)
    masses = np.array([point_mass, point_mass * (1 + 1e-13)])
    assert w1_below(masses, nu, 10.0, 3, FULL2).tolist() == [True, True]


def test_w1_row_errors_name_their_entry_point():
    # every entry point shares the row check, but reports its own name
    nu = truncation_proxy((bern([0.3, 0.7]),), (1.0,), 3)
    half = np.eye(8)[:1] * 0.5
    calls = {"w1_bounds": lambda: w1_bounds(half, nu, 3, FULL2),
             "w1_below": lambda: w1_below(half, nu, 0.1, 3, FULL2),
             "w1_min": lambda: w1_min(half, nu, 3, FULL2)}
    for name, call in calls.items():
        with pytest.raises(InvariantError) as ei:
            call()
        assert (ei.value.module, ei.value.operation) == ("measures", name)


def spying(monkeypatch, name):
    """Replace measures.<name> by a wrapper that records each call's
    arguments and result in the returned list."""
    calls = []
    fn = getattr(measures, name)

    def spy(*args, **kwargs):
        out = fn(*args, **kwargs)
        calls.append((args, out))
        return out

    monkeypatch.setattr(measures, name, spy)
    return calls


def test_w1_below_margin_cases(monkeypatch):
    # eps within MARGIN of the exact value leaves the test to the single
    # exact solve; eps clear of both bounds by more than MARGIN needs no LP,
    # and eps inside a loose bracket is decided by the block LP alone
    solves = spying(monkeypatch, "wasserstein1")
    lps = spying(monkeypatch, "linprog")
    mu = truncation_proxy((bern([0.3, 0.7]),), (1.0,), 5)
    nu = truncation_proxy((bern([0.6, 0.4]),), (1.0,), 5)
    cases = [(mu, nu, 5)]
    # depth 1 on FULL2: lb = ub = d, and one node a side
    cases.append((truncation_proxy((bern([0.3, 0.7]),), (1.0,), 1),
                  truncation_proxy((bern([0.6, 0.4]),), (1.0,), 1), 1))
    # a Markov chain against Bernoulli(1/2): lb = d - 0.058, ub = d + 0.0063
    chain = MarkovMeasure(np.array([[0.1, 0.9], [0.7, 0.3]]), FULL2)
    cases.append((truncation_proxy((chain,), (1.0,), 4),
                  truncation_proxy((bern([0.5, 0.5]),), (1.0,), 4), 4))
    for a, b, depth in cases:
        d, _ = wasserstein1(a, b, depth, FULL2)
        lb, ub = bounds(a, b, depth, FULL2)
        assert lb > 2 * MARGIN
        for eps in (d, lb, ub, lb - MARGIN / 2, ub + MARGIN / 2,
                    np.nextafter(d, 0), np.nextafter(d, 1), (lb + ub) / 2):
            solves.clear()
            lps.clear()
            assert below(a, b, eps, depth, FULL2) == (d < eps), (depth, eps)
            # one node a side: the plan cost, with no LP and no single
            # solve; else one block LP, and a single solve when the block
            # value is within MARGIN of eps
            single = depth > 1 and abs(d - eps) <= MARGIN
            assert len(solves) == single, (depth, eps)
            assert len(lps) == (depth > 1) * (1 + single), (depth, eps)
        for eps, want in ((lb - 2 * MARGIN, False), (ub + 2 * MARGIN, True)):
            solves.clear()
            lps.clear()
            assert below(a, b, eps, depth, FULL2) is want
            assert solves == lps == []
    # the loose pair reaches the block LP alone
    assert ub - d > 1e-3 and d - lb > 1e-3


def test_w1_below_rows_with_one_node_a_side(monkeypatch):
    # the proxy's own row has no supply: no bound clears eps = MARGIN / 2,
    # and a block LP would normalise 0 / 0 into a NaN supply.  It and point
    # masses (one node on the positive side, or, against a point-mass nu, on
    # the negative side) are decided by their exact plan cost, with no LP,
    # next to rows of the block path
    lps = spying(monkeypatch, "linprog")
    depth = 4
    nu = truncation_proxy((bern([0.3, 0.7]),), (1.0,), depth)
    rng = make_rng(7)
    mixed = rng.random((3, 16))
    mixed /= mixed.sum(axis=1, keepdims=True)
    assert w1_below(nu.mass[None], nu, MARGIN / 2, depth, FULL2).tolist() \
        == [True]
    assert w1_below(nu.mass[None], nu, 0.0, depth, FULL2).tolist() == [False]
    assert lps == []
    point_nu = FinSuppMeasure(np.eye(16)[5], depth, 2)
    for target in (nu, point_nu):
        masses = np.vstack([np.eye(16)[[0, 5, 9]], target.mass, mixed])
        d = [wasserstein1(FinSuppMeasure(row, depth, 2), target, depth,
                          FULL2)[0] for row in masses]
        for eps in d[:4] + [d[0] + MARGIN / 2, d[1] - MARGIN / 2, MARGIN / 2]:
            lps.clear()
            got = w1_below(masses, target, eps, depth, FULL2)
            assert got.tolist() == [x < eps for x in d], eps
            # the mixed rows that no bound settles share one block LP
            assert len(lps) <= 1 + sum(abs(x - eps) <= MARGIN for x in d[4:])


@pytest.mark.parametrize("space,depth", [(FULL2, 3), (FULL2, 6), (FULL3, 3),
                                         (FULL3, 5), (GM, 5)])
def test_plan_bound_batched_equals_single_rows(space, depth):
    # `w1_below` decides a one-node-side row by its entry of the batched
    # plan cost, which must be `wasserstein1`'s single-row value bit for bit
    rng = make_rng(depth)
    size = space.m ** depth
    dense = rng.random((12, size))
    sparse = dense * (rng.random((12, size)) < 3 / size)
    sparse[np.arange(12), rng.integers(0, size, 12)] += 1.0
    rows = np.vstack([dense, sparse, np.eye(size)[rng.integers(0, size, 6)]])
    rows /= rows.sum(axis=1, keepdims=True)
    for nu in (FinSuppMeasure(rows[0], depth, space.m),
               FinSuppMeasure(np.eye(size)[size // 3], depth, space.m)):
        net = measures._net(rows, nu.mass)
        batched = measures._plan_bound(net, depth, space)
        single = [measures._plan_bound(net[i:i + 1], depth, space)[0]
                  for i in range(net.shape[0])]
        assert batched.tobytes() == np.array(single).tobytes()
        some = rng.permutation(net.shape[0])[:9]
        assert (measures._plan_bound(net[some], depth, space).tobytes()
                == batched[some].tobytes())
        sides = np.minimum((net > 0).sum(axis=1), (net < 0).sum(axis=1))
        assert (sides <= 1).sum() >= 6
        for i in np.flatnonzero(sides <= 1).tolist():
            row = FinSuppMeasure(rows[i], depth, space.m)
            assert wasserstein1(row, nu, depth, space)[0] == batched[i]


@pytest.mark.parametrize("space,depth", [(FULL2, 4), (FULL2, 5), (FULL3, 3),
                                         (GM, 4)])
def test_w1_below_block_decisions_equal_single_solves(monkeypatch, space,
                                                      depth):
    # random mass matrices of more rows than one block LP holds; eps at
    # rows' exact values, MARGIN / 2 and 1.5 MARGIN either side, and inside
    # open brackets.  Every decision is the single solve's, the block path
    # makes one LP a full chunk of open rows, and a single solve follows
    # only for a row whose block value lies within MARGIN of eps
    rng = make_rng(59 + space.m + depth)
    n = space.m ** depth
    chunk = max(1, measures.BLOCK_NODES // n)
    rows = 4 * chunk + 2
    nu = truncation_proxy((MarkovMeasure.parry(space),), (1.0,), depth)

    def exact(masses):
        return np.array([wasserstein1(FinSuppMeasure(row, depth, space.m), nu,
                                      depth, space)[0] for row in masses])

    noise = rng.random((rows, n)) * (rng.random((rows, n)) < 0.6)
    noise[:, 0] += 1e-3
    noise /= noise.sum(axis=1, keepdims=True)
    # W1 is homogeneous along the segment from nu: mixing each row with nu
    # puts every W1 within 1% of one value, so one eps meets most brackets
    d_noise = exact(noise)
    mix = 0.5 * d_noise.min() * (1 + 0.01 * rng.uniform(-1, 1, rows)) / d_noise
    masses = (1 - mix)[:, None] * nu.mass + mix[:, None] * noise
    masses /= masses.sum(axis=1, keepdims=True)
    masses[-1] = noise[-1]
    d = exact(masses)
    lb, ub = w1_bounds(masses, nu, depth, space)
    eps_list = [d[i] + k * MARGIN for i in (0, 1, rows - 1)
                for k in (0, -0.5, 0.5, -1.5, 1.5)]
    eps_list += [np.median(d), 0.5 * (lb[0] + ub[0]), 0.5 * (lb[1] + ub[1])]
    blocks = spying(monkeypatch, "_block_values")
    solves = spying(monkeypatch, "wasserstein1")
    lps = spying(monkeypatch, "linprog")
    most = fallbacks = 0
    for eps in eps_list:
        for calls in (blocks, solves, lps):
            calls.clear()
        got = w1_below(masses, nu, eps, depth, space)
        assert got.tolist() == (d < eps).tolist(), eps
        values = np.concatenate([v for _, (v, _) in blocks] or [[]])
        assert len(blocks) == -(-values.size // chunk)
        assert all(args[0].shape[0] <= chunk for args, _ in blocks)
        assert len(solves) == np.sum(np.abs(values - eps) <= MARGIN)
        assert len(lps) == len(blocks) + len(solves)
        most, fallbacks = max(most, len(blocks)), fallbacks + len(solves)
    # some eps leaves more rows open than one block LP holds
    assert most > 1 and fallbacks > 0


def test_w1_min_matches_brute_force(monkeypatch):
    # the exact W1 of every row, and the first row attaining the minimum:
    # the rows twice over, so that every minimum is tied, and no rows
    solves = []

    def spy(*args):
        solves.append(1)
        return wasserstein1(*args)

    monkeypatch.setattr(measures, "wasserstein1", spy)
    rng = make_rng(43)
    for space, depth in ((FULL2, 4), (FULL3, 3)):
        rows = []
        for p in np.linspace(0.05, 0.95, 10):
            probs = np.full(space.m, (1 - p) / (space.m - 1))
            probs[0] = p
            x = PointPrefix(bern(probs, space).sample(200, rng))
            rows.append(snapshot_masses(x, [150], depth, space)[0])
        nu = truncation_proxy((bern(np.full(space.m, 1 / space.m), space),),
                              (1.0,), depth)
        for masses in (np.array(rows), np.array(rows + rows[::-1])):
            d = [wasserstein1(FinSuppMeasure(row, depth, space.m), nu, depth,
                              space)[0] for row in masses]
            solves.clear()
            assert w1_min(masses, nu, depth, space) == (min(d),
                                                        d.index(min(d)))
            assert 0 < len(solves) < len(masses)
        empty = np.empty((0, space.m ** depth))
        assert w1_min(empty, nu, depth, space) == (math.inf, -1)


# ----------------------------------------------------------------- mixtures

def test_mixture_weights_validation():
    a, b = bern([0.5, 0.5]), bern([0.2, 0.8])
    # off the simplex, a weight too many or too few, a negative or an
    # infinite weight
    for ms, weights in (((a,), [0.7]), ((a,), [0.5, 0.5]), ((a, b), [1.0]),
                        ((a, b), [1.5, -0.5]), ((a, b), [math.inf, 1.0])):
        with pytest.raises(InvariantError):
            truncation_proxy(ms, np.array(weights), 2)


def test_nan_weights_rejected():
    # with these weights W1 gave 0.5 and P(C(1)) under the mixture nan
    weights = np.array([math.nan, 1.0])
    with pytest.raises(InvariantError):
        from_atoms(np.array([[1], [2]], dtype=np.int16),
                   weights, FULL2)
    with pytest.raises(InvariantError):
        truncation_proxy((bern([0.5, 0.5]), bern([0.2, 0.8])), weights, 1)


def test_mixture_cylinder_probability_is_convex():
    a, b = bern([0.2, 0.8]), bern([0.9, 0.1])
    mix = truncation_proxy((a, b), np.array([0.25, 0.75]), 2)
    w = (1, 2)
    expected = (0.25 * cylinder_probability((a,), (1.0,), w)
                + 0.75 * cylinder_probability((b,), (1.0,), w))
    assert atom_masses(mix)[w] == pytest.approx(expected, rel=1e-12)


def test_truncation_proxy_reads_one_space():
    # the proxy took a space of its own: a FULL3 Bernoulli on FULL2 gave
    # [0.16, 0.24, 0.24, 0.36], and a mixture took components from
    # different spaces
    f3 = bern([0.2, 0.3, 0.5], FULL3)
    proxy = truncation_proxy((f3,), (1.0,), 2)
    assert (proxy.m, proxy.depth) == (3, 2)
    assert atom_masses(proxy)[(3, 1)] == pytest.approx(0.1, rel=1e-12)
    for other in (f3, MarkovMeasure.parry(GM)):
        with pytest.raises(InputError, match="different spaces"):
            truncation_proxy((bern([0.5, 0.5]), other), (0.5, 0.5), 2)
    # an equal space need not be the same object
    twin = bern([0.6, 0.4], ShiftSpace.full_shift(2))
    assert truncation_proxy((bern([0.5, 0.5]), twin), (0.5, 0.5), 1) \
        .mass.tolist() == pytest.approx([0.55, 0.45], rel=1e-12)


def test_make_rng_is_deterministic():
    assert make_rng(42).random(5).tolist() == make_rng(42).random(5).tolist()
    assert make_rng(1).random(1) != make_rng(2).random(1)
