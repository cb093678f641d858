import math
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emergence_lab.errors import InputError, InvariantError
from emergence_lab.measures import MarkovMeasure
from emergence_lab.sofic import (ShiftSpace, admissible_words, connector,
                                 count_admissible, is_admissible, perron,
                                 symbol_array, topological_entropy)
from oracles import periodic, product_connector, scipy_perron


def test_full_shift_entropy_is_log_m():
    for m in (2, 3, 5):
        space = ShiftSpace.full_shift(m)
        assert abs(topological_entropy(space) - math.log(m)) < 1e-12


def test_golden_mean_entropy_is_log_phi():
    space = ShiftSpace.golden_mean()
    phi = (1 + math.sqrt(5)) / 2
    assert abs(topological_entropy(space) - math.log(phi)) < 1e-9


def test_perron_rejects_vectors_not_of_one_sign():
    # top eigenvector (1, -1) / sqrt 2 sums to 0: its normalisation is inf
    with pytest.raises(InvariantError):
        perron(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    # top eigenvector of mixed sign with a nonzero sum
    with pytest.raises(InvariantError):
        perron(np.array([[2.0, -1.0], [-1.0, 1.0]]))


def perron_inputs(rng):
    """Random irreducible matrices: stochastic ones and 0/1 ones holding a
    cycle through every state, 40 of each kind at each size 2..6, then one
    of each at sizes 16 to 128."""
    for n in [n for n in range(2, 7) for _ in range(40)] + [16, 27, 64, 81,
                                                            128]:
        a = rng.random((n, n))
        yield a / a.sum(axis=1, keepdims=True)
        cycle = np.roll(np.eye(n), 1, axis=1)
        yield np.maximum(rng.random((n, n)) < 0.5, cycle)


def test_perron_matches_scipy_oracle():
    # numpy's eig(a) gives scipy.linalg.eig's eigenvalue and right vector bit
    # for bit up to 128 states; the left vector is perron(a.T)'s right
    # vector, another solve, and agrees to within 1e-15
    for a in perron_inputs(np.random.default_rng(11)):
        lam, right = perron(a)
        left = perron(a.T)[1]
        want = scipy_perron(a)
        assert lam == want[0] and np.array_equal(right, want[2]), a.shape
        assert np.abs(left - want[1]).max() <= 1e-15, a.shape


def test_stationary_vector_is_invariant():
    # the left Perron vector of a stochastic matrix, pi P = pi, on chains
    # that are not symmetric
    rng = np.random.default_rng(12)
    for m in [m for m in range(2, 7) for _ in range(20)]:
        p = rng.random((m, m)) * (1.0 + 5.0 * np.eye(m))
        p /= p.sum(axis=1, keepdims=True)
        pi = MarkovMeasure(p, ShiftSpace.full_shift(m)).stationary
        assert abs(pi.sum() - 1.0) <= 1e-12
        assert np.abs(pi @ p - pi).max() <= 1e-12


def test_dead_symbol_rejected():
    with pytest.raises(InvariantError):
        ShiftSpace(alphabet_size=2,
                   transition=np.array([[0, 0], [1, 1]]), beta=2.0)


def test_alphabet_and_transition_shape_checked():
    for m, t, match in ((1, [[1]], "alphabet_size must be >= 2"),
                        (2, np.ones((3, 3)), "must be 2x2"),
                        (2, [[1, 2], [1, 1]], "0 or 1")):
        with pytest.raises(InvariantError, match=match):
            ShiftSpace(alphabet_size=m, transition=t, beta=2.0)


def test_periodic_but_irreducible_matrix_rejected():
    # the pure 2-cycle is irreducible but not primitive
    with pytest.raises(InvariantError):
        ShiftSpace(alphabet_size=2,
                   transition=np.array([[0, 1], [1, 0]]), beta=2.0)


def test_beta_must_exceed_one():
    with pytest.raises(InvariantError):
        ShiftSpace.full_shift(2, beta=1.0)


def test_beta_must_be_finite():
    # beta = nan gave a nan tail bound, and beta = inf a truncated metric of
    # (0.0, 0.0) between (1, 1, 1) and (2, 2, 2)
    for beta in (math.nan, math.inf):
        with pytest.raises(InvariantError, match="finite"):
            ShiftSpace(alphabet_size=2, transition=np.ones((2, 2)),
                       beta=beta)


def test_admissibility_golden_mean():
    gm = ShiftSpace.golden_mean()
    assert is_admissible((1, 2, 1, 1, 2), gm)
    assert not is_admissible((1, 2, 2), gm)
    with pytest.raises(InputError):
        is_admissible((1, 3), gm)
    assert is_admissible(np.array([1, 2, 1, 1], dtype=np.int16), gm)
    for bad in (0, 3):
        w = np.array([1, 2, bad, 1, 0], dtype=np.int16)
        with pytest.raises(InputError, match=f"symbol {bad} outside"):
            is_admissible(w, gm)


def test_symbols_must_be_integers():
    # a cast read True as 1 and truncated 2.7 to 2, so both words were
    # admissible on the full 2-shift
    full2 = ShiftSpace.full_shift(2)
    for word in ((1, 2.7), (True, 2), np.array([True, False]), (1, None),
                 np.array([1.0, np.nan]), "12"):
        with pytest.raises(InputError, match="not an integer"):
            is_admissible(word, full2)
    for word in ((1, 2), (1.0, 2.0), [np.int16(1), 2],
                 np.array([1, 2], dtype=np.uint8),
                 np.array([1, 2], dtype=object)):
        assert is_admissible(word, full2)
    w = np.array([1, 2, 1])
    assert symbol_array(w, 2, "sofic", "test") is w


def test_count_admissible_matches_enumeration():
    gm = ShiftSpace.golden_mean()
    for n in range(1, 10):
        words = admissible_words(gm, n)
        assert len(words) == count_admissible(gm, n)
        assert all(is_admissible(w, gm) for w in words)
        assert words == sorted(words)
    for f in (admissible_words, count_admissible):
        with pytest.raises(InputError, match="n must be >= 1"):
            f(gm, 0)


def test_count_admissible_fibonacci():
    # golden-mean words of length n are counted by a Fibonacci recurrence
    gm = ShiftSpace.golden_mean()
    counts = [count_admissible(gm, n) for n in range(1, 12)]
    for a, b, c in zip(counts, counts[1:], counts[2:]):
        assert c == a + b


def test_count_admissible_no_overflow():
    space = ShiftSpace.full_shift(3)
    assert count_admissible(space, 200) == 3 ** 200


def test_metric_tail_bound_formula():
    space = ShiftSpace.full_shift(2, beta=2.0)
    assert space.metric_tail_bound(4) == pytest.approx(2.0 ** -4, abs=1e-15)
    space3 = ShiftSpace.full_shift(3, beta=3.0)
    assert space3.metric_tail_bound(2) == pytest.approx(2 * 3.0 ** -2 / 2.0)


def test_periodic_point_wrap_validation():
    gm = ShiftSpace.golden_mean()
    # (1,2) repeats to 121212: wrap pair (2,1) is allowed
    x = periodic((1, 2), 6, gm)
    assert x.symbols.tolist() == [1, 2, 1, 2, 1, 2]
    with pytest.raises(InputError):
        periodic((2, 2), 4, gm)
    for word in ((1,), (1, 2), (1, 1, 2), (2, 1, 1, 1, 2, 1)):
        for depth in (1, 5, 12):
            a = periodic(np.array(word, dtype=np.int16), depth, gm)
            b = periodic(word, depth, gm)
            assert a.symbols.tobytes() == b.symbols.tobytes()
            assert a.symbols.tolist() == [word[i % len(word)]
                                          for i in range(depth)]
    with pytest.raises(InputError):   # wrap pair (2, 2) forbidden
        periodic(np.array([2, 1, 2], dtype=np.int16), 6, gm)


def test_connector_full_shift_is_empty():
    space = ShiftSpace.full_shift(3)
    assert connector((1,), (3,), space) == ()
    assert all(connector((a,), (b,), space) == ()
               for a in range(1, 4) for b in range(1, 4))


def test_connector_golden_mean():
    gm = ShiftSpace.golden_mean()
    assert connector((2,), (2,), gm) == (1,)
    assert connector((1,), (2,), gm) == ()
    # only 2 -> 2 needs a bridge, of length one
    assert {(a, b): len(connector((a,), (b,), gm))
            for a in (1, 2) for b in (1, 2)} == {
                (1, 1): 0, (1, 2): 0, (2, 1): 0, (2, 2): 1}


def test_connector_rejects_symbols_outside_alphabet():
    # (0,) to (2,) used to bridge as (1,): symbol 0 read row -1, symbol 2's
    gm = ShiftSpace.golden_mean()
    for u, v, bad in (((0,), (2,), 0), ((1,), (3,), 3), ((2, 5), (1,), 5)):
        with pytest.raises(InputError, match=f"symbol {bad} outside"):
            connector(u, v, gm)
    for u, v in (((), (1,)), ((1,), ())):
        with pytest.raises(InputError, match="nonempty"):
            connector(u, v, gm)


def cycle_with_chord(m):
    """Arcs i -> i + 1, m -> 1 and m -> 2: primitive (cycles of lengths m
    and m - 1), and the bridge from 2 to 1 has length m - 2."""
    t = np.zeros((m, m), dtype=np.int8)
    t[np.arange(m - 1), np.arange(1, m)] = 1
    t[m - 1, :2] = 1
    return ShiftSpace(alphabet_size=m, transition=t, beta=2.0)


def test_connector_matches_product_search():
    rng = np.random.default_rng(0)
    spaces = [ShiftSpace.golden_mean(), cycle_with_chord(6)]
    for m in (2, 3, 4, 5):
        for _ in range(100):
            try:
                spaces.append(ShiftSpace(alphabet_size=m, beta=2.0,
                                         transition=rng.integers(0, 2, (m, m))))
            except InvariantError:   # not primitive
                pass
    assert len(spaces) > 100
    for space in spaces:
        for a, b in product(range(1, space.m + 1), repeat=2):
            assert (connector((a,), (b,), space)
                    == product_connector((a,), (b,), space))


def test_connector_long_bridge():
    # the product search would try about 12^10 words here
    space = cycle_with_chord(12)
    assert connector((1, 2), (1, 2), space) == tuple(range(3, 13))
    assert connector((12,), (3,), space) == (2,)
    assert connector((11,), (12,), space) == ()


def test_connector_missing_bridge():
    # a reducible matrix, which ShiftSpace rejects: 1 never follows 2
    reducible = SimpleNamespace(m=2, transition=np.array([[1, 1], [0, 1]]))
    assert connector((1,), (2,), reducible) == ()
    with pytest.raises(InvariantError):
        connector((2,), (1,), reducible)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_full_shift_word_count_property(n):
    space = ShiftSpace.full_shift(2)
    assert count_admissible(space, n) == 2 ** n


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=8))
def test_admissible_words_are_consistent(word):
    gm = ShiftSpace.golden_mean()
    ok = all(not (a == 2 and b == 2) for a, b in zip(word, word[1:]))
    assert is_admissible(word, gm) == ok
