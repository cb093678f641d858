import itertools
import math

import numpy as np
import pytest

from emergence_lab import carath, measures
from emergence_lab.carath import (CStructure, _layer_counts, _log_q,
                                  _tracking, bowen_dimension,
                                  check_conditions, outer_measure_M,
                                  outer_measure_N, outer_measures,
                                  pressure_exact, pressure_partition,
                                  restricted_outer_measure)
from emergence_lab.errors import (DepthError, InputError, InvariantError,
                                  SizeError)
from emergence_lab.measures import (MarkovMeasure, count_masses,
                                    empirical_snapshots, truncation_proxy,
                                    w1_below, wasserstein1)
from emergence_lab.sofic import (ShiftSpace, admissible_words,
                                 topological_entropy)
from oracles import (_cover_recursion, eta, layer_conditions,
                     layer_pressure_partition, one_entry_outer_measure,
                     q_weight, representatives, scan_sup_birkhoff,
                     scipy_perron, successors, window_shift_bowen_root,
                     window_shift_pressure)

FULL2 = ShiftSpace.full_shift(2)
FULL3 = ShiftSpace.full_shift(3)
GM = ShiftSpace.golden_mean()


def const_table(space, window, value):
    return {w: value for w in admissible_words(space, window)}


# ---------------------------------------------------------------- CStructure

def test_structure_kind_guard():
    with pytest.raises(InputError):
        CStructure(kind="box", space=FULL2)


def test_structure_window_range_for_every_kind():
    # window 40 would mean 2^39 suffix states on the full 2-shift, and
    # window 8 on ten symbols 10^7; both raise before any enumeration
    full10 = ShiftSpace.full_shift(10)
    for space, window in ((FULL2, 0), (FULL2, 9), (FULL2, 40), (full10, 8)):
        for kind in carath.KINDS:
            table = {} if kind in ("pressure", "appendix") else None
            with pytest.raises(SizeError):
                CStructure(kind=kind, space=space, window=window, table=table)


def test_pressure_needs_complete_table():
    with pytest.raises(InputError):
        CStructure(kind="pressure", space=FULL2)
    with pytest.raises(InputError):
        CStructure(kind="pressure", space=FULL2, window=1,
                   table={(1,): 0.5})  # missing (2,)


def test_appendix_table_must_be_positive():
    with pytest.raises(InputError):
        CStructure(kind="appendix", space=FULL2, window=1,
                   table={(1,): 1.0, (2,): 0.0})


def test_sup_birkhoff_window_one_is_plain_sum():
    s = CStructure(kind="pressure", space=FULL2, window=1,
                   table={(1,): 0.2, (2,): -0.1})
    assert s.sup_birkhoff((1, 2, 1)) == pytest.approx(0.3, rel=1e-12)


def test_sup_birkhoff_window_two_maximizes_tail():
    tbl = {(1, 1): 1.0, (1, 2): 0.0, (2, 1): 0.0, (2, 2): -1.0}
    s = CStructure(kind="pressure", space=FULL2, window=2, table=tbl)
    # word (2,): the 1-term Birkhoff sup picks the best window starting at 2
    assert s.sup_birkhoff((2,)) == pytest.approx(0.0)
    # word (1, 1): fixed part phi(11)=1 plus best final window phi(1?)
    assert s.sup_birkhoff((1, 1)) == pytest.approx(2.0)


def test_weight_factorisations():
    s = CStructure(kind="entropy", space=FULL2)
    assert _log_q(s, (1, 2, 1), 0.7) == pytest.approx(-3 * 0.7)
    h = CStructure(kind="hausdorff", space=FULL2)
    assert _log_q(h, (1, 2), 1.0) == pytest.approx(
        math.log(FULL2.metric_tail_bound(2)))
    a = CStructure(kind="appendix", space=FULL2, window=1,
                   table={(1,): 2.0, (2,): 3.0})
    assert _log_q(a, (1, 2), 1.0) == pytest.approx(-5.0)


@pytest.mark.parametrize("space", [FULL2, GM, FULL3])
def test_sup_birkhoff_matches_continuation_scan(space):
    # words shorter than window - 1 read the best tail over the states
    # that begin with them
    rng = np.random.default_rng(11)
    for window in (1, 2, 3, 4):
        table = {w: float(rng.uniform(-1, 1))
                 for w in admissible_words(space, window)}
        s = CStructure(kind="pressure", space=space, window=window,
                       table=table)
        for l in range(1, 8):
            for u in admissible_words(space, l):
                want = scan_sup_birkhoff(s, u)
                assert abs(s.sup_birkhoff(u) - want) <= 1e-12 * max(
                    1.0, abs(want)), (window, u)


# ----------------------------------------------------------- outer measures

def brute_force_outer(s, t, depth_cap, m_blk=1):
    """Minimum cover weight over all antichain covers of depths <= depth_cap."""
    space = s.space
    levels = [l for l in range(1, depth_cap + 1) if l % m_blk == 0]
    cyls = [u for l in levels for u in admissible_words(space, l)]
    best = math.inf
    deepest = [u for u in admissible_words(space, max(levels))]
    for size in range(1, len(cyls) + 1):
        for cover in itertools.combinations(cyls, size):
            if all(any(w[:len(u)] == u for u in cover) for w in deepest):
                best = min(best, sum(q_weight(s, u, t) for u in cover))
        if best < math.inf:
            # a minimal cover of this size exists; larger covers can still be
            # cheaper only through weight cancellation, which q > 0 forbids
            # when every added cylinder has positive weight -- but subsets of
            # larger covers are covers too, so the minimum over sizes <= size
            # is already attained.  Continue one extra size for safety.
            pass
    return best


def test_entropy_outer_measure_closed_form():
    # full 2-shift, entropy kind: depth-l cover of X costs 2^l e^{-l t};
    # the infimum over l <= D is attained at l = D when t > log 2
    s = CStructure(kind="entropy", space=FULL2)
    for t in (0.3, 0.5):
        for cap in (4, 8, 12):
            expected = min((2 * math.exp(-t)) ** l for l in range(1, cap + 1))
            assert outer_measure_M(s, "X", t, cap) == pytest.approx(
                expected, rel=1e-12)


def test_outer_measure_matches_brute_force_small():
    s = CStructure(kind="hausdorff", space=GM)
    for t in (0.4, 0.9):
        got = outer_measure_M(s, "X", t, 3)
        assert got == pytest.approx(brute_force_outer(s, t, 3), rel=1e-12)


def test_block_restriction_dominates():
    s = CStructure(kind="entropy", space=GM)
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = float(rng.uniform(0.1, 1.5))
        cap = int(rng.integers(1, 4)) * 2
        m = outer_measure_M(s, "X", t, cap)
        n = outer_measure_N(s, "X", t, 2, cap)
        assert m <= n + 1e-15


def test_outer_measure_monotone_in_depth_cap():
    s = CStructure(kind="entropy", space=FULL2)
    vals = [outer_measure_M(s, "X", 0.9, cap) for cap in range(1, 9)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_outer_measure_target_additivity():
    s = CStructure(kind="entropy", space=FULL2)
    whole = outer_measure_M(s, "X", 0.5, 6)
    split = outer_measure_M(s, [(1,)], 0.5, 6) + outer_measure_M(s, [(2,)], 0.5, 6)
    assert whole <= split + 1e-15


def test_outer_measure_guards():
    s = CStructure(kind="entropy", space=FULL2)
    with pytest.raises(DepthError):
        outer_measure_N(s, "X", 0.5, 2, 3)
    with pytest.raises(InputError):
        outer_measure_N(s, "X", 0.5, 0, 2)
    with pytest.raises(DepthError):
        outer_measure_M(s, [(1, 1, 1)], 0.5, 2)


def test_outer_measure_rejects_inadmissible_targets():
    # an empty cylinder, a symbol outside 1..m, a forbidden pair
    s = CStructure(kind="entropy", space=GM)
    for target in ([(2, 2)], [(0,)], [(3, 1)], [(1,), (1, 2, 2)]):
        with pytest.raises(InputError):
            outer_measure_M(s, target, 0.5, 4)
    mu = MarkovMeasure.parry(GM)
    for z in ((2, 2), (0,), (1, 3)):
        with pytest.raises(InputError):
            restricted_outer_measure(s, z, mu, n=16, eps=0.5, t=0.5,
                                     m_blk=1, depth_cap=4, metric_depth=3)


# ------------------------------------ (depth, suffix state) recursion vs tree

def all_structures(space, rng):
    for window in (1, 2, 3):
        words = admissible_words(space, window)
        yield CStructure(kind="entropy", space=space, window=window)
        yield CStructure(kind="hausdorff", space=space, window=window)
        yield CStructure(kind="pressure", space=space, window=window,
                         table={w: float(rng.uniform(-1, 1)) for w in words})
        yield CStructure(kind="appendix", space=space, window=window,
                         table={w: float(rng.uniform(0.2, 1.5)) for w in words})


@pytest.mark.parametrize("space, max_cap", [(FULL2, 9), (GM, 9), (FULL3, 6)])
def test_suffix_recursion_matches_tree(space, max_cap):
    rng = np.random.default_rng(7)
    # whole space, one symbol, two words, and a word longer than any suffix
    # state next to a shorter one
    targets = ["X", [(1,)], admissible_words(space, 2)[-2:],
               [admissible_words(space, 4)[-1], (2,)]]
    for s in all_structures(space, rng):
        for m_blk in (1, 2, 3):
            for t in (-0.2, 0.0, 0.7, 1.4):
                for cap in range(m_blk, max_cap + 1, m_blk):
                    rec = _cover_recursion(s, t, m_blk, cap, lambda u: True)
                    for target in targets:
                        if target != "X" and max(map(len, target)) > cap:
                            continue
                        want = sum(rec(w) for w in
                                   ([()] if target == "X" else target))
                        got = outer_measure_N(s, target, t, m_blk, cap)
                        assert abs(got - want) <= 1e-12 * want, (
                            s.kind, s.window, m_blk, t, cap, target)


def test_deep_cap_entropy_closed_form():
    # far past the recursion limit of a walk down the cylinder tree
    s = CStructure(kind="entropy", space=FULL2)
    t = 0.75
    want = math.exp(1000 * math.log(2 * math.exp(-t)))
    assert abs(outer_measure_M(s, "X", t, 1000) - want) <= 1e-12 * want


def test_deep_cap_pressure_window2_does_not_underflow():
    tbl = {(1, 1): 0.1, (1, 2): -0.2, (2, 1): 0.25, (2, 2): -0.05}
    s = CStructure(kind="pressure", space=FULL2, window=2, table=tbl)
    for m_blk in (1, 2):
        shallow = outer_measure_N(s, "X", 0.8, m_blk, 1000)
        deep = outer_measure_N(s, "X", 0.8, m_blk, 2000)
        assert math.isfinite(deep) and 0 < deep <= shallow


def oracle_tree(s, t, cap, u=()):
    """The cover infimum of C(u) by cylinders of depth <= cap, down the
    cylinder tree with the per-word oracle weight."""
    kids = successors(s.space, u[-1]) if u else range(1, s.space.m + 1)
    if len(u) == cap:
        return q_weight(s, u, t)
    children = sum(oracle_tree(s, t, cap, u + (c,)) for c in kids)
    return min(q_weight(s, u, t), children) if u else children


def test_window8_outer_measure_matches_oracle_tree():
    rng = np.random.default_rng(8)
    words = admissible_words(FULL2, 8)
    for kind, lo, hi in (("pressure", -1.0, 1.0), ("appendix", 0.2, 1.5)):
        s = CStructure(kind=kind, space=FULL2, window=8,
                       table={w: float(rng.uniform(lo, hi)) for w in words})
        for t in (0.3, 1.1):
            want = oracle_tree(s, t, 5)
            got = outer_measure_M(s, "X", t, 5)
            assert abs(got - want) <= 1e-12 * want, (kind, t)


# ------------------------------------------------ one pass over a whole grid

@pytest.mark.parametrize("space", [FULL2, GM, FULL3])
def test_outer_measure_grid_equals_one_entry_oracle(space, monkeypatch):
    passes = []
    cover_pass = carath._cover_pass
    monkeypatch.setattr(carath, "_cover_pass", lambda s, entries, depths:
                        passes.append(entries) or cover_pass(s, entries,
                                                             depths))
    rng = np.random.default_rng(13)
    words = [admissible_words(space, l) for l in (1, 2, 3)]
    targets = ["X", [words[0][-1]], [words[1][0], words[2][-1], (1,)]]
    # at a cap of 40 values the passes hold 1 to 10 entries
    for s, measure_cap in itertools.product(all_structures(space, rng),
                                           (carath.MEASURE_CAP, 40)):
        monkeypatch.setattr(carath, "MEASURE_CAP", measure_cap)
        for target in targets:
            deepest = 1 if target == "X" else max(map(len, target))
            # caps from the target's depth up to 12 (cap 1 lies below the
            # window-3 span of 2), mixed m_blk, and three repeated entries
            grid = [(0.7, 1, deepest)]
            for _ in range(10):
                m_blk = int(rng.integers(1, 4))
                cap = m_blk * int(rng.integers(-(-deepest // m_blk),
                                               12 // m_blk + 1))
                grid.append((float(rng.choice([-0.4, 0.0, 0.7, 1.3])),
                             m_blk, cap))
            grid += grid[:3]
            passes.clear()
            got = outer_measures(s, target, grid)
            assert got == [one_entry_outer_measure(s, target, *e)
                           for e in grid], (s.kind, s.window, target)
            assert sorted(e for entries in passes for e in entries) == \
                sorted(set(grid))
    monkeypatch.undo()
    for s in all_structures(space, rng):
        t_grid = tuple(float(t) for t in rng.uniform(-0.5, 2.0, size=2))
        for depth in (2, 5):
            rep = check_conditions(s, depth, t_grid)
            assert (rep.q1_estimate, rep.m_of_t) == layer_conditions(
                s, depth, t_grid), (s.kind, s.window, depth)
        if s.kind == "pressure":
            for n in (1, 2, 7):
                assert pressure_partition(s, n) == layer_pressure_partition(
                    s, n)


def test_outer_measure_grid_checks_every_entry_first(monkeypatch):
    s = CStructure(kind="entropy", space=FULL2)
    assert outer_measures(s, "X", []) == []
    # any iterable of triples, read once
    assert outer_measures(s, "X", ([0.5, 1, c] for c in (2, 4))) == [
        outer_measure_M(s, "X", 0.5, c) for c in (2, 4)]
    monkeypatch.setattr(carath, "_log_cover_factors", None)   # no work
    good = [(0.5, 1, 4), (0.8, 2, 6)]
    for target, bad, error, match in (
            ("X", (math.nan, 1, 4), InputError, "t must be finite"),
            ("X", (0.5, 0, 4), InputError, "m_blk must be >= 1"),
            ("X", (0.5, 2, 5), DepthError, "positive multiple of m_blk"),
            ([(1, 2, 1)], (0.5, 1, 2), DepthError, "deeper than depth_cap"),
            ([(1, 0)], (0.5, 1, 2), InputError, "outside alphabet")):
        for grid in (good + [bad], [bad] + good):
            with pytest.raises(error, match=match):
                outer_measures(s, target, grid)


def test_outer_measure_rejects_malformed_targets():
    # each a typed error before any work, never a bare ValueError from
    # max() or int(), nor a fractional symbol read as its integer part
    s = CStructure(kind="entropy", space=FULL2)
    for target in ([], "Y", [(1, 2.5)], [(1,), ()], [(True,)], ["12"],
                   [1, 2], [[(1,), (2, 1)]], 5, None):
        with pytest.raises(InputError, match="target must be 'X' or a "
                                             "nonempty list of nonempty"):
            outer_measures(s, target, [(0.5, 1, 4)])
    # integer symbols of any integer type are read as ints
    assert outer_measures(s, [np.array([1, 2], dtype=np.int16)],
                          [(0.5, 1, 4)]) == outer_measures(
        s, [(1, 2)], [(0.5, 1, 4)])


# ---------------------------------------------------------------- pressure

def test_pressure_partition_zero_potential_is_entropy_rate():
    s = CStructure(kind="pressure", space=GM, window=1,
                   table=const_table(GM, 1, 0.0))
    h = topological_entropy(GM)
    for n in (8, 16, 24):
        assert abs(pressure_partition(s, n) - h) <= 2.0 / n


def test_pressure_partition_window_paths_agree():
    # a window-2 table that only depends on the first symbol must reproduce
    # the window-1 transfer recursion
    t1 = {(1,): 0.3, (2,): -0.2}
    t2 = {w: t1[(w[0],)] for w in admissible_words(GM, 2)}
    s1 = CStructure(kind="pressure", space=GM, window=1, table=t1)
    s2 = CStructure(kind="pressure", space=GM, window=2, table=t2)
    for n in (6, 10, 2000):
        assert pressure_partition(s1, n) == pytest.approx(
            pressure_partition(s2, n), abs=1e-9)


def test_pressure_partition_window1_deep_closed_form():
    # on the full 2-shift Z_n = (e^a + e^b)^n exactly
    a, b = 0.3, -0.7
    s = CStructure(kind="pressure", space=FULL2, window=1,
                   table={(1,): a, (2,): b})
    want = math.log(math.exp(a) + math.exp(b))
    assert abs(pressure_partition(s, 1000) - want) <= 1e-14


def brute_force_partition(space, table, window, n):
    """(1/n) log sum over n-words u of exp(max Birkhoff sum over the
    admissible (n + window - 1)-words that start with u)."""
    best = {}
    for w in itertools.product(range(1, space.m + 1), repeat=n + window - 1):
        if all(space.allows(a, b) for a, b in zip(w, w[1:])):
            total = sum(table[w[i:i + window]] for i in range(n))
            best[w[:n]] = max(best.get(w[:n], -math.inf), total)
    return math.log(math.fsum(math.exp(v) for v in best.values())) / n


@pytest.mark.parametrize("space, max_n", [(FULL2, 10), (GM, 10), (FULL3, 6)])
def test_pressure_partition_window3_brute_force(space, max_n):
    rng = np.random.default_rng(3)
    table = {w: float(rng.uniform(-1, 1)) for w in admissible_words(space, 3)}
    s = CStructure(kind="pressure", space=space, window=3, table=table)
    for n in range(1, max_n + 1):
        want = brute_force_partition(space, table, 3, n)
        assert abs(pressure_partition(s, n) - want) <= 1e-13 * abs(want), n


def pressure_structure(space, table, window=1):
    return CStructure(kind="pressure", space=space, window=window,
                      table=table)


def appendix_structure(space, table, window=1):
    return CStructure(kind="appendix", space=space, window=window,
                      table=table)


def test_pressure_exact_log_p_is_zero():
    # phi(i) = log p_i for a probability vector: the transfer matrix is
    # stochastic, so the pressure vanishes
    for p in ([0.5, 0.5], [0.2, 0.8], [0.1, 0.3, 0.6]):
        space = FULL2 if len(p) == 2 else FULL3
        table = {(i + 1,): math.log(pi) for i, pi in enumerate(p)}
        assert pressure_exact(pressure_structure(space, table)) == \
            pytest.approx(0.0, abs=1e-10)


def test_pressure_exact_zero_potential_is_entropy():
    s = pressure_structure(GM, const_table(GM, 1, 0.0))
    assert pressure_exact(s) == pytest.approx(topological_entropy(GM),
                                              abs=1e-10)


def test_pressure_exact_constant_shift():
    base = pressure_exact(pressure_structure(FULL2, const_table(FULL2, 1, 0.0)))
    shifted = pressure_exact(pressure_structure(FULL2,
                                                const_table(FULL2, 1, 0.7)))
    assert shifted == pytest.approx(base + 0.7, abs=1e-10)


@pytest.mark.parametrize("space", [FULL2, GM, FULL3],
                         ids=["full2", "gm", "full3"])
def test_transfer_on_suffix_states_matches_window_shift(space):
    # random tables at windows 1-4: the (window - 1)-block transfer matrix
    # of the structure against the window shift on the admissible windows
    rng = np.random.default_rng(space.m + int(space.transition.sum()))
    for window in range(1, 5):
        words = admissible_words(space, window)
        for _ in range(3):
            phi = dict(zip(words, rng.uniform(-1.0, 1.0, len(words))))
            want = window_shift_pressure(space, phi, window)
            got = pressure_exact(pressure_structure(space, phi, window))
            assert abs(got - want) <= 1e-12 * abs(want), (window, got, want)
        u = dict(zip(words, rng.uniform(0.2, 1.2, len(words))))
        want = window_shift_bowen_root(space, u, window, 1e-12)
        got = bowen_dimension(appendix_structure(space, u, window), tol=1e-12)
        assert abs(got - want) <= 1e-9, (window, got, want)


def test_pressure_exact_full3_window7_between_entropy_bounds():
    # 729 steady states; h_top + min phi <= P(phi) <= h_top + max phi
    words = admissible_words(FULL3, 7)
    phi = dict(zip(words, np.random.default_rng(7).uniform(-1.0, 1.0,
                                                           len(words))))
    p = pressure_exact(pressure_structure(FULL3, phi, 7))
    h = math.log(3)
    assert h + min(phi.values()) <= p <= h + max(phi.values())


def test_log_radius_matches_scipy_perron_oracle(monkeypatch):
    # at 243 and 729 transfer states numpy's eigenvalue may move in its last
    # bits against scipy.linalg.eig's, by at most 1e-13 relative
    matrices = []

    def spy(a):
        matrices.append(a)
        return perron(a)

    perron = carath.perron
    monkeypatch.setattr(carath, "perron", spy)
    rng = np.random.default_rng(13)
    for window, scale in ((6, 1.0), (7, 1.0), (6, -0.7)):
        words = admissible_words(FULL3, window)
        s = pressure_structure(FULL3, dict(zip(
            words, rng.uniform(-1.0, 1.0, len(words)))), window)
        got = carath._log_radius(s, scale)
        assert matrices[-1].shape == (3 ** (window - 1),) * 2
        want = math.log(scipy_perron(matrices[-1])[0])
        assert abs(got - want) <= 1e-13 * abs(want), (window, got, want)


def test_exact_pressure_and_root_need_their_kind():
    table = const_table(FULL2, 1, 1.0)
    with pytest.raises(InputError):
        pressure_exact(appendix_structure(FULL2, table))
    with pytest.raises(InputError):
        bowen_dimension(pressure_structure(FULL2, table))
    with pytest.raises(InputError):
        bowen_dimension(CStructure(kind="entropy", space=FULL2))


# -------------------------------------------------------------------- Bowen

def test_bowen_constant_potential_oracle():
    # u == log beta: the root of P(-s u) = 0 is h_top / log beta
    h = topological_entropy(GM)
    for beta in (2.0, 3.0):
        s = appendix_structure(GM, const_table(GM, 1, math.log(beta)))
        assert bowen_dimension(s) == pytest.approx(h / math.log(beta),
                                                   abs=1e-7)


def test_bowen_unit_potential_is_entropy():
    h = topological_entropy(FULL3)
    s = appendix_structure(FULL3, const_table(FULL3, 1, 1.0))
    assert bowen_dimension(s) == pytest.approx(h, abs=1e-7)


def test_bowen_window2_coboundary_oracle():
    # u(a, b) = c + g(b) - g(a): Birkhoff sums telescope to n c + O(1), so
    # P(-s u) = h - s c and the root is h / c
    g = {1: 0.0, 2: 0.3}
    h = topological_entropy(GM)
    for c in (0.5, 1.0, 2.0):
        table = {(a, b): c + g[b] - g[a] for a, b in admissible_words(GM, 2)}
        assert min(table.values()) > 0
        s = appendix_structure(GM, table, window=2)
        assert abs(bowen_dimension(s) - h / c) <= 1e-9


def test_bowen_rejects_nonpositive_potential():
    with pytest.raises(InputError):
        bowen_dimension(appendix_structure(FULL2, {(1,): 1.0, (2,): -1.0}))


def test_bowen_solves_each_bracket_end_once(monkeypatch):
    # Brent's method evaluates p(0) and p(hi) itself, so no point is solved
    # twice; a separate p(hi) > 0 check cost one more Perron solve
    words = admissible_words(FULL3, 3)
    u3 = dict(zip(words, np.random.default_rng(3).uniform(0.2, 1.2,
                                                           len(words))))
    cases = ((appendix_structure(GM, const_table(GM, 1, 1.0)), 3),
             (appendix_structure(FULL3, u3, window=3), 8))
    solve = carath._log_radius
    for s, want in cases:
        points = []
        monkeypatch.setattr(carath, "_log_radius",
                            lambda st, scale: points.append(scale)
                            or solve(st, scale))
        root = bowen_dimension(s)
        assert len(points) == len(set(points)) == want
        assert abs(solve(s, -root)) <= 1e-6
    # a bracket that fails is an InvariantError, not scipy's ValueError
    monkeypatch.setattr(carath, "_log_radius", lambda st, scale: 1.0)
    with pytest.raises(InvariantError, match="root bracket failed"):
        bowen_dimension(cases[0][0])


# --------------------------------------------------------------- conditions

def test_conditions_entropy_structure_is_multiplicative():
    s = CStructure(kind="entropy", space=FULL2)
    rep = check_conditions(s, depth=6, t_grid=(0.4, 0.8))
    # q(uv) == q(u) q(v) exactly for the entropy weights on a full shift
    assert rep.q3_estimate == pytest.approx(1.0, abs=1e-12)
    assert rep.c1_pass and rep.c2_pass and rep.c3_pass and rep.c4_pass


def conditions_per_word(s, depth, t_grid):
    """Q1 and m_of_t from one outer measure per probe word."""
    probe = min(depth, 4)
    q1 = min(outer_measure_M(s, [u], t, probe + 2) / math.exp(_log_q(s, u, t))
             for u in admissible_words(s.space, probe) for t in t_grid)
    for m_blk in range(1, 9):
        ok = True
        for l in range(1, probe + 1):
            first = -(-l // m_blk) * m_blk
            for u in admissible_words(s.space, l):
                for t in t_grid:
                    full = outer_measure_N(s, [u], t, m_blk, first + m_blk)
                    shallow = outer_measure_N(s, [u], t, m_blk, first)
                    ok = ok and full >= 0.5 * shallow and full > 0
        if ok:
            return q1, m_blk
    return q1, -1


@pytest.mark.parametrize("space", [FULL2, GM, FULL3])
def test_conditions_probes_match_per_word_definitions(space):
    rng = np.random.default_rng(4)
    for s in all_structures(space, rng):
        for depth in (2, 4):
            t_grid = tuple(float(t) for t in rng.uniform(-0.5, 2.0, size=2))
            rep = check_conditions(s, depth, t_grid)
            q1, m_of_t = conditions_per_word(s, depth, t_grid)
            assert abs(rep.q1_estimate - q1) <= 1e-12 * q1, (s.kind, s.window)
            assert rep.m_of_t == m_of_t, (s.kind, s.window, depth, t_grid)
            assert rep.c1_pass == (q1 > 0) and rep.c2_pass == (m_of_t > 0)


def pair_scan_q3(s, t_grid):
    """Worst two-sided ratio of q(uv) and q(u) q(v) over the concatenable
    pairs with |u| + |v| <= 2 max(window - 1, 1), from the oracle weights."""
    span = max(s.window - 1, 1)
    worst = 0.0
    for lu in range(1, 2 * span):
        for u in admissible_words(s.space, lu):
            for lv in range(1, 2 * span - lu + 1):
                for v in admissible_words(s.space, lv):
                    if s.space.allows(u[-1], v[0]):
                        for t in t_grid:
                            worst = max(worst, abs(
                                math.log(q_weight(s, u + v, t))
                                - math.log(q_weight(s, u, t))
                                - math.log(q_weight(s, v, t))))
    return math.exp(worst)


def edge_scan_c4(s):
    """eta nonincreasing along every tree edge out of the words of length
    1..max(window - 1, 1), which end in every suffix state."""
    return all(eta(s, u + (c,)) <= eta(s, u) * (1 + 1e-12)
               for l in range(1, max(s.window - 1, 1) + 1)
               for u in admissible_words(s.space, l)
               for c in successors(s.space, u[-1]))


@pytest.mark.parametrize("space", [FULL2, GM, FULL3])
def test_conditions_q3_and_c4_match_scans(space):
    rng = np.random.default_rng(5)
    # the window-2 appendix potential drops from 5 on the edge 11 to 0.1
    # on 12, so eta grows along the edge 1 -> 12 and C4 fails
    steep = {w: (5.0 if w == (1, 1) else 0.1)
             for w in admissible_words(space, 2)}
    # window 4 (span 3, so the v-side steps read states two symbols back)
    # on the 2-symbol spaces, where the pair scan stays small
    wide = [CStructure(kind=kind, space=space, window=4,
                       table={w: float(rng.uniform(lo, hi))
                              for w in admissible_words(space, 4)})
            for kind, lo, hi in (("pressure", -1.0, 1.0),
                                 ("appendix", 0.2, 1.5)) if space.m == 2]
    for s in [*all_structures(space, rng), *wide,
              CStructure(kind="appendix", space=space, window=2,
                         table=steep)]:
        t_grid = tuple(float(t) for t in rng.uniform(-0.5, 2.0, size=2))
        rep = check_conditions(s, 2, t_grid)
        want = pair_scan_q3(s, t_grid)
        assert abs(rep.q3_estimate - want) <= 1e-12 * want, (s.kind, s.window)
        assert rep.c4_pass == edge_scan_c4(s), (s.kind, s.window)
    assert not rep.c4_pass


def test_conditions_hausdorff_eta_monotone():
    s = CStructure(kind="hausdorff", space=GM)
    rep = check_conditions(s, depth=5, t_grid=(0.5,))
    assert rep.c4_pass
    with pytest.raises(InputError):
        check_conditions(s, depth=1, t_grid=(0.5,))


def test_conditions_reject_empty_t_grid():
    # an empty grid used to pass C1-C4 with Q1 = inf
    with pytest.raises(InputError, match="t_grid"):
        check_conditions(CStructure(kind="entropy", space=GM), depth=5,
                         t_grid=())


# ----------------------------------------------------- restricted measures

def test_restricted_measure_bounded_by_unrestricted():
    s = CStructure(kind="entropy", space=FULL2)
    mu = MarkovMeasure.bernoulli([0.5, 0.5], FULL2)
    t, cap = 0.6, 4
    full = outer_measure_N(s, "X", t, 2, cap)
    restricted = restricted_outer_measure(s, (), mu, n=64, eps=0.5, t=t,
                                          m_blk=2, depth_cap=cap,
                                          metric_depth=3)
    assert restricted <= full + 1e-15
    # eps = 0 empties the tracked set entirely
    assert restricted_outer_measure(s, (), mu, n=64, eps=0.0, t=t,
                                    m_blk=2, depth_cap=cap,
                                    metric_depth=3) == 0.0


def test_restricted_measure_matches_tree():
    # the layered sweep against the tree walk with the same membership test:
    # both add a word's children left to right, so they agree exactly
    n, depth, t, cap = 16, 3, 0.7, 4
    gm_table = {w: float(v) for w, v in zip(
        admissible_words(GM, 2), np.random.default_rng(5).uniform(0.2, 1.2, 3))}
    for s, mu in ((CStructure(kind="entropy", space=FULL2),
                   MarkovMeasure.bernoulli([0.5, 0.5], FULL2)),
                  (CStructure(kind="pressure", space=GM, window=2,
                              table=gm_table), MarkovMeasure.parry(GM))):
        space = s.space
        proxy = truncation_proxy((mu,), (1.0,), depth)
        dist = {}

        def w1(u):
            if u not in dist:
                y = representatives(u, space, n + depth - 1)
                dist[u], _ = wasserstein1(
                    empirical_snapshots(y, [n], depth, space)[0], proxy,
                    depth, space)
            return dist[u]

        for z in ((), (1,), (1, 2)):
            for m_blk in (1, 2):
                for eps in (0.0, 0.15, 0.4):
                    want = _cover_recursion(s, t, m_blk, cap,
                                            lambda u: w1(u) < eps)(z)
                    got = restricted_outer_measure(s, z, mu, n=n, eps=eps, t=t,
                                                   m_blk=m_blk, depth_cap=cap,
                                                   metric_depth=depth)
                    assert got == want, (s.kind, z, m_blk, eps)
        # eps = 0.15 splits the words into tracked and untracked ones
        assert min(dist.values()) < 0.15 < max(dist.values())


def test_restricted_layer_masses_and_decisions_match_per_word():
    # one period per word against the materialised representative: the
    # golden mean's words ending in 2 and starting with 2 take a connector,
    # n = 1 and 7 are shorter than some periods, most periods do not divide
    # n, and n = 4097 counts each node many times over
    depth = 3
    for space in (FULL2, GM, FULL3):
        proxy = truncation_proxy((MarkovMeasure.parry(space),), (1.0,), depth)
        for l in (1, 2, 3, 5):
            words = np.array(admissible_words(space, l), dtype=np.int16)
            for n in (1, 7, 64, 1000, 4097):
                counts = _layer_counts(words, n, depth, space)
                mass = count_masses(counts, n)
                emps = [empirical_snapshots(
                            representatives(u, space, n + depth - 1), [n],
                            depth, space)[0]
                        for u in map(tuple, words.tolist())]
                for row, emp in zip(mass, emps):
                    assert np.array_equal(row, emp.mass), (space.m, l, n)
                for eps in (0.1, 0.3):
                    got = _tracking(counts, proxy, n, eps, depth, space)
                    want = [w1_below(emp.mass[None], proxy, eps, depth,
                                     space)[0] for emp in emps]
                    assert got.tolist() == want, (space.m, l, n, eps)


def test_restricted_measure_lp_solves_regression(monkeypatch):
    # FULL2, Parry, z = (1,), n = 64, eps = 0.15, metric depth 4: the values
    # are pinned bit for bit.  The plan bound and the rows distinct across
    # every probe layer leave 17, 44 and 142 rows open, which block LPs of
    # 9 rows solve in 2, 5 and 11 `linprog` calls, each block's potentials
    # settling queued rows (2, 5 and 16 calls without them, 20, 53 and 155
    # one row a call, 73, 222 and 934 one word at a time with the
    # prefix-tree bound alone)
    solves = []
    linprog = measures.linprog

    def spy(*args, **kwargs):
        solves.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(measures, "linprog", spy)
    s = CStructure(kind="entropy", space=FULL2)
    mu = MarkovMeasure.parry(FULL2)
    for cap, want, most in ((8, 0.601047565423747, 3),
                            (10, 0.6744872582380383, 6),
                            (12, 0.7054893006329133, 12)):
        solves.clear()
        got = restricted_outer_measure(s, (1,), mu, n=64, eps=0.15, t=0.6,
                                       m_blk=1, depth_cap=cap, metric_depth=4)
        assert got == want, cap
        assert len(solves) <= most, (cap, len(solves))


def test_restricted_measure_caps_probes_before_any_solve(monkeypatch):
    # FULL2 below z = () to depth 3 has 2 + 4 + 8 = 14 probes
    s = CStructure(kind="entropy", space=FULL2)
    mu = MarkovMeasure.bernoulli([0.5, 0.5], FULL2)

    def no_solve(*args):
        raise AssertionError("W1 solved before the probe count was checked")

    # every W1 entry point carath imports, the layer masses and decisions,
    # and the row-wise bounds and exact solve behind them in measures
    for mod in (carath, measures):
        for name in ("w1_below", "w1_bounds", "wasserstein1", "_tracking",
                     "_layer_counts", "periodic_counts", "count_masses",
                     "_tree_bounds", "_plan_bound"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, no_solve)
    monkeypatch.setattr(carath, "SURVIVOR_CAP", 13)
    with pytest.raises(SizeError):
        restricted_outer_measure(s, (), mu, n=16, eps=0.5, t=0.5, m_blk=1,
                                 depth_cap=3, metric_depth=3)
    monkeypatch.setattr(carath, "SURVIVOR_CAP", 14)
    assert restricted_outer_measure(s, (), mu, n=16, eps=0.0, t=0.5, m_blk=1,
                                    depth_cap=3, metric_depth=3) == 0.0


def test_restricted_measure_chunks_span_layers(monkeypatch):
    # every probe layer is decided before the infimum, in chunks of at most
    # MEASURE_CAP // m^depth probes; a cap of 5 rows splits the chunks
    # inside layers and across them, and the value stays bit for bit
    depth = 3
    for space, z, m_blk in ((FULL2, (), 1), (FULL2, (2,), 2), (GM, (1,), 1)):
        s = CStructure(kind="entropy", space=space)
        mu = MarkovMeasure.parry(space)
        probe = dict(n=24, eps=0.2, t=0.6, m_blk=m_blk, depth_cap=6,
                     metric_depth=depth)
        want = restricted_outer_measure(s, z, mu, **probe)
        # some probes track mu and some do not
        assert want != restricted_outer_measure(s, z, mu,
                                                **{**probe, "eps": 10.0})
        sizes = []

        def spy(counts, *args):
            sizes.append(counts.shape)
            return _tracking(counts, *args)

        with monkeypatch.context() as mp:
            mp.setattr(carath, "MEASURE_CAP", 5 * space.m ** depth)
            mp.setattr(carath, "_tracking", spy)
            got = restricted_outer_measure(s, z, mu, **probe)
        assert got == want, (space.m, z, m_blk)
        probes = sum(u[:len(z)] == z for l in range(max(len(z), 1), 7)
                     if l % m_blk == 0 for u in admissible_words(space, l))
        assert [rows for rows, _ in sizes] == \
            [5] * (probes // 5) + [probes % 5] * (probes % 5 > 0)
        assert all(cols == space.m ** depth for _, cols in sizes)


def test_restricted_measure_guards():
    s = CStructure(kind="entropy", space=FULL2)
    mu = MarkovMeasure.bernoulli([0.5, 0.5], FULL2)
    with pytest.raises(InputError):
        restricted_outer_measure(s, (), mu, n=16, eps=-0.1, t=0.5,
                                 m_blk=1, depth_cap=2, metric_depth=3)
    with pytest.raises(DepthError):
        restricted_outer_measure(s, (1, 1, 1), mu, n=16, eps=0.5, t=0.5,
                                 m_blk=1, depth_cap=2, metric_depth=3)
    # no windows: at eps = 0, which probes nothing, this returned 0.0
    with pytest.raises(InputError, match="n must be"):
        restricted_outer_measure(s, (), mu, n=0, eps=0.0, t=0.5,
                                 m_blk=1, depth_cap=2, metric_depth=3)


def test_restricted_measure_rejects_fractional_and_bool_words():
    # z = (1.9,) was read as (1,) by int(), and True as 1
    s = CStructure(kind="entropy", space=FULL2)
    mu = MarkovMeasure.bernoulli([0.5, 0.5], FULL2)
    for z in ((1.9,), (True,), (1, 2.5)):
        with pytest.raises(InputError, match="not an integer") as err:
            restricted_outer_measure(s, z, mu, n=64, eps=0.15, t=0.8,
                                     m_blk=1, depth_cap=5, metric_depth=4)
        assert err.value.operation == "restricted_outer_measure"
    assert restricted_outer_measure(s, (1.0,), mu, n=64, eps=0.15, t=0.8,
                                    m_blk=1, depth_cap=5, metric_depth=4) == \
        restricted_outer_measure(s, (1,), mu, n=64, eps=0.15, t=0.8,
                                 m_blk=1, depth_cap=5, metric_depth=4)


def test_restricted_measure_rejects_measure_on_another_space():
    # the proxy was built on the structure's space: a FULL3 Bernoulli became
    # a law on the FULL2 words, a FULL2 one the uniform law on the golden
    # mean's words
    for space, mu in ((FULL2, MarkovMeasure.bernoulli([0.2, 0.3, 0.5], FULL3)),
                      (GM, MarkovMeasure.bernoulli([0.5, 0.5], FULL2))):
        s = CStructure(kind="entropy", space=space)
        with pytest.raises(InputError, match="another space"):
            restricted_outer_measure(s, (), mu, n=16, eps=0.5, t=0.5,
                                     m_blk=1, depth_cap=2, metric_depth=3)


@pytest.mark.parametrize("m_blk", [0, -1])
def test_restricted_measure_rejects_block_size_below_one(m_blk):
    # m_blk 0 divided by zero and m_blk -1 made every depth a block depth
    s = CStructure(kind="entropy", space=FULL2)
    mu = MarkovMeasure.bernoulli([0.5, 0.5], FULL2)
    with pytest.raises(InputError, match="m_blk"):
        restricted_outer_measure(s, (), mu, n=16, eps=0.5, t=0.8,
                                 m_blk=m_blk, depth_cap=2, metric_depth=3)


def test_outer_measures_reject_nan_and_infinite_inputs():
    # at these inputs the restricted measure returned 0.0 for eps = nan and
    # nan for t = nan, and N returned nan
    s = CStructure(kind="entropy", space=FULL2)
    mu = MarkovMeasure.bernoulli([0.5, 0.5], FULL2)
    probe = dict(n=16, m_blk=1, depth_cap=4, metric_depth=3)
    for eps, t in ((math.nan, 0.5), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(InputError):
            restricted_outer_measure(s, (1,), mu, eps=eps, t=t, **probe)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError, match="t must be finite"):
            outer_measure_N(s, "X", t, 1, 4)
        with pytest.raises(InputError, match="t must be finite"):
            check_conditions(s, 2, [0.5, t])


def test_structure_rejects_non_finite_potential():
    for value in (math.nan, math.inf):
        with pytest.raises(InputError, match="finite"):
            CStructure(kind="pressure", space=FULL2,
                       table={(1,): 0.0, (2,): value})
