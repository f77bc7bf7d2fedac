"""Laminar family construction, padding, windows, and level assignment."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from precsched.laminar import (
    BadEps,
    BadHorizon,
    EmptyWindow,
    assign_levels,
    best_offset,
    build_laminar,
    chain_threshold,
    check_eps,
    default_depth_max,
    feasible_window,
    pad_to_power_of_two,
    analysis_depth_limit,
)
from precsched.generators import GeneratorSpec, generate
from precsched.model import Schedule, build_instance
from precsched.oracle import EXACT_CAP, optimal_makespan, optimal_schedule

from helpers import pairs, ref_assign_levels


def test_family_sixteen_jobs_eps_one():
    fam = build_laminar(16, 16, 1)
    assert fam.rho == 2
    assert fam.level_lengths == (16, 4, 1)
    assert fam.level_count() == 3
    assert fam.deepest == 2
    root = (0, 16)
    assert [len(fam.cells(root, level)) for level in range(3)] == [1, 4, 16]
    assert fam.cells(root, 1) == [(0, 4), (4, 8), (8, 12), (12, 16)]
    assert fam.cells(root, 2) == [(t, t + 1) for t in range(16)]
    assert fam.level_of((4, 8)) == 1
    for outside in ((5, 9), (16, 20), (-4, 0), (0, 32)):
        with pytest.raises(KeyError):
            fam.level_of(outside)
    with pytest.raises(KeyError):
        fam.cells((4, 8), 0)
    with pytest.raises(KeyError):
        fam.cells(root, 3)


def test_family_halving_eps_deepens_the_split():
    fam = build_laminar(16, 16, Fraction(1, 2))
    assert fam.rho == 3
    assert fam.level_lengths == (16, 2, 1)


def test_family_unit_horizon_is_a_single_leaf():
    fam = build_laminar(1, 2, 1)
    assert fam.level_lengths == (1,)
    assert fam.deepest == 0
    assert fam.cells((0, 1), 0) == [(0, 1)]
    with pytest.raises(KeyError):
        fam.cells((0, 1), 1)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=2, max_value=64),
    st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3)]),
)
def test_family_levels_are_laminar(log_t, n, eps):
    T = 1 << log_t
    fam = build_laminar(T, n, eps)
    root = (0, T)
    assert fam.level_of(root) == 0
    prev = [root]
    for level in range(fam.level_count()):
        row = fam.cells(root, level)
        # The level's cells partition [0, T) and all sit at that level.
        assert row[0][0] == 0 and row[-1][1] == T
        assert all(a[1] == b[0] for a, b in zip(row, row[1:]))
        assert all(fam.level_of(cell) == level for cell in row)
        if level:
            for cell in row:
                parents = [p for p in prev if p[0] <= cell[0] and cell[1] <= p[1]]
                assert len(parents) == 1
                assert cell in fam.cells(parents[0], level)
        prev = row


def test_family_rejects_bad_inputs():
    with pytest.raises(BadHorizon):
        build_laminar(12, 8, 1)
    with pytest.raises(BadHorizon):
        build_laminar(0, 8, 1)
    with pytest.raises(ValueError):
        build_laminar(8, 1, 1)
    for eps in (0, 2, -1, Fraction(3, 2)):
        with pytest.raises(BadEps):
            check_eps(eps)


def test_padding_five_chain_on_three_machines():
    inst = build_instance(5, 3, [(i, i + 1) for i in range(4)])
    padded, tstar = pad_to_power_of_two(inst, 5)
    assert tstar == 8
    assert padded.n == 14 and padded.m == 3
    # Dummies 5..13 form three chains of three; originals precede them all.
    assert (0, 13) in pairs(padded) and (4, 5) in pairs(padded)
    assert (5, 6) in pairs(padded) and (5, 7) in pairs(padded)
    assert (5, 8) not in pairs(padded) and (8, 11) not in pairs(padded)
    assert optimal_makespan(padded) == 8


def test_padding_a_loose_horizon_overshoots_downward():
    # T above the true optimum: dummies finish before the power of two.
    inst = build_instance(5, 3, [(i, i + 1) for i in range(4)])
    padded, tstar = pad_to_power_of_two(inst, 6)
    assert tstar == 8
    assert optimal_makespan(padded) == 7


def test_padding_noop_when_already_a_power_of_two():
    inst = build_instance(4, 2, [(0, 1)])
    padded, tstar = pad_to_power_of_two(inst, 4)
    assert padded is inst and tstar == 4


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=9),
    st.randoms(use_true_random=False),
)
def test_padding_matches_closing_the_padded_edge_list(n, m, T, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    inst = build_instance(n, m, edges)
    padded, tstar = pad_to_power_of_two(inst, T)
    extra = tstar - T
    total = n + m * extra
    padded_edges = list(edges)
    for c in range(m):
        base = n + c * extra
        padded_edges += [(base + i, base + i + 1) for i in range(extra - 1)]
    padded_edges += [(u, d) for u in range(n) for d in range(n, total)]
    want = build_instance(total, m, padded_edges)
    assert tstar >= T and tstar & (tstar - 1) == 0
    assert padded == want
    assert padded.pred_masks == want.pred_masks
    assert padded.succ_masks == want.succ_masks


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=2), st.randoms(use_true_random=False))
def test_padding_lands_exactly_on_the_power_of_two(n, m, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    inst = build_instance(n, m, edges)
    opt = optimal_makespan(inst)
    padded, tstar = pad_to_power_of_two(inst, opt)
    assert optimal_makespan(padded) == tstar


def test_feasible_window_between_pinned_neighbors():
    inst = build_instance(3, 1, [(0, 1), (1, 2)])
    assert feasible_window(inst, 1, {0: 0, 2: 5}, 16) == (1, 5)
    assert feasible_window(inst, 1, {}, 16) == (0, 16)
    assert feasible_window(inst, 0, {2: 9}, 16) == (0, 9)
    with pytest.raises(EmptyWindow):
        feasible_window(inst, 1, {0: 3, 2: 3}, 16)


def test_assign_levels_sixteen_chain_guesses_everything():
    inst = build_instance(16, 1, [(i, i + 1) for i in range(15)])
    opt = Schedule({j: j for j in range(16)}, 16)
    fam = build_laminar(16, 16, 1)
    assign = assign_levels(inst, opt, fam, 1)
    assert assign.guess[0] == {(0, 16): frozenset({0, 3, 4, 7, 8, 11, 12, 15})}
    assert assign.guess[1] == {
        (0, 4): frozenset({1, 2}),
        (4, 8): frozenset({5, 6}),
        (8, 12): frozenset({9, 10}),
        (12, 16): frozenset({13, 14}),
    }
    assert assign.top == {}
    assert assign.memberships(0) == [("guess", 0, (0, 16))]
    assert assign.memberships(13) == [("guess", 1, (12, 16))]


def test_assign_levels_squeezed_jobs_become_leaf_tops():
    # A four-chain forces slots 0..3; jobs 4 and 5 are squeezed to width-one
    # windows by the level-0 pins, so they surface as tops at the leaves.
    edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 2), (1, 5), (5, 3)]
    inst = build_instance(6, 2, edges)
    opt = optimal_schedule(inst)
    assert opt.start == {0: 0, 1: 1, 2: 2, 3: 3, 4: 1, 5: 2}
    fam = build_laminar(4, 6, 1)
    assert fam.level_lengths == (4, 1)
    assign = assign_levels(inst, opt, fam, 1)
    assert assign.guess == {0: {(0, 4): frozenset({0, 1, 2, 3})}}
    assert assign.top == {1: {(1, 2): frozenset({4}), (2, 3): frozenset({5})}}
    assert assign.memberships(4) == [("top", 1, (1, 2))]
    assert best_offset(assign, 2, 1) == (1, 0)
    assert best_offset(assign, 1, 1) == (0, 2)


def test_best_offset_requires_integer_stride():
    inst = build_instance(2, 1, [(0, 1)])
    fam = build_laminar(2, 2, 1)
    assign = assign_levels(inst, Schedule({0: 0, 1: 1}, 2), fam, 1)
    with pytest.raises(BadEps):
        best_offset(assign, 1, Fraction(2, 3))


def test_chain_threshold_is_exact():
    assert chain_threshold(16, 16, 1, 1) == Fraction(4)
    assert chain_threshold(16, 16, 4, 1) == Fraction(1)
    assert chain_threshold(4, 6, 2, 1) == Fraction(1, 2)
    assert chain_threshold(5, 16, 3, Fraction(1, 3)) == Fraction(5, 36)


def test_analysis_parameter_helpers():
    assert default_depth_max(16, 1, 1) == 5
    assert default_depth_max(16, 4, 1) == 2
    assert analysis_depth_limit(16, 1, 1) == 3
    assert analysis_depth_limit(65536, 2, 1) == 3
    assert analysis_depth_limit(2, 1, 1) == 1


@st.composite
def _assignment_cases(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    m = draw(st.integers(min_value=1, max_value=2))
    eps = draw(st.sampled_from([Fraction(1), Fraction(1, 2)]))
    return n, picked, m, eps


@settings(max_examples=40, deadline=None)
@given(_assignment_cases())
def test_assignment_partitions_jobs_once_each(case):
    n, edges, m, eps = case
    inst = build_instance(n, m, edges)
    opt_len = optimal_makespan(inst)
    padded, tstar = pad_to_power_of_two(inst, opt_len)
    opt = optimal_schedule(padded)
    fam = build_laminar(tstar, padded.n, eps)
    assign = assign_levels(padded, opt, fam, eps)

    for j in range(padded.n):
        entries = assign.memberships(j)
        assert len(entries) == 1, f"job {j} sorted {len(entries)} times"
        kind, level, (lo, hi) = entries[0]
        # The optimal slot always sits inside the owning interval.
        assert lo <= opt.start[j] < hi

    a, count = best_offset(assign, m, eps)
    stride = int(Fraction(m) / Fraction(eps))
    assert 0 <= a < stride
    manual = sum(
        len(assign.top_at_level(level))
        for level in range(a + 1, fam.level_count(), stride)
    )
    assert count == manual
    # The smallest bucket is a lower bound on all of them.
    for b in range(stride):
        other = sum(
            len(assign.top_at_level(level))
            for level in range(b + 1, fam.level_count(), stride)
        )
        assert other >= count


@st.composite
def _generated(draw):
    """A random_order or layered instance with 2 <= n <= 10."""
    n = draw(st.integers(min_value=2, max_value=10))
    m = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    edge_prob = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    if draw(st.booleans()):
        return generate(GeneratorSpec("random_order", n, m, seed=seed, edge_prob=edge_prob))
    layers = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    return generate(
        GeneratorSpec("layered", n, m, seed=seed, layers=layers, width=n // layers, edge_prob=edge_prob)
    )


@settings(max_examples=60, deadline=None)
@given(_generated(), st.sampled_from([Fraction(1), Fraction(1, 2)]))
def test_assign_levels_matches_the_per_pin_reference(inst, eps):
    padded, tstar = pad_to_power_of_two(inst, optimal_makespan(inst))
    # Long chains at m = 3 pad past the oracle's cap.
    assume(padded.n <= EXACT_CAP)
    opt = optimal_schedule(padded)
    fam = build_laminar(tstar, padded.n, eps)
    assign = assign_levels(padded, opt, fam, eps)
    assert (assign.guess, assign.top) == ref_assign_levels(padded, opt, fam, eps)
