"""Laminar family construction, padding, windows, and level assignment."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from precsched import laminar
from precsched.baselines import coffman_graham_schedule, list_schedule
from precsched.laminar import (
    DUMMY_MAX,
    BadEps,
    BadHorizon,
    EmptyWindow,
    assign_levels,
    best_offset,
    build_laminar,
    chain_threshold,
    check_eps,
    feasible_window,
    pad_schedule,
    pad_to_power_of_two,
    pad_with_family,
    analysis_depth_limit,
)
from precsched.generators import GeneratorSpec, generate
from precsched.model import Schedule, _bits, build_instance
from precsched.oracle import EXACT_CAP, optimal_makespan, optimal_schedule

from helpers import cover_pairs, pairs, ref_assign_levels, stored_cover


def as_sets(table):
    """A LevelAssignment table, {level: {interval: job mask}}, with frozensets for masks."""
    return {
        level: {key: frozenset(_bits(mask)) for key, mask in row.items()}
        for level, row in table.items()
    }


def memberships(assign, j):
    """(kind, level, interval) of every guess or top set of assign holding job j."""
    return [
        (kind, level, key)
        for kind, table in (("guess", assign.guess), ("top", assign.top))
        for level, row in table.items()
        for key, mask in row.items()
        if mask >> j & 1
    ]


def test_family_sixteen_jobs_eps_one():
    fam = build_laminar(16, 16, 1, 1)
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
    fam = build_laminar(16, 16, 1, Fraction(1, 2))
    assert fam.rho == 3
    assert fam.level_lengths == (16, 2, 1)


def test_family_unit_horizon_is_a_single_leaf():
    fam = build_laminar(1, 2, 1, 1)
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
    fam = build_laminar(T, n, 1, eps)
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
        build_laminar(12, 8, 1, 1)
    with pytest.raises(BadHorizon):
        build_laminar(0, 8, 1, 1)
    with pytest.raises(ValueError):
        build_laminar(8, 1, 1, 1)
    for eps in (0, 2, -1, Fraction(3, 2)):
        with pytest.raises(BadEps):
            check_eps(eps)
        with pytest.raises(BadEps):
            build_laminar(8, 8, 1, eps)
    # eps is checked first, then m/eps, then T, then n and rho.
    with pytest.raises(BadEps, match="eps must be in"):
        build_laminar(12, 1, 3, 2)
    with pytest.raises(BadEps, match="m/eps must be a positive integer, got m = 2, eps = 3/4"):
        build_laminar(12, 1, 2, Fraction(3, 4))
    with pytest.raises(BadHorizon):
        build_laminar(12, 1, 3, Fraction(3, 4))
    with pytest.raises(ValueError, match="at least 2 jobs"):
        build_laminar(8, 1, 3, Fraction(1, 10**400))
    with pytest.raises(BadEps, match="too small"):
        build_laminar(8, 2, 3, Fraction(1, 10**400))


def test_family_carries_its_checked_parameters():
    fam = build_laminar(16, 16, 3, "1/2")
    assert (fam.T, fam.n, fam.m, fam.eps, fam.stride) == (16, 16, 3, Fraction(1, 2), 6)
    assert type(fam.eps) is Fraction
    assert build_laminar(4, 3, 2, 1).stride == 2


def test_padding_five_chain_on_three_machines():
    inst = build_instance(5, 3, [(i, i + 1) for i in range(4)])
    padded, tstar = pad_to_power_of_two(inst, 5)
    assert tstar == 8
    assert padded.n == 14 and padded.m == 3
    # Dummies 5..13 form three chains of three; originals precede them all.
    assert (0, 13) in pairs(padded) and (4, 5) in pairs(padded)
    assert (5, 6) in pairs(padded) and (5, 7) in pairs(padded)
    assert (5, 8) not in pairs(padded) and (8, 11) not in pairs(padded)
    # The cover: the chain 0..4, its sink 4 to each dummy chain's head, the links.
    heads = [(4, 5), (4, 8), (4, 11)]
    links = [(5, 6), (6, 7), (8, 9), (9, 10), (11, 12), (12, 13)]
    assert stored_cover(padded) == {(i, i + 1) for i in range(4)} | set(heads + links)
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
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=1, max_value=3),
    st.randoms(use_true_random=False),
)
def test_padding_matches_closing_the_padded_edge_list(n, m, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    inst = build_instance(n, m, edges)
    # Every T from 1 to n + 2: a no-op at powers of two, dummies elsewhere.
    for T in range(1, 10):
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
        assert stored_cover(padded) == cover_pairs(pairs(padded)), T


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=2), st.randoms(use_true_random=False))
def test_padding_lands_exactly_on_the_power_of_two(n, m, rng):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
    inst = build_instance(n, m, edges)
    opt = optimal_makespan(inst)
    padded, tstar = pad_to_power_of_two(inst, opt)
    assert optimal_makespan(padded) == tstar


def test_pad_with_family_is_the_padding_and_its_family():
    inst = build_instance(3, 2, [(0, 1), (1, 2)])
    for T in range(1, 10):
        padded, fam = pad_with_family(inst, T, Fraction(1, 2))
        want, tstar = pad_to_power_of_two(inst, T)
        assert padded == want
        assert fam == build_laminar(tstar, padded.n, 2, Fraction(1, 2))


def _no_padding(inst, T):
    raise AssertionError("pad_to_power_of_two ran before the checks")


@pytest.mark.parametrize("eps", [Fraction(3, 4), Fraction(1, 10**400), 2],
                         ids=["ragged-stride", "float-zero", "above-1"])
def test_pad_with_family_checks_eps_before_any_dummy(monkeypatch, eps):
    # The 3-chain at T = 3 pads to T* = 4 with one dummy per machine.
    monkeypatch.setattr(laminar, "pad_to_power_of_two", _no_padding)
    with pytest.raises(BadEps):
        pad_with_family(build_instance(3, 2, [(0, 1), (1, 2)]), 3, eps)


def test_pad_with_family_refuses_dummies_past_the_bound(monkeypatch):
    chain = [(0, 1), (1, 2)]
    monkeypatch.setattr(laminar, "pad_to_power_of_two", _no_padding)
    # At T = 3 each of the m machines takes one dummy, and the message
    # never prints m, which may have more digits than Python prints.
    for m in (DUMMY_MAX + 1, 10**4298):
        with pytest.raises(BadHorizon, match=(
            f"^padding horizon 3 to 4 takes m \\* 1 dummy jobs, over the {DUMMY_MAX} allowed$"
        )):
            pad_with_family(build_instance(3, m, chain), 3, 1)
    # DUMMY_MAX dummies themselves are allowed; a stand-in pads them.
    calls = []
    monkeypatch.setattr(laminar, "pad_to_power_of_two", lambda inst, T: calls.append(T) or (inst, 4))
    pad_with_family(build_instance(3, DUMMY_MAX, chain), 3, 1)
    assert calls == [3]


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
    fam = build_laminar(16, 16, 1, 1)
    assign = assign_levels(inst, opt, fam)
    guess = as_sets(assign.guess)
    assert guess[0] == {(0, 16): frozenset({0, 3, 4, 7, 8, 11, 12, 15})}
    assert guess[1] == {
        (0, 4): frozenset({1, 2}),
        (4, 8): frozenset({5, 6}),
        (8, 12): frozenset({9, 10}),
        (12, 16): frozenset({13, 14}),
    }
    assert assign.top == {}
    assert memberships(assign, 0) == [("guess", 0, (0, 16))]
    assert memberships(assign, 13) == [("guess", 1, (12, 16))]


def test_assign_levels_squeezed_jobs_become_leaf_tops():
    # A four-chain forces slots 0..3; jobs 4 and 5 are squeezed to width-one
    # windows by the level-0 pins, so they surface as tops at the leaves.
    edges = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 2), (1, 5), (5, 3)]
    inst = build_instance(6, 2, edges)
    opt = optimal_schedule(inst)
    assert opt.start == {0: 0, 1: 1, 2: 2, 3: 3, 4: 1, 5: 2}
    fam = build_laminar(4, 6, 2, 1)
    assert fam.level_lengths == (4, 1)
    assign = assign_levels(inst, opt, fam)
    assert assign.guess == {0: {(0, 4): 0b1111}}
    assert assign.top == {1: {(1, 2): 1 << 4, (2, 3): 1 << 5}}
    assert memberships(assign, 4) == [("top", 1, (1, 2))]
    assert best_offset(assign) == (1, 0)
    # The same assignment read with stride m/eps = 1: one bucket, both tops.
    one = build_laminar(4, 6, 1, 1)
    assert one.level_lengths == fam.level_lengths
    assert best_offset(replace(assign, fam=one)) == (0, 2)


def test_best_offset_requires_integer_stride():
    # An assignment's stride is its family's, and no family has m/eps = 3/2.
    inst = build_instance(2, 1, [(0, 1)])
    fam = build_laminar(2, 2, 1, 1)
    assign = assign_levels(inst, Schedule({0: 0, 1: 1}, 2), fam)
    assert best_offset(assign) == (0, 0)
    with pytest.raises(BadEps):
        build_laminar(2, 2, 1, Fraction(2, 3))


def test_chain_threshold_is_exact():
    assert chain_threshold(build_laminar(16, 16, 1, 1), 16) == Fraction(4)
    assert chain_threshold(build_laminar(16, 16, 4, 1), 16) == Fraction(1)
    assert chain_threshold(build_laminar(4, 6, 2, 1), 4) == Fraction(1, 2)
    assert chain_threshold(build_laminar(16, 16, 3, Fraction(1, 3)), 5) == Fraction(5, 36)


def test_analysis_parameter_helpers():
    assert analysis_depth_limit(build_laminar(1, 16, 1, 1)) == 3
    assert analysis_depth_limit(build_laminar(1, 65536, 2, 1)) == 3
    assert analysis_depth_limit(build_laminar(1, 2, 1, 1)) == 1


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
    padded, fam = pad_with_family(inst, optimal_makespan(inst), eps)
    opt = optimal_schedule(padded)
    assign = assign_levels(padded, opt, fam)

    for j in range(padded.n):
        entries = memberships(assign, j)
        assert len(entries) == 1, f"job {j} sorted {len(entries)} times"
        kind, level, (lo, hi) = entries[0]
        # The optimal slot always sits inside the owning interval.
        assert lo <= opt.start[j] < hi

    a, count = best_offset(assign)
    stride = int(Fraction(m) / Fraction(eps))
    assert fam.stride == stride
    assert 0 <= a < stride
    manual = sum(
        assign.top_at_level(level).bit_count()
        for level in range(a + 1, fam.level_count(), stride)
    )
    assert count == manual
    # The smallest bucket is a lower bound on all of them.
    for b in range(stride):
        other = sum(
            assign.top_at_level(level).bit_count()
            for level in range(b + 1, fam.level_count(), stride)
        )
        assert other >= count


@st.composite
def _generated(draw, min_n=2, max_n=10, max_m=3):
    """A random_order or layered instance with min_n <= n <= max_n, m <= max_m."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
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
    padded, fam = pad_with_family(inst, optimal_makespan(inst), eps)
    # Long chains at m = 3 pad past the oracle's cap.
    assume(padded.n <= EXACT_CAP)
    opt = optimal_schedule(padded)
    assign = assign_levels(padded, opt, fam)
    assert (as_sets(assign.guess), as_sets(assign.top)) == ref_assign_levels(padded, opt, fam, eps)


@settings(max_examples=20, deadline=None)
@given(_generated(min_n=30, max_n=200, max_m=4), st.booleans(), st.sampled_from([Fraction(1), Fraction(1, 2)]))
def test_assign_levels_matches_the_per_pin_reference_beyond_the_oracle_cap(inst, cg, eps):
    # assign_levels needs a complete schedule within the horizon, not an
    # optimum, so a baseline's schedule stands in where the oracle cannot
    # reach; many chain rounds and hundreds of pins arise here.
    sched = coffman_graham_schedule(inst) if cg else list_schedule(inst, range(inst.n))
    padded, fam = pad_with_family(inst, sched.horizon, eps)
    opt = pad_schedule(inst, sched, fam.T)
    assign = assign_levels(padded, opt, fam)
    assert (as_sets(assign.guess), as_sets(assign.top)) == ref_assign_levels(padded, opt, fam, eps)
