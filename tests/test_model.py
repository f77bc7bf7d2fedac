from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from precsched.laminar import pad_to_power_of_two
from precsched.model import (
    BadMachineCount,
    CycleError,
    Schedule,
    Violation,
    _chain_depths,
    _mask,
    build_instance,
    longest_chain,
    longest_chain_path,
    predecessors,
    reverse,
    validate_schedule,
)
from precsched.oracle import optimal_makespan

from helpers import (
    _ref_longest_chain,
    close_pairs,
    cover_pairs,
    pairs,
    ref_chain_depths,
    stored_cover,
)

DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_build_closes_chain():
    inst = build_instance(3, 1, [(0, 1), (1, 2)])
    assert pairs(inst) == frozenset({(0, 1), (1, 2), (0, 2)})


def test_build_diamond_closure_matches_reference():
    inst = build_instance(4, 2, DIAMOND)
    assert pairs(inst) == close_pairs(4, DIAMOND)
    assert (0, 3) in pairs(inst)


def test_closure_is_idempotent_on_diamond():
    once = build_instance(4, 2, DIAMOND)
    twice = build_instance(4, 2, sorted(pairs(once)))
    assert once == twice


def test_duplicate_edges_collapse():
    inst = build_instance(2, 1, [(0, 1), (0, 1)])
    assert pairs(inst) == frozenset({(0, 1)})


def test_empty_instance_is_legal():
    inst = build_instance(0, 3, [])
    assert inst.n == 0
    report = validate_schedule(inst, Schedule({}, 0))
    assert report.feasible and report.complete and report.makespan == 0


def test_self_loop_is_a_cycle():
    with pytest.raises(CycleError):
        build_instance(2, 1, [(1, 1)])


def test_two_cycle_rejected():
    with pytest.raises(CycleError):
        build_instance(3, 1, [(0, 1), (1, 0)])


def test_cycle_error_lists_the_stuck_jobs():
    # 1 and 2 form the cycle and 3 waits behind it; 0 and 4 get ordered.
    with pytest.raises(CycleError, match=r"cycle through jobs \[1, 2, 3\]$"):
        build_instance(5, 1, [(0, 1), (1, 2), (2, 1), (2, 3), (0, 4)])


def test_bad_endpoint_raises_index_error():
    with pytest.raises(IndexError):
        build_instance(2, 1, [(0, 2)])
    with pytest.raises(IndexError):
        build_instance(2, 1, [(-1, 0)])


def test_bad_machine_count():
    with pytest.raises(BadMachineCount):
        build_instance(2, 0, [])


def test_adjacency_queries():
    inst = build_instance(4, 2, DIAMOND)
    assert predecessors(inst, 3) == frozenset({0, 1, 2})
    assert inst.succ_masks[0] == 0b1110
    assert predecessors(inst, 0) == frozenset()
    with pytest.raises(IndexError):
        predecessors(inst, 4)


def test_validate_flags_each_violation_kind():
    inst = build_instance(3, 1, [(0, 1)])
    sched = Schedule({0: 0, 1: 0, 2: 0, 9: 1}, 1)
    report = validate_schedule(inst, sched)
    kinds = {v.kind for v in report.violations}
    assert kinds == {"capacity", "precedence", "unknown-job"}
    assert not report.feasible

    late = Schedule({0: 0, 1: 5, 2: 1}, 2)
    report = validate_schedule(inst, late)
    assert {v.kind for v in report.violations} == {"horizon"}


def test_validate_partial_schedule():
    inst = build_instance(3, 2, [(0, 1)])
    report = validate_schedule(inst, Schedule({0: 0}, 2))
    assert report.feasible and not report.complete
    assert report.makespan == 1


def test_validate_good_schedule():
    inst = build_instance(4, 2, DIAMOND)
    report = validate_schedule(inst, Schedule({0: 0, 1: 1, 2: 1, 3: 2}, 3))
    assert report.feasible and report.complete and report.makespan == 3


def _chains_by_enumeration(n, closed, subset):
    # Longest totally ordered subset, checked directly against the closure.
    best = 0
    members = sorted(subset)
    import itertools

    for r in range(1, len(members) + 1):
        for combo in itertools.combinations(members, r):
            ok = all(
                (a, b) in closed or (b, a) in closed
                for a, b in itertools.combinations(combo, 2)
            )
            if ok:
                best = max(best, r)
    return best


def test_longest_chain_diamond():
    inst = build_instance(4, 2, DIAMOND)
    expect = _chains_by_enumeration(4, pairs(inst), range(4))
    assert expect == 3
    assert longest_chain(inst) == 3
    assert len(longest_chain_path(inst, _mask({1, 2}))) == 1
    assert longest_chain_path(inst, _mask({0, 1, 3})) == [0, 1, 3]
    assert longest_chain_path(inst, 0) == []
    # A bit at or above n names no job.
    with pytest.raises(IndexError):
        longest_chain_path(inst, _mask({0, 4}))
    with pytest.raises(IndexError):
        _chain_depths(inst, 1 << 7)


@st.composite
def _edge_sets(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), max_size=12) if pairs else st.just([]))
    return n, picks


@settings(max_examples=60, deadline=None)
@given(_edge_sets())
def test_closure_matches_reference_and_is_idempotent(case):
    n, edges = case
    inst = build_instance(n, 2, edges)
    assert pairs(inst) == close_pairs(n, edges)
    again = build_instance(n, 2, sorted(pairs(inst)))
    assert pairs(again) == pairs(inst)


@settings(max_examples=40, deadline=None)
@given(_edge_sets(max_n=6), st.randoms(use_true_random=False))
def test_longest_chain_agrees_with_enumeration(case, rng):
    n, edges = case
    inst = build_instance(n, 2, edges)
    subset = {j for j in range(n) if rng.random() < 0.7}
    assert longest_chain(inst) == _chains_by_enumeration(n, pairs(inst), range(n))
    path = longest_chain_path(inst, _mask(subset))
    assert path == _ref_longest_chain(inst, subset)
    assert len(path) == _chains_by_enumeration(n, pairs(inst), subset)
    assert all((u, v) in pairs(inst) for u, v in zip(path, path[1:]))


@settings(max_examples=200, deadline=None)
@given(_edge_sets(), st.randoms(use_true_random=False))
def test_precedence_violations_match_a_scan_of_all_pairs(case, rng):
    n, edges = case
    inst = build_instance(n, 2, edges)
    horizon = rng.randint(1, n + 1)
    # Some jobs unscheduled, some unknown, some slots outside the horizon.
    start = {j: rng.randint(-1, horizon) for j in range(-1, n + 2) if rng.random() < 0.8}
    report = validate_schedule(inst, Schedule(start, horizon))
    want = [
        Violation("precedence", (u, v))
        for u, v in sorted(pairs(inst))
        if u in start and v in start and start[u] + 1 > start[v]
    ]
    assert [v for v in report.violations if v.kind == "precedence"] == want


@st.composite
def _relabelled_dags(draw, max_n=14):
    """A random DAG on n jobs whose topological order is a random permutation."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    perm = draw(st.permutations(range(n)))
    cells = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    m = draw(st.integers(min_value=1, max_value=4))
    return build_instance(n, m, [c for c, on in zip(cells, picked) if on])


def _assert_chain_table_matches(inst, subset):
    got = _chain_depths(inst, (1 << inst.n) - 1 if subset is None else _mask(subset))
    want, _ = ref_chain_depths(inst, subset)
    assert list(got.items()) == list(want.items())


@settings(max_examples=150, deadline=None)
@given(_relabelled_dags(), st.randoms(use_true_random=False))
def test_chain_table_matches_the_every_successor_walk(inst, rng):
    # Values and insertion order both: the skip drops only memo hits. The
    # padded instances are dummy-heavy, where most successors are skipped.
    bound = max(ref_chain_depths(inst, None)[0].values(), default=0)
    cases = [inst] + [pad_to_power_of_two(inst, T)[0] for T in range(max(bound, 1), bound + 6)]
    for case in cases:
        _assert_chain_table_matches(case, None)
        _assert_chain_table_matches(case, {j for j in range(case.n) if rng.random() < 0.6})


@st.composite
def _redundant_edge_lists(draw, max_n=12):
    """(n, edges): a relabelled DAG's edges plus closure pairs and duplicates, shuffled."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    perm = draw(st.permutations(range(n)))
    cells = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    edges = [c for c, on in zip(cells, picked) if on]
    closed = sorted(close_pairs(n, edges))
    if closed:
        edges += draw(st.lists(st.sampled_from(closed), max_size=2 * len(closed)))
    return n, draw(st.permutations(edges))


@settings(max_examples=200, deadline=None)
@given(_redundant_edge_lists())
def test_cover_masks_are_the_transitive_reduction(case):
    n, edges = case
    inst = build_instance(n, 2, edges)
    assert pairs(inst) == close_pairs(n, edges)
    assert stored_cover(inst) == cover_pairs(pairs(inst))
    # The cover is a function of the relation, whatever edge list made it.
    assert build_instance(n, 2, sorted(stored_cover(inst))) == inst


@settings(max_examples=150, deadline=None)
@given(_redundant_edge_lists(), st.integers(min_value=1, max_value=4))
def test_reverse_is_the_instance_of_the_reversed_edges(case, m):
    n, edges = case
    inst = build_instance(n, m, edges)
    back = reverse(inst)
    # Equality compares all three mask tuples, the cover included.
    assert back == build_instance(n, m, [(v, u) for u, v in edges])
    assert reverse(back) == inst


@settings(max_examples=100, deadline=None)
@given(_relabelled_dags(max_n=12))
def test_chain_and_optimum_are_invariant_under_reversal(inst):
    # Slot t of a schedule becomes slot T - 1 - t of the reversed one.
    back = reverse(inst)
    assert longest_chain(back) == longest_chain(inst)
    assert optimal_makespan(back) == optimal_makespan(inst)
