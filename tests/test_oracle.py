import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from precsched import oracle
from precsched.baselines import coffman_graham_schedule, list_schedule
from precsched.generators import GeneratorSpec, generate
from precsched.laminar import pad_to_power_of_two
from precsched.model import Schedule, build_instance, longest_chain, validate_schedule
from precsched.oracle import (
    TooLarge,
    _height_bound,
    _step_tables,
    _steps,
    certified_optimum,
    known_optimum,
    lower_bound,
    optimal_makespan,
    optimal_schedule,
)
from precsched.qptas import solve_laminar

from helpers import brute_force_makespan, enumerate_poset_classes, pairs

DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_diamond_m2():
    inst = build_instance(4, 2, DIAMOND)
    assert brute_force_makespan(4, 2, DIAMOND) == 3
    assert optimal_makespan(inst) == 3
    sched = optimal_schedule(inst)
    assert sched.start == {0: 0, 1: 1, 2: 1, 3: 2}
    report = validate_schedule(inst, sched)
    assert report.feasible and report.complete and report.makespan == 3


def test_chain_and_antichain_hit_lower_bounds():
    for n, m in [(1, 1), (4, 2), (6, 3)]:
        chain = build_instance(n, m, [(i, i + 1) for i in range(n - 1)])
        assert optimal_makespan(chain) == n == longest_chain(chain)
        anti = build_instance(n, m, [])
        assert optimal_makespan(anti) == math.ceil(n / m)


def test_empty_instance():
    inst = build_instance(0, 2, [])
    assert optimal_makespan(inst) == 0
    assert optimal_schedule(inst).start == {}


def test_matches_brute_force_on_all_small_posets():
    # The n <= 6 sweep runs in the acceptance suite; n <= 5 here keeps this fast.
    for n in range(0, 6):
        for closed in enumerate_poset_classes(n):
            for m in (1, 2, 3):
                inst = build_instance(n, m, closed)
                assert optimal_makespan(inst) == brute_force_makespan(n, m, closed)


def test_schedule_is_optimal_feasible_deterministic():
    for n in (4, 5):
        for closed in enumerate_poset_classes(n):
            inst = build_instance(n, 2, closed)
            sched = optimal_schedule(inst)
            again = optimal_schedule(inst)
            assert sched.start == again.start
            report = validate_schedule(inst, sched)
            assert report.feasible and report.complete
            assert report.makespan == optimal_makespan(inst) == sched.horizon


def test_too_large_and_cap_override():
    inst = build_instance(25, 3, [])
    with pytest.raises(TooLarge):
        optimal_makespan(inst)
    assert optimal_makespan(inst, cap=25) == 9


def test_makespan_never_below_lower_bounds():
    for n in (5,):
        for closed in enumerate_poset_classes(n):
            for m in (1, 2):
                inst = build_instance(n, m, closed)
                opt = optimal_makespan(inst)
                assert opt >= max(math.ceil(n / m), longest_chain(inst))


@st.composite
def _dags(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True))
    return n, picked


@settings(max_examples=50, deadline=None)
@given(_dags(), st.integers(min_value=1, max_value=3))
def test_adding_an_edge_never_helps(case, m):
    n, edges = case
    inst = build_instance(n, m, edges)
    base = optimal_makespan(inst)
    missing = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if (i, j) not in pairs(inst)
    ]
    if missing:
        bigger = build_instance(n, m, edges + [missing[0]])
        assert optimal_makespan(bigger) >= base


# The oracle as it stood when steps were sorted job tuples: a recursive
# enumeration per class, and a lexicographic sort of the steps on the
# forward pass. No cap.


def _reference_class_of(inst):
    by_mask, class_of = {}, []
    for j in range(inst.n):
        class_of.append(by_mask.setdefault(inst.succ_masks[j], len(by_mask)))
    return class_of


def _reference_moves(inst, class_of, state):
    avail = [
        j
        for j in range(inst.n)
        if not state >> j & 1 and inst.pred_masks[j] & state == inst.pred_masks[j]
    ]
    take = min(inst.m, len(avail))
    if take == 0:
        return []
    groups, index = [], {}
    for j in avail:
        if class_of[j] in index:
            groups[index[class_of[j]]].append(j)
        else:
            index[class_of[j]] = len(groups)
            groups.append([j])
    suffix = [0] * (len(groups) + 1)
    for i in range(len(groups) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + len(groups[i])
    moves = []

    def rec(i, left, chosen):
        if left == 0:
            moves.append(tuple(sorted(chosen)))
            return
        if i == len(groups):
            return
        for c in range(min(len(groups[i]), left), max(0, left - suffix[i + 1]) - 1, -1):
            rec(i + 1, left - c, chosen + groups[i][:c])

    rec(0, take, [])
    return moves


def _reference_mask(jobs):
    return sum(1 << j for j in jobs)


def _reference_makespan(inst):
    if inst.n == 0:
        return 0
    full, class_of = (1 << inst.n) - 1, _reference_class_of(inst)
    dist, frontier = {0: 0}, [0]
    while frontier:
        nxt = []
        for state in frontier:
            for mv in _reference_moves(inst, class_of, state):
                s2 = state | _reference_mask(mv)
                if s2 == full:
                    return dist[state] + 1
                if s2 not in dist:
                    dist[s2] = dist[state] + 1
                    nxt.append(s2)
        frontier = nxt
    raise AssertionError("full state unreachable")


def _reference_schedule(inst):
    if inst.n == 0:
        return Schedule(start={}, horizon=0)
    full, class_of = (1 << inst.n) - 1, _reference_class_of(inst)
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for state in frontier:
            if state == full:
                continue
            for mv in _reference_moves(inst, class_of, state):
                s2 = state | _reference_mask(mv)
                if s2 not in seen:
                    seen.add(s2)
                    nxt.append(s2)
        frontier = nxt
    to_goal = {}
    for state in sorted(seen, key=lambda s: -bin(s).count("1")):
        if state == full:
            to_goal[state] = 0
            continue
        moves = _reference_moves(inst, class_of, state)
        to_goal[state] = min(to_goal[state | _reference_mask(mv)] for mv in moves) + 1
    start, state, t = {}, 0, 0
    while state != full:
        for mv in sorted(_reference_moves(inst, class_of, state)):
            if to_goal[state | _reference_mask(mv)] == to_goal[state] - 1:
                break
        for j in mv:
            start[j] = t
        state |= _reference_mask(mv)
        t += 1
    return Schedule(start=start, horizon=t)


@st.composite
def _relabelled_dags(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)) if pairs else []
    label = draw(st.permutations(range(n)))
    m = draw(st.integers(min_value=1, max_value=4))
    return build_instance(n, m, [(label[u], label[v]) for u, v in picked])


@settings(max_examples=80, deadline=None)
@given(_relabelled_dags())
def test_bitmask_steps_match_the_tuple_reference(inst):
    want = _reference_makespan(inst)
    cases = [inst]
    if inst.n:
        cases.append(pad_to_power_of_two(inst, want)[0])
    for case in cases:
        cap = max(case.n, 1)
        assert optimal_makespan(case, cap=cap) == _reference_makespan(case)
        got, ref = optimal_schedule(case, cap=cap), _reference_schedule(case)
        assert got.start == ref.start
        assert got.horizon == ref.horizon


@st.composite
def _nearly_full_layered(draw):
    """A full layered order, relabelled, with up to `width` edges between
    consecutive layers dropped. The width w = q*m + r leaves a remainder r
    with 1 <= r <= m(L-1)/L. With no edge dropped, every job of a layer
    precedes every job of the next, so the optimum is L*(q + 1), and every
    height term of the bound, L - i + i*q + ceil(i*r/m) for the last i
    layers, falls short of it; dropping a few edges mostly keeps that gap."""
    layers = draw(st.integers(min_value=2, max_value=3))
    m = draw(st.integers(min_value=2, max_value=4))
    q = draw(st.integers(min_value=1, max_value=2))
    r = draw(st.integers(min_value=1, max_value=m * (layers - 1) // layers))
    width = q * m + r
    n = layers * width
    edges = [(u, v) for u in range(n - width) for v in range(u - u % width + width,
                                                             u - u % width + 2 * width)]
    dropped = draw(st.sets(st.sampled_from(edges), max_size=width))
    label = draw(st.permutations(range(n)))
    return build_instance(n, m, [(label[u], label[v]) for u, v in edges if (u, v) not in dropped])


@settings(max_examples=60, deadline=None)
@given(_nearly_full_layered())
# The 2x5 full layered order at m = 4: bound 3, optimum 4, and no baseline
# meets the bound (test_complete_bipartite_at_m4_has_no_certificate).
@example(generate(GeneratorSpec("layered", 10, 4, layers=2, width=5, edge_prob=1.0)))
# Bound 4, optimum 5, and the first optimal path runs through states the
# pass at 4 backed out of: a need entry one step too large loses it.
@example(generate(GeneratorSpec("layered", 12, 3, seed=359672275, layers=3, width=4,
                                edge_prob=0.9)))
def test_the_search_deepens_past_the_bound_to_the_reference_optimum(inst):
    # Each pass below the optimum fails and leaves its need entries for the
    # next, so the pass that succeeds starts from them.
    want = _reference_schedule(inst)
    assume(lower_bound(inst) < want.horizon)
    assert _reference_makespan(inst) == want.horizon
    assert optimal_makespan(inst, cap=inst.n) == want.horizon
    got = optimal_schedule(inst, cap=inst.n)
    assert (got.start, got.horizon) == (want.start, want.horizon)


@st.composite
def _step_cases(draw):
    """Relabelled DAGs on 1..20 jobs, so one to three byte tables, the last
    often partial. In half of them only the first few ids have successors:
    the rest are sinks, which share successor mask 0 and make one large
    class."""
    n = draw(st.integers(min_value=1, max_value=20))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)) if pairs else []
    if draw(st.booleans()):
        sources = draw(st.integers(min_value=1, max_value=max(1, n // 3)))
        picked = [(u, v) for u, v in picked if u < sources]
    label = draw(st.permutations(range(n)))
    m = draw(st.integers(min_value=1, max_value=4))
    return build_instance(n, m, [(label[u], label[v]) for u, v in picked])


def _assert_steps_match_the_reference(inst):
    # Every state reachable from the empty ideal by _steps, found by a BFS
    # of its own, so the search's pruning leaves no state unchecked.
    tables = _step_tables(inst)
    class_of = _reference_class_of(inst)
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for state in frontier:
            got = _steps(inst, tables, state, inst.m)
            assert len(set(got)) == len(got)
            want = {_reference_mask(mv) for mv in _reference_moves(inst, class_of, state)}
            assert set(got) == want
            for step in got:
                if state | step not in seen:
                    seen.add(state | step)
                    nxt.append(state | step)
        frontier = nxt


@settings(max_examples=150, deadline=None)
@given(_step_cases())
def test_steps_match_the_reference_moves_in_every_reached_state(inst):
    _assert_steps_match_the_reference(inst)


def test_every_table_entry_is_the_or_of_its_jobs_successors():
    # Each of the first n // 2 jobs precedes one sink of its own, so no set
    # of other jobs covers its successors: an entry that drops any job's
    # successors differs from the OR. The relabelling mixes jobs and sinks
    # within each chunk.
    for n in range(1, 33):
        label = list(range(n))
        random.Random(n).shuffle(label)
        inst = build_instance(n, 2, [(label[i], label[i + n // 2]) for i in range(n // 2)])
        chunks, _ = _step_tables(inst)
        assert [base for base, _ in chunks] == list(range(0, n, 8))
        for base, table in chunks:
            assert len(table) == 1 << min(8, n - base)
            for b, blocked in enumerate(table):
                want = 0
                for i in range(8):
                    if b >> i & 1:
                        want |= inst.succ_masks[base + i]
                assert blocked == want


def _relabelled(inst, seed):
    label = list(range(inst.n))
    random.Random(seed).shuffle(label)
    edges = [(label[u], label[v]) for u in range(inst.n) for v in range(inst.n)
             if inst.succ_masks[u] >> v & 1]
    return build_instance(inst.n, inst.m, edges)


_FOUR_TABLE_SPECS = [
    GeneratorSpec("chain", 25, 2),
    GeneratorSpec("antichain", 29, 3),
    GeneratorSpec("antichain", 32, 4),
    GeneratorSpec("layered", 30, 2, seed=1, layers=15, width=2, edge_prob=0.5),
    GeneratorSpec("layered", 27, 3, seed=2, layers=9, width=3, edge_prob=0.6),
    GeneratorSpec("layered", 32, 4, seed=3, layers=8, width=4, edge_prob=0.7),
]


@pytest.mark.parametrize("spec", _FOUR_TABLE_SPECS, ids=lambda spec: f"{spec.kind}-{spec.n}")
def test_four_tables_match_the_reference_above_the_cap(spec):
    inst = generate(spec)
    for case in (inst, _relabelled(inst, spec.n)):
        _assert_steps_match_the_reference(case)
        assert optimal_makespan(case, cap=case.n) == _reference_makespan(case)
        got, ref = optimal_schedule(case, cap=case.n), _reference_schedule(case)
        assert (got.start, got.horizon) == (ref.start, ref.horizon)


@settings(max_examples=150, deadline=None)
@given(_relabelled_dags())
def test_lower_bound_and_certificate_against_the_search(inst):
    opt = optimal_makespan(inst, cap=inst.n)
    bound = lower_bound(inst)
    assert max(-(-inst.n // inst.m), longest_chain(inst)) <= bound <= opt
    sched = certified_optimum(inst)
    if sched is not None:
        report = validate_schedule(inst, sched)
        assert report.complete and report.feasible
        assert sched.makespan() == sched.horizon == opt
    assert known_optimum(inst) == opt


@settings(max_examples=150, deadline=None)
@given(_relabelled_dags().filter(lambda inst: inst.m <= 2))
# Bound 3 (chain 3, ceil(5/2) = 3), optimum 4: only Coffman-Graham's
# optimality at m = 2 certifies it.
@example(build_instance(5, 2, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]))
def test_certificate_never_fails_at_two_machines_or_fewer(inst):
    sched = certified_optimum(inst)
    assert sched is not None
    report = validate_schedule(inst, sched)
    assert report.complete and report.feasible
    assert sched.makespan() == optimal_makespan(inst, cap=inst.n)


def test_out_star_is_certified_by_the_reversed_bound():
    inst = build_instance(4, 2, [(0, 1), (0, 2), (0, 3)])
    # Forward, only job 0 has height 2; reversed, jobs 1..3 all do.
    assert _height_bound(inst) == 2
    assert lower_bound(inst) == 3 == optimal_makespan(inst)
    assert certified_optimum(inst).makespan() == 3


def test_complete_bipartite_at_m4_has_no_certificate():
    inst = build_instance(10, 4, [(u, v) for u in range(5) for v in range(5, 10)])
    assert lower_bound(inst) == 3
    assert certified_optimum(inst) is None
    assert optimal_makespan(inst) == 4
    assert known_optimum(inst) == 4


def test_known_optimum_is_none_above_the_cap(monkeypatch):
    # Above EXACT_CAP neither the certificate nor the search runs, though
    # list scheduling would certify these 25 edgeless jobs.
    for name in ("certified_optimum", "optimal_makespan"):
        monkeypatch.setattr(oracle, name, lambda *a: pytest.fail("the oracle ran above the cap"))
    assert known_optimum(build_instance(25, 3, [])) is None


def test_empty_instance_bound_and_certificate():
    inst = build_instance(0, 3, [])
    assert lower_bound(inst) == 0
    assert certified_optimum(inst) == Schedule(start={}, horizon=0)


def test_lower_bound_takes_a_huge_machine_count():
    inst = build_instance(3, 10**5000, [(0, 1)])
    assert lower_bound(inst) == 2
    assert certified_optimum(inst).makespan() == 2


@st.composite
def _large_dags(draw):
    """Relabelled DAGs on up to 60 jobs, well above EXACT_CAP."""
    n = draw(st.integers(min_value=1, max_value=60))
    ids = st.integers(min_value=0, max_value=n - 1)
    drawn = draw(st.lists(st.tuples(ids, ids), max_size=2 * n))
    label = draw(st.permutations(range(n)))
    m = draw(st.integers(min_value=1, max_value=5))
    return build_instance(n, m, [(label[min(e)], label[max(e)]) for e in drawn if e[0] != e[1]])


@settings(max_examples=60, deadline=None)
@given(_large_dags(), st.sampled_from([1, Fraction(1, 2)]))
def test_no_solver_beats_the_lower_bound_at_any_size(inst, eps):
    bound = lower_bound(inst)
    laminar, _, _ = solve_laminar(inst, bound, eps)
    for sched in (list_schedule(inst, range(inst.n)), coffman_graham_schedule(inst), laminar):
        report = validate_schedule(inst, sched)
        assert report.feasible and report.complete
        assert report.makespan >= bound
