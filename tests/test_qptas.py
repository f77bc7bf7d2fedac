"""Guess sources, classification, EDF placement, solve, and repair."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precsched import laminar
from precsched.baselines import list_schedule
from precsched.laminar import (
    BadEps,
    BadHorizon,
    EmptyWindow,
    build_laminar,
    pad_with_family,
    partition_level,
    pin_windows,
)
from precsched.model import (
    Schedule,
    _bits,
    _mask,
    build_instance,
    longest_chain,
    validate_schedule,
)
from precsched.oracle import optimal_makespan
from precsched.qptas import (
    InfeasibleHorizon,
    NoSlot,
    RecursionInput,
    TopWindow,
    _settle_unit,
    classify,
    edf_insert,
    exhaustive_guesses,
    insert_discarded,
    laminar_guesses,
    solve,
    windows_for_top,
)

from helpers import ref_classify

DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]


def test_top_window_degeneracy():
    assert not TopWindow(0, 3, 4).degenerate
    assert TopWindow(0, 4, 4).degenerate
    assert TopWindow(0, 5, 4).degenerate


def test_guess_sources_and_solve_validate_their_arguments():
    inst = build_instance(2, 1, [])
    with pytest.raises(ValueError):
        exhaustive_guesses(inst, -1)
    with pytest.raises(ValueError):
        solve(inst, 2, exhaustive_guesses(inst, 0), 0)
    with pytest.raises(BadEps):
        build_laminar(2, 2, 1, 0)
    with pytest.raises(ValueError):
        laminar_guesses(build_laminar(2, 2, 1, 1), offset=-1)


def _split(inst, jobs, pins, cells):
    """(bottom per cell, top) as job sets: pin_windows, then classify.

    Checked against ref_classify on the unpinned jobs, since pinned jobs
    leave the groups.
    """
    groups = pin_windows(inst, {(0, cells[-1][1]): _mask(jobs)}, pins)
    bottom, top = classify(groups, cells)
    got = (
        {c: frozenset(_bits(sum(g.values()))) for c, g in bottom.items()},
        frozenset(_bits(sum(top.values()))),
    )
    assert got == ref_classify(inst, set(jobs) - pins.keys(), pins, cells, {})
    return got


def test_classify_is_the_live_split():
    assert classify is laminar.classify


def test_classify_one_cell_means_all_bottom():
    inst = build_instance(3, 1, [(0, 1), (1, 2)])
    bottom, top = _split(inst, {0, 1, 2}, {}, [(0, 8)])
    assert bottom == {(0, 8): frozenset({0, 1, 2})} and top == frozenset()


def test_classify_pin_splits_a_chain():
    inst = build_instance(3, 1, [(0, 1), (1, 2)])
    bottom, top = _split(inst, {0, 1, 2}, {1: 4}, [(0, 4), (4, 8)])
    # The pinned job leaves the groups; its neighbours fall on either side.
    assert bottom == {(0, 4): frozenset({0}), (4, 8): frozenset({2})}
    assert top == frozenset()


def test_classify_unpinned_diamond_is_all_top():
    inst = build_instance(4, 2, DIAMOND)
    bottom, top = _split(inst, {0, 1, 2, 3}, {}, [(0, 2), (2, 4)])
    assert top == frozenset({0, 1, 2, 3})
    assert all(not v for v in bottom.values())


def test_classify_raises_on_squeezed_window():
    # The squeeze shows in pin_windows, before any split by cells.
    inst = build_instance(3, 1, [(0, 1), (1, 2)])
    pins = {0: 3, 2: 4}
    assert ref_classify(inst, {1}, pins, [(0, 4), (4, 8)], {}) is None
    with pytest.raises(EmptyWindow):
        _split(inst, {1}, pins, [(0, 4), (4, 8)])


def test_windows_snap_to_cell_boundaries():
    inst = build_instance(3, 1, [(0, 1), (1, 2)])
    cells = [(0, 4), (4, 8)]
    top = {(0, 8): 1 << 1}
    assert windows_for_top(inst, top, cells, {}) == [TopWindow(1, 0, 8)]
    assert windows_for_top(inst, top, cells, {0: 2}) == [TopWindow(1, 4, 8)]
    got = windows_for_top(inst, top, cells, {0: 3, 2: 4})
    assert got == [TopWindow(1, 4, 4)] and got[0].degenerate


def test_edf_places_single_job_at_release():
    inst = build_instance(1, 1, [])
    placed, disc = edf_insert(inst, [TopWindow(0, 0, 8)], {}, 0, 8)
    assert placed == {0: 0} and disc == 0


def test_edf_orders_by_deadline():
    inst = build_instance(2, 1, [])
    tops = [TopWindow(0, 0, 2), TopWindow(1, 0, 1)]
    placed, disc = edf_insert(inst, tops, {}, 0, 2)
    assert placed == {1: 0, 0: 1} and disc == 0


def test_edf_discards_at_the_deadline():
    inst = build_instance(2, 1, [])
    tops = [TopWindow(0, 0, 1), TopWindow(1, 0, 1)]
    placed, disc = edf_insert(inst, tops, {}, 0, 4)
    assert placed == {0: 0} and disc == _mask({1})
    assert _sweep_trace(tops, {}, 0, 4, placed)[1] == {1: 1}


def test_edf_respects_precedence_between_tops():
    inst = build_instance(2, 1, [(0, 1)])
    tops = [TopWindow(0, 0, 4), TopWindow(1, 0, 4)]
    placed, disc = edf_insert(inst, tops, {}, 0, 4)
    assert placed == {0: 0, 1: 1} and disc == 0


def test_edf_ignores_discarded_predecessors():
    # Slot 0 is fully occupied, so job 0 misses its unit deadline; job 1 then
    # runs free of the dropped constraint.
    inst = build_instance(2, 1, [(0, 1)])
    tops = [TopWindow(0, 0, 1), TopWindow(1, 0, 4)]
    placed, disc = edf_insert(inst, tops, {0: 1}, 0, 4)
    assert placed == {1: 1} and disc == _mask({0})
    loads, discard_time = _sweep_trace(tops, {0: 1}, 0, 4, placed)
    assert discard_time == {0: 1}
    assert loads == {0: 1, 1: 1, 2: 0, 3: 0}


def test_edf_discards_degenerates_immediately():
    inst = build_instance(1, 1, [])
    tops = [TopWindow(0, 4, 4)]
    placed, disc = edf_insert(inst, tops, {}, 0, 8)
    assert placed == {} and disc == _mask({0})
    assert _sweep_trace(tops, {}, 0, 8, placed)[1] == {0: 0}


def test_edf_places_nothing_in_an_overfull_slot():
    inst = build_instance(3, 2, [])
    tops = [TopWindow(j, 0, 1) for j in range(3)]
    placed, disc = edf_insert(inst, tops, {0: 3}, 0, 1)
    assert placed == {} and disc == _mask({0, 1, 2})
    assert _sweep_trace(tops, {0: 3}, 0, 1, placed)[0] == {0: 3}


def _assert_edf_matches_reference(inst, tops, occupancy, start, end):
    placed, disc = edf_insert(inst, tops, occupancy, start, end)
    want_placed, want_disc, _ = _reference_edf(inst, tops, occupancy, start, end)
    assert list(placed.items()) == list(want_placed.items())
    assert disc == _mask(want_disc)
    return placed, disc


def test_edf_scan_passes_ineligible_jobs_to_fill_the_slot():
    # (deadline, id) order is 0, 1, 3, 2, 4. At slot 0, job 1 is not yet
    # released and job 3 waits on job 4, so the scan passes both to reach
    # its three hits; they go at slot 1.
    inst = build_instance(5, 3, [(4, 3)])
    tops = [
        TopWindow(0, 0, 2),
        TopWindow(1, 1, 3),
        TopWindow(2, 0, 4),
        TopWindow(3, 0, 3),
        TopWindow(4, 0, 5),
    ]
    placed, disc = _assert_edf_matches_reference(inst, tops, {}, 0, 5)
    assert list(placed.items()) == [(0, 0), (2, 0), (4, 0), (1, 1), (3, 1)]
    assert disc == 0


def test_edf_places_the_first_free_hits_in_deadline_order():
    # Five eligible jobs on two machines: each slot takes the first two in
    # (deadline, id) order, and placements keep that order.
    inst = build_instance(5, 2, [])
    tops = [TopWindow(0, 0, 3), TopWindow(1, 0, 2), TopWindow(2, 0, 3), TopWindow(3, 0, 1), TopWindow(4, 0, 2)]
    placed, disc = _assert_edf_matches_reference(inst, tops, {}, 0, 3)
    assert list(placed.items()) == [(3, 0), (1, 0), (4, 1), (0, 1), (2, 2)]
    assert disc == 0


def test_edf_job_placed_at_t_blocks_its_successor_until_t_plus_one():
    # Slot 0 has room for job 0 and its successor 1, but 1 stays blocked
    # until 0 has finished; job 2 takes the second machine instead.
    inst = build_instance(3, 2, [(0, 1)])
    tops = [TopWindow(0, 0, 4), TopWindow(1, 0, 4), TopWindow(2, 0, 5)]
    placed, disc = _assert_edf_matches_reference(inst, tops, {}, 0, 4)
    assert list(placed.items()) == [(0, 0), (2, 0), (1, 1)]
    assert disc == 0


def _sweep_trace(tops, occupancy, start, end, placed):
    # (loads, discard slots) that follow from a sweep's inputs and result:
    # each slot's occupancy plus its placements, and for each unplaced top
    # start when its window is degenerate, else its deadline clamped to
    # [start, end].
    loads = {t: occupancy.get(t, 0) for t in range(start, end)}
    for t in placed.values():
        loads[t] += 1
    discard_time = {
        w.job: start if w.degenerate else min(max(w.d, start), end)
        for w in tops
        if w.job not in placed
    }
    return loads, discard_time


def _reference_edf(inst, tops, occupancy, start, end):
    # Per-predecessor eligibility scan: a predecessor in the batch blocks
    # until it is discarded or has finished. Valid for occupancies up to m;
    # the over-full slot has its own test above. Also records each slot's
    # load and each discard's slot as the sweep goes.
    window = {w.job: w for w in tops}
    order = sorted(tops, key=lambda w: (w.d, w.job))
    placed, finish, discards = {}, {}, set()
    loads, discard_time = {}, {}
    for w in order:
        if w.degenerate:
            discards.add(w.job)
            discard_time[w.job] = start

    def eligible(w, t):
        if w.r > t:
            return False
        for p in range(inst.n):
            if inst.pred_masks[w.job] >> p & 1 and p in window and p not in discards:
                if finish.get(p, end + 1) > t:
                    return False
        return True

    for t in range(start, end):
        for w in order:
            if w.job not in placed and w.job not in discards and w.d <= t:
                discards.add(w.job)
                discard_time[w.job] = t
        free = inst.m - occupancy.get(t, 0)
        ready = [w for w in order if w.job not in placed and w.job not in discards and eligible(w, t)]
        for w in ready[:free]:
            placed[w.job] = t
            finish[w.job] = t + 1
        loads[t] = inst.m - free + min(free, len(ready))
    for w in order:
        if w.job not in placed and w.job not in discards:
            discards.add(w.job)
            discard_time[w.job] = end
    return placed, discards, (loads, discard_time)


@st.composite
def _edf_cases(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=10)) if pairs else []
    m = draw(st.integers(min_value=1, max_value=3))
    start = draw(st.integers(min_value=0, max_value=3))
    end = draw(st.integers(min_value=start, max_value=start + 6))
    jobs = draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True))
    bound = st.integers(min_value=start - 1, max_value=end + 1)
    tops = [TopWindow(j, draw(bound), draw(bound)) for j in jobs]
    occ = draw(st.dictionaries(st.integers(min_value=start, max_value=end), st.integers(min_value=0, max_value=m)))
    return build_instance(n, m, edges), tops, occ, start, end


@settings(max_examples=300, deadline=None)
@given(_edf_cases())
def test_edf_matches_the_per_predecessor_reference(case):
    inst, tops, occ, start, end = case
    placed, disc = edf_insert(inst, tops, occ, start, end)
    want_placed, want_disc, want_trace = _reference_edf(inst, tops, occ, start, end)
    assert list(placed.items()) == list(want_placed.items())
    assert disc == _mask(want_disc)
    assert _sweep_trace(tops, occ, start, end, placed) == want_trace


@st.composite
def _unit_cells(draw):
    # A closed DAG relabelled off its order, a cell of its jobs at slot t
    # and the pins' load there. Half the cells take in both ends of a
    # precedence, so that eligibility inside the cell is exercised.
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)) if pairs else []
    perm = draw(st.permutations(range(n)))
    m = draw(st.integers(min_value=1, max_value=4))
    inst = build_instance(n, m, [(perm[u], perm[v]) for u, v in edges])
    cell = set(draw(st.lists(st.sampled_from(range(n)), min_size=1, unique=True)))
    if edges and draw(st.booleans()):
        u, v = draw(st.sampled_from(edges))
        cell |= {perm[u], perm[v]}
    t = draw(st.integers(min_value=0, max_value=4))
    return inst, cell, t, draw(st.integers(min_value=0, max_value=m))


@settings(max_examples=300, deadline=None)
@given(_unit_cells())
def test_unit_cell_rule_matches_edf_insert(case):
    inst, cell, t, load = case
    starts = {}
    disc = _settle_unit(inst, _mask(cell), t, inst.m - load, starts)
    tops = [TopWindow(j, t, t + 1) for j in sorted(cell)]
    placed, want_disc = edf_insert(inst, tops, {t: load}, t, t + 1)
    assert list(starts.items()) == list(placed.items())
    assert disc == want_disc


def test_enumeration_count_matches_the_forced_example():
    inst = build_instance(1, 1, [])
    rin = RecursionInput((0, 2), 1, {(0, 2): 1}, {}, 0)
    got = list(exhaustive_guesses(inst, 1)(rin))
    assert got == [
        ({0: 0}, [(0, 2)]),
        ({0: 1}, [(0, 2)]),
        ({}, [(0, 2)]),
    ]


def test_enumeration_laminar_k0_yields_one_guess():
    inst = build_instance(4, 1, [(i, i + 1) for i in range(3)])
    rin = RecursionInput((0, 4), _mask(range(4)), {(0, 4): _mask(range(4))}, {}, 0)
    got = list(laminar_guesses(build_laminar(4, 4, 1, 1))(rin))
    assert got == [({}, [(0, 2), (2, 4)])]


def test_partition_level_gives_the_cell_length_per_depth():
    fam = build_laminar(16, 16, 1, 1)
    assert fam.stride == 1

    def cell_length(depth):
        return fam.level_lengths[partition_level(fam, 0, depth)]

    assert [cell_length(d) for d in (0, 1, 5)] == [4, 1, 1]


def test_solve_exhaustive_pins_everything_first():
    inst = build_instance(4, 2, DIAMOND)
    assert optimal_makespan(inst) == 3
    res = solve(inst, 3, exhaustive_guesses(inst, 4), 1)
    assert res.discarded == frozenset()
    assert res.schedule.start == {0: 0, 1: 1, 2: 1, 3: 2}
    assert res.schedule.horizon == 3 and res.schedule.makespan() == 3
    assert res.stats.guesses_explored == 1


def test_solve_exhaustive_chain_plus_free_jobs():
    inst = build_instance(6, 2, [(3, 4), (4, 5)])
    assert optimal_makespan(inst) == 3
    res = solve(inst, 3, exhaustive_guesses(inst, 6), 1)
    assert res.discarded == frozenset()
    assert res.schedule.makespan() == 3


def test_solve_laminar_antichain_all_top():
    inst = build_instance(8, 2, [])
    res = solve(inst, 4, laminar_guesses(build_laminar(4, 8, 2, 1)), 2)
    assert res.discarded == frozenset()
    assert res.schedule.start == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3}
    assert res.stats.guesses_explored == 1


def test_solve_laminar_chain_rides_the_edf():
    inst = build_instance(4, 1, [(i, i + 1) for i in range(3)])
    res = solve(inst, 4, laminar_guesses(build_laminar(4, 4, 1, 1)), 2)
    assert res.discarded == frozenset()
    assert res.schedule.start == {0: 0, 1: 1, 2: 2, 3: 3}


def test_solve_depth_cap_discards_the_call():
    # Single-cell exhaustive partitions make no progress, so the capped child
    # call hands its whole job set back as discards.
    inst = build_instance(6, 2, [])
    res = solve(inst, 3, exhaustive_guesses(inst, 0), 1)
    assert res.discarded == frozenset(range(6))
    assert res.schedule.start == {}
    assert res.schedule.horizon == 3


def test_solve_single_job_unit_horizon():
    inst = build_instance(1, 1, [])
    # pad_with_family clamps the family's job count to 2 and pads nothing.
    padded, fam = pad_with_family(inst, 1, 1)
    assert (padded, fam) == (inst, build_laminar(1, 2, 1, 1))
    res = solve(inst, 1, laminar_guesses(fam), 1)
    assert res.schedule.start == {0: 0} and res.discarded == frozenset()


def test_solve_empty_instance():
    inst = build_instance(0, 2, [])
    res = solve(inst, 4, laminar_guesses(build_laminar(4, 2, 2, 1)), 1)
    assert res.schedule.start == {} and res.schedule.horizon == 4


def test_solve_horizon_below_chain_bound():
    inst = build_instance(3, 2, [(0, 1), (1, 2)])
    with pytest.raises(InfeasibleHorizon):
        solve(inst, 2, exhaustive_guesses(inst, 3), 1)


def test_solve_laminar_rejects_ragged_horizons():
    with pytest.raises(BadHorizon):
        build_laminar(3, 3, 2, 1)


def test_solve_laminar_needs_integer_stride():
    with pytest.raises(BadEps):
        build_laminar(4, 3, 1, Fraction(2, 3))


def test_insert_discarded_noop():
    inst = build_instance(3, 1, [(0, 1), (1, 2)])
    sched = Schedule({0: 0, 1: 1, 2: 2}, 3)
    out = insert_discarded(inst, sched, set())
    assert out.start == sched.start and out.horizon == 3


def test_insert_discarded_three_chain_middle():
    inst = build_instance(3, 1, [(0, 1), (1, 2)])
    out = insert_discarded(inst, Schedule({0: 0, 2: 1}, 2), {1})
    assert out.start == {0: 0, 1: 1, 2: 2}
    assert out.horizon == 3 and out.makespan() == 3


def test_insert_discarded_two_independent_jobs():
    inst = build_instance(3, 1, [])
    out = insert_discarded(inst, Schedule({0: 0}, 1), {1, 2})
    assert out.start == {0: 2, 1: 1, 2: 0}
    assert out.horizon == 3 and out.makespan() == 3


def test_insert_discarded_flags_broken_preconditions():
    inst = build_instance(3, 1, [(0, 1), (1, 2)])
    with pytest.raises(NoSlot):
        insert_discarded(inst, Schedule({0: 3, 2: 0}, 4), {1})


def test_insert_discarded_orders_a_discarded_chain():
    # Job 1 must follow job 0, which was itself reinserted a step earlier.
    inst = build_instance(3, 1, [(0, 1)])
    out = insert_discarded(inst, Schedule({2: 0}, 1), {0, 1})
    assert out.start == {0: 0, 1: 1, 2: 2}
    assert out.horizon == 3


@st.composite
def _solve_cases(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True)) if pairs else []
    m = draw(st.integers(min_value=1, max_value=2))
    return n, picked, m


@settings(max_examples=40, deadline=None)
@given(_solve_cases())
def test_exhaustive_solve_at_opt_discards_nothing(case):
    n, edges, m = case
    inst = build_instance(n, m, edges)
    T = optimal_makespan(inst)
    res = solve(inst, T, exhaustive_guesses(inst, n), 1)
    assert res.discarded == frozenset()
    assert res.schedule.makespan() == T
    report = validate_schedule(inst, res.schedule)
    assert report.feasible and report.complete


@settings(max_examples=40, deadline=None)
@given(_solve_cases())
def test_laminar_solve_plus_repair_is_always_complete(case):
    n, edges, m = case
    inst = build_instance(n, m, edges)
    T = optimal_makespan(inst)
    padded, fam = pad_with_family(inst, T, 1)
    depth_max = fam.level_count()
    res = solve(padded, fam.T, laminar_guesses(fam), depth_max)
    again = solve(padded, fam.T, laminar_guesses(fam), depth_max)
    assert (res.schedule.start, res.discarded) == (again.schedule.start, again.discarded)
    full = insert_discarded(padded, res.schedule, res.discarded)
    report = validate_schedule(padded, full)
    assert report.feasible and report.complete
    assert full.horizon == fam.T + len(res.discarded)
    assert full.makespan() <= full.horizon


@settings(max_examples=40, deadline=None)
@given(_solve_cases(), st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2))
def test_solve_traces_only_the_winning_calls(case, k_max, slack):
    n, edges, m = case
    inst = build_instance(n, m, edges)
    T = optimal_makespan(inst)
    padded, fam = pad_with_family(inst, T, 1)
    runs = [
        (inst, T + slack, exhaustive_guesses(inst, min(k_max, n)), 2),
        (padded, fam.T, laminar_guesses(fam), fam.level_count()),
    ]
    for target, horizon, guesses, depth_max in runs:
        res = solve(target, horizon, guesses, depth_max)
        # Only the winning guesses' calls are traced: each (depth, interval)
        # once, and their pins and placements are the result's.
        traces = res.traces
        assert len({(tr.depth, tr.interval) for tr in traces}) == len(traces)
        for tr in traces:
            assert tr.interval[1] - tr.interval[0] > 1
            assert tr.placed_tops.keys() <= {w.job for w in tr.windows}
            for j, t in {**tr.pins, **tr.placed_tops}.items():
                assert res.schedule.start[j] == t


@st.composite
def _family_runs(draw):
    """(instance, eps, T) with n <= 40, m <= 4, T from the lower bound up to n."""
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=1, max_value=4))
    ids = st.integers(min_value=0, max_value=n - 1)
    drawn = draw(st.lists(st.tuples(ids, ids), max_size=60))
    inst = build_instance(n, m, [(min(e), max(e)) for e in drawn if e[0] != e[1]])
    eps = draw(st.sampled_from([Fraction(1), Fraction(1, 2)]))
    T = draw(st.integers(min_value=max(-(-n // m), longest_chain(inst)), max_value=n))
    return inst, eps, T


@settings(max_examples=60, deadline=None)
@given(_family_runs())
def test_a_family_run_never_reaches_its_depth_cap(run):
    # solve_laminar caps a family run at fam.level_count() and takes no
    # depth_max, because every call splits its interval at least one level
    # deeper: a non-unit call sits above the deepest level, and no child
    # reaches the cap. A looser cap must change nothing.
    inst, eps, T = run
    padded, fam = pad_with_family(inst, T, eps)
    at_cap = solve(padded, fam.T, laminar_guesses(fam), fam.level_count())
    assert at_cap == solve(padded, fam.T, laminar_guesses(fam), fam.level_count() + 5)
    assert all(tr.depth < fam.deepest for tr in at_cap.traces)


@settings(max_examples=60, deadline=None)
@given(_solve_cases(), st.data())
def test_insert_discarded_repairs_any_dropped_subset(case, data):
    n, edges, m = case
    inst = build_instance(n, m, edges)
    sched = list_schedule(inst, range(n))
    dropped = set(data.draw(st.lists(st.sampled_from(range(n)), unique=True)))
    kept = Schedule({j: t for j, t in sched.start.items() if j not in dropped}, sched.horizon)
    full = insert_discarded(inst, kept, dropped)
    report = validate_schedule(inst, full)
    assert report.feasible and report.complete
    assert full.horizon == sched.horizon + len(dropped)
