"""Pinned and top windows from masks, checked against per-bit reference walks.

The exhaustive source's prefix walk and the whole recursion are checked the
same way, against the references that rebuild their pins at every step and
finish every guess. Window narrowing must compose, since a call narrows its
ancestors' windows by its own pins only, and a recursion call's result must
depend on its input alone. The discard floor that lets a call skip a pin
set must never exceed the discards of a guess with those pins, and no pin
may lower a window's excess, so that the exhaustive walk may count,
instead of build, every pin set below a prefix whose floor reaches the
call's best discard count.
"""

from itertools import combinations, groupby, islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    RefInput,
    _ref_loads,
    flat_guesses,
    ref_assignments,
    ref_classify,
    ref_exhaustive_guesses,
    ref_feasible_window,
    ref_solve,
    ref_windows_for_top,
)
from precsched import qptas
from precsched.generators import GeneratorSpec, generate
from precsched.laminar import EmptyWindow, classify, feasible_window, narrow_by_pin, pin_windows
from precsched.model import (
    _bits,
    _mask,
    build_instance,
    longest_chain,
    validate_schedule,
)
from precsched.qptas import (
    RecursionInput,
    _add_load,
    _discard_floor,
    _pin_sets,
    exhaustive_guesses,
    repair,
    solve,
    windows_for_top,
)


@st.composite
def _closed_dags(draw, max_n=12, min_n=1):
    """A random DAG on n jobs, relabelled so ids do not follow its order."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)) if pairs else []
    perm = draw(st.permutations(range(n)))
    m = draw(st.integers(min_value=1, max_value=3))
    return build_instance(n, m, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def _slots(draw, jobs, T):
    """A partial map from jobs to slots in [0, T)."""
    chosen = draw(st.lists(st.sampled_from(sorted(jobs)), unique=True)) if jobs else []
    return {j: draw(st.integers(min_value=0, max_value=T - 1)) for j in chosen}


@st.composite
def _cells(draw, T):
    cuts = draw(st.lists(st.integers(min_value=1, max_value=T - 1), unique=True)) if T > 1 else []
    bounds = [0, *sorted(cuts), T]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


@st.composite
def _window_cases(draw):
    inst = draw(_closed_dags())
    T = draw(st.integers(min_value=1, max_value=16))
    return inst, T, draw(_slots(range(inst.n), T))


@settings(max_examples=150, deadline=None)
@given(_window_cases(), st.data())
def test_pin_windows_match_the_per_bit_walk(case, data):
    inst, T, pinned = case
    jobs = data.draw(st.lists(st.sampled_from(range(inst.n)), unique=True))
    # Pins may name jobs outside the mask; pinned jobs of the mask leave it.
    mask = sum(1 << j for j in jobs)
    want = {j: ref_feasible_window(inst, j, pinned, T) for j in jobs}
    free = {j: w for j, w in want.items() if j not in pinned}
    if any(lo >= hi for lo, hi in free.values()):
        with pytest.raises(EmptyWindow):
            pin_windows(inst, {(0, T): mask}, pinned)
    else:
        groups = {}
        for j, w in free.items():
            groups[w] = groups.get(w, 0) | 1 << j
        assert pin_windows(inst, {(0, T): mask}, pinned) == groups
    for j, (lo, hi) in want.items():
        if lo >= hi:
            with pytest.raises(EmptyWindow):
                feasible_window(inst, j, pinned, T)
        else:
            assert feasible_window(inst, j, pinned, T) == (lo, hi)


@settings(max_examples=150, deadline=None)
@given(_window_cases(), st.data())
def test_classify_matches_the_per_bit_walk(case, data):
    inst, T, pinned_old = case
    cells = data.draw(_cells(T))
    unpinned = set(range(inst.n)) - pinned_old.keys()
    jobs = set(data.draw(st.lists(st.sampled_from(sorted(unpinned)), unique=True))) if unpinned else set()
    # New pins may name jobs outside the call's job set; they narrow its
    # windows. Pinned jobs leave the groups, so the split sees the rest.
    pinned_new = data.draw(_slots(unpinned, T))
    free = jobs - pinned_new.keys()
    want = ref_classify(inst, free, pinned_new, cells, pinned_old)

    def split():
        # As the recursion does it: ancestor pins, then the call's own.
        groups = pin_windows(inst, {(0, T): _mask(free)}, pinned_old)
        bottom, top = classify(pin_windows(inst, groups, pinned_new), cells)
        return (
            {c: frozenset(_bits(sum(g.values()))) for c, g in bottom.items()},
            frozenset(_bits(sum(top.values()))),
        )

    if want is None:
        with pytest.raises(EmptyWindow):
            split()
    else:
        assert split() == want


@settings(max_examples=150, deadline=None)
@given(_window_cases(), st.data())
def test_windows_for_top_match_the_per_bit_walk(case, data):
    inst, T, placed = case
    cells = data.draw(_cells(T))
    top = set(data.draw(st.lists(st.sampled_from(range(inst.n)), unique=True))) - placed.keys()
    got = windows_for_top(inst, {(0, T): sum(1 << j for j in top)}, cells, placed)
    assert [(w.job, w.r, w.d) for w in got] == ref_windows_for_top(inst, top, cells, placed)


@st.composite
def _groups(draw, inst, T):
    """Some jobs grouped by nonempty windows inside [0, T): {(lo, hi): mask}."""
    groups = {}
    for j in draw(st.lists(st.sampled_from(range(inst.n)), unique=True)):
        lo = draw(st.integers(min_value=0, max_value=T - 1))
        w = (lo, draw(st.integers(min_value=lo + 1, max_value=T)))
        groups[w] = groups.get(w, 0) | 1 << j
    return groups


def _narrowed(inst, groups, pins):
    try:
        return pin_windows(inst, groups, pins)
    except EmptyWindow:
        return None


@settings(max_examples=200, deadline=None)
@given(_window_cases(), st.data())
def test_narrowing_composes(case, data):
    inst, T, pins = case
    groups = data.draw(_groups(inst, T))
    in_b = {j: data.draw(st.booleans()) for j in pins}
    a = {j: t for j, t in pins.items() if not in_b[j]}
    b = {j: t for j, t in pins.items() if in_b[j]}
    first = _narrowed(inst, groups, a)
    # The first stage also checks b's jobs, which the one-shot call skips.
    assume(first is not None)
    assert _narrowed(inst, first, b) == _narrowed(inst, groups, pins)


@settings(max_examples=150, deadline=None)
@given(_window_cases(), st.data())
def test_top_windows_narrow_ancestor_windows_by_placements(case, data):
    # A call's tops start from their windows under the ancestor pins, which
    # its own placements then narrow.
    inst, T, slots = case
    cells = data.draw(_cells(T))
    ancestors = {j: t for j, t in slots.items() if data.draw(st.booleans())}
    placed = {j: t for j, t in slots.items() if j not in ancestors}
    top = set(data.draw(st.lists(st.sampled_from(range(inst.n)), unique=True))) - slots.keys()
    groups = _narrowed(inst, {(0, T): sum(1 << j for j in top)}, ancestors)
    assume(groups is not None)
    got = windows_for_top(inst, groups, cells, placed)
    want = ref_windows_for_top(inst, top, cells, {**ancestors, **placed})
    assert [(w.job, w.r, w.d) for w in got] == want


@settings(max_examples=60, deadline=None)
@given(
    _closed_dags(max_n=6),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=1),
)
def test_exhaustive_solve_does_not_depend_on_pin_identity(inst, k_max, depth_max, slack):
    # Wrapping every pin set, its groups and its partitions in fresh
    # containers defeats any reuse keyed on object identity.
    T = max(-(-inst.n // inst.m), longest_chain(inst)) + slack
    guesses = exhaustive_guesses(inst, k_max)

    def fresh(rin, bound=None):
        for item in guesses(rin, bound):
            if type(item) is int:
                yield item
                continue
            pins, groups, partitions = item
            yield dict(pins), groups and dict(groups), [list(c) for c in partitions]

    # The results compare their traces too.
    assert solve(inst, T, fresh, depth_max) == solve(inst, T, guesses, depth_max)


@settings(max_examples=150, deadline=None)
@given(_window_cases(), st.data())
def test_assignments_match_the_rebuilding_dfs(case, data):
    # Each subset of one size, in combinations order over the drawn jobs,
    # pinned in the rebuilding DFS's order. At the full size the one subset
    # keeps the drawn order.
    inst, T, base = case
    s = data.draw(st.integers(min_value=0, max_value=T - 1))
    e = data.draw(st.integers(min_value=s + 1, max_value=T))
    # The jobs avoid the base pins, as a call's jobs avoid its ancestors'.
    free = sorted(set(range(inst.n)) - base.keys())
    jobs = tuple(data.draw(st.lists(st.sampled_from(free), unique=True, max_size=3))) if free else ()
    size = data.draw(st.integers(min_value=0, max_value=len(jobs)))
    # Unlike a call's windows, these may be empty.
    windows = {}
    for j in jobs:
        lo, hi = ref_feasible_window(inst, j, base, e)
        w = (max(lo, s), hi)
        windows[w] = windows.get(w, 0) | 1 << j
    load = _ref_loads(base.values(), s, e)
    got = list(_pin_sets(inst, jobs, size, dict(windows), load))
    want = [
        list(a.items())
        for subset in combinations(jobs, size)
        for a in ref_assignments(inst, subset, base, s, e)
    ]
    assert [list(pins.items()) for pins, _ in got] == want
    # Each pin set comes with the windows narrowed by it, or None where
    # pin_windows would refuse them.
    for pins, groups in got:
        assert groups == _narrowed(inst, windows, pins)
    assert load == _ref_loads(base.values(), s, e)


@st.composite
def _call_inputs(draw):
    """A non-root RecursionInput and the RefInput of the same call.

    Pins on other jobs narrow the windows of one to four jobs to an
    interval of at most five slots and load its slots; jobs whose windows
    they empty are left out, as pin_windows would refuse them.
    """
    inst = draw(_closed_dags(max_n=8, min_n=4))
    count = draw(st.integers(min_value=1, max_value=4))
    jobs = draw(st.lists(st.sampled_from(range(inst.n)), unique=True, min_size=count, max_size=count))
    T = draw(st.integers(min_value=1, max_value=12))
    others = sorted(set(range(inst.n)) - set(jobs))
    pinned = draw(st.lists(st.sampled_from(others), unique=True, min_size=1)) if others else []
    base = {j: draw(st.integers(min_value=0, max_value=T - 1)) for j in pinned}
    s = draw(st.integers(min_value=0, max_value=T - 1))
    e = draw(st.integers(min_value=s + 1, max_value=min(T, s + 5)))
    groups = {}
    for j in jobs:
        lo, hi = ref_feasible_window(inst, j, base, e)
        w = (max(lo, s), hi)
        if w[0] < hi:
            groups[w] = groups.get(w, 0) | 1 << j
    assume(groups)
    mask = sum(groups.values())
    depth = draw(st.integers(min_value=0, max_value=2))
    rin = RecursionInput((s, e), mask, groups, _ref_loads(base.values(), s, e), depth)
    return inst, rin, RefInput((s, e), mask, base, depth)


@settings(max_examples=150, deadline=None)
@given(_call_inputs(), st.data())
def test_exhaustive_guesses_match_the_reference_source(case, data):
    # Item for item, on windows that ancestor pins narrowed and under their
    # load: the prefix walk reuses each prefix's pin sets, and must list
    # exactly what the DFS that rebuilds every subset lists.
    inst, rin, ref_in = case
    k_max = data.draw(st.integers(min_value=0, max_value=inst.n))
    windows, load = dict(rin.windows), dict(rin.load)
    got = flat_guesses(exhaustive_guesses(inst, k_max)(rin))
    want = ref_exhaustive_guesses(inst, k_max)(ref_in)
    assert [(list(p.items()), c) for p, c in got] == [(list(p.items()), c) for p, c in want]
    assert rin.windows == windows and rin.load == load


@settings(max_examples=150, deadline=None)
@given(_call_inputs(), st.data())
def test_exhaustive_groups_are_the_pins_narrowing(case, data):
    # Each pin set's groups, built one pin at a time down the prefix tree,
    # are the call's windows narrowed by all its pins at once, or None
    # exactly where that raises EmptyWindow; every pin set carries the
    # same partitions.
    inst, rin, _ = case
    k_max = data.draw(st.integers(min_value=0, max_value=inst.n))
    items = list(exhaustive_guesses(inst, k_max)(rin))
    assert items and items[-1][0] == {}
    for pins, groups, partitions in items:
        assert groups == _narrowed(inst, rin.windows, pins)
        assert partitions == items[0][2]


@settings(max_examples=30, deadline=None)
@given(
    _closed_dags(max_n=6, min_n=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=0, max_value=1),
)
# An antichain where 84 of 147 calls repeat an earlier call's input.
@example(build_instance(4, 3, []), 1, 3, 1)
def test_a_recursion_call_depends_only_on_its_input(inst, k_max, depth_max, slack):
    # _recurse calls itself through the module, so the wrapper sees every
    # call. Equal inputs must give equal returns: the starts in the same
    # order, the discards, the guess count and the traces, which a memo
    # keyed on the input would replay.
    T = max(-(-inst.n // inst.m), longest_chain(inst)) + slack
    recurse = qptas._recurse
    seen = {}

    def recorded(inst, rin, depth_max, guesses):
        key = (
            rin.interval,
            rin.jobs,
            tuple(sorted(rin.windows.items())),
            tuple(sorted(rin.load.items())),
            rin.depth,
        )
        got = recurse(inst, rin, depth_max, guesses)
        starts, disc, explored, traces = got
        record = (list(starts.items()), disc, explored, tuple(traces))
        assert seen.setdefault(key, record) == record
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qptas, "_recurse", recorded)
        solve(inst, T, exhaustive_guesses(inst, k_max), depth_max)


def _budgeted(guesses, limit):
    """guesses cut off after limit guesses per call, with no bound.

    An item holds one pin set's guesses, one per partition, and takes its
    share of the call's budget when it is pulled, before its guesses run:
    the item that reaches the limit keeps only its first partitions. Each
    call has a budget of its own, so the guesses it gets depend on its
    input alone. The call's bound is not passed on, so the source skips no
    prefix and yields no count, and every pin set reaches the call: this is
    the path on which the call's own floor does all the skipping.
    """

    def source(rin, bound=None):
        left = limit
        for pins, groups, partitions in guesses(rin):
            if not left:
                return
            partitions = list(islice(partitions, left))
            left -= len(partitions)
            yield pins, groups, partitions

    return source


def _ref_budgeted(guesses, limit):
    """The reference's (pins, cells) guesses, cut off where _budgeted cuts.

    Consecutive guesses with equal pins are one pin set's, and take their
    share of the call's budget together, when the first of them is pulled.
    """

    def source(rin):
        left = limit
        for _, same_pins in groupby(guesses(rin), key=lambda guess: guess[0]):
            if not left:
                return
            kept = list(same_pins)[:left]
            left -= len(kept)
            yield from kept

    return source


@settings(max_examples=100, deadline=None)
@given(
    _closed_dags(max_n=7, min_n=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.data(),
)
def test_exhaustive_solve_matches_the_reference_recursion(inst, k_max, depth_max, data):
    # Horizons run from the chain bound to one above the lower bound
    # max(ceil(n/m), chain). Below ceil(n/m), pins can fill a slot and
    # leave its unit cell no free capacity, and T = 1 is a unit root.
    chain = longest_chain(inst)
    bound = max(-(-inst.n // inst.m), chain)
    T = data.draw(st.integers(min_value=chain, max_value=bound + 1))
    _assert_solve_matches_reference(inst, T, k_max, depth_max, 60)


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_unit_root_matches_the_reference_recursion(n, m):
    # An antichain at T = 1: the root explores no guess and places the
    # first min(n, m) jobs.
    inst = build_instance(n, m, [])
    got = _assert_solve_matches_reference(inst, 1, 2, 1, 60)
    assert got.stats.guesses_explored == 0
    assert got.schedule.start == dict.fromkeys(range(min(n, m)), 0)


def _no_floor(groups, load, m):
    return 0


def _assert_solve_matches_reference(inst, T, k_max, depth_max, budget):
    # Infeasible-at-the-bound instances explore 10^5-10^6 guesses at depth 3,
    # so each call on either side gets the same guess budget, taken pin set
    # by pin set. A call's guesses then depend on its input alone, and both
    # sides explore the same guesses of a call in the same order.
    # The results compare their traces too. The reference finishes every
    # guess, so it counts the whole tree of calls; the discard floor skips
    # guesses without starting their child calls, so the package counts no
    # more, and exactly as many at depth_max 1, where no guess has a child.
    # With the floor at 0 nothing is skipped, and the results are equal.
    got = solve(inst, T, _budgeted(exhaustive_guesses(inst, k_max), budget), depth_max)
    want = ref_solve(inst, T, _ref_budgeted(ref_exhaustive_guesses(inst, k_max), budget), depth_max)
    assert (got.schedule, got.discarded, got.traces) == (want.schedule, want.discarded, want.traces)
    if depth_max == 1:
        assert got.stats == want.stats
    else:
        assert got.stats.guesses_explored <= want.stats.guesses_explored
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qptas, "_discard_floor", _no_floor)
        unfloored = solve(inst, T, _budgeted(exhaustive_guesses(inst, k_max), budget), depth_max)
    assert unfloored == want
    return got


def _root(inst, T):
    jobs = (1 << inst.n) - 1
    return RecursionInput((0, T), jobs, {(0, T): jobs}, {}, 0)


def _discards_of(inst, root, pins, groups, cells):
    """The discard count of the one guess (pins, cells) at a capped root."""
    _, disc, explored, _ = qptas._recurse(inst, root, 1, lambda rin, _: [(pins, groups, [cells])])
    assert explored == 1
    return disc.bit_count()


@settings(max_examples=60, deadline=None)
@given(_closed_dags(max_n=7), st.integers(min_value=0, max_value=2), st.data())
def test_the_discard_floor_never_exceeds_a_guess_discards(inst, k_max, data):
    # Every guess the exhaustive source yields at the root, run alone: the
    # floor of its pins' narrowed groups bounds its discards from below.
    chain = longest_chain(inst)
    T = data.draw(st.integers(min_value=max(chain, 2), max_value=max(chain, 2, inst.n)))
    root = _root(inst, T)
    for pins, groups, partitions in exhaustive_guesses(inst, k_max)(root):
        if groups is None:
            continue
        floor = _discard_floor(groups, _add_load({}, pins.values()), inst.m)
        for cells in partitions:
            assert 0 <= floor <= _discards_of(inst, root, pins, groups, cells)


def test_the_discard_floor_counts_an_overloaded_slot():
    # Job 0 precedes jobs 1 and 2; on one machine, pinning 0 at slot 1 of
    # [0, 3) leaves both successors the window [2, 3), which holds one job.
    inst = build_instance(3, 1, [(0, 1), (0, 2)])
    root = _root(inst, 3)
    pins = {0: 1}
    groups = pin_windows(inst, root.windows, pins)
    assert groups == {(2, 3): 0b110}
    assert _discard_floor(groups, {1: 1}, inst.m) == 1
    for cells in ([(0, 3)], [(0, 1), (1, 3)], [(0, 2), (2, 3)], [(0, 1), (1, 2), (2, 3)]):
        assert _discards_of(inst, root, pins, groups, cells) >= 1


def _excess(inst, groups, load, a, b):
    """The window (a, b)'s excess, counted job by job and pin by pin: the jobs
    whose windows lie inside it, plus the pins in [a, b), less m * (b - a)."""
    inside = sum(1 for (lo, hi), mask in groups.items() for _ in _bits(mask) if a <= lo and hi <= b)
    return inside + sum(c for t, c in load.items() if a <= t < b) - inst.m * (b - a)


@settings(max_examples=150, deadline=None)
@given(_call_inputs(), st.data())
def test_a_pin_never_lowers_a_window_excess(case, data):
    # Pinning a job at a slot of its window, one pin after another: the
    # other windows only shrink, and the pinned job moves from a window's
    # jobs to its pins or adds a pin. So no window of the interval, a group
    # window or not, loses excess, also once a window has emptied. This is
    # why a pin-set prefix's floor bounds every pin set below it.
    inst, rin, _ = case
    s, e = rin.interval
    groups, load = rin.windows, rin.load
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        open_jobs = [(j, w) for w, mask in groups.items() if w[0] < w[1] for j in _bits(mask)]
        if not open_jobs:
            break
        p, (lo, hi) = data.draw(st.sampled_from(open_jobs))
        t = data.draw(st.integers(min_value=lo, max_value=hi - 1))
        narrowed, grown = narrow_by_pin(inst, groups, p, t), _add_load(load, [t])
        for a in range(s, e):
            for b in range(a + 1, e + 1):
                assert _excess(inst, narrowed, grown, a, b) >= _excess(inst, groups, load, a, b)
        groups, load = narrowed, grown


@st.composite
def _root_inputs(draw):
    """A root RecursionInput at a horizon from the chain bound (at least 2) to 4."""
    inst = draw(_closed_dags(max_n=6, min_n=3))
    low = max(longest_chain(inst), 2)
    return inst, _root(inst, draw(st.integers(min_value=low, max_value=max(low, 4)))), None


def _assert_the_walk_skips_below_floored_prefixes(inst, windows, load, size, bounds):
    # The bound falls as the caller takes pin sets, as a call's best discard
    # count does: bounds[k] once the caller has taken k of them, the last
    # one from then on. A pin set is skipped exactly when one of its proper
    # prefixes, the empty one included, has a floor at the bound as the pin
    # set is read, and the walk yields the others as the walk without a
    # bound does, in order. Before each of them, and at the end, it yields
    # one int, the number skipped since the last, unless that is 0.
    jobs = list(_bits(sum(windows.values())))

    def prefix_floor(pins):
        groups, slots, floor = windows, load, 0
        for p, t in list(pins.items())[:-1]:
            floor = max(floor, _discard_floor(groups, slots, inst.m))
            groups, slots = narrow_by_pin(inst, groups, p, t), _add_load(slots, [t])
        return max(floor, _discard_floor(groups, slots, inst.m)) if pins else 0

    want, taken, skipped = [], 0, 0
    for pins, groups in _pin_sets(inst, jobs, size, windows, load):
        fewest = bounds[min(taken, len(bounds) - 1)]
        if fewest is not None and prefix_floor(pins) >= fewest:
            skipped += 1
            continue
        want += [skipped, (pins, groups)] if skipped else [(pins, groups)]
        taken, skipped = taken + 1, 0
    want += [skipped] if skipped else []
    got, taken = [], 0

    def bound():
        return bounds[min(taken, len(bounds) - 1)]

    for item in _pin_sets(inst, jobs, size, windows, load, bound):
        got.append(item)
        taken += type(item) is not int
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.one_of(_call_inputs(), _root_inputs()), st.data())
def test_the_walk_counts_the_pin_sets_below_a_floored_prefix(case, data):
    # None for the first few pin sets, then each drawn level in turn.
    inst, rin, _ = case
    jobs = rin.jobs.bit_count()
    size = data.draw(st.integers(min_value=0, max_value=min(jobs, 4)))
    levels = data.draw(st.lists(st.integers(min_value=1, max_value=jobs), min_size=1, max_size=4))
    opening = data.draw(st.integers(min_value=0, max_value=2))
    bounds = [None] * opening + sorted(levels, reverse=True)
    _assert_the_walk_skips_below_floored_prefixes(inst, rin.windows, rin.load, size, bounds)


def test_a_prefix_floor_reaches_the_pin_sets_of_prefixes_built_before_it():
    # Jobs 1, 2, 4 and 5 share the window [2, 5) on one machine, whose
    # floor is 1. The prefix that pins job 1 at slot 2 and job 2 at slot 4
    # has floor 0. It is built for the subset (1, 2, 4) while there is no
    # bound. When the subset (1, 2, 5) extends it, three pin sets later,
    # the bound has fallen to 1: the empty prefix's floor reaches it, the
    # prefix's own floor does not, and the pin sets below it are skipped.
    edges = [(0, 5), (4, 5), (0, 2), (4, 0), (3, 5), (1, 0), (3, 0)]
    inst = build_instance(6, 1, edges)
    _assert_the_walk_skips_below_floored_prefixes(inst, {(2, 5): 0b110110}, {}, 3, [None, 3, 3, 1])


# n = 7 on one machine at horizon 7 (its lower bound), kmax 2, depth_max 3.
_DEEP_SKIP_EDGES = [(1, 0), (2, 1), (2, 4), (2, 6), (3, 1), (4, 0), (5, 0), (5, 1), (6, 4)]


@settings(max_examples=60, deadline=None)
@given(
    _closed_dags(max_n=6, min_n=3),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-1, max_value=0),
)
# The walk skips pin sets below floored prefixes in child calls here:
# 762 guesses where the call's own floors alone take 779.
@example(build_instance(7, 1, _DEEP_SKIP_EDGES), 2, 3, 0)
def test_the_prefix_floor_skip_matches_the_reference_recursion(inst, k_max, depth_max, shift):
    # The unwrapped source, with no budget, gets the call's bound and skips
    # pin sets below floored prefixes. Horizons are the lower bound
    # max(ceil(n/m), chain) and one below it, not below the chain, where
    # guesses discard jobs and a best guess's count can stop a prefix.
    chain = longest_chain(inst)
    T = max(chain, -(-inst.n // inst.m) + shift)
    got = solve(inst, T, exhaustive_guesses(inst, k_max), depth_max)
    want = ref_solve(inst, T, ref_exhaustive_guesses(inst, k_max), depth_max)
    if depth_max == 1:
        assert got == want
    else:
        assert (got.schedule, got.discarded) == (want.schedule, want.discarded)
        assert got.traces == want.traces
        assert got.stats.guesses_explored <= want.stats.guesses_explored
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qptas, "_discard_floor", _no_floor)
        assert solve(inst, T, exhaustive_guesses(inst, k_max), depth_max) == want


def test_the_prefix_floor_skips_child_calls_below_the_cap():
    # The source with the bound skips pin sets that the call's own floor
    # would run, and their child calls with them; without the bound it
    # skips nothing, and the call's floors alone skip what they did before
    # the walk took the bound. Everything but the count is the same.
    inst = build_instance(7, 1, _DEEP_SKIP_EDGES)
    guesses = exhaustive_guesses(inst, 2)
    with_bound = solve(inst, 7, guesses, 3)
    without = solve(inst, 7, lambda rin, bound: guesses(rin), 3)
    assert (with_bound.stats.guesses_explored, without.stats.guesses_explored) == (762, 779)
    assert with_bound.discarded == without.discarded == frozenset()
    assert (with_bound.schedule, with_bound.traces) == (without.schedule, without.traces)


# The full 2x5 layered order at m = 4: optimum 4, lower bound 3. At horizon
# 3 every guess discards a job, so kmax = n walks every guess.
LAYERED_10_FULL = GeneratorSpec("layered", 10, 4, seed=0, layers=2, width=5, edge_prob=1.0)


def test_the_guess_heavy_shape_walks_every_guess():
    inst = generate(LAYERED_10_FULL)
    result = solve(inst, 3, exhaustive_guesses(inst, 10), 1)
    assert result.stats.guesses_explored == 62164
    assert len(result.discarded) == 1
    sched, discards, explored = repair(inst, result, inst.n)
    report = validate_schedule(inst, sched)
    assert report.feasible and report.complete and report.makespan == 4
    assert (discards, explored) == (1, 62164)


def _narrowings(items, pulls):
    """(one-pin narrowings, guesses) of the first pulls items of a source."""
    count = [0]
    narrow_by_pin = qptas.narrow_by_pin

    def counted(*args):
        count[0] += 1
        return narrow_by_pin(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qptas, "narrow_by_pin", counted)
        pulled = list(islice(items, pulls))
    assert len(pulled) == pulls
    return count[0], len(flat_guesses(pulled))


@pytest.mark.parametrize(
    ("inst", "T", "first"),
    [
        # 12 jobs fill 4 slots of 3 machines exactly: the first pin set
        # pins them all in id order.
        (build_instance(12, 3, []), 4, [j // 3 for j in range(12)]),
        # At its lower bound 4, the walk to the first pin set builds 34
        # prefix pin sets below which no pin set lies: a later job finds no
        # free slot there.
        (
            generate(GeneratorSpec("random_order", 10, 3, seed=0, edge_prob=0.25)),
            4,
            [0, 0, 1, 0, 1, 1, 2, 2, 3, 3],
        ),
    ],
    ids=["antichain-12", "random-10-dead-ends"],
)
def test_the_first_guess_walks_one_path(inst, T, first):
    # The first pin set pins every job and costs one narrowing per pin:
    # nothing is narrowed ahead of what is pulled, and no dead end is.
    root = _root(inst, T)
    guesses = exhaustive_guesses(inst, inst.n)
    assert _narrowings(guesses(root), 1)[0] == inst.n
    pins, groups, partitions = next(iter(guesses(root)))
    assert (pins, groups) == (dict(enumerate(first)), {})
    assert next(iter(partitions)) == [(t, t + 1) for t in range(T)]


def test_partitions_are_counted_as_they_are_listed():
    for s, e in combinations(range(9), 2):
        for cap in range(1, 10):
            listed = list(qptas._partitions(s, e, cap))
            lazy = qptas._Partitions(s, e, cap)
            assert len(lazy) == len(listed)
            assert list(lazy) == list(lazy) == listed


def test_a_search_lists_only_the_partitions_it_reads():
    # On a 14-job chain at horizon 14 the first guess pins every job on the
    # finest of the root's 8192 partitions and discards nothing, so the
    # search lists that one partition and no other.
    inst = build_instance(14, 1, [(j, j + 1) for j in range(13)])
    pulled = [0]
    partitions = qptas._partitions

    def counted(*args):
        for cells in partitions(*args):
            pulled[0] += 1
            yield cells

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qptas, "_partitions", counted)
        result = solve(inst, 14, exhaustive_guesses(inst, 14), 1)
    assert (result.stats.guesses_explored, result.discarded, pulled[0]) == (1, frozenset(), 1)


def test_the_guess_heavy_shape_extends_each_prefix_once():
    # Every subset at the root of the guess-heavy shape reads its prefixes'
    # pin sets from the subsets before it, and a prefix's groups are
    # narrowed once, when the first pin set below it is yielded: 15541 pin
    # sets holding 62164 guesses cost 25298 narrowings, one per yielded pin
    # set and one per distinct prefix pin set above one. The 4954 dead-end
    # prefixes, below which no pin set lies, are never narrowed; narrowing
    # every prefix as it is built cost 30252, and a DFS that starts each
    # subset from an empty prefix 78195.
    inst = generate(LAYERED_10_FULL)
    items = exhaustive_guesses(inst, 10)(_root(inst, 3))
    assert _narrowings(items, 15541) == (25298, 62164)
    assert next(items, None) is None


def test_the_guess_heavy_solve_builds_only_the_prefixes_it_cannot_skip():
    # A solve hands the source its bound. From its first best guess on, the
    # pin sets below a prefix whose floor reaches it are counted, not
    # built. A prefix is floored, and so narrowed, only when the bound is
    # read on it, which it never is when its next job has no free slot,
    # and otherwise narrowed only when a pin set below it is yielded: the
    # same 62164 guesses cost 4101 narrowings instead of the 25298 of the
    # whole prefix tree, and 4049 floors, of prefixes and of the pin sets
    # that reach the call, instead of one per pin set (13981). Narrowing
    # every prefix as it was built and flooring every one extended under
    # the bound, dead ends included, cost 4660 and 4112.
    inst = generate(LAYERED_10_FULL)
    calls = dict.fromkeys(["narrow_by_pin", "_discard_floor"], 0)

    def counted(name):
        inner = getattr(qptas, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)

        return call

    with pytest.MonkeyPatch.context() as patch:
        for name in calls:
            patch.setattr(qptas, name, counted(name))
        result = solve(inst, 3, exhaustive_guesses(inst, 10), 1)
    assert result.stats.guesses_explored == 62164
    assert calls == {"narrow_by_pin": 4101, "_discard_floor": 4049}


def _classified(inst, depth_max, floor):
    """How many guesses reach classify in the solve budgeted per call, under floor."""
    count = [0]

    def counted(groups, cells):
        count[0] += 1
        return classify(groups, cells)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qptas, "classify", counted)
        patch.setattr(qptas, "_discard_floor", floor)
        solve(inst, 3, _budgeted(exhaustive_guesses(inst, 10), 3000), depth_max)
    return count[0]


@pytest.mark.parametrize(
    ("depth_max", "floored", "unfloored"), [(1, 21, 3000), (2, 56, 12409)], ids=["1", "2"]
)
def test_the_guess_heavy_shape_matches_the_reference_recursion(depth_max, floored, unfloored):
    inst = generate(LAYERED_10_FULL)
    _assert_solve_matches_reference(inst, 3, 10, depth_max, 3000)
    # The budget reaches pin sets that the floor skips, at the root and, at
    # depth_max 2, in its children, so the comparison above covers the
    # skipping path at both depths.
    assert _classified(inst, depth_max, _no_floor) == unfloored
    assert _classified(inst, depth_max, _discard_floor) == floored
