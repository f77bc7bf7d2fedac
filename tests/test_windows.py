"""Pinned and top windows from masks, checked against per-bit reference walks.

The exhaustive source's slot DFS and the whole recursion are checked the
same way, against the references that rebuild their pins at every step and
finish every guess. Window narrowing must compose, since a call narrows its
ancestors' windows by its own pins only, and a recursion call's result must
depend on its input alone.
"""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    _ref_loads,
    ref_assignments,
    ref_classify,
    ref_exhaustive_guesses,
    ref_feasible_window,
    ref_solve,
    ref_windows_for_top,
)
from precsched import qptas
from precsched.laminar import EmptyWindow, feasible_window, pin_windows
from precsched.model import build_instance, longest_chain
from precsched.qptas import _assignments, classify, exhaustive_guesses, solve, windows_for_top


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
    # New pins may name jobs outside the call's job set; those are ignored.
    pinned_new = data.draw(_slots(unpinned, T))
    want = ref_classify(inst, jobs, pinned_new, cells, pinned_old)
    if want is None:
        with pytest.raises(EmptyWindow):
            classify(inst, jobs, pinned_new, cells, pinned_old)
    else:
        assert classify(inst, jobs, pinned_new, cells, pinned_old) == want


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
    # Wrapping every pin set in a fresh dict defeats any reuse keyed on
    # object identity; the windows must be reused on equal pins alone.
    T = max(-(-inst.n // inst.m), longest_chain(inst)) + slack
    guesses = exhaustive_guesses(inst, k_max)

    def fresh(rin):
        return ((dict(pins), cells) for pins, cells in guesses(rin))

    plain_traces, fresh_traces = [], []
    plain = solve(inst, T, guesses, depth_max, traces=plain_traces)
    assert solve(inst, T, fresh, depth_max, traces=fresh_traces) == plain
    assert fresh_traces == plain_traces


@settings(max_examples=150, deadline=None)
@given(_window_cases(), st.data())
def test_assignments_match_the_rebuilding_dfs(case, data):
    inst, T, base = case
    s = data.draw(st.integers(min_value=0, max_value=T - 1))
    e = data.draw(st.integers(min_value=s + 1, max_value=T))
    # The subset avoids the base pins, as a call's jobs avoid its ancestors'.
    free = sorted(set(range(inst.n)) - base.keys())
    subset = tuple(data.draw(st.lists(st.sampled_from(free), unique=True, max_size=3))) if free else ()
    bounds = {}
    for j in subset:
        lo, hi = ref_feasible_window(inst, j, base, e)
        bounds[j] = (max(lo, s), hi)
    load = _ref_loads(base.values(), s, e)
    got = [list(a.items()) for a in _assignments(inst, subset, bounds, load)]
    assert got == [list(a.items()) for a in ref_assignments(inst, subset, base, s, e)]
    assert load == _ref_loads(base.values(), s, e)


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
    # call. Equal inputs must give equal results and explore as many
    # guesses, or a memo keyed on the input would change the output.
    T = max(-(-inst.n // inst.m), longest_chain(inst)) + slack
    recurse = qptas._recurse
    seen = {}

    def recorded(inst, rin, depth_max, guesses, stats, traces=None):
        key = (
            rin.interval,
            rin.jobs,
            tuple(sorted(rin.windows.items())),
            tuple(sorted(rin.load.items())),
            rin.depth,
        )
        before = stats.guesses_explored
        starts, disc = recurse(inst, rin, depth_max, guesses, stats, traces)
        got = (list(starts.items()), disc, stats.guesses_explored - before)
        assert seen.setdefault(key, got) == got
        return starts, disc

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qptas, "_recurse", recorded)
        solve(inst, T, exhaustive_guesses(inst, k_max), depth_max)


def _budgeted(guesses, limit):
    """guesses cut off after limit guesses in all, counted across calls."""
    left = [limit]

    def source(rin):
        for guess in guesses(rin):
            if not left[0]:
                return
            left[0] -= 1
            yield guess

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
    _assert_solve_matches_reference(inst, T, k_max, depth_max)


@pytest.mark.parametrize("n", [1, 3, 6])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_unit_root_matches_the_reference_recursion(n, m):
    # An antichain at T = 1: the root explores no guess and places the
    # first min(n, m) jobs.
    inst = build_instance(n, m, [])
    got = _assert_solve_matches_reference(inst, 1, 2, 1)
    assert got.stats.guesses_explored == 0
    assert got.schedule.start == dict.fromkeys(range(min(n, m)), 0)


def _assert_solve_matches_reference(inst, T, k_max, depth_max):
    # Infeasible-at-the-bound instances explore 10^5-10^6 guesses at depth 3,
    # so each side gets the same guess budget. Both explore the same guesses
    # in the same order, so the budget cuts both at the same guess.
    got_traces, want_traces = [], []
    got = solve(inst, T, _budgeted(exhaustive_guesses(inst, k_max), 3000), depth_max, got_traces)
    want = ref_solve(
        inst, T, _budgeted(ref_exhaustive_guesses(inst, k_max), 3000), depth_max, want_traces
    )
    assert got == want
    assert got_traces == want_traces
    return got
