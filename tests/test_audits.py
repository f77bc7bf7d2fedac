"""Auditor behavior on hand-checked instances plus negative controls."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from precsched import audits, laminar, qptas
from precsched.audits import (
    ADVISORY_CLAIMS,
    CONTRACTUAL_CLAIMS,
    PreconditionUnmet,
    audit_idle_slots,
    audit_instance,
    check_level_count,
    check_shift_bound,
    check_unique_level,
    check_window_slack,
    count_degenerate,
    level_analysis,
    run_oracle_pinned,
)
from precsched.laminar import (
    assign_levels,
    best_offset,
    bucket_levels,
    build_laminar,
    pad_to_power_of_two,
    pad_with_family,
)
from precsched.generators import GeneratorSpec, generate, standard_corpus
from precsched.model import _bits, build_instance
from precsched.oracle import EXACT_CAP, TooLarge, optimal_makespan, optimal_schedule
from precsched.qptas import CallTrace, TopWindow, edf_insert, windows_for_top

from helpers import pairs, ref_classify

SQUEEZE_EDGES = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 2), (1, 5), (5, 3)]


def _antichain4():
    inst = build_instance(4, 1, [])
    opt = optimal_schedule(inst)
    fam = build_laminar(4, 4, 1, 1)
    return inst, opt, fam


def test_unique_level_clean_and_duplicated():
    inst, opt, fam = _antichain4()
    assign = assign_levels(inst, opt, fam)
    rep = check_unique_level(assign)
    assert (rep.population, rep.violations, rep.worst, rep.bound) == (4, 0, 1.0, 1.0)
    # Corrupt the assignment: job 0 gains a second membership.
    assign.guess[1] = {(0, 2): 1 << 0}
    rep = check_unique_level(assign)
    assert rep.violations == 1
    assert rep.worst == 2.0


def test_shift_bound_clean_on_squeezed_instance():
    inst = build_instance(6, 2, SQUEEZE_EDGES)
    assign = assign_levels(inst, optimal_schedule(inst), build_laminar(4, 6, 2, 1))
    rep = check_shift_bound(assign)
    assert (rep.population, rep.violations, rep.worst, rep.bound) == (2, 0, 0.0, 4.0)


def test_shift_bound_flags_overlapping_buckets():
    inst, opt, fam = _antichain4()
    assign = assign_levels(inst, opt, fam)
    # Job 0 planted in the level-1 and level-2 buckets of the same offset.
    assign.top[1] = {(0, 2): 1 << 0}
    assign.top[2] = {(0, 1): 1 << 0}
    assert check_shift_bound(assign).violations == 1


def test_shift_bound_flags_overfull_horizon():
    # 4 jobs cannot fit one machine for 2 slots: two machines run them in 2,
    # but the family the assignment is read against has m = 1.
    inst = build_instance(4, 2, [])
    fam = build_laminar(2, 4, 1, 1)
    assign = assign_levels(inst, optimal_schedule(inst), fam)
    rep = check_shift_bound(assign)
    assert (rep.violations, rep.worst, rep.bound) == (1, 0.0, 2.0)
    # Read against the instance's own two machines, nothing overflows.
    two = build_laminar(2, 4, 2, 1)
    assert check_shift_bound(assign_levels(inst, optimal_schedule(inst), two)).violations == 0


def test_level_count_frozen_and_vacuous():
    rep = check_level_count(build_laminar(16, 16, 1, 1))
    assert (rep.population, rep.violations, rep.worst, rep.bound) == (3, 0, 2.0, 3.0)
    # log2(log2 2 / 1) = 0: the bound degenerates to +inf.
    rep = check_level_count(build_laminar(1, 2, 1, 1))
    assert rep.violations == 0
    assert rep.bound == float("inf")


def test_level_count_sweep_powers_of_two():
    for p in range(1, 11):
        T = 1 << p
        for m in (1, 2, 4):
            for eps in (Fraction(1), Fraction(1, 2)):
                n = T * m
                fam = build_laminar(T, n, m, eps)
                assert check_level_count(fam).violations == 0, (T, m, eps)


def test_window_slack_inside_violation_and_precondition():
    inst, opt, fam = _antichain4()
    inside = [TopWindow(j, 0, 4) for j in range(4)]
    rep = check_window_slack(opt, inside, 2, {})
    assert (rep.population, rep.violations, rep.worst, rep.bound) == (4, 0, 0.0, 2.0)
    # Slot 0 against window [4, 4) needs slack 4.
    rep = check_window_slack(opt, [TopWindow(0, 4, 4)], 1, {})
    assert (rep.violations, rep.worst) == (1, 4.0)
    with pytest.raises(PreconditionUnmet):
        check_window_slack(opt, inside, 2, pins={1: 3})


def test_forced_degenerate_window_is_counted():
    tri = build_instance(3, 1, [(0, 1), (1, 2)])
    cells = [(0, 2), (2, 4)]
    # Predecessor placed at 1 and successor at 2 leave no boundary gap.
    windows = windows_for_top(tri, {(0, 4): 1 << 1}, cells, {0: 1, 2: 2})
    assert [(w.job, w.r, w.d, w.degenerate) for w in windows] == [(1, 2, 2, True)]
    rep = count_degenerate(windows, build_laminar(4, 4, 1, 1), 4)
    assert (rep.population, rep.violations, rep.worst, rep.bound) == (1, 0, 1.0, 4.0)


def test_pinned_replay_antichain_trace_frozen():
    inst, opt, fam = _antichain4()
    assign = assign_levels(inst, opt, fam)
    assert best_offset(assign) == (0, 0)
    res = run_oracle_pinned(inst, opt, 0, assign)
    traces, starts, disc = res.traces, res.schedule.start, res.discarded
    assert starts == {0: 0, 1: 1, 2: 2, 3: 3}
    assert disc == set()
    assert len(traces) == 1
    tr = traces[0]
    assert tr.interval == (0, 4)
    assert tr.cells == [(0, 2), (2, 4)]
    assert (fam.level_of(tr.interval), fam.level_of(tr.cells[0])) == (0, 1)
    assert tr.pins == {}
    assert {w.job for w in tr.windows} == {0, 1, 2, 3}
    # Every top sits in the call's own level range [0, 1).
    assert assign.top_at_level(0) == 0b1111
    assert [(w.job, w.r, w.d) for w in tr.windows] == [(j, 0, 4) for j in range(4)]
    assert not any(w.degenerate for w in tr.windows)
    assert tr.placed_tops == {0: 0, 1: 1, 2: 2, 3: 3}
    assert tr.loads == {0: 1, 1: 1, 2: 1, 3: 1}

    idle = audit_idle_slots(tr, fam)
    # One meta-interval spanning [0, 4); loads never dip below m = 1.
    assert (idle.population, idle.violations, idle.worst) == (1, 0, -2.0)
    slack = check_window_slack(opt, tr.windows, 2, tr.pins)
    assert (slack.violations, slack.worst) == (0, 0.0)


def test_idle_slots_keep_a_discarded_top_pending_until_its_deadline():
    # Slots 0 and 1 are full, so top 0 with window [0, 2) is discarded at 2:
    # it keeps cell (0, 2) covered, and cell (2, 4) has no pending top.
    tr = CallTrace(
        depth=0,
        interval=(0, 4),
        cells=[(0, 2), (2, 4)],
        pins={},
        windows=[TopWindow(0, 0, 2)],
        placed_tops={},
        loads={0: 1, 1: 1, 2: 0, 3: 0},
    )
    idle = audit_idle_slots(tr, build_laminar(4, 4, 1, 1))
    # One meta-interval [0, 2) with no idle slot, against a bound of 2 * 1/2.
    assert (idle.population, idle.violations, idle.worst) == (1, 0, -1.0)


def test_pinned_replay_squeezed_guesses_everything_reachable():
    inst = build_instance(6, 2, SQUEEZE_EDGES)
    opt = optimal_schedule(inst)
    fam = build_laminar(4, 6, 2, 1)
    assign = assign_levels(inst, opt, fam)
    a, count = best_offset(assign)
    assert (a, count) == (1, 0)
    res = run_oracle_pinned(inst, opt, a, assign)
    traces, starts, disc = res.traces, res.schedule.start, res.discarded
    # Root pins the four guessed jobs; 4 and 5 drop to unit cells.
    assert starts == dict(opt.start)
    assert disc == set()
    assert len(traces) == 1
    assert traces[0].pins == {0: 0, 1: 1, 2: 2, 3: 3}
    assert {w.job for w in traces[0].windows} == set()


CLEAN_CASES = [
    ("antichain4", 4, 1, []),
    ("chain8", 8, 2, [(i, i + 1) for i in range(7)]),
    ("squeezed", 6, 2, SQUEEZE_EDGES),
    ("diamond", 4, 2, [(0, 1), (0, 2), (1, 3), (2, 3)]),
]


@pytest.mark.parametrize("name,n,m,edges", CLEAN_CASES)
def test_audit_instance_clean(name, n, m, edges):
    reports = audit_instance(build_instance(n, m, edges))
    for claim in CONTRACTUAL_CLAIMS:
        assert reports[claim].violations == 0, (name, claim)
    for claim in ADVISORY_CLAIMS:
        assert reports[claim].violations == 0, (name, claim)


def test_audit_instance_chain8_frozen_fields():
    reports = audit_instance(build_instance(8, 2, [(i, i + 1) for i in range(7)]))
    assert reports["unique-level"].population == 8
    assert reports["shift-bound"].bound == 8.0
    # Family levels are 8, 2, 1; the whole chain is guessed at the root.
    assert reports["level-count"].worst == 2.0
    assert reports["window-slack"].population == 0
    assert reports["recursion-depth-analysis"].population == 1
    assert reports["recursion-depth-analysis"].worst == 0.0


def test_audit_instance_rejects_tiny_instances():
    with pytest.raises(ValueError):
        audit_instance(build_instance(1, 1, []))


def test_audit_instance_builds_one_family(monkeypatch):
    # level_analysis builds the family; the pinned run takes its cells from
    # that same family (assign.fam) instead of building another.
    families, sources, assigns = [], [], []

    def recording(log, fn, keep):
        def wrapper(*args):
            result = fn(*args)
            log.append(keep(args, result))
            return result

        return wrapper

    for mod in (audits, laminar, qptas):
        if hasattr(mod, "build_laminar"):
            monkeypatch.setattr(
                mod, "build_laminar", recording(families, mod.build_laminar, lambda a, r: r)
            )
    monkeypatch.setattr(
        audits, "laminar_guesses", recording(sources, audits.laminar_guesses, lambda a, r: a[0])
    )
    monkeypatch.setattr(
        audits, "run_oracle_pinned", recording(assigns, audits.run_oracle_pinned, lambda a, r: a[-1])
    )
    audit_instance(dict(standard_corpus())["layered-06-m2"], Fraction(1, 2))
    assert len(families) == 1
    assert len(assigns) == len(sources) == 1
    assert sources[0] is assigns[0].fam is families[0]


@st.composite
def _audit_cases(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=7, unique=True))
    m = draw(st.integers(min_value=1, max_value=2))
    eps = draw(st.sampled_from([Fraction(1), Fraction(1, 2)]))
    return n, picked, m, eps


@settings(max_examples=30, deadline=None)
@given(_audit_cases())
def test_pinned_replay_is_complete_and_feasible(case):
    n, edges, m, eps = case
    inst = build_instance(n, m, edges)
    padded, fam = pad_with_family(inst, optimal_makespan(inst), eps)
    opt = optimal_schedule(padded)
    assign = assign_levels(padded, opt, fam)
    a, _ = best_offset(assign)
    res = run_oracle_pinned(padded, opt, a, assign)
    traces, starts, disc = res.traces, res.schedule.start, res.discarded

    assert set(starts) | disc == set(range(padded.n))
    assert not set(starts) & disc
    loads = {}
    for j, t in starts.items():
        assert 0 <= t < fam.T
        loads[t] = loads.get(t, 0) + 1
        for p in range(padded.n):
            if p in starts and (p, j) in pairs(padded):
                assert starts[p] < t
    assert all(v <= padded.m for v in loads.values())


@settings(max_examples=30, deadline=None)
@given(_audit_cases())
def test_audit_instance_holds_on_random_instances(case):
    n, edges, m, eps = case
    reports = audit_instance(build_instance(n, m, edges), eps=eps)
    for claim in CONTRACTUAL_CLAIMS + ADVISORY_CLAIMS:
        assert reports[claim].violations == 0, claim


@settings(max_examples=30, deadline=None)
@given(_audit_cases(), st.sampled_from([Fraction(1, 2), Fraction(1, 8), Fraction(1, 64)]))
def test_offset_scans_agree_with_a_scan_of_every_offset(case, eps):
    # Offsets from level_count() - 1 on have empty buckets, so best_offset
    # and the shift-bound audit stop there; the full scan must agree.
    n, edges, m, _ = case
    inst = build_instance(n, m, edges)
    padded, fam = pad_with_family(inst, optimal_makespan(inst), eps)
    assign = assign_levels(padded, optimal_schedule(padded), fam)
    stride = fam.stride
    assert stride == m / eps
    sizes = [
        sum(assign.top_at_level(level).bit_count() for level in bucket_levels(fam, a))
        for a in range(stride)
    ]
    want = min(range(stride), key=sizes.__getitem__)
    assert best_offset(assign) == (want, sizes[want])
    rep = check_shift_bound(assign)
    assert (rep.population, rep.violations, rep.worst) == (stride, 0, float(sizes[want]))


def test_a_tiny_eps_scans_only_the_family_levels():
    # m/eps is 2 * 10**9 offsets; a scan of all of them took minutes.
    inst = dict(standard_corpus())["layered-06-m2"]
    eps = Fraction(1, 10**9)
    shift = audit_instance(inst, eps)["shift-bound"]
    assert (shift.population, shift.violations) == (2 * 10**9, 0)
    _, _, assign, offset, bucket = level_analysis(inst, eps)
    assert offset < assign.fam.level_count()
    assert bucket == shift.worst == 0


# Desk-sized structures: the four random_order and layered shapes of
# perfbench's desk workload at its pinned seeds 0-3.
DESK_SIZED = [
    (f"{spec.kind}-{spec.n}-m{spec.m}-{spec.seed}", generate(spec))
    for i in range(4)
    for spec in (
        GeneratorSpec("random_order", 20, 3, seed=i, edge_prob=0.1),
        GeneratorSpec("random_order", 20, 2, seed=i, edge_prob=0.12),
        GeneratorSpec("layered", 24, 4, seed=i, layers=4, width=6, edge_prob=0.3),
        GeneratorSpec("random_order", 16, 2, seed=i, edge_prob=0.15),
    )
]


def _check_padded_optimum(inst):
    # level_analysis builds the padded optimum from one search on inst; it
    # must be the padded instance's own optimal_schedule, slot for slot.
    padded, _ = pad_to_power_of_two(inst, optimal_makespan(inst))
    if padded.n > EXACT_CAP:
        with pytest.raises(TooLarge, match=f"^n={padded.n} exceeds exact-search cap 24$"):
            level_analysis(inst, 1)
        return False
    want = optimal_schedule(padded)
    got_padded, got, *_ = level_analysis(inst, 1)
    assert got_padded == padded
    assert got.start == want.start
    assert got.horizon == want.horizon
    return True


def test_padded_optimum_is_the_padded_search():
    checked = [cid for cid, inst in standard_corpus() + DESK_SIZED if _check_padded_optimum(inst)]
    # Every instance whose padding fits the cap: 12 of the corpus's 14, and
    # the 8 desk-sized ones of optimum 7 (random-20-m3) or 8 (random-16-m2).
    assert len(checked) == 12 + 8
    assert "diamondmesh-13-m3" not in checked and "randomorder-18-m4" not in checked


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([0.1, 0.2, 0.35, 0.5, 0.8]),
    st.integers(min_value=0, max_value=10**6),
)
def test_padded_optimum_is_the_padded_search_on_random_orders(n, m, p, seed):
    _check_padded_optimum(generate(GeneratorSpec("random_order", n, m, seed=seed, edge_prob=p)))


def _tops_at(assign, levels):
    # The top jobs of the given levels, read job by job off the mask tables.
    return frozenset(
        j for lvl in levels for mask in assign.top.get(lvl, {}).values() for j in _bits(mask)
    )


def _reference_replay(inst, opt, fam, eps, offset, assign):
    # The auditors' former hand-kept copy of the solver's recursion: pin the
    # guessed jobs of levels [level, p) at their optimal slots, classify
    # (with helpers.ref_classify, not the package's split), recurse on
    # cells, window the tops and sweep. Traces are field dicts,
    # children first, with the call's level data (level, partition_level,
    # lam, top1) beside the solver's fields.
    stride = int(inst.m / Fraction(eps))
    traces, discarded = [], set()

    def call(interval, jobs, pins, depth):
        s, e = interval
        if not jobs:
            return {}
        if e - s == 1:
            tops = [TopWindow(j, s, e) for j in sorted(jobs)]
            occ = Counter(t for t in pins.values() if t == s)
            placed, disc = edf_insert(inst, tops, occ, s, e)
            discarded.update(_bits(disc))
            return placed
        level = fam.level_lengths.index(e - s)
        p = max(min(offset + depth * stride + 1, fam.deepest), level + 1)
        lam = fam.level_lengths[p]
        cells = [(t, t + lam) for t in range(s, e, lam)]
        new_pins = {}
        for lvl in range(level, p):
            for (ks, ke), members in assign.guess.get(lvl, {}).items():
                if ks >= s and ke <= e:
                    new_pins.update((j, opt.start[j]) for j in _bits(members) if j in jobs)
        bottom, top = ref_classify(inst, jobs, new_pins, cells, pins)
        merged = {**pins, **new_pins}
        starts = dict(new_pins)
        for cell in cells:
            sub = bottom[cell] - new_pins.keys()
            if sub:
                starts.update(call(cell, frozenset(sub), merged, depth + 1))
        placed_all = {**pins, **starts}
        windows = windows_for_top(inst, {interval: sum(1 << j for j in top)}, cells, placed_all)
        occ = Counter(t for t in placed_all.values() if s <= t < e)
        tplaced, tdisc = edf_insert(inst, windows, occ, s, e)
        discarded.update(_bits(tdisc))
        starts.update(tplaced)
        slots = Counter([*placed_all.values(), *tplaced.values()])
        traces.append(
            dict(
                depth=depth,
                interval=(s, e),
                level=level,
                partition_level=p,
                cells=cells,
                lam=lam,
                pins=new_pins,
                tops=top,
                windows=windows,
                top1=top & _tops_at(assign, range(level, p)),
                placed_tops=tplaced,
                loads={t: slots[t] for t in range(s, e)},
            )
        )
        return starts

    starts = call((0, fam.T), frozenset(range(inst.n)), {}, 0)
    return traces, starts, discarded


@settings(max_examples=100, deadline=None)
@given(_audit_cases(), st.integers(min_value=0, max_value=7))
# Rare in random draws: a degenerate top window, and a two-call run whose
# root sweep discards a job.
@example((3, [(0, 1), (0, 2)], 1, Fraction(1)), 0)
@example((5, [(0, 2), (0, 3), (1, 2), (1, 4)], 1, Fraction(1)), 0)
def test_pinned_run_matches_the_replay_reference(case, shift):
    n, edges, m, eps = case
    inst = build_instance(n, m, edges)
    padded, fam = pad_with_family(inst, optimal_makespan(inst), eps)
    opt = optimal_schedule(padded)
    assign = assign_levels(padded, opt, fam)
    offset = shift % fam.stride
    res = run_oracle_pinned(padded, opt, offset, assign)
    traces, starts, disc = res.traces, res.schedule.start, res.discarded
    want_traces, want_starts, want_disc = _reference_replay(padded, opt, fam, eps, offset, assign)
    assert starts == want_starts
    assert disc == want_disc

    def with_levels(tr):
        level, p = fam.level_of(tr.interval), fam.level_of(tr.cells[0])
        tops = frozenset(w.job for w in tr.windows)
        top1 = tops & _tops_at(assign, range(level, p))
        lam = tr.cells[0][1] - tr.cells[0][0]
        return {**vars(tr), "tops": tops, "level": level, "partition_level": p, "lam": lam,
                "top1": top1}

    assert [with_levels(tr) for tr in traces] == want_traces
