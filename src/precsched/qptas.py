"""Guess-and-recurse approximate scheduler with an EDF placement subroutine.

solve enumerates guesses for each interval: a set of jobs pinned to exact
slots plus a partition of the interval into cells. Remaining jobs are
classified by their feasible window under all pins so far: inside a single
cell means bottom (handled by recursing on that cell), straddling cells
means top. Top jobs get release/deadline windows snapped to cell boundaries
and are placed earliest-deadline-first in whatever capacity the recursion
left free, by the greedy slot sweep that list scheduling runs too
(edf_insert over baselines._sweep). Jobs the sweep cannot fit are
discarded, and the guess with the fewest discards wins (ties: first in
enumeration order). insert_discarded then repairs a result at the cost of
one extra slot per discarded job.

Inside the recursion every job set is a bitmask (bit j for job j): a call's
jobs, its bottoms and tops, and all discards; solve returns a frozenset.

A call's input is its subproblem alone (RecursionInput): its interval, its
jobs, their start windows under every ancestor pin, grouped as
{(lo, hi): job mask}, and the ancestor pins' load per slot of the interval.
No ancestor's pin is carried down. A call narrows those windows by its own
pins only (laminar.pin_windows: pinned jobs leave the groups, narrowing
composes), once per pin set, and classify (laminar.classify, imported here)
splits the groups into bottoms per cell and tops for every guess that
carries those pins: one bisect per distinct window. A child's input is its
cell's groups and the load inside its cell, with no further work. Windows
come from masks: model.slot_bounds narrows a job's window by only the bits
of its predecessor and successor masks that are pinned (for a pinned
window) or placed (for a top window), so no hot loop walks the whole
closure; a top starts from its group window and is
narrowed by the call's own placements only. The level analysis
(laminar.assign_levels) sorts jobs with the same two routines. Discards
only grow once a guess's cells have returned, so a guess whose cells
already discard as many jobs as the best guess so far stops there, before
its tops are windowed and swept; it could not win, and it explores no
further guesses either way.

A unit cell [t, t + 1) needs no guess: each of its jobs has window
[t, t + 1), so the EDF step over it is fixed. _settle_unit applies that
step as one mask rule inside the parent's cell loop: in id order, the jobs
with no predecessor in the cell take the capacity the pins leave at t, and
the rest are discarded. It builds no RecursionInput, explores no guess and
records no trace; a root of horizon 1 is settled by the same helper.

The recursion (_recurse) takes its guesses from a guess source, a callable
RecursionInput -> iterable of (pins, cells), which solve's caller supplies.
laminar_guesses(fam, offset) pins nothing and takes the one partition
dictated by a checked interval family (laminar.build_laminar, which the
caller runs once per solve) and a level offset. exhaustive_guesses
enumerates the full guess space, which is astronomical, so it is only
usable at toy sizes (n around 10). The auditors' source is
laminar_guesses plus pins: the same cells, with each call's guessed jobs
pinned at their optimal slots.

A call returns what it did: its starts, its discard mask, the number of
guesses it and its calls explored, and its traces, one CallTrace per
non-unit call of the winning guess (its children's, then its own), built
from the sweep's inputs and result. It reads and writes no shared state,
so equal inputs give equal returns. solve puts the count and the traces in
its SolveResult; the sweep itself has no trace mode.

solve_laminar is the scheme's one run: laminar.pad_with_family pads the
instance to a power-of-two horizon and builds its family, solve runs
laminar_guesses there, and repair (insert_discarded, then the jobs below
the original count) reinserts the discards and drops the padding. The
exhaustive mode shares repair. The auditors' pinned run calls solve
directly: it needs the unrepaired result and its traces.

solve's depth cap, depth_max, matters to the exhaustive mode alone. A
family source splits every call's interval at least one level deeper
(partition_level), so the family bounds its own recursion: solve_laminar
and the auditors' pinned run pass fam.level_count(), which no call reaches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations

from .baselines import _sweep
from .laminar import (
    EmptyWindow,
    classify,
    pad_with_family,
    partition_level,
    pin_windows,
)
from .model import (
    Instance,
    JobId,
    Schedule,
    _bits,
    _mask,
    longest_chain,
    slot_bounds,
    validate_schedule,
)


class InfeasibleHorizon(ValueError):
    """The horizon is below the longest-chain bound; nothing can fit."""


class NoSlot(RuntimeError):
    """insert_discarded found no legal slot; indicates an internal bug."""


@dataclass(frozen=True)
class TopWindow:
    """Job `job` may start in the slots [r, d)."""

    job: JobId
    r: int
    d: int

    @property
    def degenerate(self) -> bool:
        # Bad guesses can produce r > d, not just r = d; both are unplaceable.
        return self.r >= self.d


@dataclass(frozen=True)
class RecursionInput:
    """One subproblem: an interval, its jobs, and what the ancestors' pins leave.

    windows groups the jobs by start window under every ancestor pin, as
    {(lo, hi): job mask}, each window inside the interval; load maps a slot
    of the interval to the number of ancestor pins there.
    """

    interval: tuple[int, int]
    jobs: int  # job mask
    windows: dict[tuple[int, int], int]
    load: dict[int, int]
    depth: int


@dataclass
class SolveStats:
    guesses_explored: int = 0


@dataclass(frozen=True)
class SolveResult:
    """A solve's schedule, discards and guess count, and its winning calls' traces."""

    schedule: Schedule
    discarded: frozenset[JobId]
    stats: SolveStats
    traces: tuple[CallTrace, ...]


@dataclass
class CallTrace:
    """One non-unit recursion call, as its winning guess ran it.

    pins are the call's own new pins; windows holds every top window,
    degenerate included, in job order, so the call's tops are exactly the
    windows' jobs; placed_tops are the EDF placements.
    loads maps every slot of the interval to its job count after the sweep.
    A top that is neither placed nor degenerate was discarded at its deadline
    d, which windows_for_top keeps inside the interval.
    """

    depth: int
    interval: tuple[int, int]
    cells: list[tuple[int, int]]
    pins: dict[JobId, int]
    windows: list[TopWindow]
    placed_tops: dict[JobId, int]
    loads: dict[int, int]


def _add_load(load, slots):
    """A copy of load with one more job at each of the given slots."""
    out = dict(load)
    for t in slots:
        out[t] = out.get(t, 0) + 1
    return out


def windows_for_top(inst, groups, cells, placed):
    """Release/deadline per top job, in job order, snapped outward to cells.

    groups holds the tops by window, {(lo, hi): job mask}, as classify
    returns them; slot_bounds narrows each job's group window by the placed
    jobs only. r is the earliest cell start at or after the narrowed lo, d
    the latest cell end at or before the narrowed hi. When no boundary
    qualifies the window collapses (degenerate).
    """
    starts = [c[0] for c in cells]
    ends = [c[1] for c in cells]
    placed_mask = _mask(placed)
    tops = sorted((j, w) for w, mask in groups.items() for j in _bits(mask))
    out = []
    for j, w in tops:
        lo, hi = slot_bounds(inst, j, placed, placed_mask, *w)
        i = bisect_left(starts, lo)
        r = starts[i] if i < len(starts) else ends[-1]
        i = bisect_right(ends, hi) - 1
        d = ends[i] if i >= 0 else starts[0]
        out.append(TopWindow(j, r, d))
    return out


def edf_insert(inst, tops, occupancy, start, end):
    """Sweep [start, end) placing tops earliest-deadline-first.

    Degenerate windows are discarded up front, so they never block their
    successors. The rest go as (d, job, r) tuples, which sort by (deadline,
    id), to the greedy slot sweep that list scheduling also runs
    (baselines._sweep): at each slot it discards the jobs whose deadline
    has arrived and places up to the slot's residual capacity of eligible
    jobs in (deadline, id) order; a job placed at a slot blocks its
    successors until the next slot. Returns (placements, discard mask),
    where the discards are the degenerate, expired and still pending tops;
    a slot's load after the sweep is its occupancy plus the jobs placed
    there.
    """
    rest = []
    degenerate = 0
    for w in tops:
        if w.degenerate:
            degenerate |= 1 << w.job
        else:
            rest.append((w.d, w.job, w.r))
    rest.sort()
    placed, left = _sweep(inst, rest, occupancy, start, end)
    return placed, degenerate | left


def _settle_unit(inst, sub, t, free, starts):
    """Settle the unit cell [t, t + 1) that holds the job mask sub.

    Every job of the cell has window [t, t + 1), so the EDF step is one
    slot with nothing expired: a job is eligible iff none of its
    predecessors is in sub, and the first free eligible jobs in id order
    start at t. Placements go into starts in that order, and the mask of
    every other job is returned, as edf_insert would place and discard them.
    """
    pred_masks = inst.pred_masks
    disc = 0
    rest = sub
    while rest:
        low = rest & -rest
        j = low.bit_length() - 1
        rest ^= low
        if free > 0 and not pred_masks[j] & sub:
            starts[j] = t
            free -= 1
        else:
            disc |= low
    return disc


def _assignments(inst, subset, bounds, load):
    """All consistent slot assignments for subset, DFS, slots ascending.

    bounds maps each job of subset to its window under the ancestor pins,
    and load each slot to their count there. The chosen slots and their
    mask grow and shrink with the DFS, so each step is one slot_bounds that
    narrows the job's window by the jobs chosen before it.
    """
    m = inst.m
    occ = dict(load)
    chosen: dict[JobId, int] = {}

    def rec(i, chosen_mask):
        if i == len(subset):
            yield dict(chosen)
            return
        j = subset[i]
        lo, hi = slot_bounds(inst, j, chosen, chosen_mask, *bounds[j])
        inner = chosen_mask | 1 << j
        for t in range(lo, hi):
            if occ.get(t, 0) >= m:
                continue
            chosen[j] = t
            occ[t] = occ.get(t, 0) + 1
            yield from rec(i + 1, inner)
            occ[t] -= 1
            del chosen[j]

    yield from rec(0, 0)


def _partitions(s, e, cells_cap):
    """Integer-boundary partitions of [s, e), finest first."""
    inner = range(s + 1, e)
    for b in range(min(cells_cap - 1, e - s - 1), -1, -1):
        for cuts in combinations(inner, b):
            bounds = [s, *cuts, e]
            yield [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def laminar_guesses(fam, offset=0):
    """Guess source that pins nothing and takes the cells of the family fam.

    Each call gets one guess: no pins, the cells of fam at the call's
    partition level (see partition_level), whose level is shifted by
    offset. build_laminar has checked fam's parameters, so only offset is
    checked here, before any search.
    """
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")

    def guesses(rin):
        level = partition_level(fam, fam.level_of(rin.interval), rin.depth, offset)
        yield {}, fam.cells(rin.interval, level)

    return guesses


def exhaustive_guesses(inst, k_max):
    """Guess source that pins every subset of at most k_max jobs.

    Each subset is pinned at every consistent slot, on every integer-boundary
    partition of the interval into at most max(1, k_max) cells. Pin sets come
    largest-first, so the fully pinned branch, whose zero discards end the
    search early, is tried before anything else; within a size, subsets
    ascend lexicographically and slots ascend per job.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")

    def guesses(rin):
        jobs = list(_bits(rin.jobs))
        bounds = {j: w for w, mask in rin.windows.items() for j in _bits(mask)}
        partitions = list(_partitions(*rin.interval, max(1, k_max)))
        for size in range(min(k_max, len(jobs)), -1, -1):
            for subset in combinations(jobs, size):
                for pins in _assignments(inst, subset, bounds, rin.load):
                    for cells in partitions:
                        yield pins, cells

    return guesses


def _recurse(inst, rin, depth_max, guesses):
    """(starts, discard mask, guesses explored, traces) of the best guess for rin.

    A function of its input: the count covers every guess the source
    yields for rin and its calls explore, and traces holds the winning
    guess's CallTraces, its children's, then its own. A guess narrows
    rin.windows by its own pins only (or prunes on EmptyWindow), and its
    pins join rin.load; both are kept while consecutive guesses carry equal
    pins, since the cells, which partition the interval, do not change
    them. A child's input is its cell's groups and the load inside the
    cell. A guess whose cells discard at least as many jobs as the best
    guess skips its tops. rin.depth is below depth_max; a child at
    depth_max gets no call and discards its jobs, unless its cell is a unit
    interval. A unit cell gets no call at any depth: _settle_unit settles
    it in the cell loop, under the pins' load at its slot.
    """
    s, e = rin.interval
    if not rin.jobs:
        return {}, 0, 0, []
    if e - s == 1:
        # Only a root of horizon 1 gets here: unit cells are settled in
        # their parent's cell loop, by the same rule.
        starts: dict[JobId, int] = {}
        return starts, _settle_unit(inst, rin.jobs, s, inst.m - rin.load.get(s, 0), starts), 0, []
    best = None
    explored = 0
    last_pins = groups = None
    capped = rin.depth + 1 >= depth_max
    for pins, cells in guesses(rin):
        explored += 1
        if pins != last_pins:
            last_pins = dict(pins)
            try:
                groups = pin_windows(inst, rin.windows, pins)
                pin_load = _add_load(rin.load, pins.values())
            except EmptyWindow:
                groups = None
        if groups is None:
            continue
        bottom, top = classify(groups, cells)
        calls = []
        starts = dict(pins)
        disc = 0
        for (lo, hi), windows in bottom.items():
            sub = sum(windows.values())
            if not sub:
                continue
            if hi - lo == 1:
                # A unit cell explores no guess and records no trace, and
                # the depth cap does not apply to it.
                disc |= _settle_unit(inst, sub, lo, inst.m - pin_load.get(lo, 0), starts)
                continue
            if capped:
                # The depth cap: the child's whole job set is discarded,
                # with no guess explored and no trace recorded.
                disc |= sub
                continue
            load = {t: c for t, c in pin_load.items() if lo <= t < hi}
            child = RecursionInput((lo, hi), sub, windows, load, rin.depth + 1)
            cstarts, cdisc, cexplored, ctraces = _recurse(inst, child, depth_max, guesses)
            starts.update(cstarts)
            disc |= cdisc
            explored += cexplored
            calls += ctraces
        if best is not None and disc.bit_count() >= best[1].bit_count():
            # The tops can only add discards, so this guess cannot win.
            continue
        top_windows = windows_for_top(inst, top, cells, starts)
        occupancy = _add_load(rin.load, starts.values())
        tplaced, tdisc = edf_insert(inst, top_windows, occupancy, s, e)
        starts.update(tplaced)
        disc |= tdisc
        if best is None or disc.bit_count() < best[1].bit_count():
            # Only the best guess's trace is returned, so only a new best builds one.
            loads = _add_load({t: occupancy.get(t, 0) for t in range(s, e)}, tplaced.values())
            calls.append(
                CallTrace(rin.depth, rin.interval, cells, dict(pins), top_windows, tplaced, loads)
            )
            best = (starts, disc, calls)
            if not disc:
                break
    if best is None:
        # Every guess was pruned; cannot happen from a consistent parent.
        return {}, rin.jobs, explored, []
    return best[0], best[1], explored, best[2]


def solve(inst: Instance, T: int, guesses, depth_max: int) -> SolveResult:
    """Best-guess schedule inside horizon T, its discards, guess count and traces.

    guesses is the guess source, a callable RecursionInput -> iterable of
    (pins, cells), such as laminar_guesses or exhaustive_guesses. depth_max
    caps recursion depth: a cell at depth depth_max discards its whole job
    set, unless it is a unit interval, which _settle_unit settles at any
    depth with no guess explored. The result's traces hold one CallTrace
    per non-unit call of the winning guesses, children first.

    Raises InfeasibleHorizon below the longest-chain bound. The result
    schedule keeps horizon T even when the last busy slot is earlier;
    insert_discarded extends it by one per discard.
    """
    if depth_max < 1:
        raise ValueError(f"depth_max must be >= 1, got {depth_max}")
    if inst.n == 0:
        return SolveResult(Schedule({}, T), frozenset(), SolveStats(), ())
    chain = longest_chain(inst)
    if T < chain:
        raise InfeasibleHorizon(f"horizon {T} is below the chain bound {chain}")
    jobs = (1 << inst.n) - 1
    root = RecursionInput((0, T), jobs, {(0, T): jobs}, {}, 0)
    starts, disc, explored, traces = _recurse(inst, root, depth_max, guesses)
    sched = Schedule(starts, T)
    report = validate_schedule(inst, sched)
    if not report.feasible or _mask(starts) ^ disc != root.jobs:
        raise RuntimeError("internal: inconsistent solve result")
    return SolveResult(sched, frozenset(_bits(disc)), SolveStats(explored), tuple(traces))


def insert_discarded(inst: Instance, sched: Schedule, discarded) -> Schedule:
    """Reinsert discarded jobs, opening one fresh slot per job.

    Ascending job id: place j right after its last scheduled predecessor,
    shifting every start from that point on by one. That point and the
    earliest scheduled successor start are slot_bounds over [0, horizon)
    with the mask of the scheduled jobs, reinserted ones included.
    Transitive closure guarantees no scheduled successor sits before that
    point; seeing one raises NoSlot.
    """
    starts = dict(sched.start)
    horizon = sched.horizon
    scheduled = _mask(starts)
    for j in sorted(discarded):
        if j in starts:
            raise ValueError(f"job {j} is both scheduled and discarded")
        t, hi = slot_bounds(inst, j, starts, scheduled, 0, horizon)
        if hi < t:
            raise NoSlot(f"job {j} must start by slot {hi}, before its earliest slot {t}")
        starts = {i: (x + 1 if x >= t else x) for i, x in starts.items()}
        starts[j] = t
        scheduled |= 1 << j
        horizon += 1
    return Schedule(starts, horizon)


def repair(target: Instance, result: SolveResult, n: int) -> tuple[Schedule, int, int]:
    """(schedule, discards, guesses explored) of a solve of target, jobs below n kept.

    insert_discarded reinserts the result's discards, one fresh slot each,
    and target's jobs from n on, the padding when target is a padded
    instance, are dropped. The horizon keeps the accounting: the solve's
    horizon plus one slot per discard.
    """
    sched = insert_discarded(target, result.schedule, result.discarded)
    start = {j: t for j, t in sched.start.items() if j < n}
    return Schedule(start, sched.horizon), len(result.discarded), result.stats.guesses_explored


def solve_laminar(inst: Instance, T: int, eps) -> tuple[Schedule, int, int]:
    """The laminar scheme at horizon T: (schedule, discards, guesses explored).

    The one run: pad_with_family pads inst to its power-of-two horizon T*
    and builds the family, solve runs laminar_guesses on the padded
    instance at T*, and repair reinserts the discards and drops the
    dummies. The family bounds the recursion: every call splits its
    interval at least one level deeper, so a non-unit call's depth is
    below fam.deepest and the depth cap fam.level_count() is never reached.
    An empty instance gets an empty schedule at horizon T, once eps has
    passed the same checks on the 2-job family of horizon 1.
    """
    if inst.n == 0:
        pad_with_family(inst, 1, eps)
        return Schedule(start={}, horizon=T), 0, 0
    padded, fam = pad_with_family(inst, T, eps)
    return repair(padded, solve(padded, fam.T, laminar_guesses(fam), fam.level_count()), inst.n)
