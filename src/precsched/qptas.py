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

Windows come from masks: model.slot_bounds narrows a job's window by only
the bits of its predecessor and successor masks that are pinned (for a
pinned window) or placed (for a top window), so no hot loop walks the whole
closure. The pinned windows depend on the pins alone, so _recurse computes
them once per pin set, grouped as {(lo, hi): job mask} by
laminar.pin_windows, and laminar.split_by_cells splits the groups by cells
for every guess that carries those pins: one bisect per distinct window,
and one group in all when nothing is pinned. The level analysis
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
laminar_guesses pins nothing and takes the one partition dictated by the
interval family and a level offset. exhaustive_guesses enumerates the full
guess space, which is astronomical, so it is only usable at toy sizes (n
around 10). The auditors pass a source that pins each call's guessed jobs at
their optimal slots. Given a trace list, the recursion records one CallTrace
per non-unit call of the winning guess, built from the sweep's inputs and
result; the sweep itself has no trace mode.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations

from .baselines import TopWindow, _sweep
from .laminar import (
    EmptyWindow,
    build_laminar,
    partition_level,
    pin_windows,
    split_by_cells,
    stride_of,
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
class RecursionInput:
    interval: tuple[int, int]
    jobs: int  # job mask
    pinned: dict[JobId, int]
    depth: int


@dataclass
class SolveStats:
    guesses_explored: int = 0


@dataclass(frozen=True)
class SolveResult:
    schedule: Schedule
    discarded: frozenset[JobId]
    stats: SolveStats


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


def _loads(slots, s, e):
    """Jobs per slot among the given slots that fall in [s, e)."""
    occ: dict[int, int] = {}
    for t in slots:
        if s <= t < e:
            occ[t] = occ.get(t, 0) + 1
    return occ


def classify(inst, jobs, pinned_new, cells, pinned_old):
    """Split jobs into bottom-per-cell and top by feasible window.

    laminar.pin_windows then laminar.split_by_cells on masks, turned into
    frozensets here; _recurse runs the same two steps, the first once per
    pin set. A pinned job counts as bottom of the cell holding its slot.
    Raises EmptyWindow when the combined pins squeeze some job out
    entirely, which prunes the guess.
    """
    merged = {**pinned_old, **pinned_new}
    groups = pin_windows(inst, _mask(jobs), pinned_new, merged, cells[-1][1])
    bottom, top = split_by_cells(groups, cells)
    return {c: frozenset(_bits(v)) for c, v in bottom.items()}, frozenset(_bits(top))


def windows_for_top(inst, top, cells, placed):
    """Release/deadline per top job, snapped outward to cell boundaries.

    r is the earliest cell start at or after every placed predecessor's
    completion, d the latest cell end at or before every placed successor's
    start. When no boundary qualifies the window collapses (degenerate).
    The bounds are slot_bounds over the cells' span with the placed mask.
    """
    starts = [c[0] for c in cells]
    ends = [c[1] for c in cells]
    placed_mask = _mask(placed)
    out = []
    for j in sorted(top):
        lo, hi = slot_bounds(inst, j, placed, placed_mask, starts[0], ends[-1])
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


def _assignments(inst, subset, base_pins, s, e):
    """All consistent slot assignments for subset, DFS, slots ascending.

    The merged pins and their mask grow and shrink with the DFS, so each
    step is one slot_bounds over [s, e) under the pinned mask and nothing is
    rebuilt per step.
    """
    m = inst.m
    occ = _loads(base_pins.values(), s, e)
    merged = dict(base_pins)
    chosen: dict[JobId, int] = {}

    def rec(i, pinned_mask):
        if i == len(subset):
            yield dict(chosen)
            return
        j = subset[i]
        lo, hi = slot_bounds(inst, j, merged, pinned_mask, s, e)
        inner = pinned_mask | 1 << j
        for t in range(lo, hi):
            if occ.get(t, 0) >= m:
                continue
            chosen[j] = merged[j] = t
            occ[t] = occ.get(t, 0) + 1
            yield from rec(i + 1, inner)
            occ[t] -= 1
            del chosen[j]
        # merged is read only at pinned bits, so a slot left behind is never
        # seen, except that of a job in subset and base_pins both.
        if j in base_pins:
            merged[j] = base_pins[j]

    yield from rec(0, _mask(base_pins))


def _partitions(s, e, cells_cap):
    """Integer-boundary partitions of [s, e), finest first."""
    inner = range(s + 1, e)
    for b in range(min(cells_cap - 1, e - s - 1), -1, -1):
        for cuts in combinations(inner, b):
            bounds = [s, *cuts, e]
            yield [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def laminar_guesses(inst, T, eps, offset=0):
    """Guess source that pins nothing and takes the family's cells.

    Each call gets one guess: no pins, the cells of the interval family at
    the call's partition level (see partition_level), whose level is
    shifted by offset. Builds the family once; T must be a power of two (see
    pad_to_power_of_two) and m/eps a positive integer, and both are checked
    here, before any search.
    """
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    stride = stride_of(inst.m, eps)
    fam = build_laminar(T, max(inst.n, 2), eps)

    def guesses(rin):
        level = partition_level(fam, fam.level_of(rin.interval), rin.depth, stride, offset)
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
        s, e = rin.interval
        jobs = list(_bits(rin.jobs))
        partitions = list(_partitions(s, e, max(1, k_max)))
        for size in range(min(k_max, len(jobs)), -1, -1):
            for subset in combinations(jobs, size):
                for pins in _assignments(inst, subset, rin.pinned, s, e):
                    for cells in partitions:
                        yield pins, cells

    return guesses


def _recurse(inst, rin, depth_max, guesses, stats, traces=None):
    """Best (starts, discard mask) over the guesses the source yields for rin.

    When traces is a list, the winning guess's CallTraces (its children's,
    then its own) are appended to it; otherwise no trace is built. The
    grouped pin windows (or their EmptyWindow prune) and the pins' mask are
    kept while consecutive guesses carry equal pins, since the cells, which
    partition the interval, do not change them. A guess whose cells discard
    at least as many jobs as the best guess skips its tops. rin.depth is
    below depth_max; a child at depth_max gets no call and discards its
    jobs, unless its cell is a unit interval. A unit cell gets no call at
    any depth: _settle_unit settles it in the cell loop, under the pins'
    load at its slot, which is kept with the pin windows.
    """
    s, e = rin.interval
    if not rin.jobs:
        return {}, 0
    if e - s == 1:
        # Only a root of horizon 1 gets here: unit cells are settled in
        # their parent's cell loop, by the same rule.
        starts: dict[JobId, int] = {}
        free = inst.m - _loads(rin.pinned.values(), s, e).get(s, 0)
        return starts, _settle_unit(inst, rin.jobs, s, free, starts)
    best = None
    last_pins = groups = None
    capped = rin.depth + 1 >= depth_max
    for pins, cells in guesses(rin):
        stats.guesses_explored += 1
        if pins != last_pins:
            last_pins = dict(pins)
            merged = {**rin.pinned, **pins}
            pins_mask = _mask(pins)
            try:
                groups = pin_windows(inst, rin.jobs, pins, merged, e)
                pin_load = _loads(merged.values(), s, e)
            except EmptyWindow:
                groups = None
        if groups is None:
            continue
        bottom, top_mask = split_by_cells(groups, cells)
        calls = None if traces is None else []
        starts = dict(pins)
        disc = 0
        for cell in cells:
            sub = bottom[cell] & ~pins_mask
            if not sub:
                continue
            lo, hi = cell
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
            child = RecursionInput(cell, sub, merged, rin.depth + 1)
            cstarts, cdisc = _recurse(inst, child, depth_max, guesses, stats, calls)
            starts.update(cstarts)
            disc |= cdisc
        if best is not None and disc.bit_count() >= best[1].bit_count():
            # The tops can only add discards, so this guess cannot win.
            continue
        placed_all = {**rin.pinned, **starts}
        top_windows = windows_for_top(inst, _bits(top_mask), cells, placed_all)
        occupancy = _loads(placed_all.values(), s, e)
        tplaced, tdisc = edf_insert(inst, top_windows, occupancy, s, e)
        starts.update(tplaced)
        disc |= tdisc
        if calls is not None:
            loads = {t: occupancy.get(t, 0) for t in range(s, e)}
            for t in tplaced.values():
                loads[t] += 1
            calls.append(
                CallTrace(
                    depth=rin.depth,
                    interval=rin.interval,
                    cells=cells,
                    pins=dict(pins),
                    windows=top_windows,
                    placed_tops=tplaced,
                    loads=loads,
                )
            )
        if best is None or disc.bit_count() < best[1].bit_count():
            best = (starts, disc, calls)
            if not disc:
                break
    if best is None:
        # Every guess was pruned; cannot happen from a consistent parent.
        return {}, rin.jobs
    if traces is not None:
        traces.extend(best[2])
    return best[0], best[1]


def solve(inst: Instance, T: int, guesses, depth_max: int, traces=None) -> SolveResult:
    """Best-guess schedule inside horizon T plus the jobs it discarded.

    guesses is the guess source, a callable RecursionInput -> iterable of
    (pins, cells), such as laminar_guesses or exhaustive_guesses. depth_max
    caps recursion depth: a cell at depth depth_max discards its whole job
    set, unless it is a unit interval, which _settle_unit settles at any
    depth with no guess explored. When traces is a list, one CallTrace per
    non-unit call of the winning guesses is appended to it, children first.

    Raises InfeasibleHorizon below the longest-chain bound. The result
    schedule keeps horizon T even when the last busy slot is earlier;
    insert_discarded extends it by one per discard.
    """
    if depth_max < 1:
        raise ValueError(f"depth_max must be >= 1, got {depth_max}")
    stats = SolveStats()
    if inst.n == 0:
        return SolveResult(Schedule({}, T), frozenset(), stats)
    chain = longest_chain(inst)
    if T < chain:
        raise InfeasibleHorizon(f"horizon {T} is below the chain bound {chain}")
    root = RecursionInput((0, T), (1 << inst.n) - 1, {}, 0)
    starts, disc = _recurse(inst, root, depth_max, guesses, stats, traces)
    sched = Schedule(starts, T)
    report = validate_schedule(inst, sched)
    if not report.feasible or _mask(starts) ^ disc != root.jobs:
        raise RuntimeError("internal: inconsistent solve result")
    return SolveResult(sched, frozenset(_bits(disc)), stats)


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
