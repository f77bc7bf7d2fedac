"""Guess-and-recurse approximate scheduler with an EDF placement subroutine.

solve enumerates guesses for each interval: a set of jobs pinned to exact
slots plus a partition of the interval into cells. Remaining jobs are
classified by their feasible window under all pins so far: inside a single
cell means bottom (handled by recursing on that cell), straddling cells
means top. Top jobs get release/deadline windows snapped to cell boundaries
and are placed by an earliest-deadline-first sweep in whatever capacity the
recursion left free. Jobs the sweep cannot fit are discarded, and the guess
with the fewest discards wins (ties: first in enumeration order).
insert_discarded then repairs a result at the cost of one extra slot per
discarded job.

Windows come from masks: model.slot_bounds narrows a job's window by only
the bits of its predecessor and successor masks that are pinned (for a
pinned window) or placed (for a top window), so no hot loop walks the whole
closure. The pinned windows depend on the pins alone, so _recurse computes
them once per pin set, grouped as {(lo, hi): job mask}, and splits the
groups by cells for every guess that carries those pins: one bisect per
distinct window, and one group in all when nothing is pinned. Discards only grow once a guess's
cells have returned, so a guess whose cells already discard as many jobs as
the best guess so far stops there, before its tops are windowed and swept;
it could not win, and it explores no further guesses either way.

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
from .laminar import (
    EmptyWindow,
    build_laminar,
    feasible_windows,
    partition_level,
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
class TopWindow:
    job: JobId
    r: int
    d: int

    @property
    def degenerate(self) -> bool:
        # Bad guesses can produce r > d, not just r = d; both are unplaceable.
        return self.r >= self.d


@dataclass(frozen=True)
class RecursionInput:
    interval: tuple[int, int]
    jobs: frozenset[JobId]
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
    degenerate included, in job order; placed_tops are the EDF placements.
    loads maps every slot of the interval to its job count after the sweep.
    A top that is neither placed nor degenerate was discarded at its deadline
    d, which windows_for_top keeps inside the interval.
    """

    depth: int
    interval: tuple[int, int]
    cells: list[tuple[int, int]]
    pins: dict[JobId, int]
    tops: frozenset[JobId]
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


def pin_windows(inst, jobs, pinned_new, merged, end):
    """Jobs grouped by their window [lo, hi) under all pins: {(lo, hi): job mask}.

    merged holds every pin, pinned_new's included. A job pinned by
    pinned_new gets its own slot [t, t + 1); every other job gets
    feasible_windows under merged, which walks only the pinned bits of its
    masks. The windows depend on the pins alone, not on the cells, so a
    recursion call computes them once per pin set. Raises EmptyWindow when
    the pins squeeze some job out entirely.
    """
    free = [j for j in jobs if j not in pinned_new]
    groups: dict[tuple[int, int], int] = {}
    for j, w in zip(free, feasible_windows(inst, free, merged, end)):
        groups[w] = groups.get(w, 0) | 1 << j
    for j, t in pinned_new.items():
        if j in jobs:
            groups[t, t + 1] = groups.get((t, t + 1), 0) | 1 << j
    return groups


def split_by_cells(groups, cells):
    """(bottom mask per cell, top mask) from pin_windows' groups.

    A window inside one cell is bottom, else top; one bisect per distinct
    window, not per job.
    """
    starts = [c[0] for c in cells]
    bottom = dict.fromkeys(cells, 0)
    top = 0
    for (lo, hi), mask in groups.items():
        cell = cells[bisect_right(starts, lo) - 1]
        if hi <= cell[1]:
            bottom[cell] |= mask
        else:
            top |= mask
    return bottom, top


def classify(inst, jobs, pinned_new, cells, pinned_old):
    """Split jobs into bottom-per-cell and top by feasible window.

    pin_windows then split_by_cells, with the masks turned into frozensets;
    _recurse runs the same two steps, the first once per pin set. A pinned
    job counts as bottom of the cell holding its slot. Raises EmptyWindow
    when the combined pins squeeze some job out entirely, which prunes the
    guess.
    """
    merged = {**pinned_old, **pinned_new}
    bottom, top = split_by_cells(pin_windows(inst, jobs, pinned_new, merged, cells[-1][1]), cells)
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
    successors. Then at each slot: discard unplaced jobs whose deadline has
    arrived, and fill the residual capacity (none when the slot is already
    full or over) with eligible jobs in (deadline, id) order. A bitmask
    `pending` holds the batch's jobs that are neither placed nor discarded; a
    job is eligible when released and none of its predecessors is pending,
    one mask test per job. Jobs placed at this slot only leave `pending`
    after every job's test, so they block their successors until the next
    slot. Returns (placements, discards); a slot's load after the sweep is
    its occupancy plus the jobs placed there.
    """
    pred_masks = inst.pred_masks
    rest = []
    pending = 0
    discards: set[JobId] = set()
    for w in sorted(tops, key=lambda w: (w.d, w.job)):
        if w.degenerate:
            discards.add(w.job)
        else:
            rest.append(w)
            pending |= 1 << w.job
    placed: dict[JobId, int] = {}
    for t in range(start, end):
        # rest is sorted by deadline, so the expired jobs form a prefix.
        k = 0
        while k < len(rest) and rest[k].d <= t:
            w = rest[k]
            discards.add(w.job)
            pending ^= 1 << w.job
            k += 1
        if k:
            del rest[:k]
        free = inst.m - occupancy.get(t, 0)
        if free <= 0:
            continue
        ready = [w for w in rest if w.r <= t and not pred_masks[w.job] & pending]
        if ready:
            for w in ready[:free]:
                placed[w.job] = t
                pending ^= 1 << w.job
            rest = [w for w in rest if pending >> w.job & 1]
    discards.update(w.job for w in rest)
    return placed, discards


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
        jobs = sorted(rin.jobs)
        partitions = list(_partitions(s, e, max(1, k_max)))
        for size in range(min(k_max, len(jobs)), -1, -1):
            for subset in combinations(jobs, size):
                for pins in _assignments(inst, subset, rin.pinned, s, e):
                    for cells in partitions:
                        yield pins, cells

    return guesses


def _recurse(inst, rin, depth_max, guesses, stats, traces=None):
    """Best (starts, discards) over the guesses the source yields for rin.

    When traces is a list, the winning guess's CallTraces (its children's,
    then its own) are appended to it; otherwise no trace is built. The
    grouped pin windows (or their EmptyWindow prune) and the pins' mask are
    kept while consecutive guesses carry equal pins, since the cells, which
    partition the interval, do not change them. A guess whose cells discard
    at least as many jobs as the best guess skips its tops. rin.depth is
    below depth_max; a child at depth_max gets no call and discards its
    jobs, unless its cell is a unit interval, which one EDF step settles.
    """
    s, e = rin.interval
    if not rin.jobs:
        return {}, set()
    if e - s == 1:
        # Unit intervals skip guessing and the depth cap: every job here has
        # window exactly [s, s+1), so a single EDF step settles them.
        tops = [TopWindow(j, s, e) for j in sorted(rin.jobs)]
        return edf_insert(inst, tops, _loads(rin.pinned.values(), s, e), s, e)
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
            except EmptyWindow:
                groups = None
        if groups is None:
            continue
        bottom, top_mask = split_by_cells(groups, cells)
        calls = None if traces is None else []
        starts = dict(pins)
        disc: set[JobId] = set()
        for cell in cells:
            sub = bottom[cell] & ~pins_mask
            if not sub:
                continue
            if capped and cell[1] - cell[0] != 1:
                # The depth cap: the child's whole job set is discarded,
                # with no guess explored and no trace recorded.
                disc.update(_bits(sub))
                continue
            child = RecursionInput(cell, frozenset(_bits(sub)), merged, rin.depth + 1)
            cstarts, cdisc = _recurse(inst, child, depth_max, guesses, stats, calls)
            starts.update(cstarts)
            disc |= cdisc
        if best is not None and len(disc) >= len(best[1]):
            # The tops can only add discards, so this guess cannot win.
            continue
        top = frozenset(_bits(top_mask))
        placed_all = {**rin.pinned, **starts}
        top_windows = windows_for_top(inst, top, cells, placed_all)
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
                    tops=top,
                    windows=top_windows,
                    placed_tops=tplaced,
                    loads=loads,
                )
            )
        if best is None or len(disc) < len(best[1]):
            best = (starts, disc, calls)
            if not disc:
                break
    if best is None:
        # Every guess was pruned; cannot happen from a consistent parent.
        return {}, set(rin.jobs)
    if traces is not None:
        traces.extend(best[2])
    return best[0], best[1]


def solve(inst: Instance, T: int, guesses, depth_max: int, traces=None) -> SolveResult:
    """Best-guess schedule inside horizon T plus the jobs it discarded.

    guesses is the guess source, a callable RecursionInput -> iterable of
    (pins, cells), such as laminar_guesses or exhaustive_guesses. depth_max
    caps recursion depth: a cell at depth depth_max discards its whole job
    set, unless it is a unit interval. When traces is a list, one CallTrace per non-unit
    call of the winning guesses is appended to it, children first.

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
    root = RecursionInput((0, T), frozenset(range(inst.n)), {}, 0)
    starts, disc = _recurse(inst, root, depth_max, guesses, stats, traces)
    sched = Schedule(starts, T)
    report = validate_schedule(inst, sched)
    if not report.feasible or set(starts) & disc or set(starts) | disc != set(range(inst.n)):
        raise RuntimeError("internal: inconsistent solve result")
    return SolveResult(sched, frozenset(disc), stats)


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
