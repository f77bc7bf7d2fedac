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
No ancestor's pin is carried down. A call's windows are narrowed by its
own pins only (pinned jobs leave the groups, and narrowing composes), and
the guess source does it: each pin set comes with its narrowed groups,
which classify (laminar.classify, imported here) splits into bottoms per
cell and tops for every guess that carries those pins, one bisect per
distinct window. A child's input is its cell's groups and the load inside
its cell, with no further work. Windows come from masks:
laminar.narrow_by_pin narrows groups by one pin with a mask operation per
group, and model.slot_bounds narrows one job's window by only the bits of
its predecessor and successor masks that are placed, so no hot loop walks
the whole closure; a top starts from its group window and is narrowed by
the call's own placements only. The level analysis
(laminar.assign_levels) sorts jobs with the same routines. Discards
only grow once a guess's cells have returned, so a guess whose cells
already discard as many jobs as the best guess so far stops there, before
its tops are windowed and swept; it could not win. A call also skips
whole pin sets, at any depth. Once it has a best guess, it takes a discard
floor of each pin set's narrowed groups (_discard_floor): for every
distinct window (a, b), the jobs whose windows lie inside it less the free
slots of [a, b). Every job a guess places, in the call or in its
children, starts inside its group window, so no guess with those pins
discards fewer, and while the floor is at least the best guess's discard
count each of them is counted and skipped before classify, and the child
calls they would make never run. A window's excess never falls when a pin
is added: the other jobs' windows only shrink, and the pinned job either
moves from the window's jobs to its pins or adds a pin. So the floor of a
pin-set prefix bounds every pin set below it, and the exhaustive source,
which the call tells its best discard count, counts those pin sets instead
of building them (see below). Neither cutoff changes an output; the
prefix floor can only lower the guess count, and only where guesses have
child calls (see SolveStats).

A unit cell [t, t + 1) needs no guess: each of its jobs has window
[t, t + 1), so the EDF step over it is fixed. _settle_unit runs that step
inside the parent's cell loop as one call of the shared slot sweep
(baselines._sweep) over windows [t, t + 1), with the pin load as its
occupancy: in id order, the jobs with no predecessor in the cell take the
capacity the pins leave at t, and the rest are discarded. It builds no
RecursionInput, explores no guess and records no trace; a root of horizon
1 is settled by the same helper.

The recursion (_recurse) takes its guesses from a guess source, which
solve's caller supplies: a callable (RecursionInput, bound) -> iterable of
(pins, groups, partitions), one item per pin set. groups are the call's
windows narrowed by pins (laminar.pin_windows(inst, rin.windows, pins)),
or None when that empties an unpinned job's window, and each cells list
in partitions, with those pins, is one guess. bound returns the call's
best discard count so far, or None before it has a best guess. A source
may yield an int in place of pin sets none of whose guesses can discard
fewer: the number of those guesses, which the call counts and runs
nothing for. A source may also ignore bound, as laminar_guesses and the
auditors' source do. laminar_guesses(fam, offset)
pins nothing, so it narrows nothing, and takes the one partition dictated
by a checked interval family (laminar.build_laminar, which the caller runs
once per solve) and a level offset. exhaustive_guesses enumerates the full
guess space, which is astronomical, so it is only usable at toy sizes (n
around 10). It walks a prefix tree of pin sets (_pin_sets): combinations
lists the subsets that share a prefix one after another, and a prefix's
pin sets, each of its parent's extended by every free slot of the next
job's window, are built once and read by every subset that extends it.
Each carries its narrowed groups, so an extension reads the next job's
window from them and narrows them by its one new pin. The walk is lazy:
it builds a pin set only when the recursion pulls it, so a search that
stops at its first zero-discard guess pays for one path. It also reads
the bound: a prefix takes its floor once, and below a prefix whose floor
reaches the bound the walk goes lean. There each pin set is a mask of the
slots its later jobs may not start at and its slots' pin counts, and a
new pin updates both with a few integer operations: no narrow_by_pin, no
pins dict, no load and no floor. The last job's slots are only counted,
per parent, and the count comes to the call as an int. The auditors'
source is laminar_guesses plus pins: the same cells, with each call's
guessed jobs pinned at their optimal slots and its windows narrowed by
them.

A call returns what it did: its starts, its discard mask, the number of
guesses yielded to it and to the calls it ran (a guess a floor skips
counts, the child calls it never starts count nothing; see SolveStats),
and its traces, one CallTrace per non-unit call of the winning guess (its
children's, then its own), built from the sweep's inputs and result. It
reads and writes no shared state, so equal inputs give equal returns.
solve puts the count and the traces in its SolveResult; the sweep itself
has no trace mode.

solve_laminar is the scheme's one run: laminar.pad_with_family pads the
instance to a power-of-two horizon and builds its family, solve runs
laminar_guesses there, and repair (insert_discarded, then the jobs below
the original count) reinserts the discards and drops the padding. The
exhaustive mode shares repair. The auditors' pinned run calls solve
directly: it needs the unrepaired result and its traces. What the run
computes today is list scheduling by id on the padded instance, cut off at
T*, then repair: laminar_guesses pins nothing, so the root's one window
(0, T*) straddles every cell, every job is a top with window [0, T*), and
the root's sweep places them in id order with no child call. That is what
the CLI's --mode laminar and bench's qptas rows measure; tests/test_qptas.py
(test_a_family_run_places_every_job_where_list_scheduling_by_id_does)
pins it.

solve's depth cap, depth_max, matters to the exhaustive mode alone. A
family source splits every call's interval at least one level deeper
(partition_level), so the family bounds its own recursion: solve_laminar
and the auditors' pinned run pass fam.level_count(), which no call reaches.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from copy import copy
from itertools import combinations, tee

from .baselines import _sweep
from .laminar import classify, narrow_by_pin, pad_with_family, partition_level
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
    """A solve's guess count, the `explored=` of the CLI.

    guesses_explored is the number of guesses yielded to calls that ran:
    each call counts every guess (one cells list of a pin set) it takes
    from its source, whether it runs it, prunes it for an emptied window or
    skips it by a discard floor, and stops taking at its first guess with
    no discard. A guess is skipped by its pin set's floor in the call, or
    by the floor of one of the pin set's prefixes in the exhaustive source,
    which yields the number of such guesses. A skipped guess counts once;
    the child calls it never starts explore nothing. So at depth_max 1,
    where no guess has a child call, the floors move no count, and deeper
    they can only lower it. Unit cells, and a root of horizon 1, explore no
    guess.
    """

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
    """Release/deadline per top job, in job order, snapped inward to cells.

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


def _settle_unit(inst, sub, t, load, starts):
    """Settle the unit cell [t, t + 1) that holds the job mask sub.

    Every job of the cell has window [t, t + 1), so the cell's EDF step is
    the one greedy slot sweep (baselines._sweep) over those windows, with
    load, the pins per slot, as its occupancy: the jobs with no predecessor
    in sub take the machines the pins leave free at t in id order. Its
    placements go into starts, and the mask of every other job is returned,
    as edf_insert would place and discard them.
    """
    placed, left = _sweep(inst, [(t + 1, j, t) for j in _bits(sub)], load, t, t + 1)
    starts.update(placed)
    return left


def _discard_floor(groups, load, m):
    """A lower bound on the discards of every guess whose groups these are.

    groups are pin_windows' groups of a call, and load its pin load per
    slot, ancestors' and own pins. A guess starts every job it places
    inside the job's group window, and a slot t has room for m - load[t]
    unpinned jobs. So for each distinct window (a, b), the jobs whose
    windows lie inside it, less the free slots of [a, b), are discarded.
    The floor is the largest such excess, or 0. No window's excess falls
    when a pin at a slot of its job's window is added, so the floor of a
    prefix of pins also bounds the discards of every guess whose pins
    extend the prefix.
    """
    floor = 0
    for a, b in groups:
        excess = m * (a - b)
        for t, count in load.items():
            if a <= t < b:
                excess += count
        for (lo, hi), mask in groups.items():
            if a <= lo and hi <= b:
                excess += mask.bit_count()
        if excess > floor:
            floor = excess
    return floor


def _pin_sets(inst, jobs, size, windows, load, bound=None):
    """Every consistent pinning of each size-subset of jobs, with its groups, lazily.

    Yields (pins, groups): pins a dict in subset order, groups windows
    narrowed by pins (pin_windows(inst, windows, pins)), or None when that
    empties an unpinned job's window. Subsets come in combinations(jobs,
    size) order, and a subset's pin sets in DFS order, slots ascending per
    job. windows groups the jobs by their window under the ancestor pins,
    and load maps each slot to their count there. A prefix (j1 .. ji)
    carries its narrowed groups: its pin sets are those of (j1 .. j(i-1)),
    each extended by every slot of ji's window in them that holds fewer
    than m pins, and each extension narrows the groups by its one new pin
    (narrow_by_pin). Consecutive subsets share their longest common prefix,
    so each prefix's stream is a tee, kept while the subsets extend it:
    each subset reads a copy, and a prefix's pin sets are built and
    narrowed once, and only as far as some reader has pulled them.

    bound, when given, returns the caller's best discard count, or None
    before it has one. It is read before a prefix is extended and before
    each pin set of a subset's last job is built. A prefix's floor bounds
    every pin set below it (see _discard_floor). A prefix takes its floor
    once, the first time it is extended under a bound: _discard_floor of
    its groups and its packed pin counts, or its own prefix's floor if
    that is higher. Once the floor reaches the bound,
    the pin sets below the prefix are counted, not built. Each is lean: a
    mask of the slots where each later job may not start, built once from
    the floored prefix's groups and counts, and the packed counts. A new
    pin adds its predecessors at its slot and after it, its successors at
    its slot and before it, and every job at a slot it fills. So a lean pin
    set calls no narrow_by_pin, copies no pins and takes no floor, and on
    the last level only the slots are counted, per parent. The walk yields
    an int, the number of pin sets it skipped, before the next pin set it
    yields and at its end. A pin set's own floor is left to the caller.
    """
    m = inst.m
    preds, succs = inst.pred_masks, inst.succ_masks
    # A pin set carries its slots' pin counts, ancestors' included, packed
    # into one int: w bits per slot, slot t at bit w * t.
    w = max([m, *load.values()]).bit_length()
    field = (1 << w) - 1
    # Below a floored prefix, a pin set is lean: (blocked, counts), blocked
    # packing one job mask per slot of [s, e), slot t at bit n * t: the jobs
    # that may not start at t, or every job once t holds m pins. rep[t] has
    # bit n * u set for each u < t, so a mask times rep[b] - rep[a] is that
    # mask at every slot of [a, b); it is filled when a prefix first goes
    # lean.
    n = max(inst.n, 1)
    s = min([lo for lo, _ in windows], default=0)
    e = max([hi for _, hi in windows], default=0)
    rep = []
    everyone = (1 << n) - 1

    # A prefix is a list [pins, counts, groups, floor or None, its own
    # prefix or None, blocked or None].
    def floor_of(node):
        _, counts, groups, floor, parent, _ = node
        if floor is None:
            slots = {}
            for t in range(counts.bit_length() // w + 1):
                if c := counts >> w * t & field:
                    slots[t] = c
            floor = _discard_floor(groups, slots, m)
            if parent is not None:
                floor = max(floor, floor_of(parent))
            node[3] = floor
        return floor

    def blocked_of(node):
        # A floored prefix's blocked mask, built once.
        if not rep:
            rep.append(0)
            for t in range(e):
                rep.append(rep[-1] | 1 << n * t)
        if node[5] is None:
            counts = node[1]
            blocked = 0
            for (lo, hi), mask in node[2].items():
                if lo < hi:
                    blocked |= mask * (rep[lo] - rep[s] + rep[e] - rep[hi])
                else:
                    blocked |= mask * (rep[e] - rep[s])
            for t in range(s, e):
                if counts >> w * t & field >= m:
                    blocked |= everyone << n * t
            node[5] = blocked
        return node[5]

    def extend(stream, j):
        # The stream of a prefix, extended by j; what extends a floored
        # prefix or a lean pin set is lean.
        pj, sj = preds[j], succs[j]
        for node in stream:
            fewest = bound and bound()
            if type(node) is list and (fewest is None or floor_of(node) < fewest):
                pins, counts, groups = node[0], node[1], node[2]
                for (lo, hi), mask in groups.items():
                    if mask >> j & 1:
                        break
                for t in range(lo, hi):
                    if counts >> w * t & field < m:
                        grown = pins.copy()
                        grown[j] = t
                        narrowed = narrow_by_pin(inst, groups, j, t)
                        yield [grown, counts + (1 << w * t), narrowed, None, node, None]
                continue
            blocked, counts = node if type(node) is tuple else (blocked_of(node), node[1])
            free = (rep[e] - rep[s]) << j & ~blocked
            while free:
                low = free & -free
                free ^= low
                t = (low.bit_length() - 1) // n
                grown = counts + (1 << w * t)
                narrowed = blocked | pj * (rep[e] - rep[t]) | sj * (rep[t + 1] - rep[s])
                if grown >> w * t & field >= m:
                    narrowed |= everyone << n * t
                yield narrowed, grown

    if not size:
        yield {}, None if any(lo >= hi for lo, hi in windows) else windows
        return
    # prefixes[i] holds the stream of the first i jobs of the last subset,
    # for i < size; each subset's last job is read off its stream directly,
    # and each of its pin sets is checked against the bound as it is read.
    root = [{}, sum(c << w * t for t, c in load.items()), windows, None, None, None]
    prefixes = [tee([root], 1)[0]]
    last = ()
    skipped = 0
    for subset in combinations(jobs, size):
        i = 0
        while i < len(last) - 1 and last[i] == subset[i]:
            i += 1
        del prefixes[i + 1:]
        for j in subset[i:-1]:
            prefixes.append(tee(extend(copy(prefixes[-1]), j), 1)[0])
        last = subset
        j = subset[-1]
        for node in copy(prefixes[-1]):
            if type(node) is tuple:
                skipped += ((rep[e] - rep[s]) << j & ~node[0]).bit_count()
                continue
            pins, counts, groups = node[0], node[1], node[2]
            for (lo, hi), mask in groups.items():
                if mask >> j & 1:
                    break
            for t in range(lo, hi):
                if counts >> w * t & field >= m:
                    continue
                fewest = bound and bound()
                if fewest is not None and floor_of(node) >= fewest:
                    skipped += sum(counts >> w * u & field < m for u in range(t, hi))
                    break
                if skipped:
                    yield skipped
                    skipped = 0
                grown = pins.copy()
                grown[j] = t
                narrowed = narrow_by_pin(inst, groups, j, t)
                yield grown, None if any(lo >= hi for lo, hi in narrowed) else narrowed
    if skipped:
        yield skipped


def _partitions(s, e, cells_cap):
    """Integer-boundary partitions of [s, e), finest first."""
    inner = range(s + 1, e)
    for b in range(min(cells_cap - 1, e - s - 1), -1, -1):
        for cuts in combinations(inner, b):
            bounds = [s, *cuts, e]
            yield [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def laminar_guesses(fam, offset=0):
    """Guess source that pins nothing and takes the cells of the family fam.

    Each call gets one guess: no pins, so its groups are rin.windows as
    they stand, and the cells of fam at the call's partition level (see
    partition_level), whose level is shifted by offset. build_laminar has
    checked fam's parameters, so only offset is checked here, before any
    search.
    """
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")

    def guesses(rin, bound=None):
        level = partition_level(fam, fam.level_of(rin.interval), rin.depth, offset)
        yield {}, rin.windows, [fam.cells(rin.interval, level)]

    return guesses


def exhaustive_guesses(inst, k_max):
    """Guess source that pins every subset of at most k_max jobs.

    Each subset is pinned at every consistent slot, on every integer-boundary
    partition of the interval into at most max(1, k_max) cells. Pin sets come
    largest-first, so the fully pinned branch, whose zero discards end the
    search early, is tried before anything else; within a size, subsets
    ascend lexicographically and slots ascend per job. Per size, _pin_sets
    walks the subsets as a prefix tree: the pin sets of a prefix, with
    their narrowed groups, are built once for all the subsets that extend
    it, and only as far as the caller pulls them. Yields one
    (pins, groups, partitions) per pin set, the same partitions list each
    time; groups is None where pins empty a window. Given the call's bound
    (see _pin_sets), it yields in place of the pin sets below a floored
    prefix an int, their number times the number of partitions: the guesses
    it skipped. Without one it skips nothing and yields no int.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")

    def guesses(rin, bound=None):
        jobs = list(_bits(rin.jobs))
        partitions = list(_partitions(*rin.interval, max(1, k_max)))
        for size in range(min(k_max, len(jobs)), -1, -1):
            for item in _pin_sets(inst, jobs, size, rin.windows, rin.load, bound):
                if type(item) is int:
                    yield item * len(partitions)
                else:
                    yield *item, partitions

    return guesses


def _recurse(inst, rin, depth_max, guesses):
    """(starts, discard mask, guesses explored, traces) of the best guess for rin.

    A function of its input: the count covers the guesses the source
    yields for rin and those of the calls it runs (see SolveStats), and
    traces holds the winning guess's CallTraces, its children's, then its
    own. The source yields one (pins, groups, partitions) per pin set, its
    groups rin.windows narrowed by those pins; each cells list in
    partitions is one guess. It gets the call's best discard count as a
    callable, which returns None until a best guess exists, and may yield
    an int in place of pin sets it skipped under it, the number of their
    guesses: they count as explored and run nothing. A pin set whose
    groups are None (a window emptied) has all its guesses counted and
    pruned at once. Otherwise its pins join rin.load once, for all its
    guesses, since the cells, which partition the interval, change
    neither. A child's input is its cell's
    groups and the load inside the cell. A guess whose cells discard at
    least as many jobs as the best guess skips its tops. Once a best guess
    exists, the rest of a pin set's guesses are counted and skipped, before
    classify and with no child call, as soon as its discard floor
    (_discard_floor) reaches the best guess's discards: none of them could
    win, so every output stays as it was. rin.depth is below depth_max; a
    child at depth_max gets no call and discards its jobs, unless its cell
    is a unit interval. A unit cell gets no call at any depth: _settle_unit
    settles it in the cell loop, under the pins' load at its slot.
    """
    s, e = rin.interval
    if not rin.jobs:
        return {}, 0, 0, []
    if e - s == 1:
        # Only a root of horizon 1 gets here: unit cells are settled in
        # their parent's cell loop, by the same rule.
        starts: dict[JobId, int] = {}
        return starts, _settle_unit(inst, rin.jobs, s, rin.load, starts), 0, []
    best = None
    # The best guess's discard count; before one exists, above any guess's.
    fewest = rin.jobs.bit_count() + 1
    explored = 0
    capped = rin.depth + 1 >= depth_max
    for item in guesses(rin, lambda: None if best is None else fewest):
        if type(item) is int:
            # Guesses the source skipped under the bound: none could win.
            explored += item
            continue
        pins, groups, partitions = item
        if groups is None:
            # An empty window: every guess of these pins is pruned.
            explored += len(partitions)
            continue
        pin_load = _add_load(rin.load, pins.values())
        floor = None
        for i, cells in enumerate(partitions):
            explored += 1
            if best is not None:
                # Once the pins' floor reaches the best guess's discards, none
                # of their guesses can win, and fewest only falls: the rest
                # are counted and skipped, and their children never run.
                if floor is None:
                    floor = _discard_floor(groups, pin_load, inst.m)
                if floor >= fewest:
                    explored += len(partitions) - i - 1
                    break
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
                    disc |= _settle_unit(inst, sub, lo, pin_load, starts)
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
            if disc.bit_count() >= fewest:
                # The tops can only add discards, so this guess cannot win.
                continue
            top_windows = windows_for_top(inst, top, cells, starts)
            occupancy = _add_load(rin.load, starts.values())
            tplaced, tdisc = edf_insert(inst, top_windows, occupancy, s, e)
            starts.update(tplaced)
            disc |= tdisc
            if disc.bit_count() < fewest:
                # Only the best guess's trace is returned, so only a new best builds one.
                loads = _add_load({t: occupancy.get(t, 0) for t in range(s, e)}, tplaced.values())
                calls.append(
                    CallTrace(rin.depth, rin.interval, cells, dict(pins), top_windows, tplaced, loads)
                )
                best = (starts, disc, calls)
                fewest = disc.bit_count()
                if not disc:
                    return starts, disc, explored, calls
    if best is None:
        # Every guess was pruned; cannot happen from a consistent parent.
        return {}, rin.jobs, explored, []
    return best[0], best[1], explored, best[2]


def solve(inst: Instance, T: int, guesses, depth_max: int) -> SolveResult:
    """Best-guess schedule inside horizon T, its discards, guess count and traces.

    guesses is the guess source, a callable (RecursionInput, bound) ->
    iterable of (pins, groups, partitions), one per pin set, or of ints
    that count skipped guesses, such as laminar_guesses or
    exhaustive_guesses (see the module docstring). depth_max
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
