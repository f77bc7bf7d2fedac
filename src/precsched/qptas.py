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

The full guess space is astronomical, so exhaustive enumeration is only
usable at toy sizes (n around 10); the laminar mode takes the one partition
dictated by the interval family and a level offset, and guesses pins only
from a caller-supplied plan or bounded random samples.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from .laminar import (
    BadEps,
    EmptyWindow,
    LaminarFamily,
    build_laminar,
    check_eps,
    feasible_window,
)
from .model import Instance, JobId, Schedule, longest_chain, validate_schedule


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


def stride_of(m: int, eps) -> int:
    q = Fraction(m) / check_eps(eps)
    if q.denominator != 1 or q < 1:
        raise BadEps(f"m/eps must be a positive integer here, got {q}")
    return int(q)


@dataclass(frozen=True)
class GuessConfig:
    """Knobs for the guess enumeration.

    k_max caps pinned jobs per call. partition_mode picks dictated laminar
    cells or all integer-boundary partitions into at most max(1, k) cells.
    depth_max caps recursion depth; a call at the cap discards its whole job
    set (unit intervals are exempt). offset shifts the laminar level used at
    each depth. pin_plan (callable RecursionInput -> iterable of {job: slot})
    and pin_samples/seed supply pin candidates in laminar mode when
    exhaustive_job_guessing is off.
    """

    k_max: int = 0
    partition_mode: str = "laminar"
    depth_max: int = 1
    eps: Fraction = Fraction(1)
    exhaustive_job_guessing: bool = False
    offset: int = 0
    pin_plan: object = None
    pin_samples: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "eps", check_eps(self.eps))
        if self.k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {self.k_max}")
        if self.depth_max < 1:
            raise ValueError(f"depth_max must be >= 1, got {self.depth_max}")
        if self.partition_mode not in ("laminar", "exhaustive"):
            raise ValueError(f"unknown partition_mode {self.partition_mode!r}")
        if self.offset < 0 or self.pin_samples < 0:
            raise ValueError("offset and pin_samples must be >= 0")


@dataclass(frozen=True)
class RecursionInput:
    interval: tuple[int, int]
    jobs: frozenset[JobId]
    pinned: dict[JobId, int]
    depth: int


@dataclass
class SolveStats:
    guesses_explored: int = 0
    edf_discards: int = 0
    degenerate_discards: int = 0
    depth_cap_discards: int = 0


@dataclass(frozen=True)
class SolveResult:
    schedule: Schedule
    discarded: frozenset[JobId]
    stats: SolveStats


@dataclass
class EdfTrace:
    """Per-slot loads, discard times, and any starvation the sweep left."""

    loads: dict[int, int] = field(default_factory=dict)
    discard_time: dict[JobId, int] = field(default_factory=dict)
    starved: dict[int, tuple[JobId, ...]] = field(default_factory=dict)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def classify(inst, jobs, pinned_new, cells, pinned_old):
    """Split jobs into bottom-per-cell and top by feasible window.

    A pinned job counts as bottom of the cell holding its slot. Raises
    EmptyWindow when the combined pins squeeze some job out entirely, which
    prunes the guess.
    """
    merged = dict(pinned_old)
    merged.update(pinned_new)
    starts = [c[0] for c in cells]
    end = cells[-1][1]
    bottom: dict[tuple[int, int], set[JobId]] = {c: set() for c in cells}
    top: set[JobId] = set()
    for j in sorted(jobs):
        if j in pinned_new:
            bottom[cells[bisect_right(starts, pinned_new[j]) - 1]].add(j)
            continue
        lo, hi = feasible_window(inst, j, merged, end)
        cell = cells[bisect_right(starts, lo) - 1]
        if hi <= cell[1]:
            bottom[cell].add(j)
        else:
            top.add(j)
    return {c: frozenset(v) for c, v in bottom.items()}, frozenset(top)


def windows_for_top(inst, top, cells, placed):
    """Release/deadline per top job, snapped outward to cell boundaries.

    r is the earliest cell start at or after every placed predecessor's
    completion, d the latest cell end at or before every placed successor's
    start. When no boundary qualifies the window collapses (degenerate).
    """
    starts = [c[0] for c in cells]
    ends = [c[1] for c in cells]
    out = []
    for j in sorted(top):
        bound = starts[0]
        for p in _bits(inst.pred_masks[j]):
            s = placed.get(p)
            if s is not None and s + 1 > bound:
                bound = s + 1
        i = bisect_left(starts, bound)
        r = starts[i] if i < len(starts) else ends[-1]
        bound = ends[-1]
        for q in _bits(inst.succ_masks[j]):
            s = placed.get(q)
            if s is not None and s < bound:
                bound = s
        i = bisect_right(ends, bound) - 1
        d = ends[i] if i >= 0 else starts[0]
        out.append(TopWindow(j, r, d))
    return out


def edf_insert(inst, tops, occupancy, start, end, trace=None):
    """Sweep [start, end) placing tops earliest-deadline-first.

    At each slot: discard unplaced jobs whose deadline has arrived, then
    fill the residual capacity (none when the slot is already full or over)
    with eligible jobs in (deadline, id) order. A bitmask `pending` holds the
    batch's jobs that are neither placed nor discarded; a job is eligible
    when released and none of its predecessors is pending, one mask test per
    job. Jobs placed at this slot only leave `pending` after every job's
    test, so they block their successors until the next slot. Returns
    (placements, discards).
    """
    pred_masks = inst.pred_masks
    rest = []
    pending = 0
    discards: set[JobId] = set()
    for w in sorted(tops, key=lambda w: (w.d, w.job)):
        if w.degenerate:
            discards.add(w.job)
            if trace is not None:
                trace.discard_time[w.job] = start
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
            if trace is not None:
                trace.discard_time[w.job] = t
            k += 1
        if k:
            del rest[:k]
        occ = occupancy.get(t, 0)
        free = max(0, inst.m - occ)
        ready = [w for w in rest if w.r <= t and not pred_masks[w.job] & pending]
        if ready and free:
            for w in ready[:free]:
                placed[w.job] = t
                pending ^= 1 << w.job
            rest = [w for w in rest if pending >> w.job & 1]
        if trace is not None:
            load = occ + min(free, len(ready))
            trace.loads[t] = load
            if load < inst.m:
                left = tuple(w.job for w in ready[free:])
                if left:
                    trace.starved[t] = left
    for w in rest:
        discards.add(w.job)
        if trace is not None:
            trace.discard_time[w.job] = end
    return placed, discards


def _effective_cap(jobs_here: int, k_max: int) -> int:
    return min(k_max, jobs_here)


def _assignments(inst, subset, base_pins, s, e):
    """All consistent slot assignments for subset, DFS, slots ascending."""
    occ = Counter(t for t in base_pins.values() if s <= t < e)
    chosen: dict[JobId, int] = {}

    def rec(i):
        if i == len(subset):
            yield dict(chosen)
            return
        j = subset[i]
        merged = {**base_pins, **chosen}
        try:
            lo, hi = feasible_window(inst, j, merged, e)
        except EmptyWindow:
            return
        for t in range(max(lo, s), hi):
            if occ[t] >= inst.m:
                continue
            chosen[j] = t
            occ[t] += 1
            yield from rec(i + 1)
            occ[t] -= 1
            del chosen[j]

    yield from rec(0)


def _consistent(inst, pins, base_pins, s, e):
    occ = Counter(t for t in base_pins.values() if s <= t < e)
    merged = dict(base_pins)
    for j in sorted(pins):
        t = pins[j]
        if not s <= t < e or occ[t] >= inst.m:
            return False
        try:
            lo, hi = feasible_window(inst, j, merged, e)
        except EmptyWindow:
            return False
        if not lo <= t < hi:
            return False
        merged[j] = t
        occ[t] += 1
    return True


def _pin_candidates(inst, rin, cfg):
    """Laminar-mode pin guesses: plan entries, then samples, then no pins."""
    s, e = rin.interval
    jobs = sorted(rin.jobs)
    cap = _effective_cap(len(jobs), cfg.k_max)
    seen = set()

    def emit(pins):
        key = tuple(sorted(pins.items()))
        if key in seen:
            return None
        seen.add(key)
        return pins

    if cfg.pin_plan is not None:
        for pins in cfg.pin_plan(rin):
            pins = dict(pins)
            if len(pins) > cap or not set(pins) <= rin.jobs:
                continue
            if not _consistent(inst, pins, rin.pinned, s, e):
                continue
            got = emit(pins)
            if got is not None:
                yield got
    if cfg.pin_samples:
        rng = random.Random(f"{cfg.seed}|{s}|{e}|{rin.depth}")
        for _ in range(cfg.pin_samples):
            size = rng.randint(0, cap)
            pins = {j: rng.randrange(s, e) for j in rng.sample(jobs, size)}
            if not _consistent(inst, pins, rin.pinned, s, e):
                continue
            got = emit(pins)
            if got is not None:
                yield got
    got = emit({})
    if got is not None:
        yield got


def _partitions(s, e, cells_cap):
    """Integer-boundary partitions of [s, e), finest first."""
    inner = range(s + 1, e)
    for b in range(min(cells_cap - 1, e - s - 1), -1, -1):
        for cuts in combinations(inner, b):
            bounds = [s, *cuts, e]
            yield [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


def enumerate_guesses(inst, rin, cfg, fam: LaminarFamily | None = None):
    """Deterministic (pins, cells) sequence for one recursion node.

    Pin sets come largest-first so the fully pinned branch, whose zero
    discards end the search early, is tried before anything else; within a
    size, subsets ascend lexicographically and slots ascend per job.
    """
    s, e = rin.interval
    jobs = sorted(rin.jobs)
    if cfg.partition_mode == "laminar":
        node = fam.find(s, e)
        level = min(cfg.offset + rin.depth * stride_of(inst.m, cfg.eps) + 1, fam.deepest)
        level = max(level, node.level + 1)
        partitions = [[c.key for c in fam.descendants(node, level)]]
    else:
        cells_cap = max(1, cfg.k_max)
        partitions = list(_partitions(s, e, cells_cap))
    if cfg.exhaustive_job_guessing:
        cap = _effective_cap(len(jobs), cfg.k_max)
        for size in range(cap, -1, -1):
            for subset in combinations(jobs, size):
                for pins in _assignments(inst, subset, rin.pinned, s, e):
                    for cells in partitions:
                        yield pins, cells
    else:
        for pins in _pin_candidates(inst, rin, cfg):
            for cells in partitions:
                yield pins, cells


def _recurse(inst, rin, cfg, fam, stats):
    s, e = rin.interval
    if not rin.jobs:
        return {}, set()
    if e - s == 1:
        # Unit intervals skip guessing and the depth cap: every job here has
        # window exactly [s, s+1), so a single EDF step settles them.
        tops = [TopWindow(j, s, e) for j in sorted(rin.jobs)]
        occ = Counter(t for t in rin.pinned.values() if t == s)
        placed, disc = edf_insert(inst, tops, occ, s, e)
        stats.edf_discards += len(disc)
        return placed, disc
    if rin.depth >= cfg.depth_max:
        stats.depth_cap_discards += len(rin.jobs)
        return {}, set(rin.jobs)
    best = None
    for pins, cells in enumerate_guesses(inst, rin, cfg, fam):
        stats.guesses_explored += 1
        try:
            bottom, top = classify(inst, rin.jobs, pins, cells, rin.pinned)
        except EmptyWindow:
            continue
        merged = {**rin.pinned, **pins}
        starts = dict(pins)
        disc: set[JobId] = set()
        for cell in cells:
            sub = bottom[cell] - pins.keys()
            if not sub:
                continue
            child = RecursionInput(cell, frozenset(sub), merged, rin.depth + 1)
            cstarts, cdisc = _recurse(inst, child, cfg, fam, stats)
            starts.update(cstarts)
            disc |= cdisc
        placed_all = {**rin.pinned, **starts}
        live = []
        for w in windows_for_top(inst, top, cells, placed_all):
            if w.degenerate:
                disc.add(w.job)
                stats.degenerate_discards += 1
            else:
                live.append(w)
        occ = Counter(t for t in placed_all.values() if s <= t < e)
        tplaced, tdisc = edf_insert(inst, live, occ, s, e)
        stats.edf_discards += len(tdisc)
        starts.update(tplaced)
        disc |= tdisc
        if best is None or len(disc) < len(best[1]):
            best = (starts, disc)
            if not disc:
                break
    if best is None:
        # Every guess was pruned; cannot happen from a consistent parent.
        return {}, set(rin.jobs)
    return best


def solve(inst: Instance, T: int, cfg: GuessConfig) -> SolveResult:
    """Best-guess schedule inside horizon T plus the jobs it discarded.

    Raises InfeasibleHorizon below the longest-chain bound. Laminar mode
    additionally needs T to be a power of two (see pad_to_power_of_two) and
    m/eps integral. The result schedule keeps horizon T even when the last
    busy slot is earlier; insert_discarded extends it by one per discard.
    """
    stats = SolveStats()
    if inst.n == 0:
        return SolveResult(Schedule({}, T), frozenset(), stats)
    if T < longest_chain(inst):
        raise InfeasibleHorizon(
            f"horizon {T} is below the chain bound {longest_chain(inst)}"
        )
    fam = None
    if cfg.partition_mode == "laminar":
        stride_of(inst.m, cfg.eps)
        fam = build_laminar(T, max(inst.n, 2), cfg.eps)
    root = RecursionInput((0, T), frozenset(range(inst.n)), {}, 0)
    starts, disc = _recurse(inst, root, cfg, fam, stats)
    sched = Schedule(starts, T)
    report = validate_schedule(inst, sched)
    if not report.feasible or set(starts) & disc or set(starts) | disc != set(range(inst.n)):
        raise RuntimeError("internal: inconsistent solve result")
    return SolveResult(sched, frozenset(disc), stats)


def insert_discarded(inst: Instance, sched: Schedule, discarded) -> Schedule:
    """Reinsert discarded jobs, opening one fresh slot per job.

    Ascending job id: place j right after its last scheduled predecessor,
    shifting every start from that point on by one. Transitive closure
    guarantees no scheduled successor sits before that point; seeing one
    raises NoSlot.
    """
    starts = dict(sched.start)
    horizon = sched.horizon
    for j in sorted(discarded):
        if j in starts:
            raise ValueError(f"job {j} is both scheduled and discarded")
        t = 0
        for p in _bits(inst.pred_masks[j]):
            got = starts.get(p)
            if got is not None and got + 1 > t:
                t = got + 1
        for q in _bits(inst.succ_masks[j]):
            got = starts.get(q)
            if got is not None and got < t:
                raise NoSlot(f"successor {q} of {j} starts at {got} before {t}")
        starts = {i: (x + 1 if x >= t else x) for i, x in starts.items()}
        starts[j] = t
        horizon += 1
    return Schedule(starts, horizon)
