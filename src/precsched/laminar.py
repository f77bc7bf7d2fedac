"""Laminar interval families and the level assignment used for analysis.

The horizon [0, T) is subdivided recursively: an interval of length at least
2^rho splits into 2^rho equal children, a shorter interval (length over 1)
splits into unit children, and unit intervals are leaves. rho depends on the
job count and the accuracy parameter, so the tree is very shallow: the
number of levels grows like log T / log log n. Intervals are (start, end)
tuples: LaminarFamily.level_of gives a family interval's level and
cells(interval, level) the intervals of a deeper level inside it.

build_laminar(T, n, m, eps) is the one place the scheme's parameters are
checked: eps in (0, 1], m/eps a positive integer, T a power of two, n >= 2
and rho a finite float. The family carries n, m, the checked eps and the
stride m/eps, and every helper below that needs them (partition_level,
bucket_levels, chain_threshold, analysis_depth_limit, the auditors) reads
them from the family instead of taking and re-checking them.

Three quantities here come from float logarithms: rho (build_laminar),
the log2 log2 n scale in chain_threshold (rounded up to a power of two, so
the threshold itself is a Fraction), and analysis_depth_limit. Everything
else, eps, the stride, windows and level lengths included, is an integer
or a Fraction.

pad_with_family(inst, T, eps) is the one place the scheme's padding is
decided: the power-of-two horizon T* >= T, the m * (T* - T) dummy jobs
pad_to_power_of_two appends (at most DUMMY_MAX) and the family's job count.
It builds the family before any dummy, so a bad eps costs no padding. The
solver's run (qptas.solve_laminar) and the level analysis
(audits.level_analysis) both take their padded instance and family from it.

Offset a's bucket is the levels a + 1, a + 1 + stride, ...
(bucket_levels); bucket_tops reads each bucket's top masks, which
best_offset and the shift-bound audit sum. partition_level(fam, level,
depth, offset) picks the depth-th level of that bucket as the cells of a
recursion call on a level-`level` interval.

Jobs are grouped by start window, {(lo, hi): job mask}. pin_windows
narrows grouped windows by pins, and pinned jobs leave the groups;
narrowing composes, so a recursion call (qptas) narrows the windows its
input carries, already narrowed by every ancestor pin, by its own pins
only. classify gives each cell the groups whose window lies inside it, its
bottom jobs (a child call's windows as they stand), and calls any other
window top. It is the one split of jobs by cells: the solver's split of
every guess's jobs (qptas imports it) and assign_levels' split of jobs into
levels.

assign_levels replays an optimal schedule against this family and sorts
every job into exactly one guess set or one top set at exactly one level;
the sets are job masks. A job belongs to the level where its feasible
window (under the pins made so far) still straddles at least two child
intervals; long chains of such flexible jobs (model.longest_chain_path) get
their per-child first and last members pinned to their optimal slots until
no long chain remains. Each level narrows {(0, T): unassigned jobs} by all
earlier pins once; within a level, the recursion's rule applies: a node
takes its cell's groups as they stand (the level's other pins lie in other
cells and narrow none of its windows), and each chain round narrows them by
its own new pins only.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from .model import Instance, JobId, Schedule, _bits, _mask, longest_chain_path, slot_bounds


class BadHorizon(ValueError):
    """Horizon must be a power of two for laminar construction."""


class BadEps(ValueError):
    """Accuracy parameter out of range, or m/eps not an integer where required."""


class EmptyWindow(ValueError):
    """Pinned neighbors leave no legal slot for a job."""


def check_eps(eps) -> Fraction:
    e = Fraction(eps)
    if not 0 < e <= 1:
        raise BadEps(f"eps must be in (0, 1], got {eps}")
    return e


@dataclass(frozen=True)
class LaminarFamily:
    """Uniform laminar subdivision of [0, T); all intervals of a level share a length.

    Intervals are (start, end) tuples; level 0 is the root (0, T). The
    family also carries the parameters build_laminar checked and every
    helper reads from it: the job count n (at least 2), the machine count m,
    the accuracy eps (a Fraction in (0, 1]), the offset stride m/eps (a
    positive integer) and the split exponent rho.
    """

    T: int
    n: int
    m: int
    eps: Fraction
    stride: int
    rho: int
    level_lengths: tuple[int, ...]

    def level_count(self) -> int:
        return len(self.level_lengths)

    @property
    def deepest(self) -> int:
        return len(self.level_lengths) - 1

    def level_of(self, interval: tuple[int, int]) -> int:
        """Level of a family interval; KeyError for any other interval."""
        start, end = interval
        length = end - start
        if 0 <= start and end <= self.T:
            for level, cand in enumerate(self.level_lengths):
                if cand == length and start % length == 0:
                    return level
        raise KeyError(f"[{start}, {end}) is not a family interval")

    def cells(self, interval: tuple[int, int], level: int) -> list[tuple[int, int]]:
        """The level-`level` intervals inside a family interval, left to right.

        KeyError unless level lies in [level_of(interval), deepest].
        """
        if not self.level_of(interval) <= level <= self.deepest:
            raise KeyError(f"no level {level} below {interval}")
        length = self.level_lengths[level]
        return [(s, s + length) for s in range(interval[0], interval[1], length)]


def bucket_levels(fam: LaminarFamily, offset: int) -> range:
    """Levels offset + 1, offset + 1 + fam.stride, ... of fam: offset's bucket.

    The buckets of offsets 0..stride-1 are disjoint and cover every level
    >= 1.
    """
    return range(offset + 1, fam.level_count(), fam.stride)


def partition_level(fam: LaminarFamily, level: int, depth: int, offset: int = 0) -> int:
    """Level of the cells of a depth-`depth` call on a level-`level` interval.

    offset + depth * fam.stride + 1, the depth-th level of offset's bucket
    (see bucket_levels), capped at the deepest level and kept at least one
    level below `level` so every call splits its interval.
    """
    return max(min(offset + depth * fam.stride + 1, fam.deepest), level + 1)


def build_laminar(T: int, n: int, m: int, eps) -> LaminarFamily:
    """Build the family over [0, T) for an n-job, m-machine instance at accuracy eps.

    Checks, in this order: eps in (0, 1]; m/eps a positive integer, the
    stride; T a power of two (pad_to_power_of_two arranges that); n >= 2.
    rho = ceil(log2(log2(n)/eps)), at least 1 so that splitting makes
    progress (at n = 2, eps = 1 the raw formula gives 0); an eps so small
    that log2(n)/eps is no finite float raises BadEps.
    """
    e = check_eps(eps)
    stride, r = divmod(m * e.denominator, e.numerator)
    if r or stride < 1:
        raise BadEps(f"m/eps must be a positive integer, got m = {m}, eps = {e}")
    if T < 1 or T & (T - 1):
        raise BadHorizon(f"T must be a positive power of two, got {T}")
    if n < 2:
        raise ValueError(f"need at least 2 jobs for the level machinery, got {n}")
    try:
        rho = max(1, math.ceil(math.log2(math.log2(n) / float(e))))
    except (OverflowError, ZeroDivisionError):
        raise BadEps("eps is too small: log2(n)/eps overflows a float") from None
    lengths = [T]
    while lengths[-1] > 1:
        cur = lengths[-1]
        lengths.append(cur // (1 << rho) if cur >= 1 << rho else 1)
    return LaminarFamily(T, n, m, e, stride, rho, tuple(lengths))


def pad_to_power_of_two(inst: Instance, T: int) -> tuple[Instance, int]:
    """Append dummy jobs so the optimal makespan becomes the next power of two.

    T* is the least power of two >= T. m parallel chains of T* - T dummies
    are added, with every original job preceding every dummy. When T is the
    instance's optimal makespan the padded optimum is exactly T* (originals
    finish at T, then the chains run back to back); for larger T the padded
    optimum is smaller than T*.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    tstar = 1 << (T - 1).bit_length()
    extra = tstar - T
    if extra == 0:
        return inst, tstar
    # The padded relation is already closed (every original precedes every
    # dummy, each chain is a total order), so write its masks down directly.
    # Its cover keeps the original cover, links each chain, and gives each
    # original sink an edge to the first dummy of every chain.
    n = inst.n
    total = n + inst.m * extra
    originals = (1 << n) - 1
    dummies = ((1 << total) - 1) ^ originals
    chain = (1 << extra) - 1
    heads = sum(1 << (n + c * extra) for c in range(inst.m))
    preds = list(inst.pred_masks)
    succs = [mask | dummies for mask in inst.succ_masks]
    cover = [cov if succ else heads for cov, succ in zip(inst.cover_masks, inst.succ_masks)]
    for c in range(inst.m):
        base = n + c * extra
        for i in range(extra):
            below = (1 << i) - 1
            preds.append(originals | below << base)
            succs.append((chain ^ (below << 1 | 1)) << base)
            cover.append(1 << (base + i + 1) if i + 1 < extra else 0)
    return Instance(total, inst.m, tuple(preds), tuple(succs), tuple(cover)), tstar


# The most dummies pad_with_family lets pad_to_power_of_two append, far above
# the few hundred that the tests and benchmark instances take. A padded job
# holds masks of up to n + dummies bits, so the padded instance grows with
# the square of the dummy count: 2**16 dummies take hundreds of megabytes,
# and a machine count of thousands of digits could never be padded.
DUMMY_MAX = 1 << 16


def pad_with_family(inst: Instance, T: int, eps) -> tuple[Instance, LaminarFamily]:
    """inst padded to the power-of-two horizon T* >= T, and its laminar family.

    The one place that decides the scheme's padding: T*, the m * (T* - T)
    dummies pad_to_power_of_two appends, and the family's job count, the
    padded job count clamped to at least 2. build_laminar runs first, so a
    bad eps is reported before any dummy is made; so is a dummy count above
    DUMMY_MAX, as BadHorizon.
    """
    tstar = 1 << (T - 1).bit_length()
    dummies = inst.m * (tstar - T)
    fam = build_laminar(tstar, max(inst.n + dummies, 2), inst.m, eps)
    if dummies > DUMMY_MAX:
        raise BadHorizon(
            f"padding horizon {T} to {tstar} takes m * {tstar - T} dummy jobs, "
            f"over the {DUMMY_MAX} allowed"
        )
    padded, _ = pad_to_power_of_two(inst, T)
    return padded, fam


def pad_schedule(inst: Instance, sched: Schedule, tstar: int) -> Schedule:
    """sched plus the dummies pad_to_power_of_two(inst, sched.horizon) appends.

    Dummy i of every chain starts at sched.horizon + i, chain by chain within
    a slot, as optimal_schedule lists them; the horizon becomes tstar.
    """
    T = sched.horizon
    extra = tstar - T
    start = dict(sched.start)
    for i in range(extra):
        for c in range(inst.m):
            start[inst.n + c * extra + i] = T + i
    return Schedule(start=start, horizon=tstar)


def pin_windows(inst: Instance, groups, pins) -> dict:
    """groups, {(lo, hi): job mask}, with every window narrowed by pins.

    Pinned jobs leave the groups. Each other job's group window is narrowed
    by model.slot_bounds under pins' mask, so a job with no pinned neighbor
    costs O(1) and keeps its window. Narrowing composes: narrowing by A and
    then by B is narrowing by both, so a recursion call narrows its
    ancestors' windows by its own pins only. Raises EmptyWindow at the first
    job whose window is empty.
    """
    pinned = _mask(pins)
    out: dict[tuple[int, int], int] = {}
    for w, mask in groups.items():
        for j in _bits(mask & ~pinned):
            lo, hi = nw = slot_bounds(inst, j, pins, pinned, *w)
            if lo >= hi:
                raise EmptyWindow(f"job {j}: window [{lo}, {hi}) is empty")
            out[nw] = out.get(nw, 0) | 1 << j
    return out


def classify(groups, cells):
    """(groups per cell, top groups) from pin_windows' groups.

    cells partition a span holding every window. A window inside one cell
    goes to that cell's groups (its bottom jobs), any other to the top
    groups; one bisect per distinct window, not per job.
    """
    starts = [c[0] for c in cells]
    bottom: dict[tuple[int, int], dict] = {c: {} for c in cells}
    top = {}
    for w, mask in groups.items():
        cell = cells[bisect_right(starts, w[0]) - 1]
        dest = bottom[cell] if w[1] <= cell[1] else top
        dest[w] = mask
    return bottom, top


def feasible_window(inst: Instance, j: JobId, pinned, T: int) -> tuple[int, int]:
    """Start slots [lo, hi) where j can legally sit given pinned neighbors.

    model.slot_bounds over [0, T), so j's own pin is not consulted; raises
    EmptyWindow when lo >= hi.
    """
    lo, hi = slot_bounds(inst, j, pinned, _mask(pinned), 0, T)
    if lo >= hi:
        raise EmptyWindow(f"job {j}: window [{lo}, {hi}) is empty")
    return lo, hi


@dataclass
class LevelAssignment:
    """guess[level][interval] and top[level][interval] partition all jobs.

    Each set is a job mask (bit j for job j), as the recursion's job sets are.
    """

    fam: LaminarFamily
    n: int
    guess: dict[int, dict[tuple[int, int], int]] = field(default_factory=dict)
    top: dict[int, dict[tuple[int, int], int]] = field(default_factory=dict)

    def top_at_level(self, level: int) -> int:
        """The mask of the level's tops: the OR of its intervals' masks."""
        acc = 0
        for mask in self.top.get(level, {}).values():
            acc |= mask
        return acc


def chain_threshold(fam: LaminarFamily, I_len: int) -> Fraction:
    """Minimum chain length that triggers guessing inside an interval."""
    n = fam.n
    scale = 1 << math.ceil(math.log2(math.log2(n))) if n > 2 else 1
    return fam.eps * I_len / (fam.m * scale)


def assign_levels(inst: Instance, opt: Schedule, fam: LaminarFamily) -> LevelAssignment:
    """Sort every job into one guess or top set at one level, as job masks.

    fam is inst's family: its n, m and eps set the chain thresholds.
    Processes levels top-down and intervals left to right. An interval's
    pool is its cell's groups when pin_windows then classify split the
    unassigned jobs by the level's cells, under pins from strictly earlier
    levels; pins made earlier at its level lie in other cells and leave
    them as they are. Each chain round narrows the groups by that round's
    new pins only (narrowing composes); the interval's flexible jobs are the
    top when classify sorts the unguessed pool's groups by its
    children. At unit leaves every remaining pool member becomes top, which
    is what makes the partition total.
    """
    n, T = inst.n, fam.T
    if opt.makespan() > T or any(j not in opt.start for j in range(n)):
        raise ValueError("opt must be complete with makespan <= T")
    slot = opt.start
    pinned: dict[int, int] = {}
    free = (1 << n) - 1
    out = LevelAssignment(fam=fam, n=n)
    # Every window below is taken under pins at optimal slots, so none is
    # empty and pin_windows never raises.
    for level in range(fam.level_count()):
        groups = pin_windows(inst, {(0, T): free}, pinned)
        pools, _ = classify(groups, fam.cells((0, T), level))
        thresh = chain_threshold(fam, fam.level_lengths[level])
        guess_row: dict[tuple[int, int], int] = {}
        top_row: dict[tuple[int, int], int] = {}
        for node, groups in pools.items():
            if not groups:
                continue
            if level == fam.deepest:
                # A job has one window, so the groups' masks are disjoint.
                top_row[node] = sum(groups.values())
                continue
            children = fam.cells(node, level + 1)
            # The pins made at this level so far sit in other cells. A pinned
            # predecessor of a job here sits before this cell and a successor
            # after it, so they leave this cell's windows as they are.
            guessed = 0
            while True:
                _, tops = classify(groups, children)
                flexible = sum(tops.values())
                # The chain runs head first, so its optimal slots ascend.
                chain = longest_chain_path(inst, flexible)
                if not chain or len(chain) < thresh:
                    break
                new = {}
                for cs, ce in children:
                    inside = [j for j in chain if cs <= slot[j] < ce]
                    for x in inside[:1] + inside[-1:]:
                        new[x] = slot[x]
                # The guessed jobs are pinned, so they leave the groups.
                groups = pin_windows(inst, groups, new)
                guessed |= _mask(new)
                pinned.update(new)
            if guessed:
                guess_row[node] = guessed
            if flexible:
                top_row[node] = flexible
            free &= ~(guessed | flexible)
        if guess_row:
            out.guess[level] = guess_row
        if top_row:
            out.top[level] = top_row
    return out


def bucket_tops(assign: LevelAssignment) -> list[list[int]]:
    """Each offset's top masks: buckets[a] lists top_at_level over bucket_levels.

    bucket_levels(assign.fam, a), level by level. Offsets from
    level_count() - 1 on have empty buckets, so the list stops at the first
    of them, which stands for every later one.
    """
    fam = assign.fam
    return [
        [assign.top_at_level(level) for level in bucket_levels(fam, a)]
        for a in range(min(fam.stride, fam.level_count()))
    ]


def best_offset(assign: LevelAssignment) -> tuple[int, int]:
    """Offset a in 0..m/eps-1 minimizing the tops on its bucket_levels.

    Those bucket unions are disjoint across offsets and cover all levels
    >= 1, so the smallest bucket holds at most eps*T jobs, T the family's
    horizon, when the assignment came from an optimal schedule (n <= m*T).
    Ties pick the smallest offset.
    """
    totals = [sum(tops.bit_count() for tops in bucket) for bucket in bucket_tops(assign)]
    a = min(range(len(totals)), key=totals.__getitem__)
    return a, totals[a]


def analysis_depth_limit(fam: LaminarFamily) -> int:
    """Recursion depth bound ceil(eps * (log2 n / log2 log2 n + 1) / m)."""
    n = fam.n
    if n <= 2:
        return 1
    inner = math.log2(math.log2(n))
    return max(1, math.ceil(float(fam.eps / fam.m) * (math.log2(n) / inner + 1)))

