"""Laminar interval families and the level assignment used for analysis.

The horizon [0, T) is subdivided recursively: an interval of length at least
2^rho splits into 2^rho equal children, a shorter interval (length over 1)
splits into unit children, and unit intervals are leaves. rho depends on the
job count and the accuracy parameter, so the tree is very shallow: the
number of levels grows like log T / log log n. Intervals are (start, end)
tuples: LaminarFamily.level_of gives a family interval's level and
cells(interval, level) the intervals of a deeper level inside it.

Offset a's bucket is the levels a + 1, a + 1 + stride, ... with stride
m/eps (bucket_levels); best_offset and the shift-bound audit sum tops over
it. partition_level(fam, level, depth, stride, offset) picks the depth-th
level of that bucket as the cells of a recursion call on a level-`level`
interval.

assign_levels replays an optimal schedule against this family and sorts
every job into exactly one guess set or one top set at exactly one level.
A job belongs to the level where its feasible window (under the pins made
so far) still straddles at least two child intervals; long chains of such
flexible jobs (model.longest_chain_path) get their per-child first and last
members pinned to their optimal slots until no long chain remains.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .model import Instance, JobId, Schedule, _mask, longest_chain_path, slot_bounds


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

    Intervals are (start, end) tuples; level 0 is the root (0, T).
    """

    T: int
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


def stride_of(m: int, eps) -> int:
    """Level stride m/eps of the offset buckets; must be a positive integer."""
    e = check_eps(eps)
    q, r = divmod(m * e.denominator, e.numerator)
    if r or q < 1:
        raise BadEps(f"m/eps must be a positive integer, got {Fraction(m) / e}")
    return q


def bucket_levels(fam: LaminarFamily, offset: int, stride: int) -> range:
    """Levels offset + 1, offset + 1 + stride, ... of fam: offset's bucket.

    The buckets of offsets 0..stride-1 are disjoint and cover every level
    >= 1.
    """
    return range(offset + 1, fam.level_count(), stride)


def partition_level(
    fam: LaminarFamily, level: int, depth: int, stride: int, offset: int = 0
) -> int:
    """Level of the cells of a depth-`depth` call on a level-`level` interval.

    offset + depth * stride + 1, the depth-th level of offset's bucket (see
    bucket_levels; stride is stride_of(m, eps)), capped at the deepest level
    and kept at least one level below `level` so every call splits its
    interval.
    """
    return max(min(offset + depth * stride + 1, fam.deepest), level + 1)


def build_laminar(T: int, n: int, eps) -> LaminarFamily:
    """Build the family over [0, T) for an n-job instance at accuracy eps.

    T must be a power of two (pad_to_power_of_two arranges that), n >= 2.
    rho = ceil(log2(log2(n)/eps)), clamped to at least 1 so splitting always
    makes progress (at n = 2, eps = 1 the raw formula gives 0).
    """
    e = check_eps(eps)
    if T < 1 or T & (T - 1):
        raise BadHorizon(f"T must be a positive power of two, got {T}")
    if n < 2:
        raise ValueError(f"need at least 2 jobs for the level machinery, got {n}")
    rho = max(1, math.ceil(math.log2(math.log2(n) / float(e))))
    lengths = [T]
    while lengths[-1] > 1:
        cur = lengths[-1]
        lengths.append(cur // (1 << rho) if cur >= 1 << rho else 1)
    return LaminarFamily(T=T, rho=rho, level_lengths=tuple(lengths))


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
    n = inst.n
    total = n + inst.m * extra
    originals = (1 << n) - 1
    dummies = ((1 << total) - 1) ^ originals
    chain = (1 << extra) - 1
    preds = list(inst.pred_masks)
    succs = [mask | dummies for mask in inst.succ_masks]
    for c in range(inst.m):
        base = n + c * extra
        for i in range(extra):
            below = (1 << i) - 1
            preds.append(originals | below << base)
            succs.append((chain ^ (below << 1 | 1)) << base)
    return Instance(total, inst.m, tuple(preds), tuple(succs)), tstar


def feasible_windows(inst: Instance, jobs, pinned, T: int) -> list[tuple[int, int]]:
    """Start slots [lo, hi) for each of jobs, in order, given pinned neighbors.

    Each window is model.slot_bounds over [0, T) with the mask of pinned
    jobs, built once: lo is the latest pinned-predecessor completion, hi the
    earliest pinned-successor start, and a job with no pinned neighbor costs
    O(1). Raises EmptyWindow at the first job with lo >= hi. A job's own
    pin, if any, is not consulted.
    """
    pinned_mask = _mask(pinned)
    out = []
    for j in jobs:
        lo, hi = slot_bounds(inst, j, pinned, pinned_mask, 0, T)
        if lo >= hi:
            raise EmptyWindow(f"job {j}: window [{lo}, {hi}) is empty")
        out.append((lo, hi))
    return out


def feasible_window(inst: Instance, j: JobId, pinned, T: int) -> tuple[int, int]:
    """Start slots [lo, hi) where j can legally sit given pinned neighbors.

    The one-job case of feasible_windows; raises EmptyWindow when lo >= hi.
    """
    return feasible_windows(inst, (j,), pinned, T)[0]


@dataclass
class LevelAssignment:
    """guess[level][interval] and top[level][interval] partition all jobs."""

    fam: LaminarFamily
    n: int
    guess: dict[int, dict[tuple[int, int], frozenset[JobId]]] = field(default_factory=dict)
    top: dict[int, dict[tuple[int, int], frozenset[JobId]]] = field(default_factory=dict)

    def memberships(self, j: JobId) -> list[tuple[str, int, tuple[int, int]]]:
        out = []
        for kind, table in (("guess", self.guess), ("top", self.top)):
            for level, per_interval in table.items():
                for key, jobs in per_interval.items():
                    if j in jobs:
                        out.append((kind, level, key))
        return out

    def top_at_level(self, level: int) -> frozenset[JobId]:
        acc: set[JobId] = set()
        for jobs in self.top.get(level, {}).values():
            acc |= jobs
        return frozenset(acc)


def chain_threshold(I_len: int, n: int, m: int, eps) -> Fraction:
    """Minimum chain length that triggers guessing inside an interval."""
    e = check_eps(eps)
    scale = 1 << math.ceil(math.log2(math.log2(n))) if n > 2 else 1
    return e * I_len / (m * scale)


def assign_levels(
    inst: Instance,
    opt: Schedule,
    fam: LaminarFamily,
    eps,
) -> LevelAssignment:
    """Sort every job into one guess or top set at one level.

    Processes levels top-down and intervals left to right. Membership in an
    interval's job pool uses windows under pins from strictly earlier
    levels; flexibility (straddling two or more children) tracks pins made
    at the current level too. At unit leaves every remaining pool member
    becomes top, which is what makes the partition total.
    """
    e = check_eps(eps)
    n, m, T = inst.n, inst.m, fam.T
    if opt.makespan() > T or any(j not in opt.start for j in range(n)):
        raise ValueError("opt must be complete with makespan <= T")
    slot = opt.start
    pinned: dict[int, int] = {}
    assigned: set[int] = set()
    out = LevelAssignment(fam=fam, n=n)
    # Every window below is taken under pins at optimal slots, so none is
    # empty and feasible_windows never raises.
    for level in range(fam.level_count()):
        length = fam.level_lengths[level]
        free = [j for j in range(n) if j not in assigned]
        pools: dict[int, list[int]] = {}
        for j, (lo, hi) in zip(free, feasible_windows(inst, free, pinned, T)):
            if hi <= (lo // length + 1) * length:
                pools.setdefault(lo // length, []).append(j)
        guess_row: dict[tuple[int, int], frozenset[int]] = {}
        top_row: dict[tuple[int, int], frozenset[int]] = {}
        for i in sorted(pools):
            start = i * length
            node, pool = (start, start + length), pools[i]
            if level == fam.deepest:
                top_row[node] = frozenset(pool)
                assigned.update(pool)
                continue
            children = fam.cells(node, level + 1)
            child_len = fam.level_lengths[level + 1]
            thresh = chain_threshold(length, n, m, e)

            def flexible_now() -> set[int]:
                rest = [j for j in pool if j not in assigned]
                return {
                    j
                    for j, (lo, hi) in zip(rest, feasible_windows(inst, rest, pinned, T))
                    if (hi - 1 - start) // child_len > (lo - start) // child_len
                }

            guessed: set[int] = set()
            while True:
                chain = longest_chain_path(inst, flexible_now())
                if not chain or Fraction(len(chain)) < thresh:
                    break
                for cs, ce in children:
                    inside = sorted(
                        (j for j in chain if cs <= slot[j] < ce),
                        key=lambda j: slot[j],
                    )
                    if inside:
                        for x in {inside[0], inside[-1]}:
                            guessed.add(x)
                            assigned.add(x)
                            pinned[x] = slot[x]
            if guessed:
                guess_row[node] = frozenset(guessed)
            tops = flexible_now()
            if tops:
                top_row[node] = frozenset(tops)
                assigned.update(tops)
        if guess_row:
            out.guess[level] = guess_row
        if top_row:
            out.top[level] = top_row
    return out


def best_offset(assign: LevelAssignment, m: int, eps) -> tuple[int, int]:
    """Offset a in 0..m/eps-1 minimizing the tops on its bucket_levels.

    Those bucket unions are disjoint across offsets and cover all levels
    >= 1, so the smallest bucket holds at most eps*T jobs, T the family's
    horizon, when the assignment came from an optimal schedule (n <= m*T).
    Ties pick the smallest offset. m/eps must be a positive integer.
    """
    stride = stride_of(m, eps)
    best = None
    for a in range(stride):
        total = sum(
            len(assign.top_at_level(level)) for level in bucket_levels(assign.fam, a, stride)
        )
        if best is None or total < best[1]:
            best = (a, total)
    return best


def analysis_depth_limit(n: int, m: int, eps) -> int:
    """Recursion depth bound ceil(eps * (log2 n / log2 log2 n + 1) / m)."""
    e = check_eps(eps)
    if n <= 2:
        return 1
    inner = math.log2(math.log2(n))
    if inner <= 0:
        return 1
    return max(1, math.ceil(float(e) * (math.log2(n) / inner + 1) / m))


def default_depth_max(n: int, m: int, eps) -> int:
    """Default recursion cap ceil((eps/m) * log2 n) + 1."""
    e = check_eps(eps)
    if n < 2:
        return 1
    return math.ceil(float(e) / m * math.log2(n)) + 1
