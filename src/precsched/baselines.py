"""Classic polynomial baselines: Graham list scheduling and Coffman-Graham.

List scheduling sweeps time slots and greedily fills machines with eligible
jobs in priority order; its makespan is within a factor 2 - 1/m of optimal
for any priority order (Graham). Coffman-Graham computes a specific
priority order that is optimal for m = 2; its labels come from a heap of
ready jobs keyed by successor-label bitmasks, so labeling walks each closure
pair once instead of rescanning every unlabeled job per label.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .model import Instance, Schedule


def _check_order(inst: Instance, order) -> list[int]:
    order = list(order)
    if sorted(order) != list(range(inst.n)):
        raise ValueError("order must be a permutation of all job ids")
    return order


def list_schedule(inst: Instance, order) -> Schedule:
    """Greedy busy schedule honoring the given priority order.

    At each slot the up to m eligible jobs (all predecessors finished)
    with the best priority run. The result is always feasible and complete,
    and no slot is idle while an eligible job waits.
    """
    order = _check_order(inst, order)
    rank = [0] * inst.n
    for pos, j in enumerate(order):
        rank[j] = pos
    start: dict[int, int] = {}
    done_mask = 0
    remaining = set(range(inst.n))
    t = 0
    while remaining:
        eligible = [
            j for j in remaining if inst.pred_masks[j] & done_mask == inst.pred_masks[j]
        ]
        eligible.sort(key=lambda j: rank[j])
        placed = eligible[: inst.m]
        for j in placed:
            start[j] = t
            remaining.discard(j)
        # Jobs starting at t finish at t+1, so they unblock successors next slot.
        for j in placed:
            done_mask |= 1 << j
        t += 1
    return Schedule(start=start, horizon=t)


def coffman_graham_labels(inst: Instance) -> list[int]:
    """Coffman-Graham labels 1..n, higher label means higher priority.

    Repeatedly pick, among unlabeled jobs whose successors are all labeled,
    the job whose decreasing-sorted tuple of successor labels is
    lexicographically smallest (ties by smallest JobId) and give it the next
    label. Successor sets come from the closed relation.

    The ready jobs wait in a heap keyed by (key, JobId), where key is the
    integer sum of 2**label over the job's labeled successors. A job's key is
    final once its last successor is labeled, which is when it is pushed.
    Two sets of distinct labels compare as decreasing tuples the way their
    keys compare: the larger tuple holds the largest label in which the sets
    differ, and a proper prefix is the smaller. So each round pops the job
    the tuple rule picks, and labeling it walks only its predecessor bits.
    """
    n = inst.n
    pred_masks = inst.pred_masks
    label = [0] * n
    waiting = [mask.bit_count() for mask in inst.succ_masks]
    key = [0] * n
    # Sinks in id order with equal keys already form a heap.
    ready = [(0, j) for j in range(n) if not waiting[j]]
    for next_label in range(1, n + 1):
        _, j = heappop(ready)
        label[j] = next_label
        bit = 1 << next_label
        mask = pred_masks[j]
        while mask:
            low = mask & -mask
            p = low.bit_length() - 1
            mask ^= low
            key[p] |= bit
            waiting[p] -= 1
            if not waiting[p]:
                heappush(ready, (key[p], p))
    return label


def coffman_graham_schedule(inst: Instance) -> Schedule:
    """List schedule under decreasing Coffman-Graham labels (optimal at m=2)."""
    labels = coffman_graham_labels(inst)
    order = sorted(range(inst.n), key=lambda j: -labels[j])
    return list_schedule(inst, order)
