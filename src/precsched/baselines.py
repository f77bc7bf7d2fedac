"""Classic polynomial baselines: Graham list scheduling and Coffman-Graham.

One greedy slot sweep (_sweep) places jobs with release/deadline windows
earliest-deadline-first, ties in priority order, into whatever capacity
each slot has left. List scheduling is that sweep with every window open,
[0, n), so the priority order alone decides; its makespan is within a
factor 2 - 1/m of optimal for any priority order (Graham). The scheme's EDF
step (qptas.edf_insert) is the same sweep over its tops' windows.
Coffman-Graham computes a specific priority order that is optimal for
m = 2; its labels come from a heap of ready jobs keyed by bitmasks of their
cover successors' labels (the instance's cover_masks, the transitive
reduction), so labeling walks each cover edge, not each closure pair, and
never rescans the unlabeled jobs.
"""

from __future__ import annotations

from heapq import heappop, heappush

from .model import Instance, JobId, Schedule


def _sweep(inst, rest, occupancy, start, end):
    """Place the windows in rest greedily, slot by slot over [start, end).

    rest is a list of non-degenerate windows as plain (d, job, r) tuples:
    job may start in [r, d). It is sorted by deadline, ties in priority
    order, and the sweep empties it. At each slot: drop the pending jobs
    whose deadline has arrived, and fill the residual capacity `free` (none
    when the slot is already full or over) with eligible jobs in rest's
    order. A bitmask `pending` holds the jobs that are neither placed nor
    dropped; a job is eligible when released and none of its predecessors
    is pending, one mask test per job. The scan of rest stops
    at the first `free` eligible jobs, which are placed in that order and
    deleted from rest by index. Jobs placed at this slot only leave
    `pending` after the scan, so they block their successors until the next
    slot. The sweep ends once no job is pending. Returns (placed, left):
    placed maps each placed job to its slot, and the mask left holds the
    jobs that expired (gathered in `dropped`) or were still pending at end.
    """
    pred_masks = inst.pred_masks
    pending = 0
    for _, job, _ in rest:
        pending |= 1 << job
    placed: dict[JobId, int] = {}
    dropped = 0
    for t in range(start, end):
        if not rest:
            break
        # rest is sorted by deadline, so the expired jobs form a prefix.
        k = 0
        while k < len(rest) and rest[k][0] <= t:
            bit = 1 << rest[k][1]
            dropped |= bit
            pending ^= bit
            k += 1
        if k:
            del rest[:k]
        free = inst.m - occupancy.get(t, 0)
        if free <= 0:
            continue
        hits = []
        for i, (_, job, r) in enumerate(rest):
            if r <= t and not pred_masks[job] & pending:
                hits.append(i)
                if len(hits) == free:
                    break
        for i in hits:
            job = rest[i][1]
            placed[job] = t
            pending ^= 1 << job
        for i in reversed(hits):
            del rest[i]
    return placed, dropped | pending


def _check_order(inst: Instance, order) -> list[int]:
    order = list(order)
    if sorted(order) != list(range(inst.n)):
        raise ValueError("order must be a permutation of all job ids")
    return order


def list_schedule(inst: Instance, order) -> Schedule:
    """Greedy busy schedule honoring the given priority order.

    The shared sweep with every window open, [0, n), and no occupancy: at
    each slot the up to m eligible jobs (all predecessors finished) with the
    best priority run. A busy schedule runs at least one job per slot, so n
    slots hold every job and no deadline expires. The result is always
    feasible and complete, and no slot is idle while an eligible job waits.
    """
    n = inst.n
    placed, _ = _sweep(inst, [(n, j, 0) for j in _check_order(inst, order)], {}, 0, n)
    return Schedule(start=placed, horizon=max(placed.values(), default=-1) + 1)


def coffman_graham_labels(inst: Instance) -> list[int]:
    """Coffman-Graham labels 1..n, higher label means higher priority.

    Repeatedly pick, among unlabeled jobs whose successors are all labeled,
    the job whose decreasing-sorted tuple of successor labels is
    lexicographically smallest (ties by smallest JobId) and give it the next
    label. Coffman and Graham state the rule over cover (immediate)
    successors, and this walks the cover; it picks the same job as the rule
    over all closure successors, which tests/helpers.py keeps as reference.

    Why: a job is labeled after all its successors, so a predecessor's
    label exceeds its successor's, and a job is ready once its cover
    successors are labeled. Take two ready jobs x and y, and let v be the
    largest label held by a successor of exactly one of them, say x. Then v
    is a cover successor of x: a successor w of x that precedes v has a
    larger label than v, so w succeeds y too, and then so does v. Above v
    the closure sets agree, and so do the cover sets: a common successor u
    is no cover successor of x exactly when some successor w of x precedes
    u, and w's label exceeds u's and so v's, which makes w a successor of y
    too; the same holds with x and y swapped. So the cover tuples of x and y
    first differ at v, as the closure tuples do, and equal successor sets
    have equal covers.

    The ready jobs wait in a heap keyed by (key, JobId), where key is the
    integer sum of 2**label over the job's labeled cover successors. A job's
    key is final once its last cover successor is labeled, which is when it
    is pushed. Two sets of distinct labels compare as decreasing tuples the
    way their keys compare: the larger tuple holds the largest label in
    which the sets differ, and a proper prefix is the smaller. So each round
    pops the job the tuple rule picks. The cover is transposed into
    predecessor lists once, and labeling a job walks only its cover
    predecessors, so the labeling walks each cover edge twice and no
    closure pair.
    """
    n = inst.n
    cover = inst.cover_masks
    cover_preds: list[list[JobId]] = [[] for _ in range(n)]
    for u, mask in enumerate(cover):
        while mask:
            low = mask & -mask
            mask ^= low
            cover_preds[low.bit_length() - 1].append(u)
    label = [0] * n
    waiting = [mask.bit_count() for mask in cover]
    key = [0] * n
    # Sinks in id order with equal keys already form a heap.
    ready = [(0, j) for j in range(n) if not waiting[j]]
    for next_label in range(1, n + 1):
        _, j = heappop(ready)
        label[j] = next_label
        bit = 1 << next_label
        for p in cover_preds[j]:
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
