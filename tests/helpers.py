"""Independent reference implementations used to cross-check the package.

Nothing in here imports the package's algorithms: closure, feasibility and
optimal makespans are recomputed from first principles so test expectations
do not inherit implementation bugs. ref_coffman_graham_labels is the
Coffman-Graham labeling as a round scan over sorted tuples of every
closure successor's label, the form the package used before its ready heap
and its walk over cover edges; ref_list_schedule is list
scheduling as a per-slot scan and sort of every remaining job, the form the
package used before it ran the EDF step's sweep; and ref_chain_depths is the
chain-depth table walking every successor, without the package's skip of
memo hits. The one exception is ref_solve, the recursion as it ran before
the dominance cutoff, the discard floor, the grouped split, the unit-cell
rule and the per-call inputs: it builds the package's trace records and
runs its EDF sweep (which tests/test_qptas.py checks against its own
reference), but classifies and windows with the references here. Its
calls take a RefInput, which carries every ancestor's pin, and each call
re-derives its windows and loads from all of them, where the package's
RecursionInput carries only the call's windows and pin load. Its unit
intervals still recurse and run edf_insert over windows [t, t + 1), so that
path is the reference for the package's unit rule (qptas._settle_unit, which
sweeps those windows without a call of its own).
It keeps its job sets as sets, and builds or reads a job mask only where
RefInput and the package's edf_insert take or return one.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import NamedTuple

from precsched.model import Schedule
from precsched.qptas import (
    CallTrace,
    SolveResult,
    SolveStats,
    TopWindow,
    edf_insert,
)


def close_pairs(n: int, edges) -> frozenset:
    """Transitive closure of an edge list, by repeated relaxation."""
    pairs = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in list(product(pairs, pairs)):
            if b == c and (a, d) not in pairs:
                pairs.add((a, d))
                changed = True
    return frozenset(pairs)


def pairs(inst) -> frozenset:
    """The (pred, succ) pairs of an instance's closed relation, read off succ_masks."""
    return frozenset(
        (u, v) for u in range(inst.n) for v in range(inst.n) if inst.succ_masks[u] >> v & 1
    )


def stored_cover(inst) -> frozenset:
    """The (pred, succ) pairs of an instance's cover_masks, as stored."""
    return frozenset(
        (u, v) for u in range(inst.n) for v in range(inst.n) if inst.cover_masks[u] >> v & 1
    )


def cover_pairs(closed) -> frozenset:
    """Transitive reduction of a closed pair set: the pairs with no job between."""
    jobs = {j for pair in closed for j in pair}
    return frozenset(
        (u, v)
        for u, v in closed
        if not any((u, w) in closed and (w, v) in closed for w in jobs)
    )


def ref_coffman_graham_labels(inst) -> list[int]:
    """Coffman-Graham labels 1..n by a full scan per round.

    Each round gives the next label to the unlabeled job, all of whose
    successors are labeled, with the lexicographically smallest
    decreasing-sorted tuple of successor labels, ties by smallest id.
    """
    n = inst.n
    label = [0] * n
    unlabeled = set(range(n))
    for next_label in range(1, n + 1):
        best_j = best_key = None
        for j in sorted(unlabeled):
            succ_labels = [label[v] for v in _mask_bits(inst.succ_masks[j])]
            if 0 in succ_labels:
                continue
            key = tuple(sorted(succ_labels, reverse=True))
            if best_key is None or key < best_key:
                best_key, best_j = key, j
        label[best_j] = next_label
        unlabeled.discard(best_j)
    return label


def ref_list_schedule(inst, order) -> Schedule:
    """Greedy busy schedule honoring the given priority order.

    At each slot the up to m eligible jobs (all predecessors finished)
    with the best priority run. The result is always feasible and complete,
    and no slot is idle while an eligible job waits.
    """
    order = list(order)
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


def brute_force_makespan(n: int, m: int, edges) -> int:
    """Smallest T admitting a feasible assignment of all jobs to slots < T.

    Backtracking over per-job slot choices in id order, checking capacity
    and precedence incrementally. Complete search, so exact; usable to
    n <= 8 or so.
    """
    if n == 0:
        return 0
    preds = [[] for _ in range(n)]
    succs = [[] for _ in range(n)]
    for u, v in edges:
        preds[v].append(u)
        succs[u].append(v)

    def feasible(T: int) -> bool:
        load = [0] * T
        slot = [-1] * n

        def place(j: int) -> bool:
            if j == n:
                return True
            lo = 0
            for p in preds[j]:
                if slot[p] >= 0 and slot[p] + 1 > lo:
                    lo = slot[p] + 1
            for t in range(lo, T):
                if load[t] >= m:
                    continue
                ok = True
                for s in succs[j]:
                    if 0 <= slot[s] <= t:
                        ok = False
                        break
                if not ok:
                    continue
                slot[j] = t
                load[t] += 1
                if place(j + 1):
                    return True
                slot[j] = -1
                load[t] -= 1
            return False

        return place(0)

    for T in range(1, n + 1):
        if feasible(T):
            return T
    raise AssertionError("no horizon up to n worked; instance must be cyclic")


def _desc_masks(n: int, edges):
    direct = [0] * n
    for u, v in edges:
        direct[u] |= 1 << v
    desc = [0] * n
    for u in range(n - 1, -1, -1):
        acc = direct[u]
        mask = direct[u]
        while mask:
            low = mask & -mask
            acc |= desc[low.bit_length() - 1]
            mask ^= low
        desc[u] = acc
    return desc


def _canonical_key(n: int, desc) -> int:
    """Min adjacency integer over invariant-respecting relabelings."""
    indeg = [0] * n
    for u in range(n):
        mask = desc[u]
        while mask:
            low = mask & -mask
            indeg[low.bit_length() - 1] += 1
            mask ^= low
    inv = [(bin(desc[j]).count("1"), indeg[j]) for j in range(n)]
    groups: dict[tuple[int, int], list[int]] = {}
    for j in range(n):
        groups.setdefault(inv[j], []).append(j)
    blocks = []
    pos = 0
    for key in sorted(groups):
        nodes = groups[key]
        blocks.append((nodes, list(range(pos, pos + len(nodes)))))
        pos += len(nodes)
    best = None
    for parts in product(*[permutations(nodes) for nodes, _ in blocks]):
        mapping = [0] * n
        for (nodes, positions), part in zip(blocks, parts):
            for node, p in zip(part, positions):
                mapping[node] = p
        val = 0
        for u in range(n):
            mask = desc[u]
            mu = mapping[u] * n
            while mask:
                low = mask & -mask
                val |= 1 << (mu + mapping[low.bit_length() - 1])
                mask ^= low
        if best is None or val < best:
            best = val
    return best


def enumerate_poset_classes(n: int):
    """One closed edge set per isomorphism class of DAGs on n nodes.

    Every DAG is isomorphic to one whose adjacency matrix is strictly upper
    triangular, so iterating all upper-triangular edge subsets covers every
    class. Scheduling semantics depend only on the transitive closure, so
    edge sets are first collapsed by closure, then by digraph isomorphism.
    """
    cells = list(combinations(range(n), 2))
    reps: dict[int, frozenset] = {}
    seen_closures = set()
    for bits in range(1 << len(cells)):
        edges = [cells[k] for k in range(len(cells)) if bits >> k & 1]
        desc = _desc_masks(n, edges)
        closure_sig = tuple(desc)
        if closure_sig in seen_closures:
            continue
        seen_closures.add(closure_sig)
        key = _canonical_key(n, desc)
        if key not in reps:
            pairs = set()
            for u in range(n):
                mask = desc[u]
                while mask:
                    low = mask & -mask
                    pairs.add((u, low.bit_length() - 1))
                    mask ^= low
            reps[key] = frozenset(pairs)
    return list(reps.values())


def _mask_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _to_mask(jobs) -> int:
    return sum(1 << j for j in jobs)


def ref_feasible_window(inst, j, pinned, T):
    """[lo, hi) of j under pinned, walking every closure bit with a dict lookup.

    The per-bit walk the package used before windows came from the pinned
    mask; the window may be empty (lo >= hi), where the package raises.
    """
    lo, hi = 0, T
    for p in _mask_bits(inst.pred_masks[j]):
        s = pinned.get(p)
        if s is not None and s + 1 > lo:
            lo = s + 1
    for q in _mask_bits(inst.succ_masks[j]):
        s = pinned.get(q)
        if s is not None and s < hi:
            hi = s
    return lo, hi


def _ref_longest_chain(inst, flex):
    """A longest chain inside flex: smallest head, then smallest next job."""
    length = {}

    def depth(j):
        if j not in length:
            below = [depth(v) for v in _mask_bits(inst.succ_masks[j]) if v in flex]
            length[j] = 1 + max(below, default=0)
        return length[j]

    best = max((depth(j) for j in flex), default=0)
    if not best:
        return []
    path = [min(j for j in flex if length[j] == best)]
    while length[path[-1]] > 1:
        cur = path[-1]
        path.append(
            min(v for v in _mask_bits(inst.succ_masks[cur]) if v in flex and length[v] == length[cur] - 1)
        )
    return path


def ref_chain_depths(inst, subset):
    """(depth, member mask) from a walk over every successor.

    The memoised depth-first search from each member in id order, where
    every member walks every successor inside the member mask;
    model._chain_depths skips the successors of a successor it has visited.
    """
    members = range(inst.n) if subset is None else sorted(subset)
    member_mask = 0
    for j in members:
        member_mask |= 1 << j
    depth = {}

    def chain_from(j):
        if j not in depth:
            below = [chain_from(v) for v in _mask_bits(inst.succ_masks[j] & member_mask)]
            depth[j] = 1 + max(below, default=0)
        return depth[j]

    for j in members:
        chain_from(j)
    return depth, member_mask


def ref_assign_levels(inst, opt, fam, eps):
    """(guess, top) tables of the level assignment, tracking windows per pin.

    The bookkeeping the package used before windows came from the pinned
    mask: every job keeps lo/hi, and each pin tightens those of all its
    successors and predecessors. Each level's pools read every unassigned
    job's window under all pins so far, where the package hands each node's
    groups to its children. Reads only fam's T and level lengths.
    """
    n, m, T = inst.n, inst.m, fam.T
    eps = Fraction(eps)
    scale = 1 << math.ceil(math.log2(math.log2(n))) if n > 2 else 1
    slot = opt.start
    lo, hi = [0] * n, [T] * n
    assigned = set()
    guess, top = {}, {}

    def pin(x):
        assigned.add(x)
        for v in _mask_bits(inst.succ_masks[x]):
            lo[v] = max(lo[v], slot[x] + 1)
        for u in _mask_bits(inst.pred_masks[x]):
            hi[u] = min(hi[u], slot[x])

    lengths = fam.level_lengths
    for level, length in enumerate(lengths):
        lo_snap, hi_snap = lo[:], hi[:]
        for start in range(0, T, length):
            end = start + length
            pool = [
                j
                for j in range(n)
                if j not in assigned and lo_snap[j] >= start and hi_snap[j] <= end
            ]
            if not pool:
                continue
            if level == len(lengths) - 1:
                top.setdefault(level, {})[(start, end)] = frozenset(pool)
                assigned.update(pool)
                continue
            child = lengths[level + 1]

            def flexible():
                return {
                    j
                    for j in pool
                    if j not in assigned and (hi[j] - 1 - start) // child > (lo[j] - start) // child
                }

            guessed = set()
            while True:
                chain = _ref_longest_chain(inst, flexible())
                if not chain or len(chain) * m * scale < eps * length:
                    break
                for c in range(start, end, child):
                    inside = sorted((j for j in chain if c <= slot[j] < c + child), key=slot.get)
                    for x in inside[:1] + inside[-1:]:
                        guessed.add(x)
                        pin(x)
            if guessed:
                guess.setdefault(level, {})[(start, end)] = frozenset(guessed)
            tops = flexible()
            if tops:
                top.setdefault(level, {})[(start, end)] = frozenset(tops)
                assigned.update(tops)
    return guess, top


def ref_classify(inst, jobs, pinned_new, cells, pinned_old):
    """(bottom per cell, top) by per-job windows, or None when one is empty."""
    merged = {**pinned_old, **pinned_new}
    starts = [c[0] for c in cells]
    bottom = {c: set() for c in cells}
    top = set()
    for j in sorted(jobs):
        if j in pinned_new:
            bottom[cells[bisect_right(starts, pinned_new[j]) - 1]].add(j)
            continue
        lo, hi = ref_feasible_window(inst, j, merged, cells[-1][1])
        if lo >= hi:
            return None
        cell = cells[bisect_right(starts, lo) - 1]
        if hi <= cell[1]:
            bottom[cell].add(j)
        else:
            top.add(j)
    return {c: frozenset(v) for c, v in bottom.items()}, frozenset(top)


def ref_windows_for_top(inst, top, cells, placed):
    """(job, r, d) per top job, walking every closure bit with a dict lookup."""
    starts = [c[0] for c in cells]
    ends = [c[1] for c in cells]
    out = []
    for j in sorted(top):
        bound = starts[0]
        for p in _mask_bits(inst.pred_masks[j]):
            s = placed.get(p)
            if s is not None and s + 1 > bound:
                bound = s + 1
        i = bisect_left(starts, bound)
        r = starts[i] if i < len(starts) else ends[-1]
        bound = ends[-1]
        for q in _mask_bits(inst.succ_masks[j]):
            s = placed.get(q)
            if s is not None and s < bound:
                bound = s
        i = bisect_right(ends, bound) - 1
        d = ends[i] if i >= 0 else starts[0]
        out.append((j, r, d))
    return out


def _ref_loads(slots, s, e):
    occ = {}
    for t in slots:
        if s <= t < e:
            occ[t] = occ.get(t, 0) + 1
    return occ


def ref_assignments(inst, subset, base_pins, s, e):
    """Slot assignments for subset in [s, e), DFS, rebuilding the pins per step.

    The exhaustive source's DFS as it was before it carried its pins: every
    step merges base_pins with the slots chosen so far and walks the job's
    whole closure masks.
    """
    occ = _ref_loads(base_pins.values(), s, e)
    chosen = {}

    def rec(i):
        if i == len(subset):
            yield dict(chosen)
            return
        j = subset[i]
        lo, hi = ref_feasible_window(inst, j, {**base_pins, **chosen}, e)
        for t in range(max(lo, s), hi):
            if occ.get(t, 0) >= inst.m:
                continue
            chosen[j] = t
            occ[t] = occ.get(t, 0) + 1
            yield from rec(i + 1)
            occ[t] -= 1
            del chosen[j]

    yield from rec(0)


def flat_guesses(items):
    """A package guess source's items, (pins, groups, partitions) per pin set,
    as the (pins, cells) guesses they stand for, in order: the form
    ref_exhaustive_guesses yields and ref_solve reads."""
    return [(pins, cells) for pins, _, partitions in items for cells in partitions]


def ref_exhaustive_guesses(inst, k_max):
    """The exhaustive guess source on ref_assignments, in the package's order."""

    def guesses(rin):
        s, e = rin.interval
        jobs = sorted(_mask_bits(rin.jobs))
        partitions = []
        for b in range(min(max(1, k_max) - 1, e - s - 1), -1, -1):
            for cuts in combinations(range(s + 1, e), b):
                bounds = [s, *cuts, e]
                partitions.append(list(zip(bounds, bounds[1:])))
        for size in range(min(k_max, len(jobs)), -1, -1):
            for subset in combinations(jobs, size):
                for pins in ref_assignments(inst, subset, rin.pinned, s, e):
                    for cells in partitions:
                        yield pins, cells

    return guesses


class RefInput(NamedTuple):
    """A ref_solve call's input: its interval, job mask, every ancestor pin, depth."""

    interval: tuple
    jobs: int
    pinned: dict
    depth: int


def ref_solve(inst, T, guesses, depth_max):
    """SolveResult of the recursion that finishes every guess it explores.

    Classifies each guess with ref_classify and windows its tops with
    ref_windows_for_top, with no windows kept across guesses and no guess
    abandoned before its EDF sweep. It skips solve's input checks and final
    validation. guesses takes a RefInput, as ref_exhaustive_guesses does.
    Its calls count guesses into one shared SolveStats and append the
    winning guesses' CallTraces to one shared list, children first. It has
    no discard floor, so it counts the floor-free tree: every guess it
    takes runs, child calls included. That is the package's count with
    qptas._discard_floor at 0, and no less than its count with the floor,
    which skips guesses without starting their child calls.
    """
    stats = SolveStats()
    starts, disc, traces = {}, set(), []
    if inst.n:
        root = RefInput((0, T), _to_mask(range(inst.n)), {}, 0)
        starts, disc = _ref_recurse(inst, root, depth_max, guesses, stats, traces)
    return SolveResult(Schedule(starts, T), frozenset(disc), stats, tuple(traces))


def _ref_recurse(inst, rin, depth_max, guesses, stats, traces):
    s, e = rin.interval
    jobs = set(_mask_bits(rin.jobs))
    if not jobs:
        return {}, set()
    if e - s == 1:
        tops = [TopWindow(j, s, e) for j in sorted(jobs)]
        placed, disc = edf_insert(inst, tops, _ref_loads(rin.pinned.values(), s, e), s, e)
        return placed, set(_mask_bits(disc))
    if rin.depth >= depth_max:
        return {}, jobs
    best = None
    for pins, cells in guesses(rin):
        stats.guesses_explored += 1
        split = ref_classify(inst, jobs, pins, cells, rin.pinned)
        if split is None:
            continue
        bottom, top = split
        merged = {**rin.pinned, **pins}
        calls = []
        starts = dict(pins)
        disc = set()
        for cell in cells:
            sub = bottom[cell] - pins.keys()
            if sub:
                child = RefInput(cell, _to_mask(sub), merged, rin.depth + 1)
                cstarts, cdisc = _ref_recurse(inst, child, depth_max, guesses, stats, calls)
                starts.update(cstarts)
                disc |= cdisc
        placed_all = {**rin.pinned, **starts}
        windows = [TopWindow(*w) for w in ref_windows_for_top(inst, top, cells, placed_all)]
        tplaced, tdisc = edf_insert(inst, windows, _ref_loads(placed_all.values(), s, e), s, e)
        starts.update(tplaced)
        disc.update(_mask_bits(tdisc))
        slots = [*placed_all.values(), *tplaced.values()]
        loads = {t: sum(1 for x in slots if x == t) for t in range(s, e)}
        calls.append(CallTrace(
            depth=rin.depth, interval=rin.interval, cells=cells, pins=dict(pins),
            windows=windows, placed_tops=tplaced, loads=loads,
        ))
        if best is None or len(disc) < len(best[1]):
            best = (starts, disc, calls)
            if not disc:
                break
    if best is None:
        return {}, jobs
    traces.extend(best[2])
    return best[0], best[1]
