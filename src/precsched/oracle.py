"""Exact makespan oracle for desk-scale instances.

Search space: order ideals (downward-closed job sets) of the precedence
order, encoded as bitmasks. A schedule prefix that has run for t slots is
fully described by the set S of finished jobs, so breadth-first search over
ideals, stepping S -> S | A for A a subset of the currently available jobs
with |A| <= m, finds the optimal makespan as the BFS distance from the empty
set to the full set.

Two admissible prunings keep the lattice small. Both are exact, not
heuristic:

1. Maximal steps. If A is a strict subset of another available set A' with
   |A| < m, skip A. Proof sketch: running a superset never hurts with unit
   jobs. Take any completion B_1, B_2, ... after S | A; then
   B_i minus (A' minus A) is available at the corresponding state after
   S | A' (available sets only grow as the done set grows) and has at most
   m jobs, so the same number of steps finishes everything.

2. Interchangeable jobs. Two available jobs x, y with identical successor
   sets are interchangeable: both have all predecessors inside S, and
   swapping them in any continuation renames nothing else (the relation is
   closed, so their remaining constraints coincide). Hence only the number of
   jobs taken from each equal-successor class matters, and we canonically take
   the smallest ids of each class. Note x, y available implies neither
   precedes the other, and no successor of either is in S, so comparing the
   static successor masks suffices.

The deterministic tie-break for optimal_schedule ("lexicographically
smallest job set among optimal next steps") is evaluated over this pruned
universe; replacing a member of a canonical set with a smaller same-class id
is itself canonical, so the lexicographic minimum over all optimal maximal
steps is always enumerated.
"""

from __future__ import annotations

from itertools import accumulate, combinations

from .model import Instance, Schedule, _bits

EXACT_CAP = 24


class TooLarge(ValueError):
    """Instance exceeds the exact-search job cap."""


def _class_groups(inst: Instance):
    """Partition job ids into equal-successor-mask classes."""
    by_mask: dict[int, int] = {}
    class_of = [0] * inst.n
    count = 0
    for j in range(inst.n):
        key = inst.succ_masks[j]
        if key not in by_mask:
            by_mask[key] = count
            count += 1
        class_of[j] = by_mask[key]
    return class_of


def _steps(inst: Instance, class_of, state: int, m: int) -> list[int]:
    """Canonical maximal steps from `state`, as job bitmasks."""
    rest = ~state
    groups: dict[int, list[int]] = {}
    for j, pred in enumerate(inst.pred_masks):
        if rest >> j & 1 and not pred & rest:
            groups.setdefault(class_of[j], []).append(1 << j)
    left = sum(map(len, groups.values()))
    take = min(m, left)
    if take == 0:
        return []
    if left == len(groups):
        # Every available job is alone in its class; the bits are disjoint,
        # so sum is |. About a third of desk states; cuts _steps time by a
        # quarter against the class-by-class path below.
        return list(map(sum, combinations([g[0] for g in groups.values()], take)))
    # Class by class, OR in the class's c smallest ids, largest c first, and
    # leave enough jobs in later classes to complete `take`; the last class
    # takes what is still needed.
    *head, last = groups.values()
    steps = [(0, take)]
    for group in head:
        size = len(group)
        left -= size
        prefix = list(accumulate(group, initial=0))
        steps = [
            (mask | prefix[c], need - c)
            for mask, need in steps
            for c in range(min(size, need), max(0, need - left) - 1, -1)
        ]
    prefix = list(accumulate(last, initial=0))
    return [mask | prefix[need] for mask, need in steps]


def _levels(inst: Instance, class_of) -> dict[int, int]:
    """BFS level of every ideal reached until the full set turns up (n >= 1)."""
    full = (1 << inst.n) - 1
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for state in frontier:
            d = dist[state] + 1
            for step in _steps(inst, class_of, state, inst.m):
                s2 = state | step
                if s2 not in dist:
                    dist[s2] = d
                    if s2 == full:
                        return dist
                    nxt.append(s2)
        frontier = nxt
    raise AssertionError("full state unreachable in an acyclic instance")


def optimal_makespan(inst: Instance, cap: int = EXACT_CAP) -> int:
    """BFS distance from the empty ideal to the full job set.

    Raises TooLarge if inst.n > cap.
    """
    if inst.n > cap:
        raise TooLarge(f"n={inst.n} exceeds exact-search cap {cap}")
    if inst.n == 0:
        return 0
    return _levels(inst, _class_groups(inst))[(1 << inst.n) - 1]


def optimal_schedule(inst: Instance, cap: int = EXACT_CAP) -> Schedule:
    """A deterministic optimal schedule.

    BFS gives the ideals their levels up to the optimum D. After t steps of
    an optimal schedule the done set sits at level exactly t, so a
    depth-first walk from the empty set that tries the steps to the next
    level in lexicographic order of their job sets, and never re-enters a
    state it has backed out of, takes at each step the lexicographically
    smallest canonical step that preserves optimality.
    """
    if inst.n > cap:
        raise TooLarge(f"n={inst.n} exceeds exact-search cap {cap}")
    if inst.n == 0:
        return Schedule(start={}, horizon=0)
    full = (1 << inst.n) - 1
    class_of = _class_groups(inst)
    dist = _levels(inst, class_of)
    horizon = dist[full]

    def forward(state: int, d: int):
        steps = _steps(inst, class_of, state, inst.m)
        ok = [s for s in steps if dist.get(state | s) == d + 1 < horizon or state | s == full]
        return iter(sorted(ok, key=lambda step: tuple(_bits(step))))

    dead: set[int] = set()
    path = [0]
    todo = [forward(0, 0)]
    while path[-1] != full:
        step = next(todo[-1], 0)
        if not step:
            dead.add(path.pop())
            todo.pop()
        elif path[-1] | step not in dead:
            path.append(path[-1] | step)
            todo.append(forward(path[-1], len(path) - 1))
    start: dict[int, int] = {}
    for t in range(horizon):
        for j in _bits(path[t + 1] ^ path[t]):
            start[j] = t
    return Schedule(start=start, horizon=horizon)
