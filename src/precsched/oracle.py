"""Exact makespan oracle for desk-scale instances, and a certificate before it.

A polynomial certificate answers first where it can. lower_bound is Hu's
height bound, taken on the instance and on its time reversal: with height(j)
the job count of the longest chain starting at j, a job of height k or more
has k - 1 jobs after it in a chain, so in a schedule of makespan C all such
jobs run in the first C - k + 1 slots, and C >= k - 1 + ceil(|{j :
height(j) >= k}| / m) for every k. A schedule whose makespan meets that
bound is optimal, so certified_optimum tries list scheduling in id order,
then Coffman-Graham, and returns the first that meets it. At m <= 2 it
never returns None: Coffman-Graham is optimal at m = 2 (Coffman and Graham
1972), and at m = 1 the list schedule, which leaves no slot idle, already
meets the bound n.
optimal_makespan and optimal_schedule are the search alone: they never
consult the certificate, so the baselines can be judged against them.
known_optimum is the one policy for "the optimum, if one is known": the
certificate first, the search only when it fails, and nothing above
EXACT_CAP. The cap decision lives there alone, so a state budget or a wider
certificate changes that one function.

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

Step generation costs a few big-int operations per state, not a pass over
all n jobs. Once per search, _step_tables builds, per 8-bit chunk of job
ids, a table (256 entries for a full chunk) whose entry b is the OR of the
successor masks of the chunk's jobs in b, and lists the equal-successor
classes with two or more members. A pending job is available when no
pending job precedes it, so the available set is the pending set minus one
table lookup per chunk. At most m available jobs make the one step. Jobs
alone among the available ones in their class are lone jobs: when every
available job is lone, the steps are the m-subsets of them, one
`combinations` call. Otherwise each class with several available jobs
contributes a prefix of its smallest ids, and the lone jobs complete each
partial step to m jobs.

The deterministic tie-break for optimal_schedule ("lexicographically
smallest job set among optimal next steps") is evaluated over this pruned
universe; replacing a member of a canonical set with a smaller same-class id
is itself canonical, so the lexicographic minimum over all optimal maximal
steps is always enumerated. Steps come out in no particular order:
optimal_makespan reads only a BFS distance, and optimal_schedule sorts the
steps it walks.
"""

from __future__ import annotations

from itertools import combinations

from .baselines import coffman_graham_schedule, list_schedule
from .model import Instance, Schedule, _bits, _chain_depths, reverse

EXACT_CAP = 24


class TooLarge(ValueError):
    """Instance exceeds the exact-search job cap."""


def _step_tables(inst: Instance):
    """Byte tables of successor masks, and the classes worth splitting.

    Chunk k's table has entry b = OR of succ_masks over the jobs 8k + i with
    bit i of b set, so one lookup per chunk gives every successor of a
    pending set. The classes are the equal-successor-mask classes of two or
    more jobs, as masks; every other job is alone in its class.
    """
    tables = []
    for base in range(0, inst.n, 8):
        table = [0]
        for succ in inst.succ_masks[base:base + 8]:
            table += [blocked | succ for blocked in table]
        tables.append((base, table))
    by_mask: dict[int, int] = {}
    for j, key in enumerate(inst.succ_masks):
        by_mask[key] = by_mask.get(key, 0) | 1 << j
    classes = [jobs for jobs in by_mask.values() if jobs & (jobs - 1)]
    return tables, classes


def _steps(inst: Instance, tables, state: int, m: int) -> list[int]:
    """Canonical maximal steps from `state`, as job bitmasks."""
    chunks, classes = tables
    rest = state ^ ((1 << inst.n) - 1)
    blocked = 0
    for base, table in chunks:
        blocked |= table[rest >> base & 255]
    # A pending job is available when no pending job precedes it.
    avail = rest & ~blocked
    left = avail.bit_count()
    if left <= m:
        return [avail] if avail else []
    groups = []
    spare = avail
    for jobs in classes:
        jobs &= avail
        if jobs & (jobs - 1):
            groups.append(jobs)
            spare ^= jobs
    # The lone jobs: available and the only available job of their class.
    lone = []
    while spare:
        low = spare & -spare
        lone.append(low)
        spare ^= low
    if not groups:
        # The bits are disjoint, so sum is |.
        return list(map(sum, combinations(lone, m)))
    # Class by class, OR in the class's c smallest ids, largest c first, and
    # leave enough jobs in later classes and among the lone jobs to complete
    # m; the lone jobs then fill what each partial step still needs.
    steps = [(0, m)]
    for jobs in groups:
        prefix = [0]
        while jobs:
            low = jobs & -jobs
            prefix.append(prefix[-1] | low)
            jobs ^= low
        size = len(prefix) - 1
        left -= size
        steps = [
            (mask | prefix[c], need - c)
            for mask, need in steps
            for c in range(min(size, need), max(0, need - left) - 1, -1)
        ]
    fill = [list(map(sum, combinations(lone, k))) for k in range(min(m, left) + 1)]
    return [mask | more for mask, need in steps for more in fill[need]]


def _levels(inst: Instance, tables) -> dict[int, int]:
    """BFS level of every ideal reached until the full set turns up (n >= 1)."""
    full = (1 << inst.n) - 1
    dist = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for state in frontier:
            d = dist[state] + 1
            for step in _steps(inst, tables, state, inst.m):
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
    return _levels(inst, _step_tables(inst))[(1 << inst.n) - 1]


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
    tables = _step_tables(inst)
    dist = _levels(inst, tables)
    horizon = dist[full]

    def forward(state: int, d: int):
        steps = _steps(inst, tables, state, inst.m)
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


def _height_bound(inst: Instance) -> int:
    """Hu's height bound: max over k of k - 1 + ceil(|{j : height(j) >= k}| / m).

    With heights in decreasing order, the i-th job (from 1) of height h
    gives h - 1 + ceil(i/m), and the last job of each height gives that
    height's term. Integer ceilings only, so no machine count overflows a
    float; 0 at n = 0.
    """
    heights = sorted(_chain_depths(inst, (1 << inst.n) - 1).values(), reverse=True)
    return max((h - 1 - (-i // inst.m) for i, h in enumerate(heights, 1)), default=0)


def lower_bound(inst: Instance) -> int:
    """The larger of the height bounds of inst and of its time reversal.

    At least max(ceil(n/m), longest chain) and at most the optimum.
    """
    return max(_height_bound(inst), _height_bound(reverse(inst)))


def certified_optimum(inst: Instance) -> Schedule | None:
    """A baseline schedule that meets lower_bound, or is optimal by theorem; else None.

    List scheduling in id order is tried first, Coffman-Graham only when it
    misses. Coffman-Graham is returned at m = 2 even above the bound, since
    it is optimal there; at m = 1 list scheduling meets the bound. There is
    no job cap: the bound is two chain tables, and each baseline one slot
    sweep.
    """
    bound = lower_bound(inst)
    sched = list_schedule(inst, range(inst.n))
    if sched.makespan() == bound:
        return sched
    sched = coffman_graham_schedule(inst)
    return sched if inst.m <= 2 or sched.makespan() == bound else None


def known_optimum(inst: Instance) -> int | None:
    """The optimum's makespan when it is known, else None.

    None above EXACT_CAP, even where a certificate exists, so a large
    instance gets no search and its callers fall back to their own bounds.
    Below the cap the certificate answers first and optimal_makespan
    searches only when it returns None.
    """
    if inst.n > EXACT_CAP:
        return None
    sched = certified_optimum(inst)
    return optimal_makespan(inst) if sched is None else sched.makespan()
