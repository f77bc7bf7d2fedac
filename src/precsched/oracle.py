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
EXACT_CAP. `solve --horizon auto` and bench take their optimum from it.
EXACT_CAP is applied in three more places: optimal_makespan and
optimal_schedule raise TooLarge above their `cap` argument (EXACT_CAP by
default), and audits.level_analysis raises it when the padded instance
exceeds EXACT_CAP. A state budget in place of the cap changes those four.

Search space: order ideals (downward-closed job sets) of the precedence
order, encoded as bitmasks. A schedule prefix that has run for t slots is
fully described by the set S of finished jobs, so the optimal makespan is
the fewest steps S -> S | A, for A a subset of the currently available jobs
with |A| <= m, from the empty set to the full set. _optimal_path finds a
shortest such path by iterative deepening depth-first search (Korf 1985):
each pass searches paths up to a horizon, the first at lower_bound, and
cuts a state whose depth plus a lower bound on its remaining steps passes
the horizon. The remaining-steps bound is Hu's height bound on the pending
jobs, raised to what an earlier pass proved when it backed out of the
state. No state lattice is built: the pass that succeeds goes down one
path.

Two admissible prunings keep the steps few. Both are exact, not
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
steps is always enumerated. _steps returns them in no particular order, and
_optimal_path sorts each state's steps by job set before it tries them.
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


def _height_masks(inst: Instance) -> list[int]:
    """masks[k] is the set of jobs of height k + 1 or more, for k below the
    longest chain; the masks nest, largest first."""
    depth = _chain_depths(inst, (1 << inst.n) - 1)
    masks = [0] * max(depth.values(), default=0)
    for j, h in depth.items():
        masks[h - 1] |= 1 << j
    for k in range(len(masks) - 2, -1, -1):
        masks[k] |= masks[k + 1]
    return masks


def _rest_bound(masks: list[int], pending: int, m: int) -> int:
    """Hu's height bound on the pending jobs: max over k of k - 1 + ceil(|{j
    pending : height(j) >= k}| / m), 0 when nothing is pending.

    The pending set is an up-set whenever the done set is an ideal, so each
    pending job's height in the pending jobs is its height in the instance,
    and one popcount per height counts the jobs. Integer ceilings only, so no
    machine count overflows a float.
    """
    bound = 0
    for k, mask in enumerate(masks):
        count = (pending & mask).bit_count()
        if not count:
            break
        bound = max(bound, k - (-count // m))
    return bound


def _optimal_path(inst: Instance) -> list[int]:
    """The done sets of the first optimal schedule in step order, the empty
    set first and the full set last (n >= 1).

    Iterative deepening depth-first search (IDA*, Korf 1985). The horizon
    starts at lower_bound and rises by 1 after each pass that fails. Each
    pass tries the steps of a state in lexicographic order of their job sets
    and cuts a child at depth d + 1 when d + 1 + max(need, rest bound)
    exceeds the horizon. The rest bound is _rest_bound of the child's
    pending jobs; need[S] is the number of steps S was proven to need when
    a pass backed out of it, kept across passes. Neither cut removes a
    subtree that could finish within the horizon, so the first pass that
    succeeds is at the optimum D and returns the first path of length D in
    step order.
    """
    full = (1 << inst.n) - 1
    m = inst.m
    tables = _step_tables(inst)
    masks = _height_masks(inst)
    need: dict[int, int] = {}

    def children(state: int):
        steps = _steps(inst, tables, state, m)
        return iter(sorted(steps, key=lambda step: tuple(_bits(step))))

    # lower_bound, with the forward masks built once for both uses.
    horizon = max(_rest_bound(masks, full, m), _height_bound(reverse(inst)))
    while True:
        path = [0]
        todo = [children(0)]
        while todo:
            step = next(todo[-1], 0)
            d = len(path) - 1
            if not step:
                # No path from path[-1] fits in the horizon - d steps left.
                need[path.pop()] = horizon - d + 1
                todo.pop()
                continue
            child = path[-1] | step
            if child == full:
                path.append(child)
                return path
            if d + 1 + max(need.get(child, 0), _rest_bound(masks, full ^ child, m)) <= horizon:
                path.append(child)
                todo.append(children(child))
        horizon += 1


def optimal_makespan(inst: Instance, cap: int = EXACT_CAP) -> int:
    """The optimum: the step count of _optimal_path from the empty ideal to
    the full job set.

    Raises TooLarge if inst.n > cap.
    """
    if inst.n > cap:
        raise TooLarge(f"n={inst.n} exceeds exact-search cap {cap}")
    if inst.n == 0:
        return 0
    return len(_optimal_path(inst)) - 1


def optimal_schedule(inst: Instance, cap: int = EXACT_CAP) -> Schedule:
    """A deterministic optimal schedule: step t of _optimal_path runs in slot t.

    After t steps of any optimal schedule the done set is t steps from the
    empty set and D - t from the full set, so the first optimal path in step
    order takes, at each step, the lexicographically smallest canonical step
    that preserves optimality.
    """
    if inst.n > cap:
        raise TooLarge(f"n={inst.n} exceeds exact-search cap {cap}")
    if inst.n == 0:
        return Schedule(start={}, horizon=0)
    path = _optimal_path(inst)
    start: dict[int, int] = {}
    for t in range(len(path) - 1):
        for j in _bits(path[t + 1] ^ path[t]):
            start[j] = t
    return Schedule(start=start, horizon=len(path) - 1)


def _height_bound(inst: Instance) -> int:
    """Hu's height bound on every job: _rest_bound of the full set; 0 at n = 0."""
    return _rest_bound(_height_masks(inst), (1 << inst.n) - 1, inst.m)


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
