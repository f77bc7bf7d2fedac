"""Core data model for unit-job scheduling under precedence constraints.

Jobs are integers 0..n-1, every job takes exactly one time slot, and up to m
identical machines run in parallel. The precedence relation is stored
transitively closed as one bitmask of predecessors and one of successors per
job, so w is a successor of u whenever (u, v) and (v, w) are edges. A third
mask per job holds its cover successors, the transitive reduction, which
build_instance derives in the same pass that closes the edges.
Schedules record start slots only; machine assignment is irrelevant for
unit jobs because any slot with at most m jobs can be mapped to machines
arbitrarily.

One memoised chain-depth table, over a job mask, serves both chain
queries: longest_chain takes its maximum over all jobs, and
longest_chain_path walks a deterministic witness down it inside the mask
it is given. The table's walk skips the successors of each successor it has
visited, which are memoised by then, so it does not visit every closure
pair. longest_chain_path is the source of the long chains that the level
assignment (laminar.assign_levels) pins; it passes its flexible jobs' mask
as it stands.
"""

from __future__ import annotations

from dataclasses import dataclass

JobId = int


class CycleError(ValueError):
    """The precedence edges contain a cycle (self-loops included)."""


class BadMachineCount(ValueError):
    """Machine count must be a positive integer."""


# The most jobs an instance file (textio.parse_instance) or a generator spec
# (generators.generate) may declare, checked before build_instance, which
# allocates per-job lists before it reads an edge: at 2**62 jobs that raises
# MemoryError, at 10**20 OverflowError. Tests and benchmarks use n <= 8000.
JOBS_MAX = 1 << 20


@dataclass(frozen=True)
class Instance:
    """A scheduling instance with a transitively closed precedence DAG.

    Bit u of pred_masks[v] and bit v of succ_masks[u] both mean u must
    complete before v starts. The masks are the relation: they hold its
    closure, they must agree with each other, and equality compares them.
    cover_masks[u] holds u's cover successors, the v in succ_masks[u] with
    no job between u and v (the transitive reduction). It is derived from
    the relation, so comparing it too adds no distinction to equality.
    build_instance (from any edge list) and pad_to_power_of_two make them.
    """

    n: int
    m: int
    pred_masks: tuple[int, ...]
    succ_masks: tuple[int, ...]
    cover_masks: tuple[int, ...]


def predecessors(inst: Instance, j: JobId) -> frozenset[JobId]:
    """All jobs that must finish before j starts (closure, not just direct).

    No solver reads it; the benchmark's closure-pair count
    (perfbench/run.py, _closure_pairs) is its caller.
    """
    if not 0 <= j < inst.n:
        raise IndexError(f"job {j} outside 0..{inst.n - 1}")
    return frozenset(_bits(inst.pred_masks[j]))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(jobs) -> int:
    """Bitmask with bit j set for each j in jobs; the inverse of _bits."""
    mask = 0
    for j in jobs:
        mask |= 1 << j
    return mask


def slot_bounds(inst: Instance, j: JobId, slots, mask: int, lo: int, hi: int) -> tuple[int, int]:
    """[lo, hi) narrowed by j's neighbours inside mask, whose slots are known.

    lo rises past each predecessor's slot, and hi falls to each successor's
    slot. Only the bits of pred_masks[j] & mask and succ_masks[j] & mask are
    walked, so a job with no neighbour in mask costs O(1). slots maps every
    job in mask to its slot; the result may be empty (lo >= hi).
    """
    bits = inst.pred_masks[j] & mask
    while bits:
        low = bits & -bits
        bits ^= low
        t = slots[low.bit_length() - 1] + 1
        if t > lo:
            lo = t
    bits = inst.succ_masks[j] & mask
    while bits:
        low = bits & -bits
        bits ^= low
        t = slots[low.bit_length() - 1]
        if t < hi:
            hi = t
    return lo, hi


def build_instance(n: int, m: int, edges) -> Instance:
    """Validate inputs, reject cycles, and return the transitively closed instance.

    edges may be any edge list whose closure is the relation: cover edges,
    all closure pairs, or anything between; duplicates are ignored. The
    instance's cover_masks come out the same for all of them.

    Raises CycleError on any cycle (a self-loop is a cycle), IndexError on an
    edge endpoint outside 0..n-1, BadMachineCount for m < 1. n = 0 is legal.
    """
    if m < 1:
        raise BadMachineCount(f"m must be >= 1, got {m}")
    if n < 0:
        raise IndexError(f"n must be >= 0, got {n}")
    direct = [0] * n
    indeg = [0] * n
    for u, v in edges:
        if not 0 <= u < n:
            raise IndexError(f"edge endpoint {u} outside 0..{n - 1}")
        if not 0 <= v < n:
            raise IndexError(f"edge endpoint {v} outside 0..{n - 1}")
        if u == v:
            raise CycleError(f"self-loop at job {u}")
        if not direct[u] >> v & 1:
            direct[u] |= 1 << v
            indeg[v] += 1

    # Kahn's algorithm: a topological order exists iff the digraph is acyclic.
    # The loop visits the jobs it appends, and indeg keeps, for a job never
    # reached, the count of its unvisited direct predecessors.
    order = [j for j in range(n) if not indeg[j]]
    for u in order:
        bits = direct[u]
        while bits:
            low = bits & -bits
            bits ^= low
            v = low.bit_length() - 1
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    if len(order) != n:
        stuck = [j for j in range(n) if indeg[j] > 0]
        raise CycleError(f"cycle through jobs {stuck}")

    # Closure in two passes: descendants in reverse topological order, then
    # ancestors in topological order. below is what u's direct successors
    # reach; a direct edge (u, v) is a cover edge iff v is not in it, and
    # every cover edge is a direct edge, so this is the exact reduction.
    desc = [0] * n
    cover = [0] * n
    for u in reversed(order):
        succ = direct[u]
        below = 0
        bits = succ
        while bits:
            low = bits & -bits
            bits ^= low
            below |= desc[low.bit_length() - 1]
        desc[u] = succ | below
        cover[u] = succ & ~below
    # Every predecessor of v reaches it through a cover edge into v.
    anc = [0] * n
    for u in order:
        up = anc[u] | 1 << u
        bits = cover[u]
        while bits:
            low = bits & -bits
            bits ^= low
            anc[low.bit_length() - 1] |= up
    return Instance(n, m, tuple(anc), tuple(desc), tuple(cover))


def reverse(inst: Instance) -> Instance:
    """The time-reversed instance: every precedence edge points the other way.

    Slot t of a schedule of inst is slot T - 1 - t of a schedule of the
    reversal, so the two share their optimum and their longest chain. The
    predecessor and successor masks swap, and the cover is transposed in
    one pass over its edges.
    """
    cover = [0] * inst.n
    for u, mask in enumerate(inst.cover_masks):
        bit = 1 << u
        while mask:
            low = mask & -mask
            mask ^= low
            cover[low.bit_length() - 1] |= bit
    return Instance(inst.n, inst.m, inst.succ_masks, inst.pred_masks, tuple(cover))


@dataclass
class Schedule:
    """Start slots for (a subset of) jobs within a declared horizon.

    horizon is the declared number of slots; the schedule file format calls
    this value "makespan". validate_schedule reports the observed makespan
    (latest completion) separately.
    """

    start: dict[JobId, int]
    horizon: int

    def makespan(self) -> int:
        return max(self.start.values()) + 1 if self.start else 0


@dataclass(frozen=True)
class Violation:
    kind: str  # capacity | precedence | horizon | unknown-job
    detail: tuple[int, ...]


@dataclass
class ValidationReport:
    feasible: bool
    complete: bool
    makespan: int
    violations: list[Violation]


def validate_schedule(inst: Instance, sched: Schedule) -> ValidationReport:
    """Check capacity, precedence and horizon. Never raises.

    feasible means no violations among the scheduled jobs; complete means
    every job of the instance has a start slot. Partial schedules (solver
    fragments) are validated the same way, just with complete=False.
    """
    violations: list[Violation] = []
    load: dict[int, int] = {}
    for j, t in sched.start.items():
        if not 0 <= j < inst.n:
            violations.append(Violation("unknown-job", (j,)))
            continue
        if t < 0 or t >= sched.horizon:
            violations.append(Violation("horizon", (j, t)))
        load[t] = load.get(t, 0) + 1
    for t in sorted(load):
        if load[t] > inst.m:
            violations.append(Violation("capacity", (t, load[t])))
    # at_or_before[t]: mask of the jobs starting at slot t or earlier. A
    # successor v of u in that mask for t = start[u] starts too early.
    by_slot: dict[int, int] = {}
    for j, t in sched.start.items():
        if 0 <= j < inst.n:
            by_slot[t] = by_slot.get(t, 0) | 1 << j
    at_or_before: dict[int, int] = {}
    acc = 0
    for t in sorted(by_slot):
        acc |= by_slot[t]
        at_or_before[t] = acc
    for u in sorted(j for j in sched.start if 0 <= j < inst.n):
        for v in _bits(inst.succ_masks[u] & at_or_before[sched.start[u]]):
            violations.append(Violation("precedence", (u, v)))
    known = [t for j, t in sched.start.items() if 0 <= j < inst.n]
    makespan = max(known) + 1 if known else 0
    complete = all(j in sched.start for j in range(inst.n))
    return ValidationReport(
        feasible=not violations,
        complete=complete,
        makespan=makespan,
        violations=violations,
    )


def _chain_depths(inst: Instance, mask: int) -> dict[int, int]:
    """The chain-depth table of the jobs in mask.

    depth[j] is the job count of the longest chain that starts at j and
    stays inside mask. A memoised depth-first search from each member in id
    order; it recurses once per chain link. Once chain_from(v) returns,
    every successor of v is memoised and shallower than v, so the walk over
    j's successors drops succ_masks[v] from what is left. It skips only memo
    hits: the table, its insertion order and the recursion's nesting are
    those of a walk over every successor. A bit at or above n raises
    IndexError at its succ_masks lookup.
    """
    succ_masks = inst.succ_masks
    depth: dict[int, int] = {}

    def chain_from(j: int) -> int:
        got = depth.get(j)
        if got is not None:
            return got
        best = 0
        rest = succ_masks[j] & mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            cand = chain_from(v)
            if cand > best:
                best = cand
            rest &= ~(low | succ_masks[v])
        depth[j] = best + 1
        return best + 1

    for j in _bits(mask):
        chain_from(j)
    return depth


def longest_chain(inst: Instance) -> int:
    """Length (job count) of the longest precedence chain of the instance.

    A chain here is a set of pairwise comparable jobs; with a closed
    relation that equals a directed path. Unit jobs make this a makespan
    lower bound: max(ceil(n/m), longest_chain).
    """
    return max(_chain_depths(inst, (1 << inst.n) - 1).values(), default=0)


def longest_chain_path(inst: Instance, mask: int) -> list[JobId]:
    """A longest chain inside the job mask, head first; [] for an empty mask.

    The head is the smallest job of greatest depth, and each next job the
    smallest successor one level shallower, so the witness is deterministic.
    IndexError for a bit at or above n.
    """
    depth = _chain_depths(inst, mask)
    best = max(depth.values(), default=0)
    if not best:
        return []
    path = [min(j for j, d in depth.items() if d == best)]
    while depth[path[-1]] > 1:
        below = depth[path[-1]] - 1
        succ = inst.succ_masks[path[-1]] & mask
        path.append(next(v for v in _bits(succ) if depth[v] == below))
    return path
