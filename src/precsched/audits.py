"""Empirical auditors for the analysis claims behind the laminar solver.

Each auditor inspects one structural claim (level uniqueness, offset
shifting, window slack, degenerate counts, idle slots, level count) and
returns an AuditReport. level_analysis is the one pipeline from an instance
to its level assignment and best offset; `analyze levels` prints it and
audit_instance audits it. run_oracle_pinned runs the solver itself
(qptas.solve) with an oracle-pinned guess source: every call pins the jobs
the level assignment guessed at their slots in an exact optimal schedule.
The solver's own per-call traces feed the window and idle auditors, which
take each call's levels from the family: that of its interval and that of
its cells. Everything here is desk-scale: it sits on top of the exact
oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .laminar import (
    LaminarFamily,
    LevelAssignment,
    assign_levels,
    best_offset,
    bucket_levels,
    build_laminar,
    check_eps,
    default_depth_max,
    pad_to_power_of_two,
    partition_level,
    analysis_depth_limit,
    stride_of,
)
from .model import Instance, JobId, Schedule
from .oracle import optimal_makespan, optimal_schedule
from .qptas import CallTrace, solve

# Claims whose violation means the implementation (or the analysis) is wrong,
# versus bounds that are only expected to hold in the audited regime.
CONTRACTUAL_CLAIMS = ("unique-level", "shift-bound", "window-slack", "level-count")
ADVISORY_CLAIMS = ("degenerate-count", "idle-slots")


class PreconditionUnmet(ValueError):
    """The audit's hypothesis does not hold for the supplied data."""


@dataclass(frozen=True)
class AuditReport:
    """Outcome of one empirical check.

    population counts the audited objects, violations how many broke the
    claim. worst is the most extreme observed value and bound the evaluated
    limit it was compared against; for aggregated margin-style reports the
    bound is 0.0 and worst is the largest (observed - limit) gap.
    """

    name: str
    population: int
    violations: int
    worst: float
    bound: float


def check_unique_level(assign: LevelAssignment) -> AuditReport:
    """Every job must appear in exactly one guess or top set."""
    counts = [len(assign.memberships(j)) for j in range(assign.n)]
    bad = sum(1 for c in counts if c != 1)
    worst = max(counts, default=0)
    return AuditReport(
        name="unique-level",
        population=assign.n,
        violations=bad,
        worst=float(worst),
        bound=1.0,
    )


def check_shift_bound(assign: LevelAssignment, m: int, eps, T: int) -> AuditReport:
    """Some offset's top buckets hold at most eps*T jobs.

    Buckets for offset a collect the top jobs of its bucket_levels.
    Buckets across offsets must be disjoint (each counted appearance beyond
    the first is a violation), the job count may not exceed m*T, and the
    smallest bucket must fit under eps*T. The size comparison is exact.
    """
    e = check_eps(eps)
    stride = stride_of(m, e)
    seen: Counter[JobId] = Counter()
    sizes = []
    for a in range(stride):
        members: set[JobId] = set()
        for level in bucket_levels(assign.fam, a, stride):
            tops = assign.top_at_level(level)
            members |= tops
            seen.update(tops)
        sizes.append(len(members))
    violations = sum(c - 1 for c in seen.values() if c > 1)
    if assign.n > m * T:
        violations += 1
    smallest = min(sizes)
    if Fraction(smallest) > e * T:
        violations += 1
    return AuditReport(
        name="shift-bound",
        population=stride,
        violations=violations,
        worst=float(smallest),
        bound=float(e * T),
    )


def check_level_count(fam: LaminarFamily, n: int, eps) -> AuditReport:
    """The deepest level index stays within log2(n)/log2(log2(n)/eps) + 1.

    The divisor can vanish or go negative for tiny n or large eps; the bound
    is +inf there and the check passes vacuously.
    """
    e = check_eps(eps)
    if n < 2:
        raise ValueError(f"need at least 2 jobs, got {n}")
    denom = math.log2(math.log2(n) / float(e)) if math.log2(n) / float(e) > 0 else 0.0
    bound = math.log2(n) / denom + 1 if denom > 0 else math.inf
    worst = float(fam.deepest)
    return AuditReport(
        name="level-count",
        population=fam.level_count(),
        violations=int(worst > bound),
        worst=worst,
        bound=bound,
    )


def check_window_slack(
    opt: Schedule,
    windows,
    lam: int,
    pins: dict[JobId, int] | None = None,
) -> AuditReport:
    """Each top job's optimal slot sits within lam of its guessed window.

    The claim holds for runs whose pins agree with opt; when pins are given
    they are verified first and PreconditionUnmet raised on any mismatch.
    The needed slack for a window [r, d) around slot s is max(r-s, s-d+1),
    so 0 means the slot is already inside.
    """
    if pins is not None:
        for j, t in pins.items():
            if opt.start.get(j) != t:
                raise PreconditionUnmet(
                    f"pin {j}@{t} disagrees with the optimal slot {opt.start.get(j)}"
                )
    needed = []
    for w in windows:
        s = opt.start[w.job]
        needed.append(max(w.r - s, s - w.d + 1))
    violations = sum(1 for v in needed if v > lam)
    return AuditReport(
        name="window-slack",
        population=len(needed),
        violations=violations,
        worst=float(max(needed, default=0)),
        bound=float(lam),
    )


def count_degenerate(windows, m: int, eps, n: int, interval_len: int) -> AuditReport:
    """Degenerate windows among the given ones versus 2*m*eps*|I|/log2(n).

    The caller passes the call's top-1 windows (tops of the call's own level
    range). Advisory: the bound is an analysis artifact, not a contract.
    """
    e = check_eps(eps)
    count = sum(1 for w in windows if w.degenerate)
    bound = 2 * m * float(e) * interval_len / math.log2(n) if n >= 2 else math.inf
    return AuditReport(
        name="degenerate-count",
        population=len(windows),
        violations=int(count > bound),
        worst=float(count),
        bound=bound,
    )


def audit_idle_slots(trace: CallTrace, m: int, eps, n: int) -> AuditReport:
    """Idle slots while a non-degenerate top is pending, per meta-interval.

    A cell is covered when every one of its slots has some live top pending
    (released, not yet finished or discarded). Meta-intervals are maximal
    runs of consecutive covered cells. Within each, slots with load < m are
    counted against |I_hat| * eps / (m * log2(n)). The report aggregates the
    call's meta-intervals: worst is the largest count-minus-bound margin,
    bound 0.0. Advisory.
    """
    e = check_eps(eps)
    live = [w for w in trace.windows if not w.degenerate]
    # An unplaced live top is discarded at its deadline.
    ends = {
        w.job: trace.placed_tops[w.job] + 1 if w.job in trace.placed_tops else w.d
        for w in live
    }

    def pending(t: int) -> bool:
        return any(w.r <= t < ends[w.job] for w in live)

    covered = [all(pending(t) for t in range(cs, ce)) for cs, ce in trace.cells]
    rate = float(e) / (m * math.log2(n)) if n >= 2 else math.inf
    runs = []
    i = 0
    while i < len(covered):
        if not covered[i]:
            i += 1
            continue
        j = i
        while j < len(covered) and covered[j]:
            j += 1
        runs.append((trace.cells[i][0], trace.cells[j - 1][1]))
        i = j
    margins = []
    for rs, re in runs:
        idle = sum(1 for t in range(rs, re) if trace.loads[t] < m)
        margins.append(idle - (re - rs) * rate)
    return AuditReport(
        name="idle-slots",
        population=len(runs),
        violations=sum(1 for g in margins if g > 0),
        worst=max(margins, default=0.0),
        bound=0.0,
    )


def run_oracle_pinned(
    inst: Instance,
    opt: Schedule,
    fam: LaminarFamily,
    eps,
    offset: int,
    assign: LevelAssignment,
):
    """Run the solver with every guess pinned at its optimal slot.

    The guess source gives each call one guess: the call's jobs that the
    level assignment guessed at some level from the interval's own level up
    to (but not including) its partition level, pinned at their slots in
    opt, on the partition level's cells. The solver then classifies,
    recurses on bottoms, windows the tops and runs the EDF sweep as it
    always does. Its depth cap is the family's level count, which no call
    reaches. Returns (traces, starts, discarded); traces are the solver's
    CallTraces, children first.
    """
    stride = stride_of(inst.m, eps)
    guess_level = {
        j: lvl for lvl, row in assign.guess.items() for members in row.values() for j in members
    }

    def oracle_guess(rin):
        level = fam.level_of(rin.interval)
        p = partition_level(fam, level, rin.depth, stride, offset)
        pins = {j: opt.start[j] for j in rin.jobs if level <= guess_level.get(j, -1) < p}
        yield pins, fam.cells(rin.interval, p)

    traces: list[CallTrace] = []
    result = solve(inst, fam.T, oracle_guess, fam.level_count(), traces=traces)
    return traces, result.schedule.start, set(result.discarded)


def _merge_margin(name: str, reports) -> AuditReport:
    # Per-call bounds differ, so the merged row carries margins against 0.
    return AuditReport(
        name=name,
        population=sum(r.population for r in reports),
        violations=sum(r.violations for r in reports),
        worst=max((r.worst - r.bound for r in reports), default=0.0),
        bound=0.0,
    )


def level_analysis(inst: Instance, eps):
    """Pad to a power-of-two optimum, solve it exactly and assign levels.

    Returns (padded, opt, fam, assign, offset, bucket): the instance padded
    to the horizon fam.T, an exact optimal schedule of it, its laminar
    family and level assignment, and the best offset with the top-job count
    of its bucket. The oracle's TooLarge is the one size rule: it is raised
    when the instance or its padding exceeds the exact-search cap. Needs at
    least 2 jobs.
    """
    e = check_eps(eps)
    padded, tstar = pad_to_power_of_two(inst, optimal_makespan(inst))
    opt = optimal_schedule(padded)
    fam = build_laminar(tstar, padded.n, e)
    assign = assign_levels(padded, opt, fam, e)
    offset, bucket = best_offset(assign, padded.m, e)
    return padded, opt, fam, assign, offset, bucket


def audit_instance(inst: Instance, eps=Fraction(1)) -> dict[str, AuditReport]:
    """Run every auditor against one instance and an exact optimal schedule.

    Takes the padded instance, its optimum, level assignment and best
    offset from level_analysis, runs the pinned recursion, and returns one
    report per claim, in the order of the audit CSV's rows. window-slack,
    degenerate-count and idle-slots aggregate the per-call reports into
    margin rows (bound 0.0); a call's slack bound is its cell length. Two
    informational rows record the run's depth against the working cap and
    the analysis recursion-depth limit. Needs at least 2 jobs; raises
    TooLarge above the oracle cap.
    """
    e = check_eps(eps)
    if inst.n < 2:
        raise ValueError(f"need at least 2 jobs to audit, got {inst.n}")
    padded, opt, fam, assign, a, _ = level_analysis(inst, e)
    traces, _, _ = run_oracle_pinned(padded, opt, fam, e, a, assign)
    m = padded.m

    def top1_windows(tr):
        # The tops the level assignment put in the call's own level range,
        # from the interval's level up to its cells'.
        levels = range(fam.level_of(tr.interval), fam.level_of(tr.cells[0]))
        top1 = tr.tops & frozenset().union(*map(assign.top_at_level, levels))
        return [w for w in tr.windows if w.job in top1]

    # In CSV row order: the claims, then the informational rows.
    reports = {
        "unique-level": check_unique_level(assign),
        "shift-bound": check_shift_bound(assign, m, e, fam.T),
        "window-slack": _merge_margin(
            "window-slack",
            [
                check_window_slack(opt, tr.windows, tr.cells[0][1] - tr.cells[0][0], tr.pins)
                for tr in traces
            ],
        ),
        "level-count": check_level_count(fam, padded.n, e),
        "degenerate-count": _merge_margin(
            "degenerate-count",
            [
                count_degenerate(top1_windows(tr), m, e, padded.n, tr.interval[1] - tr.interval[0])
                for tr in traces
            ],
        ),
        "idle-slots": _merge_margin(
            "idle-slots", [audit_idle_slots(tr, m, e, padded.n) for tr in traces]
        ),
    }
    # Informational rows: replay depth against the working cap and against
    # the analysis limit. Not part of either claim set.
    deepest = max((tr.depth for tr in traces), default=0)
    for name, limit in (
        ("recursion-depth", default_depth_max(padded.n, m, e)),
        ("recursion-depth-analysis", analysis_depth_limit(padded.n, m, e)),
    ):
        reports[name] = AuditReport(
            name=name,
            population=len(traces),
            violations=sum(1 for tr in traces if tr.depth > limit),
            worst=float(deepest),
            bound=float(limit),
        )
    return reports
