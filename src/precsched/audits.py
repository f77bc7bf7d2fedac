"""Empirical auditors for the analysis claims behind the laminar solver.

Each auditor inspects one structural claim (level uniqueness, offset
shifting, window slack, degenerate counts, idle slots, level count) and
returns an AuditReport. level_analysis is the one pipeline from an instance
to its level assignment and best offset; it pads through
laminar.pad_with_family, as the solver's run does. `analyze levels` prints
it and audit_instance audits it. run_oracle_pinned runs the solver itself
(qptas.solve) on the solver's laminar source plus pins: every call takes
the cells laminar_guesses gives it and pins the jobs the level assignment
guessed in the call's level range at their slots in an exact optimal
schedule. The family comes from one place, the level assignment's fam,
built once per instance by level_analysis; every auditor reads n, m, eps
and the stride from it. The solver's own per-call traces feed the window
and idle auditors, which take each call's levels from the family: that of
its interval and that of its cells. Everything here is desk-scale: it sits
on top of the exact oracle.

The pinned run's depth cap is the family's level count, which no call
reaches: every call splits its interval at least one level deeper. The
one depth row, recursion-depth-analysis, compares the traced depths with
laminar.analysis_depth_limit.

The claims' comparisons are exact where the quantities are integers or
Fractions (unique-level, shift-bound, window-slack). The level-count,
degenerate-count and idle-slots bounds, and analysis_depth_limit, take
float logarithms of n, and every AuditReport holds its worst and bound
as floats, as the audit CSV prints them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .laminar import (
    EmptyWindow,
    LaminarFamily,
    LevelAssignment,
    analysis_depth_limit,
    assign_levels,
    best_offset,
    bucket_tops,
    check_eps,
    pad_schedule,
    pad_with_family,
    pin_windows,
)
from .model import Instance, JobId, Schedule, _bits
from .oracle import EXACT_CAP, TooLarge, optimal_schedule
from .qptas import CallTrace, laminar_guesses, solve

STRIDE_DIGITS = 4300  # the most digits of a stride the audit CSV prints
_STRIDE_BOUND = 10**STRIDE_DIGITS  # built once: the power takes tens of microseconds

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
    rows = [*assign.guess.values(), *assign.top.values()]
    seen = Counter(j for row in rows for mask in row.values() for j in _bits(mask))
    counts = [seen[j] for j in range(assign.n)]
    bad = sum(1 for c in counts if c != 1)
    worst = max(counts, default=0)
    return AuditReport(
        name="unique-level",
        population=assign.n,
        violations=bad,
        worst=float(worst),
        bound=1.0,
    )


def check_shift_bound(assign: LevelAssignment) -> AuditReport:
    """Some offset's top buckets hold at most eps*T jobs.

    m, eps and T are assign.fam's. Buckets for offset a collect the top jobs
    of its bucket_levels, as bucket_tops reads them. Buckets across offsets
    must be disjoint (each counted appearance beyond the first is a
    violation), the job count may not exceed m*T, and the smallest bucket
    must fit under eps*T. The size comparison is exact. population counts
    all m/eps offsets, but bucket_tops stops at offset level_count() - 1:
    its bucket and every later one are empty. Disjoint buckets of at most
    m*T jobs leave the smallest of the m/eps buckets at most eps*T jobs, so
    the size clause fires only together with an overlap or an overfull
    horizon, and then adds one violation to theirs.
    """
    fam = assign.fam
    e, T = fam.eps, fam.T
    seen: Counter[JobId] = Counter()
    sizes = []
    for bucket in bucket_tops(assign):
        members = 0
        for tops in bucket:
            members |= tops
            seen.update(_bits(tops))
        sizes.append(members.bit_count())
    violations = sum(c - 1 for c in seen.values() if c > 1)
    if assign.n > fam.m * T:
        violations += 1
    smallest = min(sizes)
    if smallest > e * T:
        violations += 1
    return AuditReport(
        name="shift-bound",
        population=fam.stride,
        violations=violations,
        worst=float(smallest),
        bound=float(e * T),
    )


def check_level_count(fam: LaminarFamily) -> AuditReport:
    """The deepest level index stays within log2(n)/log2(log2(n)/eps) + 1.

    n and eps are fam's. The divisor can vanish or go negative for tiny n or
    large eps; the bound is +inf there and the check passes vacuously.
    """
    n = fam.n
    denom = math.log2(math.log2(n) / float(fam.eps))
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
    opt: Schedule, windows, lam: int, pins: dict[JobId, int]
) -> AuditReport:
    """Each top job's optimal slot sits within lam of its guessed window.

    The claim holds for runs whose pins agree with opt; the pins are
    verified first and PreconditionUnmet raised on any mismatch. The needed
    slack for a window [r, d) around slot s is max(r-s, s-d+1), so 0 means
    the slot is already inside.
    """
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


def count_degenerate(windows, fam: LaminarFamily, interval_len: int) -> AuditReport:
    """Degenerate windows among the given ones versus 2*m*eps*|I|/log2(n).

    m, eps and n are fam's. The caller passes the call's top-1 windows (tops
    of the call's own level range). Advisory: the bound is an analysis
    artifact, not a contract.
    """
    count = sum(1 for w in windows if w.degenerate)
    # m * eps passes the float range at a huge machine count; the bound is inf.
    scale = fam.m * fam.eps
    bound = 2 * (float(scale) if scale < 2**1023 else math.inf) * interval_len / math.log2(fam.n)
    return AuditReport(
        name="degenerate-count",
        population=len(windows),
        violations=int(count > bound),
        worst=float(count),
        bound=bound,
    )


def audit_idle_slots(trace: CallTrace, fam: LaminarFamily) -> AuditReport:
    """Idle slots while a non-degenerate top is pending, per meta-interval.

    A cell is covered when every one of its slots has some live top pending
    (released, not yet finished or discarded). Meta-intervals are maximal
    runs of consecutive covered cells. Within each, slots with load < m are
    counted against |I_hat| * eps / (m * log2(n)), with m, eps and n fam's.
    The report aggregates the call's meta-intervals: worst is the largest
    count-minus-bound margin, bound 0.0. Advisory.
    """
    m = fam.m
    live = [w for w in trace.windows if not w.degenerate]
    # An unplaced live top is discarded at its deadline.
    ends = {
        w.job: trace.placed_tops[w.job] + 1 if w.job in trace.placed_tops else w.d
        for w in live
    }

    def pending(t: int) -> bool:
        return any(w.r <= t < ends[w.job] for w in live)

    covered = [all(pending(t) for t in range(cs, ce)) for cs, ce in trace.cells]
    rate = float(fam.eps / m) / math.log2(fam.n)
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


def run_oracle_pinned(inst: Instance, opt: Schedule, offset: int, assign: LevelAssignment):
    """Run the solver on the laminar source plus pins at optimal slots.

    Each call takes its one guess's cells from laminar_guesses(fam, offset),
    fam = assign.fam, the family the assignment was made on; no other
    family is built. It pins its jobs that the level assignment guessed at
    the levels from fam.level_of(interval) up to, but not including,
    fam.level_of(cells[0]), at their slots in opt, and narrows the call's
    windows by them (pin_windows; None if one empties). The solver then
    classifies, recurses on bottoms, windows the tops and runs the EDF
    sweep as it always does. Its depth cap is the family's level count,
    which no call reaches. Returns the solver's SolveResult: the unrepaired
    schedule, the discards and the traces, children first.
    """
    fam = assign.fam
    laminar = laminar_guesses(fam, offset)
    # The level's guess masks; a job has one level, so sums are unions.
    guessed = [sum(assign.guess.get(lvl, {}).values()) for lvl in range(fam.level_count())]

    def oracle_guess(rin, bound=None):
        for _, groups, [cells] in laminar(rin):
            levels = slice(fam.level_of(rin.interval), fam.level_of(cells[0]))
            pins = {j: opt.start[j] for j in _bits(rin.jobs & sum(guessed[levels]))}
            try:
                groups = pin_windows(inst, groups, pins)
            except EmptyWindow:
                groups = None
            yield pins, groups, [cells]

    return solve(inst, fam.T, oracle_guess, fam.level_count())


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

    Returns (padded, opt, assign, offset, bucket): the instance padded to
    the horizon assign.fam.T, an exact optimal schedule of it, its level
    assignment on its laminar family (assign.fam), and the best offset with
    the top-job count of its bucket. TooLarge, with the oracle's message,
    is the one size rule: the oracle raises it when the instance exceeds
    the exact-search cap, and level_analysis when the padded instance does.
    eps is checked, then the job count (at least 2), before the search;
    pad_with_family pads and builds the family, raising BadHorizon on too
    many dummies.

    One search, on the instance itself: opt is its optimal_schedule plus
    the forced dummy slots (pad_schedule), which is optimal_schedule of the
    padded instance. Every original precedes every dummy, so until the
    originals are done the padded search sees the same available jobs and
    equal-successor classes and takes the same steps; a path through a
    non-final ideal at level T cannot finish by T*, and after the last
    original the m chains run one dummy each per slot.
    """
    e = check_eps(eps)
    if inst.n < 2:
        raise ValueError(f"need at least 2 jobs for the level analysis, got {inst.n}")
    orig = optimal_schedule(inst)
    padded, fam = pad_with_family(inst, orig.horizon, e)
    if padded.n > EXACT_CAP:
        raise TooLarge(f"n={padded.n} exceeds exact-search cap {EXACT_CAP}")
    opt = pad_schedule(inst, orig, fam.T)
    assign = assign_levels(padded, opt, fam)
    offset, bucket = best_offset(assign)
    return padded, opt, assign, offset, bucket


def audit_instance(inst: Instance, eps=Fraction(1)) -> dict[str, AuditReport]:
    """Run every auditor against one instance and an exact optimal schedule.

    Takes the padded instance, its optimum, level assignment and best
    offset from level_analysis, runs the pinned recursion, and returns one
    report per claim, in the order of the audit CSV's rows. window-slack,
    degenerate-count and idle-slots aggregate the per-call reports into
    margin rows (bound 0.0); a call's slack bound is its cell length. One
    informational row, recursion-depth-analysis, records the run's depth
    against analysis_depth_limit; the family bounds the run itself (see
    run_oracle_pinned), so there is no cap to report. Needs at least 2
    jobs; raises TooLarge above the oracle cap, and ValueError, before the
    pinned run, when the stride m/eps has more than STRIDE_DIGITS digits.
    """
    padded, opt, assign, a, _ = level_analysis(inst, eps)
    fam = assign.fam
    if fam.stride >= _STRIDE_BOUND:
        # The shift-bound row's population is the stride, and str() refuses
        # an int of more digits (Python's default limit).
        raise ValueError(f"m/eps has more than {STRIDE_DIGITS} digits, too many to print")
    traces = run_oracle_pinned(padded, opt, a, assign).traces

    def top1_windows(tr):
        # The tops the level assignment put in the call's own level range,
        # from the interval's level up to its cells'. A job has one level,
        # so the sum of their masks is their union.
        levels = range(fam.level_of(tr.interval), fam.level_of(tr.cells[0]))
        top1 = sum(map(assign.top_at_level, levels))
        return [w for w in tr.windows if top1 >> w.job & 1]

    limit = analysis_depth_limit(fam)
    # In CSV row order: the claims, then the informational depth row, which
    # is part of neither claim set.
    return {
        "unique-level": check_unique_level(assign),
        "shift-bound": check_shift_bound(assign),
        "window-slack": _merge_margin(
            "window-slack",
            [
                check_window_slack(opt, tr.windows, tr.cells[0][1] - tr.cells[0][0], tr.pins)
                for tr in traces
            ],
        ),
        "level-count": check_level_count(fam),
        "degenerate-count": _merge_margin(
            "degenerate-count",
            [
                count_degenerate(top1_windows(tr), fam, tr.interval[1] - tr.interval[0])
                for tr in traces
            ],
        ),
        "idle-slots": _merge_margin(
            "idle-slots", [audit_idle_slots(tr, fam) for tr in traces]
        ),
        "recursion-depth-analysis": AuditReport(
            name="recursion-depth-analysis",
            population=len(traces),
            violations=sum(1 for tr in traces if tr.depth > limit),
            worst=float(max((tr.depth for tr in traces), default=0)),
            bound=float(limit),
        ),
    }
