"""Line-based text formats for instances and schedules.

Instance files: `jobs <n>`, `machines <m>`, then `edge <u> <v>` lines.
Schedule files: `makespan <T>`, then `job <j> <t>` lines. Lines starting
with '#' (after optional whitespace) are comments; blank lines are skipped.
The parser accepts any edge list and closes it; emit_instance writes only
the cover edges (the transitive reduction) that the instance stores, so a
file grows with the DAG's edges, not with its closure. Emitters write the
canonical form (sorted edge and job lines) so that parse(emit(x)) == x.
"""

from __future__ import annotations

from .model import Instance, Schedule, _bits, build_instance


class ParseError(ValueError):
    """Malformed input; carries the 1-based physical line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _logical_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped.split()


def _int_field(lineno: int, token: str, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(lineno, f"{what} must be an integer, got {token!r}") from None
    if value < 0:
        raise ParseError(lineno, f"{what} must be >= 0, got {value}")
    return value


def _directive(lineno: int, parts, name: str, argc: int):
    if parts[0] != name:
        raise ParseError(lineno, f"expected {name!r}, got {parts[0]!r}")
    if len(parts) != argc + 1:
        raise ParseError(lineno, f"{name} takes {argc} field(s), got {len(parts) - 1}")


def parse_instance(text: str) -> Instance:
    """Parse an instance file. Raises ParseError with the offending line."""
    lines = _logical_lines(text)
    try:
        lineno, parts = next(lines)
    except StopIteration:
        raise ParseError(1, "missing 'jobs' line") from None
    _directive(lineno, parts, "jobs", 1)
    n = _int_field(lineno, parts[1], "job count")
    try:
        lineno, parts = next(lines)
    except StopIteration:
        raise ParseError(lineno + 1, "missing 'machines' line") from None
    _directive(lineno, parts, "machines", 1)
    m = _int_field(lineno, parts[1], "machine count")
    if m < 1:
        raise ParseError(lineno, f"machine count must be >= 1, got {m}")
    edges = []
    for lineno, parts in lines:
        _directive(lineno, parts, "edge", 2)
        u = _int_field(lineno, parts[1], "edge endpoint")
        v = _int_field(lineno, parts[2], "edge endpoint")
        for x in (u, v):
            if x >= n:
                raise ParseError(lineno, f"edge endpoint {x} outside [0, {n})")
        edges.append((u, v))
    return build_instance(n, m, edges)


def emit_instance(inst: Instance) -> str:
    """Canonical instance text: header lines, then cover edges sorted by (u, v).

    (u, v) is a cover edge when v succeeds u and no other successor of u
    precedes v (Aho, Garey and Ullman, SIAM J. Comput. 1972). The instance
    stores them as cover_masks, so this prints each job's mask in bit order.
    """
    out = [f"jobs {inst.n}", f"machines {inst.m}"]
    for u, cover in enumerate(inst.cover_masks):
        out += [f"edge {u} {v}" for v in _bits(cover)]
    return "\n".join(out) + "\n"


def parse_schedule(text: str) -> Schedule:
    """Parse a schedule file; duplicate job lines are rejected."""
    lines = _logical_lines(text)
    try:
        lineno, parts = next(lines)
    except StopIteration:
        raise ParseError(1, "missing 'makespan' line") from None
    _directive(lineno, parts, "makespan", 1)
    horizon = _int_field(lineno, parts[1], "makespan")
    start: dict[int, int] = {}
    for lineno, parts in lines:
        _directive(lineno, parts, "job", 2)
        j = _int_field(lineno, parts[1], "job id")
        t = _int_field(lineno, parts[2], "start slot")
        if j in start:
            raise ParseError(lineno, f"duplicate job line for job {j}")
        start[j] = t
    return Schedule(start=start, horizon=horizon)


def emit_schedule(sched: Schedule) -> str:
    out = [f"makespan {sched.horizon}"]
    out += [f"job {j} {t}" for j, t in sorted(sched.start.items())]
    return "\n".join(out) + "\n"
