"""Machine-speed probe: rescale wall times to a fixed reference speed.

On a shared virtual machine the same code runs up to 1.5x slower for tens
of seconds at a time, so raw wall times of one run differ from another's by
more than a regression worth catching. A fixed pure-Python loop (the probe)
is timed every PROBE_EVERY_S seconds of a pass, also in the middle of a CLI
call, and a call's wall time, net of the probes run inside it, is rescaled by

    net wall * (REFERENCE_PROBE_S / median probe time around the call) ** EXPONENT

The factor depends only on the machine's state, never on precsched, so a
change that makes a call x% faster makes its rescaled time x% smaller.
"""

from __future__ import annotations

import signal
import statistics
import time

# About the fastest probe time seen on the two-vCPU Intel Xeon machine where
# the benchmark was tuned (Python 3.11.7), so rescaled times there read close
# to the wall times of its quiet stretches.
REFERENCE_PROBE_S = 0.0045
# CLI calls slow down somewhat less than the probe when the machine is busy.
# Over 240 s on that machine, three calls (verify n=256, exact n=24, qptas
# n=240) alternated with the probe; the spread (standard deviation of the
# log) of their 10 s block medians was 14-17 % raw, 5.4-6.8 % rescaled with
# exponent 1 and 4.6-6.7 % with 0.8, the least of 0.6, 0.7, 0.8 and 1.
EXPONENT = 0.8
PROBE_EVERY_S = 0.1
# A call is rescaled by the probes from this long before it to this long after.
WINDOW_S = 0.3


def probe() -> float:
    """Wall seconds of a fixed mix of dict, list, set, integer and call work.

    It makes no more than three objects the cyclic garbage collector tracks,
    so it does not bring the program's next collection forward.
    """
    began = time.perf_counter()
    table: dict[int, int] = {}
    seen: set[int] = set()
    row: list[int] = []
    for i in range(18000):
        key = (i * 7919) & 1023
        table[key] = table.get(key, 0) + i
        if key not in seen:
            seen.add(key)
        row.append(i ^ (i >> 3))
    row.sort()
    sorted(table.values(), key=_negate)
    return time.perf_counter() - began


def _negate(value: int) -> int:
    return -value


class Sampler:
    """Runs the probe from a SIGALRM handler every PROBE_EVERY_S seconds.

    clock() is perf_counter minus the time spent in the probe, so an
    interval timed with it excludes the probes that ran inside it. samples
    holds (clock() when the probe began, probe seconds).
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stolen = 0.0
        self._previous = None

    def clock(self) -> float:
        return time.perf_counter() - self._stolen

    def _sample(self, *_) -> None:
        at = self.clock()
        took = probe()
        self.samples.append((at, took))
        self._stolen += took
        # Re-armed only now, so a slow probe is never interrupted by the next.
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def rescale(wall_s: float, probe_s: float) -> float:
    return wall_s * (REFERENCE_PROBE_S / probe_s) ** EXPONENT


def rescale_calls(calls, samples: list[tuple[float, float]]) -> None:
    """Rescale each call's wall_s in place by the probes near it (see WINDOW_S);
    began, span_s and wall_s are on the Sampler's clock."""
    everywhere = statistics.median(s for _, s in samples)
    for call in calls:
        near = [s for t, s in samples
                if call.began - WINDOW_S <= t <= call.began + call.span_s + WINDOW_S]
        call.wall_s = rescale(call.wall_s, statistics.median(near) if near else everywhere)
