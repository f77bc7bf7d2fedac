"""Per-layer tracing from outside the package.

Tracer wraps the public functions named in TRACED wherever a precsched
module binds them (the defining module, the modules that import them, and
the package root), so calls between modules and inside one module both pass
through the wrapper. Spans are aggregated per (function, parent function)
instead of stored per call, because guess-heavy makes millions of
feasible_window calls. Counters are read off arguments and results at the
same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# module -> public functions traced in it; the names double as metric prefixes.
TRACED = {
    "cli": ("main",),
    "textio": ("parse_instance", "emit_instance", "emit_schedule"),
    "generators": ("generate",),
    "model": ("build_instance", "validate_schedule", "longest_chain"),
    "laminar": ("pad_to_power_of_two", "build_laminar", "feasible_window", "assign_levels",
                "best_offset"),
    "qptas": ("solve", "classify", "windows_for_top", "edf_insert", "insert_discarded"),
    "baselines": ("coffman_graham_labels", "list_schedule"),
    "oracle": ("optimal_makespan", "optimal_schedule"),
    "audits": ("audit_instance", "run_oracle_pinned"),
}


def _observe_solve(tr, result, *args, **kwargs):
    tr.counters["qptas.guesses"] += result.stats.guesses_explored
    tr.counters["qptas.discards"] += len(result.discarded)


def _observe_edf(tr, result, inst, tops, occupancy, start, end, trace=None):
    tr.counters["qptas.edf_slots"] += end - start
    tr.counters["qptas.edf_tops"] += len(tops)
    tr.counters["qptas.edf_placed"] += len(result[0])


def _observe_pad(tr, result, inst, T):
    tr.counters["laminar.pad_jobs"] += result[0].n - inst.n


def _observe_parse(tr, result, text):
    tr.counters["textio.instance_bytes"] += len(text.encode())


def _observe_oracle(tr, result, inst, *args, **kwargs):
    tr.oracle_instances.add((inst.n, inst.m, inst.pred_masks))


_OBSERVERS = {
    "qptas.solve": _observe_solve,
    "qptas.edf_insert": _observe_edf,
    "laminar.pad_to_power_of_two": _observe_pad,
    "textio.parse_instance": _observe_parse,
    "oracle.optimal_makespan": _observe_oracle,
    "oracle.optimal_schedule": _observe_oracle,
}


class Tracer:
    """Install with `with Tracer() as tr:`; read tr.spans and tr.counters after.

    spans maps (name, parent name or None) to [calls, raised, total_s, self_s];
    self time is the span's duration minus the time of the spans it caused.
    """

    def __init__(self):
        self.spans: dict[tuple[str, str | None], list] = {}
        self.counters: Counter = Counter()
        self.oracle_instances: set = set()
        self._stack: list[list] = []  # [name, time spent in child spans]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            raised = True
            began = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                elapsed = clock() - began
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                agg = spans.get((name, parent))
                if agg is None:
                    agg = spans[(name, parent)] = [0, 0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += raised
                agg[2] += elapsed
                agg[3] += elapsed - frame[1]
            if observe is not None:
                observe(self, result, *args, **kwargs)
            return result

        return traced

    def __enter__(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "precsched" or key.startswith("precsched.")]
        for mod_name, names in TRACED.items():
            home = importlib.import_module(f"precsched.{mod_name}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def per_function(self) -> dict[str, list]:
        """name -> [calls, raised, total_s, self_s] summed over parents."""
        out: dict[str, list] = {}
        for (name, _), agg in self.spans.items():
            acc = out.setdefault(name, [0, 0, 0.0, 0.0])
            for i, v in enumerate(agg):
                acc[i] += v
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics by name: <module>.<function>.{self_s,calls} and counters."""
        out: dict[str, float] = {}
        per_fn = self.per_function()
        for mod_name, names in TRACED.items():
            for fn_name in names:
                calls, _, _, self_s = per_fn.get(f"{mod_name}.{fn_name}", [0, 0, 0.0, 0.0])
                out[f"{mod_name}.{fn_name}.self_s"] = self_s
                out[f"{mod_name}.{fn_name}.calls"] = calls
        c = self.counters
        classify = self.spans.get(("qptas.classify", "qptas.solve"), [0, 0, 0.0, 0.0])
        out["qptas.guesses"] = c["qptas.guesses"]
        out["qptas.guess_yield"] = _ratio(classify[0] - classify[1], c["qptas.guesses"])
        out["qptas.edf_slots"] = c["qptas.edf_slots"]
        out["qptas.edf_tops"] = c["qptas.edf_tops"]
        out["qptas.edf_place_ratio"] = _ratio(c["qptas.edf_placed"], c["qptas.edf_tops"])
        out["qptas.discards"] = c["qptas.discards"]
        out["laminar.pad_jobs"] = c["laminar.pad_jobs"]
        out["textio.instance_bytes"] = c["textio.instance_bytes"]
        oracle_calls = out["oracle.optimal_makespan.calls"] + out["oracle.optimal_schedule.calls"]
        out["oracle.distinct_ratio"] = _ratio(len(self.oracle_instances), oracle_calls)
        out["audits.skipped"] = per_fn.get("audits.audit_instance", [0, 0])[1]
        return out

    def self_total(self) -> float:
        return sum(agg[3] for agg in self.spans.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
