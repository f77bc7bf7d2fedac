"""Drive the public CLI in process, time every call and check its output.

A call fails when it raises, returns a nonzero code, or writes an output
that fails the checks below; a failure is recorded and never aborts the
pass. Timing stays out of every file the CLI writes, so the output digests
compare byte for byte between passes and runs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import re
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from precsched import cli
from precsched.model import longest_chain
from precsched.textio import parse_instance

from .workloads import Workload, generator_seed, relabel

MAX_REPEATS = 8
_VERIFY_OK = re.compile(r"^ok makespan=(\d+)$", re.MULTILINE)


@dataclass
class Call:
    """One timed CLI call and the verdict of its correctness check.

    category is the end-to-end bucket (solve_qptas, solve_baseline, verify,
    bench, audit); for a verify, alg names the solver whose schedule it
    checked and makespan is the last occupied slot it reported. A call may
    run `repeats` times back to back: wall_s is then the median run, began
    the pass's clock reading when the first run started and span_s the time
    from there to the end of the last.
    """

    category: str
    label: str
    wall_s: float
    ok: bool
    note: str = ""
    alg: str = ""
    makespan: int = 0
    lower_bound: int = 0
    began: float = 0.0
    span_s: float = 0.0
    repeats: int = 1


def run_cli(argv: list[str], clock: Callable[[], float] = time.perf_counter
            ) -> tuple[int | None, str, str, float]:
    """Run `precsched <argv>` in process: (exit code or None, stdout, stderr, wall s).

    The exit code is None when the call raised; stderr then names the
    exception. cli.main is looked up on each call so a traced run sees its
    wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    began = clock()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage by exiting
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed call, not a failed pass
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue(), clock() - began


def generate_inputs(workload: Workload, seed: int, dest: Path) -> None:
    """Write the workload's instance files into dest through `precsched gen`."""
    dest.mkdir(parents=True)
    jobs = []
    if workload.standard_corpus:
        jobs.append((["gen", "--corpus", "standard", "--outdir", str(dest)], None))
    for index, spec in enumerate(workload.instances):
        argv = ["gen", *spec.gen, "--seed", str(generator_seed(spec, index, seed)),
                "--output", str(dest / f"{spec.name}.inst")]
        jobs.append((argv, spec))
    for argv, spec in jobs:
        rc = run_cli(argv)[0]
        if rc != 0:
            raise RuntimeError(f"precsched {' '.join(argv)} exited {rc}")
        if spec is not None and spec.pinned_seed is not None:
            relabel(dest / f"{spec.name}.inst", random.Random(f"{seed}|{spec.name}"))


def lower_bounds(inputs: Path) -> dict[str, list[int]]:
    """[n, max(ceil(n/m), longest chain)] for every instance file, keyed by stem."""
    out = {}
    for path in sorted(inputs.glob("*.inst")):
        inst = parse_instance(path.read_text())
        out[path.stem] = [inst.n, max(math.ceil(inst.n / inst.m), longest_chain(inst))]
    return out


def check_verify(rc, stdout: str, lower_bound: int) -> tuple[bool, str, int]:
    """verify must exit 0 on a complete schedule whose makespan is >= the bound."""
    found = _VERIFY_OK.search(stdout)
    if rc != 0 or found is None:
        return False, f"verify exit {rc}: {stdout.strip()[-200:]}", 0
    makespan = int(found.group(1))
    if makespan < lower_bound:
        return False, f"makespan {makespan} below lower bound {lower_bound}", makespan
    return True, "", makespan


def check_bench(rc, path: Path, instances: int, algs: str) -> tuple[bool, str]:
    """One row per (instance, algorithm), no error, and exact equal to opt."""
    if rc != 0 or not path.is_file():
        return False, f"bench exit {rc}"
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    if len(rows) != instances * len(algs.split(",")):
        return False, f"bench wrote {len(rows)} rows"
    for row in rows:
        if row["error"]:
            return False, f"{row['instance']}/{row['algorithm']}: {row['error']}"
        if row["algorithm"] == "exact" and row["makespan"] != row["opt"]:
            return False, f"{row['instance']}: exact {row['makespan']} != opt {row['opt']}"
    return True, ""


def run_pass(workload: Workload, inputs: Path, bounds: dict[str, list[int]], out: Path,
             clock: Callable[[], float] = time.perf_counter, repeat_s: float = 0.0
             ) -> list[Call]:
    """One workload pass over lower_bounds(inputs); every output lands in `out`.

    Every call is timed with `clock`. bench and audit, the metrics made of
    one call, run again until their runs add up to `repeat_s` (at most
    MAX_REPEATS runs, and no more after a failed run).
    """
    out.mkdir(parents=True)
    calls: list[Call] = []

    def timed(argv: list[str], repeat_s: float = 0.0):
        began, walls = clock(), []
        while True:
            rc, stdout, err, wall = run_cli(argv, clock)
            walls.append(wall)
            if rc != 0 or len(walls) == MAX_REPEATS or sum(walls) >= repeat_s:
                break
        timing = {"wall_s": statistics.median(walls), "began": began,
                  "span_s": clock() - began, "repeats": len(walls)}
        return rc, stdout, err, timing

    for name, (n, lb) in sorted(bounds.items()):
        inst_path = str(inputs / f"{name}.inst")
        for label, args in workload.solves(n, lb):
            alg = args[args.index("--alg") + 1]
            sched = out / f"{name}.{label}.sched"
            rc, _, err, timing = timed(["solve", "--input", inst_path, *args,
                                        "--output", str(sched)])
            ok = rc == 0 and sched.is_file()
            calls.append(Call("solve_qptas" if alg == "qptas" else "solve_baseline",
                              f"{name}/{label}", ok=ok, note="" if ok else err.strip()[-200:],
                              alg=alg, **timing))
            rc, stdout, err, timing = timed(["verify", "--input", inst_path,
                                             "--schedule", str(sched)])
            ok, note, makespan = check_verify(rc, stdout + err, lb)
            calls.append(Call("verify", f"{name}/{label}", ok=ok, note=note, alg=alg,
                              makespan=makespan, lower_bound=lb, **timing))
    bench = out / "bench.csv"
    rc, _, _, timing = timed(["bench", "--input", str(inputs), "--alg", workload.bench_algs,
                              "--output", str(bench)], repeat_s)
    ok, note = check_bench(rc, bench, len(bounds), workload.bench_algs)
    calls.append(Call("bench", "bench", ok=ok, note=note, **timing))
    audit = out / "audit.csv"
    rc, _, _, timing = timed(["audit", "--input", str(inputs), "--output", str(audit)],
                             repeat_s)
    ok = rc == 0 and audit.is_file()
    calls.append(Call("audit", "audit", ok=ok, note="" if ok else f"audit exit {rc}",
                      **timing))
    return calls


def digest_dir(path: Path, pattern: str = "*") -> str:
    """One sha256 over the names and bytes of the matching files."""
    acc = hashlib.sha256()
    for f in sorted(path.glob(pattern)):
        acc.update(f.name.encode() + b"\0" + hashlib.sha256(f.read_bytes()).digest())
    return acc.hexdigest()


def _geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def pass_metrics(calls: list[Call]) -> dict[str, float]:
    """End-to-end metrics of one pass, except setup_s and peak_rss_mb."""
    sums = {c: 0.0 for c in ("solve_qptas", "solve_baseline", "verify", "bench", "audit")}
    for call in calls:
        sums[call.category] += call.wall_s
    ratios = {
        alg: _geomean([c.makespan / c.lower_bound for c in calls
                       if c.category == "verify" and c.alg == alg and c.ok])
        for alg in ("qptas", "cg")
    }
    return {
        "solve_qptas_s": sums["solve_qptas"],
        "solve_baseline_s": sums["solve_baseline"],
        "verify_s": sums["verify"],
        "bench_s": sums["bench"],
        "audit_s": sums["audit"],
        "mk_ratio_qptas": ratios["qptas"],
        "mk_ratio_cg": ratios["cg"],
    }
