"""Benchmark entry point for the precsched command line.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 40 --trace 0

Run from the repository root. It generates the workload's inputs from the
seed, drives the CLI in process through precsched.cli.main, checks every
output, and prints one JSON object as the last line of stdout. With
--trace 0 that object carries the end-to-end metrics, with --trace 1 the
per-layer ones; both lists, with units, come from BENCHMARK.json. Lines
before it, starting with '#', stamp the run and list any failed call.

Each measured pass runs in a fresh interpreter, so its peak RSS is that of
one pass; peak_rss_mb is the median over passes. Passes repeat until
--seconds is used up. While a pass runs, a fixed probe loop is timed every
0.1 s, and each call's wall time is rescaled to a reference machine speed
by the probe times around it (speed.py): the shared machine runs everything
up to 1.5x slower for tens of seconds at a time, and the rescaling takes
that out. A time metric is the median over passes of its rescaled sum; the
stamp line also gives the raw medians. Set-up runs in this process before
every pass, between probes, and reports its median rescaled time. All
scratch files live under .perfbench_work/ in the checkout and are removed on
exit.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
# bench and audit are one call per pass; a measured pass repeats each until
# its runs add up to this, so that a short one is not a single sample.
REPEAT_S = 0.3


def _import_package() -> None:
    if not (SRC / "precsched" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'precsched'} is missing; run from a repository checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one pass in this (fresh) process and print it as JSON.
    p.add_argument("--child", choices=("pass", "traced", "untraced"), help=argparse.SUPPRESS)
    p.add_argument("--dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _closure_pairs(inputs: Path) -> int:
    from precsched import parse_instance, predecessors

    total = 0
    for path in sorted(inputs.glob("*.inst")):
        inst = parse_instance(path.read_text())
        total += sum(len(predecessors(inst, j)) for j in range(inst.n))
    return total


def _child(args) -> dict:
    """Body of a child process: one pass, or set-up plus one pass when traced."""
    from perfbench.session import digest_dir, generate_inputs, lower_bounds, run_pass
    from perfbench.speed import Sampler
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    work = Path(args.dir)
    inputs = work / "inputs"
    tracer = Tracer() if args.child == "traced" else contextlib.nullcontext()
    wall = 0.0
    if args.child != "pass":
        began = time.perf_counter()
        with tracer:
            generate_inputs(workload, args.seed, inputs)
        wall += time.perf_counter() - began
        bounds = lower_bounds(inputs)
    else:
        bounds = json.loads((work / "bounds.json").read_text())
    out = work / f"out-{os.getpid()}"
    sampler = Sampler() if args.child == "pass" else None
    began = time.perf_counter()
    with tracer, sampler or contextlib.nullcontext():
        calls = (run_pass(workload, inputs, bounds, out, sampler.clock, REPEAT_S) if sampler
                 else run_pass(workload, inputs, bounds, out))
    wall += time.perf_counter() - began
    result = {
        "calls": [dataclasses.asdict(c) for c in calls],
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "inputs": digest_dir(inputs, "*.inst"),
        "outputs": digest_dir(out),
        "probes": sampler.samples if sampler else [],
    }
    if args.child == "traced":
        result["layers"] = tracer.layer_metrics()
        result["self_total_s"] = tracer.self_total()
        result["spans"] = [[name, parent, *agg] for (name, parent), agg in tracer.spans.items()]
        result["layers"]["model.closure_pairs"] = _closure_pairs(inputs)
    return result


def _spawn(args, mode: str, work: Path) -> dict:
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--child", mode, "--dir", str(work)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _stamp(args) -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10)
            commit = got.stdout.strip() or commit
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "commit": commit, "workload": args.workload, "seed": args.seed}


def _measure(args, work: Path) -> tuple[dict, list, bool, dict]:
    """End-to-end run: repeated set-up, then timed passes in fresh processes."""
    from perfbench.session import Call, digest_dir, generate_inputs, lower_bounds, pass_metrics
    from perfbench.speed import probe, rescale, rescale_calls
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_s, digests = [], set()

    def set_up(dest: Path) -> None:
        probes = [probe() for _ in range(3)]
        began = time.perf_counter()
        generate_inputs(workload, args.seed, dest)
        wall = time.perf_counter() - began
        probes += [probe() for _ in range(3)]
        setup_s.append(rescale(wall, statistics.median(probes)))
        digests.add(digest_dir(dest, "*.inst"))

    set_up(work / "inputs")
    (work / "bounds.json").write_text(json.dumps(lower_bounds(work / "inputs")))
    passes, durations = [], []
    began = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - began + statistics.median(durations) <= args.seconds
    ):
        t0 = time.perf_counter()
        # Set-up repeats between passes, so its median is drawn from the
        # whole run rather than from one quiet or busy second.
        set_up(work / "setup-again")
        shutil.rmtree(work / "setup-again")
        passes.append(_spawn(args, "pass", work))
        durations.append(time.perf_counter() - t0)

    raw, per_pass = [], []
    for p in passes:
        calls = [Call(**row) for row in p["calls"]]
        raw.append(pass_metrics(calls))
        rescale_calls(calls, p["probes"])
        per_pass.append(pass_metrics(calls))
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    raw_s = {name: statistics.median(m[name] for m in raw) for name in raw[0]
             if name.endswith("_s")}
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    metrics["setup_s"] = statistics.median(setup_s)
    calls = [Call(**row) for p in passes for row in p["calls"]]
    outputs = {p["outputs"] for p in passes}
    deterministic = len(digests) == 1 and len(outputs) == 1
    info = {"passes": len(passes), "setups": len(setup_s),
            "probe_s": statistics.median(s for p in passes for _, s in p["probes"]),
            "raw_wall_s": raw_s,
            "inputs_sha256": sorted(digests)[0], "outputs_sha256": sorted(outputs)}
    return metrics, calls, deterministic, info


def _trace(args, work: Path) -> tuple[dict, list, bool, dict]:
    """Traced run: set-up plus one pass, plain and traced alternately, twice
    each, every one in a fresh process. Layers come from the faster traced
    run; the overhead compares the faster run of each kind."""
    from perfbench.session import Call

    runs = {"untraced": [], "traced": []}
    for i in range(2):
        for mode in runs:
            runs[mode].append(_spawn(args, mode, work / f"{mode}-{i}"))
    plain = min(runs["untraced"], key=lambda r: r["wall_s"])
    traced = min(runs["traced"], key=lambda r: r["wall_s"])
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    calls = [Call(**row) for mode in runs for r in runs[mode] for row in r["calls"]]
    digests = {(r["inputs"], r["outputs"]) for mode in runs for r in runs[mode]}
    info = {"traced_wall_s": traced["wall_s"], "untraced_wall_s": plain["wall_s"],
            "self_total_s": traced["self_total_s"], "inputs_sha256": traced["inputs"],
            "outputs_sha256": sorted({d[1] for d in digests})}
    for name, parent, calls_n, raised, total_s, self_s in sorted(traced["spans"],
                                                                 key=lambda s: -s[5]):
        print(f"# span {name} <- {parent} calls={calls_n} raised={raised} "
              f"total_s={total_s:.6f} self_s={self_s:.6f}")
    return metrics, calls, len(digests) == 1, info


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(_child(args)))
        return 0
    # On SIGTERM unwind normally: subprocess.run kills the running pass and
    # the finally below removes the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        metrics, calls, deterministic, info = (_trace if args.trace else _measure)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    failed = [c for c in calls if not c.ok]
    print("# stamp " + json.dumps({**_stamp(args), **info}))
    for c in failed[:20]:
        print(f"# failed {c.category} {c.label}: {c.note}")
    if not deterministic:
        print("# outputs differ between set-ups or passes of one run")
    result = {
        "correct": deterministic and not failed,
        "attempted": sum(c.repeats for c in calls),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
