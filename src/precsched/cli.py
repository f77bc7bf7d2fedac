"""Command line entry point: gen, solve, verify, bench, analyze, audit.

This module parses arguments, prints results and maps errors to exit
codes; the algorithms live in the package. The optimum, where one is known,
comes from oracle.known_optimum, which `solve --horizon auto` and bench's
opt column share. The baselines go through one dispatch, _baseline, which
`solve` and bench's exact, ls and cg rows share. The laminar scheme is one
call, qptas.solve_laminar (padding, family, solve and repair), which `solve
--mode laminar` and bench's qptas column share; the exhaustive mode runs
qptas.solve and the same repair step, qptas.repair. That laminar call is
list scheduling in id order on the instance padded to the power-of-two
horizon T*, cut off at T*, then repair (its family pins nothing, so every
job is a top of the root with window [0, T*); see the qptas module
docstring), and that is what `solve --mode laminar` and the qptas column
report. bench, analyze levels and audit write their CSV through one
writer, _write_csv.

Exit codes: 0 success (verify: feasible), 1 infeasible or violations found,
2 usage or parse errors (a cyclic instance file, an --eps outside (0, 1],
too small for a float, with a decimal exponent beyond EPS_EXPONENT_MAX or
with more than EPS_DIGITS_MAX digits before it, an unknown bench algorithm
and an unreadable or unwritable path included); a file that does not
decode or parse is named in the message. All randomness is seeded; bench
output is byte-identical across runs unless --timing is given.

The argument parser is built once per process, on the first main() call,
and reused by every later call: parse_args returns a fresh Namespace and
leaves the parser as it was, and usage errors and --help write to the
sys.stderr and sys.stdout of the call that prints them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from .audits import ADVISORY_CLAIMS, CONTRACTUAL_CLAIMS, audit_instance, level_analysis
from .baselines import coffman_graham_schedule, list_schedule
from .generators import KINDS, BadSpec, GeneratorSpec, generate, standard_corpus
from .laminar import BadEps, BadHorizon, check_eps
from .model import CycleError, Instance, Schedule, _bits, longest_chain, validate_schedule
from .oracle import TooLarge, known_optimum, optimal_schedule
from .qptas import InfeasibleHorizon, exhaustive_guesses, repair, solve, solve_laminar
from .textio import (
    ParseError,
    emit_instance,
    emit_schedule,
    parse_instance,
    parse_schedule,
)

# The largest decimal exponent (either sign) --eps may carry, and the most
# digits it may carry before that exponent. Together they keep eps, which
# the error messages print, far below the 4300 digits that Python's
# int-to-text conversion allows by default.
EPS_EXPONENT_MAX = 1000
EPS_DIGITS_MAX = 1000
AUDIT_COLUMNS = ("claim", "instance", "population", "violations", "observed", "bound")
BENCH_ALGS = ("exact", "ls", "cg", "qptas")
BENCH_COLUMNS = (
    "instance",
    "algorithm",
    "makespan",
    "opt",
    "ratio",
    "discards",
    "wall_ms",
    "error",
)


class CliError(Exception):
    """Usage-level failure; main() maps it to exit code 2."""


def _parse_file(path, parse):
    """parse() the text of the file at path; a decode or parse error names the file."""
    try:
        return parse(Path(path).read_text())
    except (UnicodeDecodeError, ParseError, CycleError) as exc:
        raise CliError(f"{path}: {exc}") from None


def _read_instance(path: str) -> Instance:
    return _parse_file(path, parse_instance)


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _write_csv(path: str | None, columns, rows) -> None:
    """Write `columns` as a header, then `rows`, as CSV with LF line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    _write(path, buf.getvalue())


def _parse_eps(value: str) -> Fraction:
    """--eps as a Fraction in (0, 1]; anything else is a usage error.

    So are a decimal exponent beyond EPS_EXPONENT_MAX either way and more
    than EPS_DIGITS_MAX digits before it, both checked before the Fraction
    is built: Fraction builds 10**|exponent| as an integer, which takes
    seconds at exponent 10**7 and never ends at 10**9, and a value of 4300
    digits or more cannot be printed in a message. Any text after an "e"
    that int() rejects, Fraction rejects too.
    """
    mantissa, sep, exponent = value.lower().partition("e")
    try:
        if sep and abs(int(exponent)) > EPS_EXPONENT_MAX:
            raise CliError(
                f"bad eps {value!r}; its exponent must lie in "
                f"-{EPS_EXPONENT_MAX}..{EPS_EXPONENT_MAX}"
            )
        digits = sum(c.isdigit() for c in mantissa)
        if digits > EPS_DIGITS_MAX:
            raise CliError(f"bad eps: {digits} digits, over the {EPS_DIGITS_MAX} allowed")
        eps = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"bad eps {value!r}; use forms like 1, 1/2, 0.25") from None
    return check_eps(eps)


def _corpus_dir(path: str) -> list[tuple[str, Instance]]:
    base = Path(path)
    if not base.is_dir():
        raise CliError(f"{path} is not a directory")
    files = sorted(base.glob("*.inst"))
    if not files:
        raise CliError(f"no .inst files under {path}")
    return [(f.stem, _parse_file(f, parse_instance)) for f in files]


def _cmd_gen(args) -> int:
    if args.corpus:
        if args.corpus != "standard":
            raise CliError(f"unknown corpus {args.corpus!r}")
        if not args.outdir:
            raise CliError("--corpus needs --outdir")
        out = Path(args.outdir)
        out.mkdir(parents=True, exist_ok=True)
        corpus = standard_corpus()
        for cid, inst in corpus:
            (out / f"{cid}.inst").write_text(emit_instance(inst))
        print(f"wrote {len(corpus)} instances to {out}")
        return 0
    if not args.kind:
        raise CliError("either --corpus or --kind is required")
    spec = GeneratorSpec(
        kind=args.kind,
        n=args.n,
        m=args.m,
        seed=args.seed,
        layers=args.layers,
        width=args.width,
        edge_prob=args.edge_prob,
        depth=args.depth,
    )
    _write(args.output, emit_instance(generate(spec)))
    return 0


def _auto_horizon(inst: Instance, opt: int | None) -> int:
    # The optimum when known_optimum gave one, otherwise the classic lower
    # bound; discards at a too-small horizon are repaired afterwards.
    if opt is None:
        return max(math.ceil(inst.n / inst.m), longest_chain(inst))
    return opt


def _baseline(inst: Instance, alg: str, order: str = "id", seed: int = 0) -> Schedule:
    """The exact, ls or cg schedule; solve and bench both run this."""
    if alg == "exact":
        return optimal_schedule(inst)
    if alg == "cg" or order == "cg":
        # ls under the Coffman-Graham order is the Coffman-Graham schedule.
        return coffman_graham_schedule(inst)
    ids = list(range(inst.n))
    if order == "random":
        random.Random(seed).shuffle(ids)
    return list_schedule(inst, ids)


def _solve_qptas(inst: Instance, args) -> tuple[Schedule, int, int]:
    eps = _parse_eps(args.eps)
    if args.depth_max is not None and args.depth_max < 1:
        raise CliError(f"--depth-max must be at least 1, got {args.depth_max}")
    if args.kmax is not None and args.kmax < 0:
        raise CliError(f"--kmax must be at least 0, got {args.kmax}")
    if args.horizon == "auto":
        T = _auto_horizon(inst, known_optimum(inst))
    else:
        try:
            T = int(args.horizon)
        except ValueError:
            raise CliError(f"bad horizon {args.horizon!r}; use 'auto' or an integer") from None
        if T < 1:
            raise CliError(f"horizon must be at least 1, got {T}")
        # n slots always suffice, and a larger T only grows the padding
        # chain and the exhaustive partitions.
        cap = max(inst.n, 1)
        if T > cap:
            raise CliError(f"horizon must be at most max(n, 1) = {cap}, got {T}")
    if args.mode == "laminar":
        # The family bounds the laminar recursion: --kmax and --depth-max,
        # range-checked above in both modes, apply to the exhaustive mode only.
        return solve_laminar(inst, T, eps)
    guesses = exhaustive_guesses(inst, inst.n if args.kmax is None else args.kmax)
    result = solve(inst, T, guesses, 1 if args.depth_max is None else args.depth_max)
    return repair(inst, result, inst.n)


def _cmd_solve(args) -> int:
    inst = _read_instance(args.input)
    if args.alg == "qptas":
        sched, discards, explored = _solve_qptas(inst, args)
    else:
        sched, discards, explored = _baseline(inst, args.alg, args.order, args.seed), 0, 0
    _write(args.output, emit_schedule(sched))
    print(f"makespan={sched.horizon} discarded={discards} explored={explored}")
    return 0


def _cmd_verify(args) -> int:
    inst = _read_instance(args.input)
    sched = _parse_file(args.schedule, parse_schedule)
    report = validate_schedule(inst, sched)
    for v in report.violations:
        print(f"violation {v.kind}: {' '.join(map(str, v.detail))}")
    if not report.complete and not args.partial:
        missing = [j for j in range(inst.n) if j not in sched.start]
        print(f"incomplete: {len(missing)} job(s) unscheduled")
        return 1
    if not report.feasible:
        return 1
    print(f"ok makespan={report.makespan}")
    return 0


def _bench_one(cid: str, inst: Instance, alg: str, eps: Fraction, opt: int | None,
               opt_s: float, timing: bool):
    """One bench row, as `solve --alg <alg> --eps <eps>` would score it.

    `opt` is known_optimum's answer, None when no optimum is known. `opt_s`
    is the time finding it took, by certificate or by search; the qptas
    row's wall_ms includes it, since its auto horizon is that optimum.
    """
    row = {c: "" for c in BENCH_COLUMNS}
    row["instance"] = cid
    row["algorithm"] = alg
    began = time.perf_counter()
    try:
        if alg == "qptas":  # _cmd_bench has checked every name against BENCH_ALGS
            sched, discards, _ = solve_laminar(inst, _auto_horizon(inst, opt), eps)
        else:
            # exact runs its own search, independent of how `opt` was found:
            # the row's makespan is checked against `opt`, not copied from it.
            sched, discards = _baseline(inst, alg), 0
        # What solve prints; for a baseline, its last busy slot + 1.
        mk = sched.horizon
        row["makespan"] = str(mk)
        row["discards"] = str(discards)
        if opt is not None:
            row["opt"] = str(opt)
            # 0/0 on an empty instance has no ratio.
            row["ratio"] = f"{mk / opt:.6f}" if opt else ""
    except (ValueError, RuntimeError) as exc:
        row["error"] = str(exc)
    if timing:
        wall_s = time.perf_counter() - began + (opt_s if alg == "qptas" else 0.0)
        row["wall_ms"] = f"{wall_s * 1000:.3f}"
    return [row[c] for c in BENCH_COLUMNS]


def _cmd_bench(args) -> int:
    algs = sorted(set(args.alg.split(",")))
    for alg in algs:
        if alg not in BENCH_ALGS:
            raise CliError(f"unknown algorithm {alg!r}; choose from {','.join(BENCH_ALGS)}")
    corpus = _corpus_dir(args.input)
    eps = _parse_eps(args.eps)
    rows = []
    for cid, inst in corpus:
        # One optimum per instance, kept for this call only.
        began = time.perf_counter()
        opt = known_optimum(inst)
        opt_s = time.perf_counter() - began
        rows.extend(_bench_one(cid, inst, alg, eps, opt, opt_s, args.timing) for alg in algs)
    rows.sort(key=lambda r: r[:2])  # by instance, then algorithm
    _write_csv(args.output, BENCH_COLUMNS, rows)
    return 0


def _cmd_analyze(args) -> int:
    inst = _read_instance(args.input)
    eps = _parse_eps(args.eps)
    if inst.n < 2:
        raise CliError(f"need at least 2 jobs for the level table, got {inst.n}")
    padded, _, assign, a, count = level_analysis(inst, eps)
    fam = assign.fam
    rows = []
    for level in range(fam.level_count()):
        per_guess = assign.guess.get(level, {})
        per_top = assign.top.get(level, {})
        for key in sorted(set(per_guess) | set(per_top)):
            cells = (" ".join(map(str, _bits(jobs.get(key, 0)))) for jobs in (per_guess, per_top))
            rows.append([level, *key, *cells])
    _write_csv(args.output, ("level", "start", "end", "guess", "top"), rows)
    print(f"offset={a} bucket={count} horizon={fam.T} padded_jobs={padded.n}", file=sys.stderr)
    return 0


def _cmd_audit(args) -> int:
    corpus = _corpus_dir(args.input)
    eps = _parse_eps(args.eps)
    rows = []
    counted = set(CONTRACTUAL_CLAIMS + ADVISORY_CLAIMS)
    failed = 0
    for cid, inst in corpus:
        try:
            reports = audit_instance(inst, eps=eps)
        except ValueError as exc:  # TooLarge is a ValueError
            print(f"skipping {cid}: {exc}", file=sys.stderr)
            continue
        for claim, rep in reports.items():
            failed += rep.violations if claim in counted else 0
            rows.append(
                [claim, cid, rep.population, rep.violations, f"{rep.worst:.6f}", f"{rep.bound:.6f}"]
            )
    _write_csv(args.output, AUDIT_COLUMNS, rows)
    return 1 if failed else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The precsched parser; built on the first call, the same object after."""
    parser = argparse.ArgumentParser(prog="precsched")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instances")
    gen.add_argument("--kind", choices=KINDS)
    gen.add_argument("--n", type=int, default=0)
    gen.add_argument("--m", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--layers", type=int, default=0)
    gen.add_argument("--width", type=int, default=0)
    gen.add_argument("--edge-prob", type=float, default=1.0)
    gen.add_argument("--depth", type=int, default=0)
    gen.add_argument("--output")
    gen.add_argument("--corpus", help="write a named corpus (standard)")
    gen.add_argument("--outdir")
    gen.set_defaults(func=_cmd_gen)

    slv = sub.add_parser("solve", help="schedule one instance")
    slv.add_argument("--input", required=True)
    slv.add_argument("--output")
    slv.add_argument("--alg", choices=("exact", "ls", "cg", "qptas"), required=True)
    slv.add_argument("--order", choices=("id", "random", "cg"), default="id")
    slv.add_argument("--seed", type=int, default=0)
    slv.add_argument("--eps", default="1")
    slv.add_argument("--kmax", type=int)
    slv.add_argument("--depth-max", type=int)
    slv.add_argument("--mode", choices=("laminar", "exhaustive"), default="laminar")
    slv.add_argument("--horizon", default="auto")
    slv.set_defaults(func=_cmd_solve)

    ver = sub.add_parser("verify", help="check a schedule against an instance")
    ver.add_argument("--input", required=True)
    ver.add_argument("--schedule", required=True)
    ver.add_argument("--partial", action="store_true")
    ver.set_defaults(func=_cmd_verify)

    ben = sub.add_parser("bench", help="run algorithms over a corpus directory")
    ben.add_argument("--input", required=True)
    ben.add_argument("--output")
    ben.add_argument("--alg", default=",".join(BENCH_ALGS))
    ben.add_argument("--eps", default="1")
    ben.add_argument("--timing", action="store_true")
    ben.set_defaults(func=_cmd_bench)

    ana = sub.add_parser("analyze", help="analysis tables")
    ana.add_argument("what", choices=("levels",))
    ana.add_argument("--input", required=True)
    ana.add_argument("--output")
    ana.add_argument("--eps", default="1")
    ana.set_defaults(func=_cmd_analyze)

    aud = sub.add_parser("audit", help="run the empirical auditors over a corpus")
    aud.add_argument("--input", required=True)
    aud.add_argument("--output")
    aud.add_argument("--eps", default="1")
    aud.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, BadSpec, BadEps, BadHorizon, TooLarge, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleHorizon as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
