"""Workload definitions: which instances each workload generates and which
CLI calls one pass makes over them.

Every workload drives the same session through the public CLI: for each
instance, the workload's solves each followed by `verify`, then one `bench`
and one `audit` over the whole input directory. The workloads differ in
their inputs, so that different layers dominate:

- ladder: scale instances (n = 150..256); EDF sweep, closure build, padding,
  parsing and validation do the work, the oracle none.
- desk: the standard corpus plus 16 oracle-scale instances; the oracle BFS,
  level assignment and audit replay do the work.
- guess-heavy: n = 8..10 instances solved exhaustively at the lower bound;
  about 10^5 guesses, each a tiny classify and EDF call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Solve = tuple[str, list[str]]  # (label, `solve` arguments after --input)


@dataclass(frozen=True)
class InstanceSpec:
    """One generated input: `precsched gen` arguments without --seed/--output.

    pinned_seed fixes the generator seed; the run's seed then only relabels
    the jobs (see DESK and GUESS_HEAVY below for why).
    """

    name: str
    gen: tuple[str, ...]
    pinned_seed: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[InstanceSpec, ...]
    standard_corpus: bool
    bench_algs: str
    solves: Callable[[int, int], list[Solve]]  # (n, lower bound) -> solves


def _layered(n, m, layers, width, p):
    return ("--kind", "layered", "--n", str(n), "--m", str(m), "--layers", str(layers),
            "--width", str(width), "--edge-prob", repr(p))


def _random(n, m, p):
    return ("--kind", "random_order", "--n", str(n), "--m", str(m), "--edge-prob", repr(p))


def _auto_solves(n: int, lb: int) -> list[Solve]:
    return [
        ("qptas", ["--alg", "qptas", "--eps", "1", "--horizon", "auto"]),
        ("ls", ["--alg", "ls"]),
        ("cg", ["--alg", "cg"]),
    ]


def _guess_solves(n: int, lb: int) -> list[Solve]:
    exhaustive = ["--alg", "qptas", "--mode", "exhaustive", "--horizon", str(lb)]
    return [
        ("qptas-k2", exhaustive + ["--kmax", "2"]),
        (f"qptas-k{n}", exhaustive + ["--kmax", str(n)]),
        ("ls", ["--alg", "ls"]),
        ("cg", ["--alg", "cg"]),
    ]


LADDER = Workload(
    name="ladder",
    instances=(
        InstanceSpec("layered-256-m4", _layered(256, 4, 32, 8, 0.3)),
        InstanceSpec("layered-240-m2", _layered(240, 2, 60, 4, 0.3)),
        InstanceSpec("random-200-m2", _random(200, 2, 4 / 200)),
        InstanceSpec("random-256-m4", _random(256, 4, 4 / 256)),
        # Optimum 100 is above the lower bound 75: the horizon pads to 128
        # with 106 dummy jobs, qptas discards jobs there and insert_discarded
        # repairs them.
        InstanceSpec("layered-150-m2-full", _layered(150, 2, 50, 3, 1.0)),
    ),
    standard_corpus=False,
    # exact is capped at 24 jobs and qptas is already timed by `solve`.
    bench_algs="cg,ls",
    solves=_auto_solves,
)

# The oracle's cost differs up to 50-fold between random DAGs of one size, so
# sixteen freshly drawn instances would move bench_s by a third from seed to
# seed. Their structures are therefore pinned, and the seed relabels jobs:
# every input file, tie-break and digest still changes with the seed.
DESK = Workload(
    name="desk",
    instances=tuple(
        spec
        for i in range(4)
        for spec in (
            InstanceSpec(f"desk-random-20-m3-{i}", _random(20, 3, 0.1), pinned_seed=i),
            InstanceSpec(f"desk-random-20-m2-{i}", _random(20, 2, 0.12), pinned_seed=i),
            InstanceSpec(f"desk-layered-24-m4-{i}", _layered(24, 4, 4, 6, 0.3), pinned_seed=i),
            InstanceSpec(f"desk-random-16-m2-{i}", _random(16, 2, 0.15), pinned_seed=i),
        )
    ),
    standard_corpus=True,
    bench_algs="exact,ls,cg,qptas",
    solves=_auto_solves,
)

# Only layered-10-m4-full is infeasible at its bound. A freshly drawn filler
# whose optimum exceeds its bound makes kmax = n enumerate up to 4 * 10^5
# guesses and can make the pass six times longer, so the fillers are pinned
# structures (their first generator seeds), each with optimum equal to its
# bound, relabelled by the seed as in DESK.
GUESS_HEAVY = Workload(
    name="guess-heavy",
    instances=(
        # Optimum 4 is above the lower bound 3, so kmax = n enumerates every
        # guess (about 6 * 10^4) without finding a discard-free one.
        InstanceSpec("layered-10-m4-full", _layered(10, 4, 2, 5, 1.0)),
        InstanceSpec("layered-9-m2", _layered(9, 2, 3, 3, 0.7), pinned_seed=0),
        InstanceSpec("layered-8-m3", _layered(8, 3, 2, 4, 0.8), pinned_seed=0),
        *(InstanceSpec(f"random-10-m3-{i}", _random(10, 3, 0.25), pinned_seed=i)
          for i in range(3)),
        *(InstanceSpec(f"random-9-m2-{i}", _random(9, 2, 0.3), pinned_seed=i) for i in range(2)),
        InstanceSpec("diamond-10-m2", ("--kind", "diamond_mesh", "--n", "10", "--m", "2",
                                       "--depth", "3")),
    ),
    standard_corpus=False,
    bench_algs="exact,ls,cg,qptas",
    solves=_guess_solves,
)

WORKLOADS = {w.name: w for w in (LADDER, DESK, GUESS_HEAVY)}


def generator_seed(spec: InstanceSpec, index: int, seed: int) -> int:
    if spec.pinned_seed is not None:
        return spec.pinned_seed
    return seed * 1000 + index


def relabel(path: Path, rng: random.Random) -> None:
    """Rewrite a canonical instance file under a random job permutation."""
    lines = path.read_text().splitlines()
    n = int(lines[0].split()[1])
    perm = list(range(n))
    rng.shuffle(perm)
    edges = sorted(
        (perm[int(u)], perm[int(v)]) for _, u, v in (line.split() for line in lines[2:])
    )
    body = [lines[0], lines[1], *(f"edge {u} {v}" for u, v in edges)]
    path.write_text("\n".join(body) + "\n")
