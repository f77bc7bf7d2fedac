"""Seeded instance generators and the standard benchmark corpus.

Every generator is a pure function of its GeneratorSpec: the same spec
always yields the same instance. Randomness comes from random.Random(seed)
(Mersenne Twister), consumed in a fixed iteration order, so regenerating a
corpus is stable across machines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .model import JOBS_MAX, Instance, build_instance


class BadSpec(ValueError):
    """The generator spec is inconsistent or incomplete."""


KINDS = ("antichain", "chain", "layered", "random_order", "diamond_mesh")


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate. Parameter fields apply only to the kinds using them.

    layered needs layers * width == n and an edge_prob; random_order needs
    edge_prob; diamond_mesh needs n == 3 * depth + 1.
    """

    kind: str
    n: int
    m: int
    seed: int = 0
    layers: int = 0
    width: int = 0
    edge_prob: float = 1.0
    depth: int = 0


def _check(spec: GeneratorSpec) -> None:
    if spec.kind not in KINDS:
        raise BadSpec(f"unknown kind {spec.kind!r}")
    if not 0 <= spec.n <= JOBS_MAX:
        raise BadSpec(f"n must be in [0, {JOBS_MAX}], got {spec.n}")
    if spec.m < 1:
        raise BadSpec(f"m must be >= 1, got {spec.m}")
    if not 0.0 <= spec.edge_prob <= 1.0:
        raise BadSpec(f"edge_prob must be in [0, 1], got {spec.edge_prob}")
    if spec.kind == "layered":
        if spec.layers < 1 or spec.width < 1:
            raise BadSpec("layered needs layers >= 1 and width >= 1")
        if spec.layers * spec.width != spec.n:
            raise BadSpec(
                f"layered needs layers * width == n, got {spec.layers} * {spec.width} != {spec.n}"
            )
    if spec.kind == "diamond_mesh":
        if spec.depth < 1:
            raise BadSpec("diamond_mesh needs depth >= 1")
        if spec.n != 3 * spec.depth + 1:
            raise BadSpec(
                f"diamond_mesh needs n == 3 * depth + 1, got n={spec.n} depth={spec.depth}"
            )


def generate(spec: GeneratorSpec) -> Instance:
    """Build the instance described by spec. Raises BadSpec when invalid."""
    _check(spec)
    rng = random.Random(spec.seed)
    # A pair gets an edge when a draw in [0, 1) falls below p. At p = 1 every
    # draw would, so none is made, and at p = 0 none would, so no pair is
    # visited. rng serves this call alone, so no other draw moves.
    n, w, p = spec.n, spec.width, spec.edge_prob
    draw = rng.random if p < 1.0 else (lambda: 0.0)
    edges: list[tuple[int, int]] = []
    if spec.kind == "chain":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif spec.kind == "layered" and p > 0.0:
        # Base edges only between consecutive layers; closure fills the rest.
        edges = [
            (u, v)
            for layer in range(spec.layers - 1)
            for u in range(layer * w, (layer + 1) * w)
            for v in range((layer + 1) * w, (layer + 2) * w)
            if draw() < p
        ]
    elif spec.kind == "random_order" and p > 0.0:
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if draw() < p]
    elif spec.kind == "diamond_mesh":
        for d in range(spec.depth):
            a = 3 * d
            edges += [(a, a + 1), (a, a + 2), (a + 1, a + 3), (a + 2, a + 3)]
    return build_instance(spec.n, spec.m, edges)


# id -> spec; ids are stable and double as corpus file names.
_STANDARD = [
    GeneratorSpec("chain", 5, 1, seed=101),
    GeneratorSpec("chain", 8, 2, seed=102),
    GeneratorSpec("antichain", 7, 3, seed=103),
    GeneratorSpec("antichain", 12, 4, seed=104),
    GeneratorSpec("diamond_mesh", 4, 2, seed=105, depth=1),
    GeneratorSpec("diamond_mesh", 7, 2, seed=106, depth=2),
    GeneratorSpec("diamond_mesh", 13, 3, seed=107, depth=4),
    GeneratorSpec("layered", 6, 2, seed=108, layers=3, width=2, edge_prob=1.0),
    GeneratorSpec("layered", 9, 3, seed=109, layers=3, width=3, edge_prob=0.7),
    GeneratorSpec("layered", 16, 2, seed=110, layers=4, width=4, edge_prob=0.5),
    GeneratorSpec("random_order", 6, 2, seed=111, edge_prob=0.4),
    GeneratorSpec("random_order", 9, 2, seed=112, edge_prob=0.3),
    GeneratorSpec("random_order", 14, 3, seed=113, edge_prob=0.25),
    GeneratorSpec("random_order", 18, 4, seed=114, edge_prob=0.2),
]


def corpus_id(spec: GeneratorSpec) -> str:
    kind = spec.kind.replace("_", "")
    return f"{kind}-{spec.n:02d}-m{spec.m}"


def standard_corpus() -> list[tuple[str, Instance]]:
    """The fixed benchmark corpus: (id, instance) pairs, deterministic."""
    return [(corpus_id(spec), generate(spec)) for spec in _STANDARD]
