"""Generator determinism, spec validation, and the standard corpus."""

import random

import pytest

from precsched.generators import (
    BadSpec,
    GeneratorSpec,
    corpus_id,
    generate,
    standard_corpus,
)
from precsched.model import build_instance
from precsched.oracle import optimal_makespan

from helpers import pairs


def test_chain_and_antichain_closures():
    assert len(pairs(generate(GeneratorSpec("chain", 5, 1)))) == 10
    assert len(pairs(generate(GeneratorSpec("antichain", 7, 3)))) == 0


def test_layered_full_probability_closure():
    inst = generate(GeneratorSpec("layered", 6, 2, layers=3, width=2, edge_prob=1.0))
    # 4 + 4 base edges between consecutive layers, 4 more from closure.
    assert sorted(pairs(inst)) == [
        (0, 2), (0, 3), (0, 4), (0, 5),
        (1, 2), (1, 3), (1, 4), (1, 5),
        (2, 4), (2, 5), (3, 4), (3, 5),
    ]


def test_layered_edges_respect_consecutive_layers():
    inst = generate(
        GeneratorSpec("layered", 9, 3, seed=7, layers=3, width=3, edge_prob=0.5)
    )
    # Base edges go only forward layer by layer, so the closure can never
    # point backward or within a layer.
    layer = {j: j // 3 for j in range(9)}
    assert all(layer[u] < layer[v] for u, v in pairs(inst))


def test_diamond_mesh_shapes():
    one = generate(GeneratorSpec("diamond_mesh", 4, 2, depth=1))
    assert sorted(pairs(one)) == [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
    two = generate(GeneratorSpec("diamond_mesh", 7, 1, depth=2))
    assert len(pairs(two)) == 19


def test_seeded_determinism():
    spec = GeneratorSpec("random_order", 9, 2, seed=112, edge_prob=0.3)
    assert generate(spec) == generate(spec)
    other = GeneratorSpec("random_order", 9, 2, seed=113, edge_prob=0.3)
    assert generate(spec) != generate(other)


def _drawn_per_pair(spec):
    """The instance with one draw per candidate pair, whatever the probability."""
    rng = random.Random(spec.seed)
    if spec.kind == "layered":
        w = spec.width
        pairs = [(u, v) for layer in range(spec.layers - 1)
                 for u in range(layer * w, (layer + 1) * w)
                 for v in range((layer + 1) * w, (layer + 2) * w)]
    else:
        pairs = [(i, j) for i in range(spec.n) for j in range(i + 1, spec.n)]
    edges = [pair for pair in pairs if rng.random() < spec.edge_prob]
    return build_instance(spec.n, spec.m, edges)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("seed", [0, 1, 7, 112])
def test_edges_match_one_draw_per_pair(p, seed):
    # At p = 0 and 1 no pair draws, which must decide every pair as a draw would.
    for spec in (
        GeneratorSpec("layered", 12, 3, seed=seed, layers=3, width=4, edge_prob=p),
        GeneratorSpec("random_order", 11, 2, seed=seed, edge_prob=p),
    ):
        assert generate(spec) == _drawn_per_pair(spec)


def test_probability_zero_and_one_draw_nothing(monkeypatch):
    def no_draw(self):
        raise AssertionError("drew a random number")

    monkeypatch.setattr(random.Random, "random", no_draw)
    for p, want in ((0.0, 0), (1.0, 12)):
        spec = GeneratorSpec("layered", 6, 2, layers=3, width=2, edge_prob=p)
        assert len(pairs(generate(spec))) == want
    assert len(pairs(generate(GeneratorSpec("random_order", 300, 2, edge_prob=0.0)))) == 0
    assert len(pairs(generate(GeneratorSpec("random_order", 6, 2, edge_prob=1.0)))) == 15


@pytest.mark.parametrize(
    "spec",
    [
        GeneratorSpec("spiral", 4, 1),
        GeneratorSpec("chain", -1, 1),
        GeneratorSpec("chain", 4, 0),
        GeneratorSpec("layered", 6, 2, layers=4, width=2, edge_prob=1.0),
        GeneratorSpec("layered", 6, 2, layers=0, width=0, edge_prob=1.0),
        GeneratorSpec("diamond_mesh", 6, 2, depth=2),
        GeneratorSpec("random_order", 5, 1, edge_prob=1.5),
    ],
)
def test_bad_specs_rejected(spec):
    with pytest.raises(BadSpec):
        generate(spec)


def test_standard_corpus_frozen():
    corpus = standard_corpus()
    assert [cid for cid, _ in corpus] == [
        "chain-05-m1",
        "chain-08-m2",
        "antichain-07-m3",
        "antichain-12-m4",
        "diamondmesh-04-m2",
        "diamondmesh-07-m2",
        "diamondmesh-13-m3",
        "layered-06-m2",
        "layered-09-m3",
        "layered-16-m2",
        "randomorder-06-m2",
        "randomorder-09-m2",
        "randomorder-14-m3",
        "randomorder-18-m4",
    ]
    assert corpus == standard_corpus()
    assert all(inst.n <= 18 for _, inst in corpus)
    by_id = dict(corpus)
    assert optimal_makespan(by_id["chain-05-m1"]) == 5
    assert optimal_makespan(by_id["randomorder-14-m3"]) == 6
    assert corpus_id(GeneratorSpec("diamond_mesh", 4, 2, depth=1)) == "diamondmesh-04-m2"
