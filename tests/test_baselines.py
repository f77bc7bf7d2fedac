import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precsched.baselines import (
    coffman_graham_labels,
    coffman_graham_schedule,
    list_schedule,
)
from precsched.model import build_instance, validate_schedule
from precsched.oracle import optimal_makespan
from precsched.textio import emit_instance, parse_instance

from helpers import (
    enumerate_poset_classes,
    pairs,
    ref_coffman_graham_labels,
    ref_list_schedule,
)

DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]
# jobs 0,1,2 independent; 3 -> 4 -> 5 is a chain
CHAIN_PLUS_FREE = [(3, 4), (4, 5)]


def test_list_schedule_bad_order_example():
    inst = build_instance(6, 2, CHAIN_PLUS_FREE)
    sched = list_schedule(inst, [0, 1, 2, 3, 4, 5])
    assert sched.start == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 3}
    assert sched.makespan() == 4


def test_list_schedule_good_order_example():
    inst = build_instance(6, 2, CHAIN_PLUS_FREE)
    sched = list_schedule(inst, [3, 0, 4, 1, 5, 2])
    assert sched.start == {3: 0, 0: 0, 4: 1, 1: 1, 5: 2, 2: 2}
    assert sched.makespan() == 3
    assert optimal_makespan(inst) == 3


def test_list_schedule_rejects_non_permutation():
    inst = build_instance(3, 1, [])
    with pytest.raises(ValueError):
        list_schedule(inst, [0, 1])
    with pytest.raises(ValueError):
        list_schedule(inst, [0, 1, 1])


def test_graham_bound_exhaustive_small():
    # makespan * m <= (2m - 1) * opt, checked in integers for every order shape
    for n in (4, 5):
        for closed in enumerate_poset_classes(n):
            for m in (2, 3):
                inst = build_instance(n, m, closed)
                opt = optimal_makespan(inst)
                for order in ([*range(n)], [*reversed(range(n))]):
                    mk = list_schedule(inst, order).makespan()
                    assert m * mk <= (2 * m - 1) * opt


def test_cg_labels_chain():
    for n in (3, 2000):
        inst = build_instance(n, 2, [(i, i + 1) for i in range(n - 1)])
        assert coffman_graham_labels(inst) == [n - j for j in range(n)]


def test_cg_labels_diamond():
    inst = build_instance(4, 2, DIAMOND)
    # sink gets 1, the middle pair tie-breaks by id, source gets 4
    assert coffman_graham_labels(inst) == [4, 2, 3, 1]


def test_cg_schedule_diamond():
    inst = build_instance(4, 2, DIAMOND)
    sched = coffman_graham_schedule(inst)
    report = validate_schedule(inst, sched)
    assert report.feasible and report.complete
    assert report.makespan == 3


def test_cg_is_optimal_on_two_machines_exhaustive():
    # Every poset class up to n = 6 at m = 2: Coffman-Graham equals the oracle.
    for n in range(1, 7):
        for closed in enumerate_poset_classes(n):
            inst = build_instance(n, 2, closed)
            mk = coffman_graham_schedule(inst).makespan()
            assert mk == optimal_makespan(inst), (n, sorted(closed))


@st.composite
def _relabelled_dags(draw, min_n, max_n, min_m, max_m):
    """A random DAG on n jobs whose topological order is a random permutation."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    perm = draw(st.permutations(range(n)))
    cells = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    m = draw(st.integers(min_value=min_m, max_value=max_m))
    return build_instance(n, m, [c for c, on in zip(cells, picked) if on])


@st.composite
def _dense_layered_dags(draw, max_n=30):
    """Layers of 1-6 jobs, each before every job of the next layer, ids shuffled.

    The cover is the edges between consecutive layers; the closure adds every
    pair of layers further apart, so the two differ most on these DAGs.
    """
    sizes = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=12))
    while sum(sizes) > max_n:
        sizes.pop()
    n = sum(sizes)
    perm = draw(st.permutations(range(n)))
    layers, first = [], 0
    for size in sizes:
        layers.append([perm[j] for j in range(first, first + size)])
        first += size
    edges = [(u, v) for upper, lower in zip(layers, layers[1:]) for u in upper for v in lower]
    m = draw(st.integers(min_value=1, max_value=4))
    return build_instance(n, m, edges)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_relabelled_dags(0, 14, 1, 4), _dense_layered_dags()))
def test_cg_labels_match_round_scan_reference(inst):
    assert coffman_graham_labels(inst) == ref_coffman_graham_labels(inst)


@settings(max_examples=100, deadline=None)
@given(st.one_of(_relabelled_dags(0, 14, 1, 4), _dense_layered_dags()))
def test_cg_labels_equal_from_closure_file_and_cover_file(inst):
    header = f"jobs {inst.n}\nmachines {inst.m}\n"
    closure = parse_instance(header + "".join(f"edge {u} {v}\n" for u, v in sorted(pairs(inst))))
    cover = parse_instance(emit_instance(inst))
    labels = coffman_graham_labels(cover)
    assert coffman_graham_labels(closure) == labels == ref_coffman_graham_labels(closure)


@settings(max_examples=300, deadline=None)
@given(_relabelled_dags(0, 16, 1, 4), st.data())
def test_list_schedule_matches_round_scan_reference(inst, data):
    # The shared sweep against the per-slot scan and sort it replaced, in id,
    # shuffled and Coffman-Graham order.
    labels = coffman_graham_labels(inst)
    orders = (
        list(range(inst.n)),
        data.draw(st.permutations(range(inst.n))),
        sorted(range(inst.n), key=lambda j: -labels[j]),
    )
    for order in orders:
        got, want = list_schedule(inst, order), ref_list_schedule(inst, order)
        assert (got.start, got.horizon) == (want.start, want.horizon), order


@settings(max_examples=200, deadline=None)
@given(_relabelled_dags(7, 12, 2, 2))
def test_cg_is_optimal_on_two_machines_random(inst):
    # Beyond the exhaustive n <= 6 above, sampled.
    mk = coffman_graham_schedule(inst).makespan()
    assert mk == optimal_makespan(inst)


@st.composite
def _cases(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True)) if pairs else []
    m = draw(st.integers(min_value=1, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    return n, picked, m, seed


@settings(max_examples=60, deadline=None)
@given(_cases())
def test_list_schedule_is_busy_feasible_complete(case):
    import random

    n, edges, m, seed = case
    inst = build_instance(n, m, edges)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    sched = list_schedule(inst, order)
    report = validate_schedule(inst, sched)
    assert report.feasible and report.complete

    # Busy property: a slot with a free machine admits no eligible waiting job.
    for t in range(sched.makespan()):
        running = [j for j, s in sched.start.items() if s == t]
        if len(running) < m:
            for j in range(n):
                if sched.start[j] > t:
                    preds_done = all(
                        sched.start[p] + 1 <= t for (p, q) in pairs(inst) if q == j
                    )
                    assert not preds_done
