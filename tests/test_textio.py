"""Parsing, emission, and round trips for the two text formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from precsched.generators import standard_corpus
from precsched.model import Schedule, build_instance
from precsched.textio import (
    ParseError,
    emit_instance,
    emit_schedule,
    parse_instance,
    parse_schedule,
)

from helpers import close_pairs, cover_pairs, pairs


def test_parse_two_job_chain():
    inst = parse_instance("jobs 2\nmachines 1\nedge 0 1\n")
    assert (inst.n, inst.m) == (2, 1)
    assert pairs(inst) == frozenset({(0, 1)})


def test_emit_is_canonical_and_round_trips():
    inst = build_instance(3, 2, [(1, 2), (0, 2), (0, 1)])
    text = emit_instance(inst)
    # Cover edges only: (0, 2) follows from (0, 1) and (1, 2).
    assert text == "jobs 3\nmachines 2\nedge 0 1\nedge 1 2\n"
    assert parse_instance(text) == inst


@st.composite
def _dags(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(cells), max_size=30) if cells else st.just([]))
    # Relabel so edges do not always point from a lower id to a higher one.
    perm = draw(st.permutations(range(n)))
    return n, [(perm[u], perm[v]) for u, v in edges]


@settings(max_examples=150, deadline=None)
@given(_dags())
def test_emit_writes_the_transitive_reduction(case):
    n, edges = case
    closed = close_pairs(n, edges)
    inst = build_instance(n, 3, edges)
    text = emit_instance(inst)
    emitted = [tuple(map(int, line.split()[1:])) for line in text.splitlines()[2:]]
    assert emitted == sorted(cover_pairs(closed))
    # The closed listing and the cover listing parse to the same instance.
    header = f"jobs {n}\nmachines 3\n"
    from_closed = parse_instance(header + "".join(f"edge {u} {v}\n" for u, v in sorted(closed)))
    from_cover = parse_instance(text)
    assert from_closed == from_cover == inst
    assert from_closed.pred_masks == from_cover.pred_masks
    assert from_closed.succ_masks == from_cover.succ_masks
    assert from_closed.cover_masks == from_cover.cover_masks == inst.cover_masks


def test_comments_and_blank_lines_skipped():
    text = "# corpus entry\n\njobs 2\n  # note\nmachines 1\nedge 0 1\n"
    assert parse_instance(text) == build_instance(2, 1, [(0, 1)])


def test_edge_out_of_range_reports_line():
    with pytest.raises(ParseError) as err:
        parse_instance("jobs 2\nmachines 1\nedge 0 2\n")
    assert err.value.line == 3
    # Comment lines still count toward the physical line number.
    with pytest.raises(ParseError) as err:
        parse_instance("# hi\njobs 2\nmachines 1\nedge 5 0\n")
    assert err.value.line == 4


@pytest.mark.parametrize(
    "text",
    [
        "",
        "jobs 2\n",
        "machines 1\njobs 2\n",
        "jobs two\nmachines 1\n",
        "jobs 2\nmachines 0\n",
        "jobs 2\nmachines 1\nedge 0\n",
        "jobs 2\nmachines 1\nedge 0 1 9\n",
        "jobs 2\nmachines 1\nlink 0 1\n",
        "jobs -1\nmachines 1\n",
    ],
)
def test_malformed_instances_rejected(text):
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_schedule_and_round_trip():
    sched = parse_schedule("makespan 2\njob 0 0\njob 1 1\n")
    assert sched.start == {0: 0, 1: 1}
    assert sched.horizon == 2
    assert parse_schedule(emit_schedule(sched)) == sched


def test_empty_schedule_is_valid():
    sched = parse_schedule("makespan 0\n")
    assert sched.start == {}
    assert sched.horizon == 0


def test_duplicate_job_line_rejected():
    with pytest.raises(ParseError) as err:
        parse_schedule("makespan 2\njob 0 0\njob 0 1\n")
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text",
    [
        "job 0 0\n",
        "makespan -1\n",
        "makespan 2\njob 0 -1\n",
        "makespan 2\njob 0\n",
        "makespan 2\nstart 0 0\n",
    ],
)
def test_malformed_schedules_rejected(text):
    with pytest.raises(ParseError):
        parse_schedule(text)


def test_corpus_round_trips():
    for cid, inst in standard_corpus():
        assert parse_instance(emit_instance(inst)) == inst, cid
    sched = Schedule({5: 3, 1: 0}, 9)
    assert emit_schedule(sched) == "makespan 9\njob 1 0\njob 5 3\n"
