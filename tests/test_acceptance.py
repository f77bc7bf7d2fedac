"""Acceptance suite: eight gate criteria, one visible pass/fail line each.

Run with plain pytest; the per-criterion lines bypass capture so they show
in any run. Criteria 1-4 are oracle-equivalence and bound checks, 5 audits
the discard accounting, 6-7 run the analysis auditors, 8 checks bench
determinism. All comparisons are exact unless a criterion says otherwise.
"""

import csv
import random
from fractions import Fraction

import pytest
from helpers import brute_force_makespan, enumerate_poset_classes

from precsched.audits import ADVISORY_CLAIMS, CONTRACTUAL_CLAIMS, audit_instance
from precsched.baselines import coffman_graham_schedule, list_schedule
from precsched.cli import main
from precsched.generators import GeneratorSpec, generate, standard_corpus
from precsched.laminar import pad_to_power_of_two, pad_with_family
from precsched.model import build_instance, validate_schedule
from precsched.oracle import EXACT_CAP, optimal_makespan
from precsched.qptas import exhaustive_guesses, insert_discarded, laminar_guesses, solve
from precsched.textio import emit_instance

CORPUS = standard_corpus()
OPT = {cid: optimal_makespan(inst) for cid, inst in CORPUS}


def _conclude(capsys, num, name, ok, detail=""):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    for cid, inst in CORPUS:
        (out / f"{cid}.inst").write_text(emit_instance(inst))
    return out


def test_criterion_1_oracle_soundness(capsys):
    checks = 0
    for n in range(0, 7):
        for closed in enumerate_poset_classes(n):
            for m in (1, 2, 3):
                inst = build_instance(n, m, closed)
                assert optimal_makespan(inst) == brute_force_makespan(n, m, closed)
                checks += 1
    _conclude(capsys, 1, "oracle-soundness", True, f"{checks} poset/machine pairs")


def test_criterion_2_graham_bound(capsys):
    rng = random.Random(20260814)
    worst = Fraction(0)
    for i in range(500):
        m = rng.choice([2, 3, 4])
        kind = rng.choice(["layered", "random_order", "diamond_mesh", "chain"])
        if kind == "layered":
            layers = rng.randint(2, 4)
            width = rng.randint(2, 18 // layers)
            spec = GeneratorSpec(
                "layered", layers * width, m, seed=i,
                layers=layers, width=width,
                edge_prob=rng.choice([0.3, 0.5, 0.8]),
            )
        elif kind == "random_order":
            spec = GeneratorSpec(
                "random_order", rng.randint(4, 18), m, seed=i,
                edge_prob=rng.choice([0.2, 0.3, 0.5]),
            )
        elif kind == "diamond_mesh":
            d = rng.randint(1, 5)
            spec = GeneratorSpec("diamond_mesh", 3 * d + 1, m, seed=i, depth=d)
        else:
            spec = GeneratorSpec("chain", rng.randint(2, 18), m, seed=i)
        inst = generate(spec)
        opt = optimal_makespan(inst)
        for _ in range(100):
            order = list(range(inst.n))
            rng.shuffle(order)
            mk = list_schedule(inst, order).makespan()
            # Integer form of mk/opt <= 2 - 1/m.
            assert mk * m <= (2 * m - 1) * opt, (spec, mk, opt)
            worst = max(worst, Fraction(mk, opt))
    _conclude(capsys, 2, "graham-bound", True, f"max ratio {float(worst):.3f}")


def test_criterion_3_coffman_graham_optimal_m2(capsys):
    checked = []
    for cid, inst in CORPUS:
        if inst.m != 2 or inst.n > 16:
            continue
        assert coffman_graham_schedule(inst).makespan() == OPT[cid], cid
        checked.append(cid)
    _conclude(capsys, 3, "cg-optimal-m2", True, f"{len(checked)} instances")


def test_criterion_4_exhaustive_solve_exact(capsys):
    checked = 0
    for cid, inst in CORPUS:
        if inst.n > 9:
            continue
        T = OPT[cid]
        result = solve(inst, T, exhaustive_guesses(inst, inst.n), 1)
        assert result.discarded == frozenset(), cid
        assert result.schedule.makespan() == T, cid
        assert result.schedule.horizon == T, cid
        checked += 1
    _conclude(capsys, 4, "exhaustive-exactness", True, f"{checked} instances at OPT")


def test_criterion_5_feasibility_and_accounting(capsys):
    invocations = 0
    for cid, inst in CORPUS:
        runs = []
        if inst.n <= 9:
            runs.append(("exhaustive", inst, OPT[cid], exhaustive_guesses(inst, inst.n), 1))
        padded, fam = pad_with_family(inst, OPT[cid], Fraction(1))
        laminar = laminar_guesses(fam)
        for depth_max in (1, fam.level_count()):
            runs.append(("laminar", padded, fam.T, laminar, depth_max))
        for mode, target, T, guesses, depth_max in runs:
            result = solve(target, T, guesses, depth_max)
            final = insert_discarded(target, result.schedule, result.discarded)
            report = validate_schedule(target, final)
            assert report.feasible and report.complete, (cid, mode)
            assert final.horizon == T + len(result.discarded), (cid, mode)
            invocations += 1
    _conclude(capsys, 5, "accounting", True, f"{invocations} solve invocations")


def _audit_eligible(inst):
    if inst.n < 2 or inst.n > 14:
        return False
    padded, _ = pad_to_power_of_two(inst, optimal_makespan(inst))
    return padded.n <= EXACT_CAP


def test_criterion_6_contractual_audits(capsys):
    audited = []
    for cid, inst in CORPUS:
        if not _audit_eligible(inst):
            continue
        reports = audit_instance(inst)
        for claim in CONTRACTUAL_CLAIMS:
            assert reports[claim].violations == 0, (cid, claim)
        audited.append(cid)
    _conclude(capsys, 6, "contractual-audits", True, f"{len(audited)} instances")


def test_criterion_7_advisory_audits_csv(capsys, corpus_dir, tmp_path):
    out = tmp_path / "audits.csv"
    assert main(["audit", "--input", str(corpus_dir), "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    advisory = [r for r in rows if r["claim"] in ADVISORY_CLAIMS]
    assert advisory, "no advisory rows produced"
    exceedances = [r for r in advisory if r["violations"] != "0"]
    assert exceedances == [], exceedances
    _conclude(capsys, 7, "advisory-audits", True, f"{len(advisory)} advisory rows")


def test_criterion_8_bench_determinism(capsys, corpus_dir, tmp_path):
    one = tmp_path / "bench1.csv"
    two = tmp_path / "bench2.csv"
    assert main(["bench", "--input", str(corpus_dir), "--output", str(one)]) == 0
    assert main(["bench", "--input", str(corpus_dir), "--output", str(two)]) == 0
    identical = one.read_bytes() == two.read_bytes()
    _conclude(capsys, 8, "bench-determinism", identical, f"{one.stat().st_size} bytes")
