"""End-to-end checks of every subcommand through main(argv)."""

import csv
import hashlib
import time
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from precsched import cli, oracle
from precsched.audits import STRIDE_DIGITS, audit_instance
from precsched.baselines import list_schedule
from precsched.cli import main
from precsched.generators import GeneratorSpec, generate, standard_corpus
from precsched.laminar import DUMMY_MAX
from precsched.model import JOBS_MAX, Schedule, build_instance, longest_chain
from precsched.oracle import TooLarge, certified_optimum, lower_bound, optimal_makespan
from precsched.textio import emit_instance, emit_schedule, parse_instance, parse_schedule


def _gen_corpus(tmp_path, ids=None):
    out = tmp_path / "corpus"
    out.mkdir(exist_ok=True)
    for cid, inst in standard_corpus():
        if ids is None or cid in ids:
            (out / f"{cid}.inst").write_text(emit_instance(inst))
    return out


def test_gen_single_instance(tmp_path, capsys):
    out = tmp_path / "chain.inst"
    rc = main(["gen", "--kind", "chain", "--n", "4", "--m", "2", "--output", str(out)])
    assert rc == 0
    assert parse_instance(out.read_text()) == build_instance(
        4, 2, [(0, 1), (1, 2), (2, 3)]
    )


def test_gen_standard_corpus(tmp_path):
    out = tmp_path / "corp"
    assert main(["gen", "--corpus", "standard", "--outdir", str(out)]) == 0
    files = sorted(p.name for p in out.glob("*.inst"))
    assert len(files) == 14
    assert files[0] == "antichain-07-m3.inst"
    want = dict(standard_corpus())
    for p in out.glob("*.inst"):
        assert parse_instance(p.read_text()) == want[p.stem]


def test_gen_bad_spec_exits_2(tmp_path):
    assert main(["gen", "--kind", "chain", "--n", "3", "--m", "0"]) == 2
    assert main(["gen", "--corpus", "exotic", "--outdir", str(tmp_path)]) == 2
    assert main(["gen"]) == 2


@pytest.mark.parametrize("alg", ["exact", "ls", "cg", "qptas"])
def test_solve_then_verify(tmp_path, capsys, alg):
    corp = _gen_corpus(tmp_path, {"layered-06-m2"})
    inst = corp / "layered-06-m2.inst"
    sched = tmp_path / "out.sched"
    assert main(["solve", "--input", str(inst), "--alg", alg, "--output", str(sched)]) == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("makespan=")
    assert main(["verify", "--input", str(inst), "--schedule", str(sched)]) == 0
    out = capsys.readouterr().out
    assert "ok makespan=" in out


def test_solve_ls_orders(tmp_path, capsys):
    corp = _gen_corpus(tmp_path, {"diamondmesh-07-m2"})
    inst = corp / "diamondmesh-07-m2.inst"
    for order in ("id", "random", "cg"):
        sched = tmp_path / f"{order}.sched"
        rc = main(
            [
                "solve", "--input", str(inst), "--alg", "ls",
                "--order", order, "--seed", "7", "--output", str(sched),
            ]
        )
        assert rc == 0
        assert main(["verify", "--input", str(inst), "--schedule", str(sched)]) == 0
    capsys.readouterr()


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main() reuses one parser per process; each call's defaults, output
    # and exit code must be those of a freshly built one.
    assert cli.build_parser() is cli.build_parser()
    corp = _gen_corpus(tmp_path, {"antichain-07-m3"})
    inst = corp / "antichain-07-m3.inst"
    shuffled, default = tmp_path / "random.sched", tmp_path / "default.sched"
    assert main(["solve", "--input", str(inst), "--alg", "ls", "--order", "random",
                 "--seed", "3", "--output", str(shuffled)]) == 0
    assert main(["solve", "--input", str(inst), "--alg", "ls", "--output", str(default)]) == 0
    capsys.readouterr()
    id_order = emit_schedule(list_schedule(parse_instance(inst.read_text()), range(7)))
    assert default.read_text() == id_order
    assert shuffled.read_text() != id_order

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--schedule", str(default)])
    assert exc.value.code == 2
    first = capsys.readouterr()
    assert first.out == ""
    assert "the following arguments are required: --input" in first.err
    assert main(["verify", "--input", str(inst), "--schedule", str(default)]) == 0
    second = capsys.readouterr()
    assert second.out.startswith("ok makespan=")
    assert second.err == ""

    for argv, usage in ((["--help"], "usage: precsched "), (["verify", "--help"],
                                                           "usage: precsched verify ")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        shown = capsys.readouterr()
        assert shown.out.startswith(usage)
        assert shown.err == ""


def test_solve_qptas_exhaustive_at_opt(tmp_path, capsys):
    corp = _gen_corpus(tmp_path, {"chain-05-m1"})
    inst = corp / "chain-05-m1.inst"
    sched = tmp_path / "c.sched"
    rc = main(
        [
            "solve", "--input", str(inst), "--alg", "qptas",
            "--mode", "exhaustive", "--kmax", "5", "--output", str(sched),
        ]
    )
    assert rc == 0
    assert "discarded=0" in capsys.readouterr().out
    parsed = parse_schedule(sched.read_text())
    assert parsed.horizon == 5
    assert parsed.start == {j: j for j in range(5)}


def test_solve_infeasible_horizon_exits_1(tmp_path, capsys):
    corp = _gen_corpus(tmp_path, {"chain-05-m1"})
    rc = main(
        [
            "solve", "--input", str(corp / "chain-05-m1.inst"), "--alg", "qptas",
            "--mode", "exhaustive", "--horizon", "2",
        ]
    )
    assert rc == 1
    assert "infeasible" in capsys.readouterr().err


def test_solve_qptas_deep_chain_keeps_the_exit_code_contract(tmp_path, capsys):
    # A 1500-job chain overflows the recursive chain table; that is a usage
    # error (exit 2), not infeasibility (exit 1), and prints no traceback.
    # Exit 0 once the chain table no longer recurses.
    inst = tmp_path / "chain1500.inst"
    assert main(["gen", "--kind", "chain", "--n", "1500", "--m", "2", "--output", str(inst)]) == 0
    capsys.readouterr()
    rc = main(["solve", "--input", str(inst), "--alg", "qptas", "--output", str(tmp_path / "s")])
    err = capsys.readouterr().err
    assert rc in (0, 2)
    assert "Traceback" not in err
    if rc == 2:
        assert err.startswith("error: ")


@pytest.mark.parametrize("mode, rc", [("laminar", 2), ("exhaustive", 1)])
def test_solve_qptas_checks_eps_before_the_chain_bound(tmp_path, capsys, mode, rc):
    # Laminar mode needs m/eps integral, a usage error its guess source
    # reports before solve compares the horizon with the chain bound;
    # exhaustive mode has no such condition and meets the bound.
    inst = tmp_path / "chain3.inst"
    inst.write_text(emit_instance(build_instance(3, 1, [(0, 1), (1, 2)])))
    argv = ["solve", "--input", str(inst), "--alg", "qptas", "--mode", mode]
    assert main([*argv, "--eps", "2/3", "--horizon", "2"]) == rc
    assert capsys.readouterr().err.startswith("error: " if rc == 2 else "infeasible: ")


@pytest.mark.parametrize(
    "extra",
    [
        ["--mode", "exhaustive", "--kmax", "-1"],
        ["--kmax", "-1"],
        ["--depth-max", "-1"],
        ["--depth-max", "0"],
        ["--mode", "exhaustive", "--depth-max", "0"],
        ["--horizon", "0"],
        ["--horizon", "-3"],
        ["--mode", "exhaustive", "--horizon", "0"],
        ["--horizon", "1025"],
        ["--mode", "exhaustive", "--horizon", "6"],
    ],
    ids=[
        "exhaustive-kmax-neg", "kmax-neg", "depth-neg", "depth-0", "exhaustive-depth-0",
        "horizon-0", "horizon-neg", "exhaustive-horizon-0", "horizon-above-n",
        "exhaustive-horizon-above-n",
    ],
)
def test_solve_qptas_out_of_range_numbers_exit_2(tmp_path, capsys, extra):
    corp = _gen_corpus(tmp_path, {"chain-05-m1"})
    out = tmp_path / "s.sched"
    argv = ["solve", "--input", str(corp / "chain-05-m1.inst"), "--alg", "qptas"]
    assert main([*argv, *extra, "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_depth_max_leaves_the_laminar_mode_as_it_is(tmp_path, capsys):
    # The family bounds the laminar recursion and --depth-max applies to the
    # exhaustive mode only, so a valid value prints what the default run
    # prints, down to the explored= count.
    corp = _gen_corpus(tmp_path, {"layered-16-m2"})
    argv = ["solve", "--input", str(corp / "layered-16-m2.inst"), "--alg", "qptas"]
    runs = []
    for extra in ([], ["--depth-max", "1"], ["--depth-max", "2"]):
        out = tmp_path / "s.sched"
        assert main([*argv, *extra, "--output", str(out)]) == 0
        runs.append((capsys.readouterr().out, out.read_text()))
    assert runs[0][0].startswith("makespan=8 discarded=0 ")
    assert runs == [runs[0]] * 3


@pytest.mark.parametrize("mode", ["laminar", "exhaustive"])
def test_solve_qptas_empty_instance_gives_empty_schedule(tmp_path, capsys, mode):
    inst = tmp_path / "empty.inst"
    inst.write_text(emit_instance(build_instance(0, 2, [])))
    out = tmp_path / "s.sched"
    argv = ["solve", "--input", str(inst), "--alg", "qptas", "--mode", mode]
    assert main([*argv, "--output", str(out)]) == 0
    assert out.read_text() == "makespan 0\n"
    assert capsys.readouterr().out == "makespan=0 discarded=0 explored=0\n"


def test_verify_flags_violations_and_partial(tmp_path, capsys):
    corp = _gen_corpus(tmp_path, {"chain-05-m1"})
    inst = corp / "chain-05-m1.inst"
    bad = tmp_path / "bad.sched"
    bad.write_text("makespan 5\njob 0 1\njob 1 0\n")
    assert main(["verify", "--input", str(inst), "--schedule", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "violation precedence" in out
    assert "incomplete" in out

    part = tmp_path / "part.sched"
    part.write_text("makespan 5\njob 0 0\njob 1 1\n")
    assert main(["verify", "--input", str(inst), "--schedule", str(part)]) == 1
    assert main(["verify", "--input", str(inst), "--schedule", str(part), "--partial"]) == 0
    capsys.readouterr()


def test_verify_parse_error_exits_2(tmp_path, capsys):
    corp = _gen_corpus(tmp_path, {"chain-05-m1"})
    junk = tmp_path / "junk.sched"
    junk.write_text("makespan 2\njob 0 0\njob 0 1\n")
    rc = main(["verify", "--input", str(corp / "chain-05-m1.inst"), "--schedule", str(junk)])
    assert rc == 2
    assert "line 3" in capsys.readouterr().err


SMALL = {"chain-05-m1", "antichain-07-m3", "diamondmesh-04-m2", "layered-06-m2"}


def test_bench_deterministic_and_sound(tmp_path):
    corp = _gen_corpus(tmp_path, SMALL)
    one = tmp_path / "b1.csv"
    two = tmp_path / "b2.csv"
    assert main(["bench", "--input", str(corp), "--output", str(one)]) == 0
    assert main(["bench", "--input", str(corp), "--output", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()
    rows = list(csv.DictReader(one.read_text().splitlines()))
    assert len(rows) == len(SMALL) * 4
    for row in rows:
        assert row["error"] == ""
        assert row["wall_ms"] == ""
        assert float(row["ratio"]) >= 1.0
        if row["algorithm"] == "exact":
            assert row["makespan"] == row["opt"]


def _count_oracle_calls(monkeypatch):
    """Wrap the oracle's names; returns (calls, refusals) keyed by (name, n).

    "certificate" counts the certificate's calls, "makespan" and "schedule"
    the two searches. known_optimum calls the first two through oracle's
    own bindings, and bench's exact row the schedule search through cli's.
    """
    calls, refusals = Counter(), Counter()

    def counted(name, fn):
        def wrapper(inst, *args, **kwargs):
            try:
                result = fn(inst, *args, **kwargs)
            except cli.TooLarge:
                refusals[name, inst.n] += 1
                raise
            calls[name, inst.n] += 1
            return result

        return wrapper

    monkeypatch.setattr(oracle, "certified_optimum", counted("certificate", oracle.certified_optimum))
    monkeypatch.setattr(oracle, "optimal_makespan", counted("makespan", oracle.optimal_makespan))
    monkeypatch.setattr(cli, "optimal_schedule", counted("schedule", cli.optimal_schedule))
    return calls, refusals


def _gen_uncertified(path):
    """The complete 5x5 layered instance at m = 4: lower bound 3, optimum 4."""
    argv = ["gen", "--kind", "layered", "--n", "10", "--m", "4", "--layers", "2",
            "--width", "5", "--edge-prob", "1.0", "--output", str(path)]
    assert main(argv) == 0
    inst = parse_instance(path.read_text())
    assert (lower_bound(inst), certified_optimum(inst), optimal_makespan(inst)) == (3, None, 4)


def test_bench_searches_each_optimum_once(tmp_path, monkeypatch):
    # Each instance has its own size, so n names it. SMALL's optima are
    # certified; full-10-m4's is not, so it alone is searched.
    corp = _gen_corpus(tmp_path, SMALL)
    _gen_uncertified(corp / "full-10-m4.inst")
    (corp / "wide-30-m4.inst").write_text(emit_instance(build_instance(30, 4, [])))
    calls, refusals = _count_oracle_calls(monkeypatch)
    out = tmp_path / "b.csv"
    assert main(["bench", "--input", str(corp), "--alg", "exact,ls,cg,qptas", "--output", str(out)]) == 0
    sizes = sorted(int(cid.split("-")[1]) for cid in SMALL) + [10]
    # One certificate per instance below the cap, one makespan search for
    # the uncertified optimum only, and one schedule search per exact row.
    assert sorted(calls.elements()) == sorted(
        [(name, n) for n in sizes for name in ("certificate", "schedule")] + [("makespan", 10)]
    )
    # Above the cap the exact row is refused before any search, and nothing
    # else asks the oracle or the certificate.
    assert refusals == Counter({("schedule", 30): 1})
    reader = csv.DictReader(out.read_text().splitlines())
    rows = {(r["instance"], r["algorithm"]): r for r in reader}
    assert "exceeds exact-search cap" in rows["wide-30-m4", "exact"]["error"]
    assert rows["wide-30-m4", "qptas"]["error"] == ""
    assert rows["wide-30-m4", "qptas"]["opt"] == ""
    for alg in ("exact", "ls", "cg", "qptas"):
        assert (rows["full-10-m4", alg]["opt"], rows["full-10-m4", alg]["error"]) == ("4", "")
    assert rows["full-10-m4", "exact"]["makespan"] == "4"


def test_auto_horizon_searches_only_uncertified_optima(tmp_path, monkeypatch):
    corp = _gen_corpus(tmp_path, {"layered-06-m2"})
    _gen_uncertified(tmp_path / "full-10-m4.inst")
    calls, _ = _count_oracle_calls(monkeypatch)
    horizons = []
    real = cli.solve_laminar

    def solve_laminar(inst, T, *args):
        horizons.append(T)
        return real(inst, T, *args)

    # cli binds the run by name, so patch it there.
    monkeypatch.setattr(cli, "solve_laminar", solve_laminar)
    for path in (corp / "layered-06-m2.inst", tmp_path / "full-10-m4.inst"):
        argv = ["solve", "--input", str(path), "--alg", "qptas", "--output", str(tmp_path / "s")]
        assert main(argv) == 0
    assert horizons == [3, 4]
    assert calls == Counter({("certificate", 6): 1, ("certificate", 10): 1, ("makespan", 10): 1})


def test_bench_exact_row_reports_its_own_schedule(tmp_path, monkeypatch):
    # A planted schedule one slot longer than the optimum must show in the
    # exact row; bench must not copy the optimum into it.
    real = cli.optimal_schedule

    def late(inst, *args, **kwargs):
        sched = real(inst, *args, **kwargs)
        return Schedule({j: t + 1 for j, t in sched.start.items()}, sched.horizon + 1)

    monkeypatch.setattr(cli, "optimal_schedule", late)
    corp = _gen_corpus(tmp_path, {"chain-05-m1"})
    out = tmp_path / "b.csv"
    assert main(["bench", "--input", str(corp), "--alg", "exact", "--output", str(out)]) == 0
    (row,) = csv.DictReader(out.read_text().splitlines())
    assert (row["makespan"], row["opt"], row["ratio"]) == ("6", "5", "1.200000")


def test_bench_timing_fills_column(tmp_path):
    corp = _gen_corpus(tmp_path, {"chain-05-m1"})
    out = tmp_path / "b.csv"
    assert main(["bench", "--input", str(corp), "--alg", "ls", "--timing", "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert rows and all(float(r["wall_ms"]) >= 0 for r in rows)


def test_bench_timing_charges_opt_search_to_qptas_row(tmp_path, monkeypatch):
    # qptas's auto horizon is the shared optimum, so its row pays for finding
    # it, by certificate (chain-05-m1) or by search (full-10-m4); rows that
    # do not use it do not.
    def slowed(fn):
        def slow(inst, *a, **kw):
            time.sleep(0.2)
            return fn(inst, *a, **kw)

        return slow

    (tmp_path / "full").mkdir()
    _gen_uncertified(tmp_path / "full" / "full-10-m4.inst")
    for name, corp in (("certified_optimum", _gen_corpus(tmp_path, {"chain-05-m1"})),
                       ("optimal_makespan", tmp_path / "full")):
        with monkeypatch.context() as patch:
            patch.setattr(oracle, name, slowed(getattr(oracle, name)))
            out = tmp_path / "b.csv"
            argv = ["bench", "--input", str(corp), "--alg", "ls,qptas", "--timing", "--output", str(out)]
            assert main(argv) == 0
        reader = csv.DictReader(out.read_text().splitlines())
        wall = {r["algorithm"]: float(r["wall_ms"]) for r in reader}
        assert wall["qptas"] >= 200 > wall["ls"], name


def test_bench_empty_dir_exits_2(tmp_path, capsys):
    empty = tmp_path / "void"
    empty.mkdir()
    assert main(["bench", "--input", str(empty)]) == 2
    capsys.readouterr()


def test_bench_writes_rows_for_an_empty_instance(tmp_path, capsys):
    corp = tmp_path / "tiny"
    corp.mkdir()
    (corp / "empty.inst").write_text(emit_instance(build_instance(0, 2, [])))
    (corp / "one.inst").write_text(emit_instance(build_instance(1, 1, [])))
    out = tmp_path / "b.csv"
    assert main(["bench", "--input", str(corp), "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    reader = csv.DictReader(out.read_text().splitlines())
    rows = {(r["instance"], r["algorithm"]): r for r in reader}
    assert len(rows) == 8
    for alg in ("exact", "ls", "cg", "qptas"):
        empty, one = rows["empty", alg], rows["one", alg]
        # 0/0 has no ratio.
        assert (empty["makespan"], empty["opt"], empty["ratio"], empty["error"]) == ("0", "0", "", "")
        assert (one["makespan"], one["opt"], one["ratio"], one["error"]) == ("1", "1", "1.000000", "")


def test_bench_rows_report_what_solve_prints(tmp_path, capsys):
    # bench and solve share the optimum, the baseline dispatch and the
    # laminar run, so each row's makespan and discards are those that
    # `solve --alg <alg>` prints at its defaults.
    corp = _gen_corpus(tmp_path)
    out = tmp_path / "b.csv"
    assert main(["bench", "--input", str(corp), "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert Counter(r["algorithm"] for r in rows) == {alg: 14 for alg in ("exact", "ls", "cg", "qptas")}
    capsys.readouterr()
    for row in rows:
        argv = ["solve", "--input", str(corp / f"{row['instance']}.inst"), "--alg", row["algorithm"],
                "--output", str(tmp_path / "s")]
        assert main(argv) == 0
        printed = dict(field.split("=") for field in capsys.readouterr().out.split())
        assert (row["makespan"], row["discards"]) == (printed["makespan"], printed["discarded"]), row


@pytest.mark.parametrize("n", [0, 1])
def test_analyze_levels_below_two_jobs_exits_2(tmp_path, capsys, n):
    inst = tmp_path / "tiny.inst"
    inst.write_text(emit_instance(build_instance(n, 1, [])))
    out = tmp_path / "levels.csv"
    assert main(["analyze", "levels", "--input", str(inst), "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_analyze_levels_chain8(tmp_path, capsys):
    corp = _gen_corpus(tmp_path, {"chain-08-m2"})
    out = tmp_path / "levels.csv"
    rc = main(["analyze", "levels", "--input", str(corp / "chain-08-m2.inst"), "--output", str(out)])
    assert rc == 0
    assert out.read_text() == "level,start,end,guess,top\n0,0,8,0 1 2 3 4 5 6 7,\n"
    assert "offset=0" in capsys.readouterr().err


def test_audit_corpus_csv(tmp_path, capsys):
    corp = _gen_corpus(tmp_path, SMALL)
    out = tmp_path / "audit.csv"
    assert main(["audit", "--input", str(corp), "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == len(SMALL) * 7
    assert all(r["violations"] == "0" for r in rows)
    claims = {r["claim"] for r in rows}
    assert "unique-level" in claims and "idle-slots" in claims
    capsys.readouterr()


@pytest.mark.parametrize("cid,padded_n", [("randomorder-18-m4", 26), ("diamondmesh-13-m3", 34)])
def test_padding_above_the_oracle_cap_is_too_large(tmp_path, capsys, cid, padded_n):
    # Each fits the oracle but its padding does not. The oracle's TooLarge is
    # the one cap rule: audit skips the instance with its message, and
    # analyze levels exits 2.
    cap_note = f"n={padded_n} exceeds exact-search cap 24"
    with pytest.raises(TooLarge, match=cap_note):
        audit_instance(dict(standard_corpus())[cid])
    corp = _gen_corpus(tmp_path, {cid})
    out = tmp_path / "audit.csv"
    assert main(["audit", "--input", str(corp), "--output", str(out)]) == 0
    assert capsys.readouterr().err == f"skipping {cid}: {cap_note}\n"
    levels = tmp_path / "levels.csv"
    argv = ["analyze", "levels", "--input", str(corp / f"{cid}.inst"), "--output", str(levels)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {cap_note}\n"
    assert not levels.exists()


def test_bad_eps_exits_2(tmp_path, capsys):
    corp = _gen_corpus(tmp_path, {"chain-05-m1"})
    rc = main(
        [
            "solve", "--input", str(corp / "chain-05-m1.inst"),
            "--alg", "qptas", "--eps", "zero",
        ]
    )
    assert rc == 2
    capsys.readouterr()


@pytest.mark.parametrize("eps", ["2", "0", "-1/2", "3/2"])
@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--alg", "qptas"],
        ["solve", "--alg", "qptas", "--mode", "exhaustive"],
        ["bench"],
        ["audit"],
        ["analyze", "levels"],
    ],
    ids=["solve-laminar", "solve-exhaustive", "bench", "audit", "analyze"],
)
def test_eps_outside_unit_interval_exits_2(tmp_path, capsys, argv, eps):
    # The 0-job instance used to slip through laminar solve; bench used to
    # put the error in each qptas row and audit to skip every instance.
    corp = tmp_path / "corpus"
    corp.mkdir()
    (corp / "empty.inst").write_text(emit_instance(build_instance(0, 2, [])))
    (corp / "pair.inst").write_text(emit_instance(build_instance(2, 1, [(0, 1)])))
    # analyze gets 2 jobs, so that only eps can fail it; bench and audit take the directory.
    where = {"bench": corp, "audit": corp, "analyze": corp / "pair.inst"}.get(
        argv[0], corp / "empty.inst")
    out = tmp_path / "out"
    assert main([*argv, "--input", str(where), f"--eps={eps}", "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("eps", ["1e-310", "1e-400"])
@pytest.mark.parametrize("argv", [["solve", "--alg", "qptas"], ["analyze", "levels"], ["bench"]],
                         ids=["solve", "analyze", "bench"])
def test_eps_too_small_for_a_float_is_a_usage_error(tmp_path, capsys, argv, eps):
    # Both lie in (0, 1], but log2(n)/eps overflows a float (1e-310) or
    # divides by a float zero (1e-400) where the family picks its split.
    corp = _gen_corpus(tmp_path, {"chain-05-m1"})
    where = corp if argv[0] == "bench" else corp / "chain-05-m1.inst"
    out = tmp_path / "out"
    rc = main([*argv, "--input", str(where), f"--eps={eps}", "--output", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if argv[0] == "bench":
        assert rc == 0
        rows = {r["algorithm"]: r for r in csv.DictReader(out.read_text().splitlines())}
        assert "too small" in rows["qptas"]["error"]
        assert rows["ls"]["error"] == ""
    else:
        assert rc == 2
        assert err.startswith("error: ") and "too small" in err
        assert not out.exists()


@pytest.mark.parametrize("eps", ["1e-1000000000", "1e1000000000", "3e-4300", "1E+4300"])
@pytest.mark.parametrize(
    "argv",
    [["solve", "--alg", "qptas"], ["bench"], ["analyze", "levels"], ["audit"]],
    ids=["solve", "bench", "analyze", "audit"],
)
def test_eps_with_a_huge_exponent_is_a_usage_error(tmp_path, capsys, argv, eps):
    # Fraction("1e-1000000000") builds 10**(10**9) and never returns; at
    # exponent 4300 its value printed in the error message overflowed
    # Python's int-to-text limit and raised a traceback.
    corp = _gen_corpus(tmp_path, {"chain-05-m1"})
    where = corp / "chain-05-m1.inst" if argv[0] in ("solve", "analyze") else corp
    out = tmp_path / "out"
    began = time.perf_counter()
    rc = main([*argv, "--input", str(where), f"--eps={eps}", "--output", str(out)])
    assert time.perf_counter() - began < 1
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: bad eps {eps!r}; its exponent must lie in -1000..1000\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("eps", ["0." + "1" * 4300, "1" * 4300 + "." + "1" * 4300],
                         ids=["below-1", "above-1"])
@pytest.mark.parametrize(
    "argv",
    [["solve", "--alg", "qptas"], ["bench"], ["analyze", "levels"], ["audit"]],
    ids=["solve", "bench", "analyze", "audit"],
)
def test_eps_with_a_long_mantissa_is_a_usage_error(tmp_path, capsys, argv, eps):
    # Such an eps has a denominator or numerator of 4301 digits, which the
    # error messages could not print: solve and analyze raised a ValueError
    # traceback, bench put that ValueError's text in the qptas error cell,
    # and audit skipped every instance with it.
    corp = _gen_corpus(tmp_path, {"layered-16-m2"})
    where = corp / "layered-16-m2.inst" if argv[0] in ("solve", "analyze") else corp
    out = tmp_path / "out"
    began = time.perf_counter()
    rc = main([*argv, "--input", str(where), f"--eps={eps}", "--output", str(out)])
    assert time.perf_counter() - began < 1
    assert rc == 2
    digits = sum(c.isdigit() for c in eps)
    assert capsys.readouterr().err == f"error: bad eps: {digits} digits, over the 1000 allowed\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["solve", "--alg", "qptas"], ["bench"]], ids=["solve", "bench"])
def test_a_huge_machine_count_with_a_bad_stride_is_reported(tmp_path, capsys, argv):
    # m/eps for a 4299-digit m at eps 0.07 is a fraction of 4301 digits; its
    # message used to print it and raised a ValueError instead. The message
    # names m and eps, and the family is checked before the 3-chain is
    # padded with m chains of dummies.
    big = "9" * 4299
    corp = tmp_path / "corpus"
    corp.mkdir()
    inst = corp / "big-m.inst"
    inst.write_text(f"jobs 3\nmachines {big}\nedge 0 1\nedge 1 2\n")
    out = tmp_path / "out"
    where = inst if argv[0] == "solve" else corp
    began = time.perf_counter()
    rc = main([*argv, "--input", str(where), "--eps", "0.07", "--output", str(out)])
    assert time.perf_counter() - began < 1
    message = f"m/eps must be a positive integer, got m = {big}, eps = 7/100"
    err = capsys.readouterr().err
    if argv[0] == "solve":
        assert rc == 2
        assert err == f"error: {message}\n"
        assert not out.exists()
    else:
        assert rc == 0 and err == ""
        rows = {r["algorithm"]: r for r in csv.DictReader(out.read_text().splitlines())}
        assert rows["qptas"]["error"] == message
        assert (rows["ls"]["makespan"], rows["ls"]["error"]) == ("3", "")


def _huge_m_corpus(tmp_path, n, edges):
    corp = tmp_path / "corpus"
    corp.mkdir()
    inst = corp / "huge-m.inst"
    lines = [f"jobs {n}", f"machines {'9' * 4299}", *(f"edge {u} {v}" for u, v in edges)]
    inst.write_text("\n".join(lines) + "\n")
    return corp, inst


def test_a_huge_machine_count_is_refused_before_padding(tmp_path, capsys):
    # The 3-chain's optimum 3 pads to T* = 4 with one dummy per machine: a
    # 4299-digit dummy count, which ended in an OverflowError traceback and
    # exit 1 on solve and analyze levels, and in a traceback on audit and
    # bench.
    corp, inst = _huge_m_corpus(tmp_path, 3, [(0, 1), (1, 2)])
    refused = f"padding horizon 3 to 4 takes m * 1 dummy jobs, over the {DUMMY_MAX} allowed"
    out = tmp_path / "out"
    for argv in (["solve", "--alg", "qptas"], ["analyze", "levels"]):
        assert main([*argv, "--input", str(inst), "--eps", "1", "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {refused}\n"
        assert not out.exists()
    assert main(["audit", "--input", str(corp), "--eps", "1", "--output", str(out)]) == 0
    assert capsys.readouterr().err == f"skipping huge-m: {refused}\n"
    assert out.read_text() == ",".join(cli.AUDIT_COLUMNS) + "\n"
    assert main(["bench", "--input", str(corp), "--eps", "1", "--output", str(out)]) == 0
    rows = {r["algorithm"]: r for r in csv.DictReader(out.read_text().splitlines())}
    assert (rows["qptas"]["makespan"], rows["qptas"]["error"]) == ("", refused)
    assert (rows["cg"]["makespan"], rows["cg"]["opt"], rows["cg"]["error"]) == ("3", "3", "")


@pytest.mark.parametrize("n, edges", [(3, []), (2, [(0, 1)])], ids=["edgeless-3", "chain-2"])
def test_a_huge_machine_count_without_padding_runs(tmp_path, capsys, n, edges):
    # The optimum (1 or 2) is a power of two, so no dummy is needed. The
    # depth bounds and the degenerate-count bound converted m to a float
    # and raised OverflowError on solve, audit and bench.
    corp, inst = _huge_m_corpus(tmp_path, n, edges)
    T = len(edges) + 1  # the longest chain; m >= n
    out = tmp_path / "out"
    assert main(["solve", "--alg", "qptas", "--input", str(inst), "--eps", "1",
                 "--output", str(out)]) == 0
    assert capsys.readouterr().out.startswith(f"makespan={T} discarded=0 ")
    assert main(["verify", "--input", str(inst), "--schedule", str(out)]) == 0
    assert main(["audit", "--input", str(corp), "--eps", "1", "--output", str(out)]) == 0
    rows = {r["claim"]: r for r in csv.DictReader(out.read_text().splitlines())}
    assert all(r["violations"] == "0" for r in rows.values())
    assert main(["bench", "--input", str(corp), "--eps", "1", "--output", str(out)]) == 0
    rows = {r["algorithm"]: r for r in csv.DictReader(out.read_text().splitlines())}
    assert (rows["qptas"]["makespan"], rows["qptas"]["error"]) == (str(T), "")
    assert capsys.readouterr().err == ""
    argv = ["analyze", "levels", "--input", str(inst), "--eps", "1", "--output", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == f"offset=0 bucket=0 horizon={T} padded_jobs={n}\n"


def test_audit_skips_a_stride_too_long_to_print(tmp_path, capsys):
    # The shift-bound row's population is the stride m/eps. For 3 edgeless
    # jobs on 4299-digit machines it has 4301 digits at eps 1/11, which csv
    # could not turn into text: audit ended in a ValueError traceback.
    corp, _ = _huge_m_corpus(tmp_path, 3, [])
    out = tmp_path / "audit.csv"
    assert main(["audit", "--input", str(corp), "--eps", "1/11", "--output", str(out)]) == 0
    too_long = f"m/eps has more than {STRIDE_DIGITS} digits, too many to print"
    assert capsys.readouterr().err == f"skipping huge-m: {too_long}\n"
    assert out.read_text() == ",".join(cli.AUDIT_COLUMNS) + "\n"
    # At eps 1/2 the stride 2m has 4300 digits and prints.
    assert main(["audit", "--input", str(corp), "--eps", "1/2", "--output", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = [
        (r["claim"], r["instance"], r["population"], r["violations"], r["observed"], r["bound"])
        for r in csv.DictReader(out.read_text().splitlines())
    ]
    stride = str(2 * (10**4299 - 1))
    assert len(stride) == STRIDE_DIGITS
    assert rows == [
        ("unique-level", "huge-m", "3", "0", "1.000000", "1.000000"),
        ("shift-bound", "huge-m", stride, "0", "0.000000", "0.500000"),
        ("window-slack", "huge-m", "0", "0", "0.000000", "0.000000"),
        ("level-count", "huge-m", "1", "0", "0.000000", "1.952245"),
        ("degenerate-count", "huge-m", "0", "0", "0.000000", "0.000000"),
        ("idle-slots", "huge-m", "0", "0", "0.000000", "0.000000"),
        ("recursion-depth-analysis", "huge-m", "0", "0", "0.000000", "1.000000"),
    ]


@pytest.mark.parametrize("n", [0, 1])
def test_laminar_eps_check_does_not_depend_on_the_job_count(tmp_path, capsys, n):
    # m/eps = 4/3 is no integer, and 1e-400 is a float zero; an empty
    # instance used to exit 0 at both.
    corp = tmp_path / "corpus"
    corp.mkdir()
    inst = corp / "tiny.inst"
    inst.write_text(emit_instance(build_instance(n, 1, [])))
    for eps, message in (("3/4", "m/eps must be a positive integer"),
                         ("1e-400", "eps is too small")):
        out = tmp_path / "s.sched"
        assert main(["solve", "--input", str(inst), "--alg", "qptas", f"--eps={eps}",
                     "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()
        bench = tmp_path / "b.csv"
        assert main(["bench", "--input", str(corp), f"--eps={eps}", "--output", str(bench)]) == 0
        rows = {r["algorithm"]: r for r in csv.DictReader(bench.read_text().splitlines())}
        assert rows["qptas"]["error"].startswith(message)
        assert rows["qptas"]["makespan"] == ""


def test_cyclic_instance_exits_2(tmp_path, capsys):
    inst = tmp_path / "cycle.inst"
    inst.write_text("jobs 2\nmachines 1\nedge 0 1\nedge 1 0\n")
    assert main(["solve", "--input", str(inst), "--alg", "ls"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("n", [10**20, 1 << 62], ids=["overflow", "memory"])
def test_a_huge_job_count_exits_2(tmp_path, capsys, n):
    # build_instance's per-job lists raised OverflowError at 10**20 jobs and
    # MemoryError at 2**62: solve, bench and gen printed a traceback and exited 1.
    corp = tmp_path / "corpus"
    corp.mkdir()
    inst = corp / "huge-n.inst"
    inst.write_text(f"jobs {n}\nmachines 2\n")
    refused = f"{inst}: line 1: job count must be <= {JOBS_MAX}, got {n}"
    out = tmp_path / "out"
    for argv in (["solve", "--alg", "ls", "--input", str(inst)], ["bench", "--input", str(corp)]):
        assert main([*argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {refused}\n"
        assert not out.exists()
    assert main(["gen", "--kind", "antichain", "--n", str(n), "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"error: n must be in [0, {JOBS_MAX}], got {n}\n"
    assert not out.exists()


@st.composite
def _instance_texts(draw):
    """Instance text with any edge list: cycles, self-loops, ids past n, m >= n."""
    n = draw(st.integers(min_value=0, max_value=10))
    m = draw(st.integers(min_value=0, max_value=12))
    # One text in eight has 4299-digit machines, where m/eps outgrows
    # float and str() alike.
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        m = 10**4299 - 1
    # One text in eight has a 20-digit job count, far above JOBS_MAX.
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        n = 10**20 - 1
    # One edge list in five may name job n, one past the last job.
    top = n if draw(st.integers(min_value=0, max_value=4)) == 0 else max(n - 1, 0)
    ids = st.integers(min_value=0, max_value=top)
    edges = draw(st.lists(st.tuples(ids, ids), max_size=15))
    lines = [f"jobs {n}", f"machines {m}", *(f"edge {u} {v}" for u, v in edges)]
    # One text in ten carries a malformed or stray line.
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        junk = draw(st.sampled_from(["edge 1", "edge a b", "jobs 3", "edge -1 0", "# note"]))
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), junk)
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_instance_texts(), st.sampled_from(["auto", "1", "3"]))
# At eps 1/11 audit's stride for this file has 4301 digits.
@example(f"jobs 3\nmachines {'9' * 4299}\n", "auto")
# A job count that build_instance could not allocate.
@example("jobs 100000000000000000000\nmachines 1\n", "auto")
def test_any_instance_text_keeps_the_exit_code_contract(tmp_path, capsys, text, horizon):
    # parse -> solve (every algorithm) -> verify exits 0, 1 or 2 and never
    # raises; a schedule that solve wrote verifies clean. So do bench and
    # audit on a corpus of this one file, and analyze levels.
    corpus = tmp_path / "corpus"
    corpus.mkdir(exist_ok=True)
    inst = corpus / "fuzz.inst"
    inst.write_text(text)
    sched = tmp_path / "fuzz.sched"
    exhaustive = ["--alg", "qptas", "--mode", "exhaustive"]
    solves = (
        ["--alg", "exact"],
        ["--alg", "ls"],
        ["--alg", "ls", "--order", "cg"],
        ["--alg", "cg"],
        ["--alg", "qptas", "--horizon", horizon],
        exhaustive,
        [*exhaustive, "--kmax", "2", "--horizon", horizon],
    )
    for alg in solves:
        sched.unlink(missing_ok=True)
        rc = main(["solve", "--input", str(inst), *alg, "--output", str(sched)])
        assert rc in (0, 1, 2)
        if rc == 0:
            assert main(["verify", "--input", str(inst), "--schedule", str(sched)]) == 0
        else:
            assert not sched.exists()
            assert main(["verify", "--input", str(inst), "--schedule", str(sched)]) in (1, 2)
        assert "Traceback" not in capsys.readouterr().err
    for eps in ("1", "2/3", "1/11"):
        for argv in (["bench", "--input", str(corpus)], ["audit", "--input", str(corpus)],
                     ["analyze", "levels", "--input", str(inst)]):
            assert main([*argv, "--eps", eps, "--output", str(sched)]) in (0, 1, 2)
            assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("algs", ["ls,qptsa", ""], ids=["typo", "empty"])
def test_unknown_bench_algorithm_exits_2(tmp_path, capsys, monkeypatch, algs):
    # The names are checked before any instance is solved; they used to
    # become an `unknown algorithm` error in each row, with exit 0.
    corp = _gen_corpus(tmp_path, {"chain-05-m1"})
    for mod, name in ((oracle, "certified_optimum"), (oracle, "optimal_makespan"),
                      (cli, "list_schedule")):
        monkeypatch.setattr(mod, name, lambda *a: pytest.fail("bench solved an instance"))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--input", str(corp), "--alg", algs, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown algorithm ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "case", ["solve-input-missing", "solve-input-dir", "verify-schedule-dir", "gen-output-dir",
             "gen-outdir-file", "solve-input-not-utf8", "bench-corpus-malformed",
             "audit-corpus-not-utf8", "verify-schedule-malformed"])
def test_unreadable_or_unwritable_path_exits_2(tmp_path, capsys, case):
    # Each message names the offending path; a parse or decode error used
    # to give only the line or the codec's complaint.
    inst = tmp_path / "chain.inst"
    inst.write_text(emit_instance(build_instance(2, 1, [(0, 1)])))
    garbled = tmp_path / "garbled.inst"
    garbled.write_bytes(b"jobs 2\nmachines 1\n# \xff\xfe\n")
    corp = tmp_path / "corp"
    corp.mkdir()
    (corp / "a.inst").write_text(inst.read_text())
    zbad = corp / "zbad.inst"
    zbad.write_text("jobs 2\nmachines 1\nedge 0 x\n")
    latin = tmp_path / "latin"
    latin.mkdir()
    (latin / "a.inst").write_bytes(garbled.read_bytes())
    bad_sched = tmp_path / "bad.sched"
    bad_sched.write_text("makespan 2\njob 0 zero\n")
    argv, path = {
        "solve-input-missing": (
            ["solve", "--input", str(tmp_path / "nope.inst"), "--alg", "exact"],
            tmp_path / "nope.inst",
        ),
        "solve-input-dir": (["solve", "--input", str(tmp_path), "--alg", "ls"], tmp_path),
        "verify-schedule-dir": (
            ["verify", "--input", str(inst), "--schedule", str(tmp_path)], tmp_path
        ),
        "gen-output-dir": (
            ["gen", "--kind", "chain", "--n", "2", "--output", str(tmp_path)], tmp_path
        ),
        "gen-outdir-file": (["gen", "--corpus", "standard", "--outdir", str(inst)], inst),
        "solve-input-not-utf8": (["solve", "--input", str(garbled), "--alg", "ls"], garbled),
        "bench-corpus-malformed": (["bench", "--input", str(corp)], zbad),
        "audit-corpus-not-utf8": (["audit", "--input", str(latin)], latin / "a.inst"),
        "verify-schedule-malformed": (
            ["verify", "--input", str(inst), "--schedule", str(bad_sched)], bad_sched
        ),
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(path) in err


# sha256 of deterministic outputs over the standard corpus. A change that
# alters any of them on purpose updates the digest and says so.
GOLDEN = {
    "bench": "4bbdda249bdca406acb230906d4e106c024c4515ff084dfbb715494794e67172",
    "audit-eps-1": "f116b5853d6879151404faa0bc815823f124f2340e7f605b7276e0b0834c6794",
    "audit-eps-1/2": "3b1828fb7d85a93f3b8c7c987e034e0dfa08c6ed13717a2164d10cf05e5509c9",
    "analyze-levels": "9a45cec427639d0c19206ba3d0540334dcf5033bf61dd8cb2927cc46590edac6",
}


def test_deterministic_outputs_match_golden_digests(tmp_path, capsys):
    corp = _gen_corpus(tmp_path)
    got = {}
    for name, argv in (
        ("bench", ["bench"]),
        ("audit-eps-1", ["audit", "--eps", "1"]),
        ("audit-eps-1/2", ["audit", "--eps", "1/2"]),
    ):
        out = tmp_path / "out.csv"
        assert main([*argv, "--input", str(corp), "--output", str(out)]) == 0
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    # Instances above the oracle cap exit 2 and write nothing; the exit code
    # is part of the digest.
    levels = hashlib.sha256()
    for path in sorted(corp.glob("*.inst")):
        out = tmp_path / f"{path.stem}.csv"
        rc = main(["analyze", "levels", "--input", str(path), "--output", str(out)])
        levels.update(f"{path.stem} {rc}\n".encode())
        if rc == 0:
            levels.update(out.read_bytes())
    got["analyze-levels"] = levels.hexdigest()
    capsys.readouterr()
    assert got == GOLDEN


# sha256 of `solve --alg exact` over the standard corpus: the schedule file
# and the exit code of each instance. It pins the oracle's lexicographic
# tie-break directly.
GOLDEN_EXACT = "1dcd75c02d02650e7800dc92a2ab0f41abb038460277a10b54a552897ce35bca"


def test_exact_schedules_match_golden_digest(tmp_path, capsys):
    corp = _gen_corpus(tmp_path)
    digest = hashlib.sha256()
    for path in sorted(corp.glob("*.inst")):
        out = tmp_path / f"{path.stem}.sched"
        rc = main(["solve", "--input", str(path), "--alg", "exact", "--output", str(out)])
        digest.update(f"{path.stem} {rc}\n".encode())
        if rc == 0:
            digest.update(out.read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == GOLDEN_EXACT


# sha256 of `solve --alg qptas` per instance: name, exit code, the
# `makespan= discarded= explored=` line and the schedule file. Laminar mode
# runs at the auto horizon over the standard corpus and two layered instances
# near n = 200; exhaustive mode runs at the lower bound with --kmax 2 and
# --kmax n on three small instances, one of them infeasible at its bound.
GOLDEN_QPTAS = {
    "laminar": "4e4e05f8faed7e027e59d794997030b313dbc61c41addd606fde0234de067b6d",
    "exhaustive": "9eab7aa5bcf0281492c5911084a0df52a53543dd6f99103f0ef85d2b38e9bfbf",
}

_QPTAS_LAYERED = (
    GeneratorSpec("layered", 200, 4, seed=3, layers=20, width=10, edge_prob=0.05),
    GeneratorSpec("layered", 192, 2, seed=4, layers=48, width=4, edge_prob=0.3),
)
_QPTAS_SMALL = ("diamondmesh-07-m2", "randomorder-06-m2")


def _qptas_digest(tmp_path, capsys, runs):
    digest = hashlib.sha256()
    for name, path, extra in runs:
        out = tmp_path / f"{name}.sched"
        rc = main(["solve", "--input", str(path), "--alg", "qptas", *extra, "--output", str(out)])
        digest.update(f"{name} {rc}\n".encode())
        digest.update(capsys.readouterr().out.encode())
        if rc == 0:
            digest.update(out.read_bytes())
    return digest.hexdigest()


def test_qptas_solves_match_golden_digests(tmp_path, capsys):
    corp = _gen_corpus(tmp_path)
    for i, spec in enumerate(_QPTAS_LAYERED):
        (corp / f"layered-gen-{i}.inst").write_text(emit_instance(generate(spec)))
    laminar = [(p.stem, p, []) for p in sorted(corp.glob("*.inst"))]
    small = [(cid, corp / f"{cid}.inst") for cid in _QPTAS_SMALL]
    full = tmp_path / "layered-06-m2-full.inst"
    full.write_text(emit_instance(generate(
        GeneratorSpec("layered", 6, 2, seed=1, layers=2, width=3, edge_prob=1.0))))
    small.append((full.stem, full))
    exhaustive = []
    for name, path in small:
        inst = parse_instance(path.read_text())
        bound = max(-(-inst.n // inst.m), longest_chain(inst))
        for k in (2, inst.n):
            argv = ["--mode", "exhaustive", "--horizon", str(bound), "--kmax", str(k)]
            exhaustive.append((f"{name}-k{k}", path, argv))
    got = {
        "laminar": _qptas_digest(tmp_path, capsys, laminar),
        "exhaustive": _qptas_digest(tmp_path, capsys, exhaustive),
    }
    assert got == GOLDEN_QPTAS


# sha256 of deep `solve --alg qptas --mode exhaustive` runs at the lower bound
# on a full 2x3 layered instance, which is infeasible there: per (depth_max,
# kmax), the exit code, the `makespan= discarded= explored=` line and the
# schedule file. At depth >= 2 the children explore guesses of their own, so
# this pins `explored=` through the recursion.
GOLDEN_QPTAS_DEEP = "3584d6c3cdf7128c903e94ef049ba73c03d1a6adba18c4c5c8566c60cc43bad0"


def test_deep_exhaustive_solves_match_golden_digest(tmp_path, capsys):
    inst = tmp_path / "layered-06-m2-full.inst"
    assert main(["gen", "--kind", "layered", "--n", "6", "--m", "2", "--layers", "2",
                 "--width", "3", "--edge-prob", "1.0", "--seed", "0",
                 "--output", str(inst)]) == 0
    parsed = parse_instance(inst.read_text())
    bound = max(-(-parsed.n // parsed.m), longest_chain(parsed))
    runs = [
        (f"d{depth}-k{k}", inst, ["--mode", "exhaustive", "--horizon", str(bound),
                                  "--depth-max", str(depth), "--kmax", str(k)])
        for depth, k in ((2, 2), (2, 6), (3, 2))
    ]
    assert _qptas_digest(tmp_path, capsys, runs) == GOLDEN_QPTAS_DEEP


# sha256 of the baseline solves, `solve --alg cg`, `--alg ls` and `--alg ls
# --order cg`, per instance: name, exit code and the schedule file. They run
# over the standard corpus, the two layered instances of GOLDEN_QPTAS and one
# layered instance at n = 800, so the Coffman-Graham tie-break is pinned at
# scale and not only through bench's makespans.
GOLDEN_BASELINES = "64fd0421807bff755794a1f34a48ce9418bd2e972fd7935f15e0d04e3eff3c42"

_BASELINE_RUNS = (
    ("cg", ["--alg", "cg"]),
    ("ls", ["--alg", "ls"]),
    ("ls-cg", ["--alg", "ls", "--order", "cg"]),
)


def test_baseline_solves_match_golden_digest(tmp_path, capsys):
    corp = _gen_corpus(tmp_path)
    specs = (
        *_QPTAS_LAYERED,
        GeneratorSpec("layered", 800, 4, seed=3, layers=20, width=40, edge_prob=0.05),
    )
    for i, spec in enumerate(specs):
        (corp / f"layered-gen-{i}.inst").write_text(emit_instance(generate(spec)))
    out = tmp_path / "out.sched"
    digest = hashlib.sha256()
    for path in sorted(corp.glob("*.inst")):
        for tag, argv in _BASELINE_RUNS:
            rc = main(["solve", "--input", str(path), *argv, "--output", str(out)])
            digest.update(f"{path.stem} {tag} {rc}\n".encode())
            if rc == 0:
                digest.update(out.read_bytes())
    capsys.readouterr()
    assert digest.hexdigest() == GOLDEN_BASELINES
