import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import treea1.cli
import treea1.rationals
import treea1.search
import treea1.verify
from treea1 import (
    MAX_DECIMAL_EXPONENT, MAX_MOVES, MAX_WEIGHTS, extremal_exact, make_shape, random_weight, weight_from_text,
    weight_to_text,
)
from treea1.cli import main


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# manifest: manifest.json"
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


def test_verify_exhaustive_small_grid(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        ["verify", "--k", "2", "--depth", "2", "--grid", "1,2,3", "--exhaustive", "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "81 weights checked, zero violations, worst margin 0",
        "37 weights attain the bound exactly",
        "worst-margin weight: 2 2 1 1 1 1",
    ]
    header, rows = read_csv(out / "report.csv")
    assert len(rows) == 81
    assert header[:2] == ["trial", "weight_hash"]
    flag_columns = header.index("bound_holds")
    assert all(all(cell == "true" for cell in row[flag_columns:]) for row in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "verify"
    assert manifest["outputs"] == ["report.csv"]
    assert manifest["parameters"]["exhaustive"] is True


def test_verify_random_campaign(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        ["verify", "--k", "3", "--depth", "2", "--trials", "20", "--seed", "7",
         "--grid", "1,2,5", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out / "report.csv")
    assert len(rows) == 20


def test_verify_usage_errors(tmp_path):
    assert run_cli(["verify", "--k", "1", "--depth", "2", "--out", str(tmp_path / "x")]) == 2
    assert run_cli(["verify", "--k", "2", "--depth", "2", "--grid", "1,zebra",
                    "--out", str(tmp_path / "y")]) == 2
    assert run_cli(["verify", "--k", "2", "--depth", "2", "--grid", ",", "--out", str(tmp_path / "g")]) == 2
    assert not (tmp_path / "g").exists()
    assert run_cli(["verify"]) == 2  # missing required flags


def test_every_command_refuses_a_shape_above_max_leaves(tmp_path, capsys):
    weight_file = tmp_path / "huge.txt"
    weight_file.write_text("10 1000000000 1\n")
    assert run_cli(["verify", "--k", "10", "--depth", "9", "--out", str(tmp_path / "v")]) == 2
    assert run_cli(["inspect", "--weight", str(weight_file)]) == 2
    assert run_cli(["extremal", "--k", "2", "--c", "2", "--mode", "paper", "--depths", "1000000000",
                    "--out", str(tmp_path / "e")]) == 2
    assert run_cli(["search", "--k", "10", "--depth", "9", "--iters", "1", "--restarts", "1",
                    "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err.count("leaves") == 4


def test_campaign_and_search_refuse_runs_above_their_limits(tmp_path, capsys):
    # refused before any seed or trace list is built, so this allocates nothing
    assert run_cli(["verify", "--k", "2", "--depth", "2", "--trials", str(MAX_WEIGHTS + 1),
                    "--out", str(tmp_path / "v")]) == 2
    assert run_cli(["verify", "--k", "2", "--depth", "2", "--trials", "1000000000",
                    "--out", str(tmp_path / "v")]) == 2
    assert run_cli(["search", "--k", "2", "--depth", "2", "--iters", "1000000000000", "--restarts", "1",
                    "--out", str(tmp_path / "s")]) == 2
    assert run_cli(["search", "--k", "2", "--depth", "2", "--iters", str(MAX_MOVES // 2), "--restarts", "3",
                    "--out", str(tmp_path / "s")]) == 2
    # an exhaustive grid of 2**16384 weights: its count has too many digits to print
    assert run_cli(["verify", "--k", "2", "--depth", "14", "--grid", "1,2", "--exhaustive",
                    "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"at most {MAX_WEIGHTS}") == 2 and err.count(f"at most {MAX_MOVES}") == 2
    assert f"2**16384 weights is more than {MAX_WEIGHTS}" in err


def test_verify_is_byte_deterministic(tmp_path):
    args = ["verify", "--k", "2", "--depth", "3", "--trials", "15", "--seed", "3",
            "--grid", "1,2,3"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()


def test_verify_violation_exits_1_with_counterexample(tmp_path, monkeypatch):
    monkeypatch.setattr(treea1.verify, "check_decomposition", lambda w: False)
    out = tmp_path / "run"
    code = run_cli(
        ["verify", "--k", "2", "--depth", "1", "--trials", "3", "--seed", "1",
         "--grid", "1,2", "--out", str(out)]
    )
    assert code == 1
    counterexample = (out / "counterexample.txt").read_text()
    assert counterexample.startswith("2 1 ")
    assert "check: decomposition" in counterexample
    assert not (out / "report.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["counterexample.txt"]


def test_exhaustive_counterexample_manifest_records_no_seed(tmp_path, monkeypatch):
    # an exhaustive campaign draws nothing, so its manifest seed is null whether it passes or fails
    monkeypatch.setattr(treea1.verify, "check_decomposition", lambda w: False)
    out = tmp_path / "run"
    code = run_cli(["verify", "--k", "2", "--depth", "1", "--grid", "1,2", "--exhaustive", "--seed", "5",
                    "--out", str(out)])
    assert code == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["counterexample.txt"]
    assert manifest["seed"] is None


def test_refused_runs_leave_no_directory_they_created(tmp_path, capsys):
    refused = [
        ["verify", "--k", "2", "--depth", "2", "--threads", "0"],
        ["search", "--k", "2", "--depth", "2", "--iters", "0", "--restarts", "1"],
        ["extremal", "--k", "0", "--c", "2"],
    ]
    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "keep.txt").write_text("kept\n")
    for argv in refused:
        assert run_cli(argv + ["--out", str(tmp_path / "a" / "b")]) == 2
        assert not (tmp_path / "a").exists()
        assert run_cli(argv + ["--out", str(existing)]) == 2
        assert sorted(p.name for p in existing.iterdir()) == ["keep.txt"]
        assert (existing / "keep.txt").read_text() == "kept\n"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 6 and all(line.startswith("error: ") for line in err)


def test_negative_seeds_exit_2_and_leave_no_directory(tmp_path, capsys):
    # random.Random seeds with abs(seed): -7 would write the report of 7 under another manifest seed
    refused = [
        ["verify", "--k", "2", "--depth", "3", "--trials", "5", "--seed", "-7"],
        ["search", "--k", "2", "--depth", "2", "--iters", "5", "--restarts", "1", "--seed", "-3"],
    ]
    for argv in refused:
        assert run_cli(argv + ["--out", str(tmp_path / "run")]) == 2
        assert not (tmp_path / "run").exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: seed must be a non-negative integer, got -7",
                   "error: seed must be a non-negative integer, got -3"]


def test_verify_reports_values_outside_the_floats(tmp_path):
    # 1e-400 underflows a float to 0.0 and c = (1 + 1e-400) / (2 * 1e-400) overflows one
    out = tmp_path / "run"
    code = run_cli(["verify", "--k", "2", "--depth", "1", "--grid", "1e-400,1", "--trials", "3", "--out", str(out)])
    assert code == 0
    assert not (out / "counterexample.txt").exists()
    header, rows = read_csv(out / "report.csv")
    assert len(rows) == 3
    decimal_columns = [i for i, name in enumerate(header) if name.endswith("_dec")]
    assert all(float(row[i]) >= 0 for row in rows for i in decimal_columns)  # every one parses
    assert {row[header.index("c_dec")] for row in rows} <= {"1", "5e+399"}


def test_extremal_exact_mode(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["extremal", "--k", "2", "--c", "2", "--mode", "exact", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["measured_c"] == "2"
    assert row["sup_ratio"] == "3"
    assert row["gap"] == "0"


def test_extremal_family_mode(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        ["extremal", "--k", "2", "--c", "2", "--mode", "paper", "--depths", "4,6,8", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out / "sweep.csv")
    assert len(rows) == 3
    idx = header.index("ratio_at_branch_scale")
    ratios = [Fraction(row[idx]) for row in rows]
    assert ratios == sorted(ratios)
    assert all(r < 3 for r in ratios)
    first = dict(zip(header, rows[0]))
    assert first["nominal_c"] == "7/4"
    assert first["measured_c"] == "5/2"


def test_extremal_reports_a_constant_above_the_floats(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["extremal", "--k", "2", "--c", "1e400", "--mode", "paper", "--depths", "2", "--out", str(out)])
    assert code == 0
    assert not (out / "counterexample.txt").exists()
    header, rows = read_csv(out / "sweep.csv")
    row = dict(zip(header, rows[0]))
    assert Fraction(row["nominal_c"]) == 10**400
    assert row["nominal_c_dec"] == "1e+400"
    assert row["bound_dec"] == "2e+400"  # k*c - k + 1 = 2e400 - 1


def test_extremal_violation_exits_1_with_counterexample(tmp_path, monkeypatch):
    original = treea1.verify.sup_ratio
    monkeypatch.setattr(treea1.verify, "sup_ratio", lambda profile: (original(profile)[0] + 2, original(profile)[1]))
    out = tmp_path / "run"
    code = run_cli(["extremal", "--k", "2", "--c", "2", "--mode", "paper", "--depths", "4", "--out", str(out)])
    assert code == 1
    counterexample = (out / "counterexample.txt").read_text()
    assert counterexample.startswith("2 4 ")
    assert "check: bound" in counterexample
    assert not (out / "sweep.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["counterexample.txt"]


def test_extremal_usage_errors(tmp_path, capsys):
    assert run_cli(["extremal", "--k", "2", "--c", "0.5", "--out", str(tmp_path / "x")]) == 2
    for mode in ("exact", "paper"):  # k is refused before 1/k**2 is formed
        out = tmp_path / f"k0-{mode}"
        assert run_cli(["extremal", "--k", "0", "--c", "2", "--mode", mode, "--out", str(out)]) == 2
        assert "error: homogeneity k must be an integer >= 2" in capsys.readouterr().err
        assert not (out / "counterexample.txt").exists()
    assert run_cli(
        ["extremal", "--k", "2", "--c", "2", "--mode", "paper", "--depths", "4",
         "--delta-steps", "1/3", "--out", str(tmp_path / "y")]
    ) == 2
    assert run_cli(["extremal", "--k", "2", "--c", "2", "--mode", "bogus",
                    "--out", str(tmp_path / "z")]) == 2
    assert run_cli(["extremal", "--k", "2", "--c", "2", "--mode", "paper", "--depths", "4,x",
                    "--out", str(tmp_path / "d")]) == 2
    assert "error: expected a comma-separated list of integers, got '4,x'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_search_command(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        ["search", "--k", "2", "--depth", "2", "--iters", "200", "--restarts", "2",
         "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["objective_at_most_one"] is True
    assert 0 < summary["best_objective"] <= 1 + 2.0**-40
    best = weight_from_text((out / "best_weight.txt").read_text())
    assert best.shape.leaf_count == 4
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert trace_lines[1] == "iteration,objective"
    assert len(trace_lines) == 2 + 400
    # the move counters live in the manifest only
    restarts = json.loads((out / "manifest.json").read_text())["search"]["restarts"]
    assert len(restarts) == 2
    assert all(r["accepted"] + r["rejected"] == 200 and r["fallbacks"] >= 0 for r in restarts)
    assert "accepted" not in (out / "summary.json").read_text()


def test_search_violation_exits_1_with_counterexample(tmp_path, monkeypatch):
    monkeypatch.setattr(treea1.search, "objective_exact", lambda w: Fraction(2))
    out = tmp_path / "run"
    code = run_cli(
        ["search", "--k", "2", "--depth", "2", "--iters", "20", "--restarts", "1",
         "--seed", "1", "--out", str(out)]
    )
    assert code == 1
    counterexample = (out / "counterexample.txt").read_text()
    assert counterexample.startswith("2 2 ")
    assert "check: objective" in counterexample
    assert not (out / "summary.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "search"
    assert manifest["outputs"] == ["counterexample.txt"]


def test_search_usage_error(tmp_path):
    assert run_cli(
        ["search", "--k", "2", "--depth", "2", "--iters", "0", "--restarts", "1",
         "--out", str(tmp_path / "x")]
    ) == 2


def _workers(outdir):
    return json.loads((outdir / "manifest.json").read_text())["workers"]


def test_verify_threads_flag_matches_serial(tmp_path):
    # 40 trials of 512 leaves is enough work for a real 2-worker pool
    args = ["verify", "--k", "2", "--depth", "9", "--trials", "40", "--seed", "4", "--grid", "1,2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--threads", "2", "--out", str(b)]) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert _workers(a) == 1
    assert _workers(b) == min(2, os.cpu_count() or 1)


def test_verify_below_the_pool_threshold_runs_in_one_process(tmp_path):
    args = ["verify", "--k", "2", "--depth", "2", "--trials", "10", "--seed", "4", "--grid", "1,2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--threads", "2", "--out", str(b)]) == 0
    assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    assert _workers(a) == _workers(b) == 1


def test_search_is_byte_deterministic(tmp_path):
    args = ["search", "--k", "2", "--depth", "2", "--iters", "100", "--restarts", "2", "--seed", "9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    for name in ("trace.csv", "best_weight.txt", "summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_inspect_json(tmp_path, capsys):
    weight_file = tmp_path / "w.txt"
    weight_file.write_text(weight_to_text(extremal_exact(2, 2)))
    code = run_cli(["inspect", "--weight", str(weight_file), "--t", "3/4", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a1_constant"] == "2"
    assert payload["bound"] == "3"
    assert payload["maximal_function"] == ["3", "2", "3", "2"]
    members = {(m["level"], m["index"]): m for m in payload["stopping_family"]}
    assert set(members) == {(0, 0), (2, 0), (2, 2)}
    assert members[(2, 0)]["star"] == [0, 0]
    assert members[(0, 0)]["leaves"] == [1, 3]
    assert payload["profile"]["pieces"] == [["1/2", "3"], ["1/2", "1"]]
    assert payload["audit"]["passed"] is True
    assert payload["audit"]["nodes"] == [[2, 0], [2, 2]]


def test_inspect_json_lists_fractional_member_averages(tmp_path, capsys):
    weight_file = tmp_path / "w.txt"
    weight_file.write_text("2 2 4 1 1 1\n")
    assert run_cli(["inspect", "--weight", str(weight_file), "--json"]) == 0
    members = json.loads(capsys.readouterr().out)["stopping_family"]
    assert [(m["level"], m["index"], m["average"], m["star"], m["leaves"]) for m in members] == [
        (0, 0, "7/4", None, [2, 3]),
        (1, 0, "5/2", [0, 0], [1]),
        (2, 0, "4", [1, 0], [0]),
    ]


def test_inspect_text_mode(tmp_path, capsys):
    weight_file = tmp_path / "w.txt"
    weight_file.write_text("2 1 4 1\n")
    code = run_cli(["inspect", "--weight", str(weight_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "a1 constant" in out and "5/2" in out


# sha256 of the text-mode stdout of ``inspect --weight <extremal_exact(2, 2)> --t 3/8``,
# recorded when text mode still printed its own walk over the report
INSPECT_TEXT = "35a2dad2b42cbdeb7aaeea489f1b39ea4982fda6cdb1e239eaf02c8d2e2e23f7"


def test_inspect_text_mode_matches_its_recorded_digest(tmp_path, capsys):
    weight_file = tmp_path / "w.txt"
    weight_file.write_text(weight_to_text(extremal_exact(2, 2)))
    assert run_cli(["inspect", "--weight", str(weight_file), "--t", "3/8"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == INSPECT_TEXT


def test_inspect_bound_violation_exits_1_with_the_weight(tmp_path, monkeypatch, capsys):
    original = treea1.verify.sup_ratio
    monkeypatch.setattr(treea1.verify, "sup_ratio", lambda profile: (original(profile)[0] + 2, original(profile)[1]))
    weight_file = tmp_path / "w.txt"
    weight_file.write_text(weight_to_text(extremal_exact(2, 2)))
    for mode in ([], ["--json"]):
        assert run_cli(["inspect", "--weight", str(weight_file), "--t", "3/8", *mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("violation: check 'bound' failed: sup_ratio=5 exceeds bound=3")
        assert captured.err.endswith(weight_to_text(extremal_exact(2, 2)))


def test_inspect_failed_audit_exits_1_with_the_weight(tmp_path, monkeypatch, capsys):
    original = treea1.cli.audit_superlevel
    monkeypatch.setattr(treea1.cli, "audit_superlevel",
                        lambda report, t: original(report, t)._replace(dominates_prefix=False))
    weight_file = tmp_path / "w.txt"
    weight_file.write_text(weight_to_text(extremal_exact(2, 2)))
    for mode in ([], ["--json"]):
        assert run_cli(["inspect", "--weight", str(weight_file), "--t", "3/8", *mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("violation: superlevel audit at t=3/8 failed: dominates_prefix")
        assert captured.err.endswith(weight_to_text(extremal_exact(2, 2)))
    # without --t no audit runs, so nothing fails
    assert run_cli(["inspect", "--weight", str(weight_file)]) == 0


def test_inspect_exits_1_when_the_superlevel_set_is_lost(tmp_path, monkeypatch, capsys):
    # an empty set while two leaves exceed the threshold: the audit's leafwise fallback fails
    monkeypatch.setattr(treea1.verify, "superlevel_set", lambda a, threshold: ())
    weight_file = tmp_path / "w.txt"
    weight_file.write_text(weight_to_text(extremal_exact(2, 2)))
    for mode in ([], ["--json"]):
        assert run_cli(["inspect", "--weight", str(weight_file), "--t", "3/4", *mode]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("violation: superlevel audit at t=3/4 failed: average_bounded")
        assert captured.err.endswith(weight_to_text(extremal_exact(2, 2)))


def test_a_reader_that_closes_stdout_does_not_change_the_exit_code(tmp_path):
    # the reader closes the pipe before the command writes: inspect's JSON of 4,096 leaves is larger
    # than a pipe buffer, and verify prints its summary after writing report.csv
    weight = tmp_path / "weight-4096.txt"
    weight.write_text(weight_to_text(random_weight(make_shape(2, 12), 0, "1,2,3,5,10,100".split(","))))
    src = Path(treea1.cli.__file__).parents[1]
    for argv in (["inspect", "--weight", str(weight), "--json"],
                 ["verify", "--k", "2", "--depth", "2", "--trials", "3", "--out", str(tmp_path / "run")],
                 ["--version"], ["--help"], ["verify", "--help"]):
        proc = subprocess.Popen([sys.executable, "-m", "treea1", *argv], stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={"PYTHONPATH": str(src)})
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err.decode()) == (0, "")
    assert (tmp_path / "run" / "report.csv").exists() and not (tmp_path / "run" / "counterexample.txt").exists()


def test_inspect_unreadable_file(tmp_path):
    assert run_cli(["inspect", "--weight", str(tmp_path / "missing.txt")]) == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("not a weight\n")
    assert run_cli(["inspect", "--weight", str(bad)]) == 2


def test_unusable_output_or_weight_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    undecodable = tmp_path / "latin1.txt"
    undecodable.write_bytes(b"2 1 1 \xff\n")
    for out in (taken, taken / "sub"):
        assert run_cli(["verify", "--k", "2", "--depth", "2", "--trials", "1", "--out", str(out)]) == 2
        assert run_cli(["extremal", "--k", "2", "--c", "2", "--out", str(out)]) == 2
        assert run_cli(["search", "--k", "2", "--depth", "2", "--iters", "1", "--restarts", "1",
                        "--out", str(out)]) == 2
    assert run_cli(["inspect", "--weight", str(undecodable)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 7 and all(line.startswith("error: ") for line in err)
    assert taken.read_text() == "a file, not a directory\n"


def _unwritable(out, name):
    """An output directory whose data file ``name`` is taken by a directory."""
    (out / name).mkdir(parents=True)
    return out


def test_verify_unwritable_report_exits_2(tmp_path, capsys):
    out = _unwritable(tmp_path / "run", "report.csv")
    assert run_cli(["verify", "--k", "2", "--depth", "2", "--trials", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "report.csv" in err and "Traceback" not in err
    assert not (out / "counterexample.txt").exists()


def test_search_unwritable_trace_exits_2(tmp_path, capsys):
    out = _unwritable(tmp_path / "run", "trace.csv")
    assert run_cli(["search", "--k", "2", "--depth", "2", "--iters", "5", "--restarts", "1",
                    "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "trace.csv" in err and "Traceback" not in err
    assert not (out / "counterexample.txt").exists()


def test_huge_decimal_exponents_exit_2_before_fraction_sees_them(tmp_path, monkeypatch, capsys):
    def guarded(value=0, *args):
        # without the guard in as_fraction this would form 10**999999999 and never return
        assert not (isinstance(value, str) and "999999999" in value), f"Fraction({value!r}) reached"
        return Fraction(value, *args)

    monkeypatch.setattr(treea1.rationals, "Fraction", guarded)
    weight_file = tmp_path / "w.txt"
    weight_file.write_text("2 1 1 1e999999999\n")
    plain = tmp_path / "plain.txt"
    plain.write_text("2 1 1 2\n")
    assert run_cli(["verify", "--k", "2", "--depth", "2", "--grid", "1,1e999999999",
                    "--out", str(tmp_path / "v")]) == 2
    assert run_cli(["extremal", "--k", "2", "--c", "1E+999999999", "--out", str(tmp_path / "e")]) == 2
    assert run_cli(["extremal", "--k", "2", "--c", "2", "--mode", "paper", "--depths", "4",
                    "--delta-steps", "1e-999999999", "--out", str(tmp_path / "d")]) == 2
    assert run_cli(["inspect", "--weight", str(plain), "--t", "1e-999999999"]) == 2
    assert run_cli(["inspect", "--weight", str(weight_file)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 5 and all("decimal exponent" in line and str(MAX_DECIMAL_EXPONENT) in line for line in err)


def test_values_beyond_the_int_string_limit_exit_2_with_no_traceback(tmp_path, capsys, int_str_limit):
    # each grid value parses, but c and the sup-ratio of a weight holding both have denominators of about 6,000 digits
    a, b = 10**2999 + 1, 10**2999 + 3
    grid = f"1/{a},1/{b},1"
    for extra in (["--trials", "4"], ["--exhaustive"]):
        depth = "2" if extra == ["--exhaustive"] else "3"
        out = tmp_path / "new" / "run"
        assert run_cli(["verify", "--k", "2", "--depth", depth, "--grid", grid, *extra, "--out", str(out)]) == 2
        assert not (tmp_path / "new").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: exact value ")
        assert f"more than {int_str_limit} digits" in err[0]
    weight = tmp_path / "w.txt"
    weight.write_text(f"2 2 1/{a} 1/{b} 1 1\n")
    for mode in ([], ["--json"]):
        assert run_cli(["inspect", "--weight", str(weight), *mode]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: exact value ")


def _verify_into(out):
    return run_cli(["verify", "--k", "2", "--depth", "1", "--trials", "3", "--seed", "1", "--grid", "1,2",
                    "--out", str(out)])


def test_a_rerun_replaces_the_other_outcomes_files(tmp_path, monkeypatch):
    out = tmp_path / "run"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")  # a file no command writes
    with monkeypatch.context() as patched:  # fail, then pass
        patched.setattr(treea1.verify, "check_decomposition", lambda w: False)
        assert _verify_into(out) == 1
    assert _verify_into(out) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "notes.txt", "report.csv"]
    with monkeypatch.context() as patched:  # pass, then fail
        patched.setattr(treea1.verify, "check_decomposition", lambda w: False)
        assert _verify_into(out) == 1
    assert sorted(p.name for p in out.iterdir()) == ["counterexample.txt", "manifest.json", "notes.txt"]
    assert json.loads((out / "manifest.json").read_text())["outputs"] == ["counterexample.txt"]
    assert (out / "notes.txt").read_text() == "kept\n"


def test_a_refused_rerun_removes_no_file(tmp_path, capsys):
    out = tmp_path / "run"
    out.mkdir()
    for name in ("counterexample.txt", "report.csv"):
        (out / name).write_text("old\n")
    assert run_cli(["verify", "--k", "2", "--depth", "1", "--threads", "0", "--out", str(out)]) == 2
    assert sorted(p.name for p in out.iterdir()) == ["counterexample.txt", "report.csv"]


def test_each_command_writes_the_data_files_a_rerun_removes(tmp_path, monkeypatch):
    runs = {
        "verify": ["--k", "2", "--depth", "1", "--trials", "2"],
        "extremal": ["--k", "2", "--c", "2"],
        "search": ["--k", "2", "--depth", "2", "--iters", "5", "--restarts", "1"],
    }
    for command, argv in runs.items():
        out = tmp_path / command
        out.mkdir()
        (out / "counterexample.txt").write_text("old\n")
        assert run_cli([command, *argv, "--out", str(out)]) == 0
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs == sorted(treea1.cli._DATA_FILES[command])
        assert sorted(p.name for p in out.iterdir()) == sorted(["manifest.json", *outputs])


def test_verify_reports_a_constant_above_its_bound(tmp_path, monkeypatch):
    # c = 1/2 gives the bound 2*c - 1 = 0 at k = 2, and a sup-ratio of 0 gives margin 0, so only c > bound fails
    monkeypatch.setattr(treea1.verify, "a1_constant", lambda a: Fraction(1, 2))
    monkeypatch.setattr(treea1.verify, "sup_ratio", lambda profile: (0, 1))
    out = tmp_path / "run"
    assert run_cli(["verify", "--k", "2", "--depth", "1", "--trials", "1", "--out", str(out)]) == 1
    counterexample = (out / "counterexample.txt").read_text()
    assert "check: bound\n" in counterexample
    assert counterexample.endswith("detail: trial 0: c=1/2 exceeds bound=0, impossible for c >= 1\n")
