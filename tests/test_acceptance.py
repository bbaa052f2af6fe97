"""Acceptance suite: every criterion checked at its stated tolerance.

All mathematical comparisons are exact rational comparisons (zero tolerance);
the only numeric thresholds are wall-clock budgets and the search target.
Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""
import itertools
import json
import time
from fractions import Fraction

import pytest

from treea1 import (
    audit_superlevel,
    check_rearrangement_bound,
    extremal_exact,
    extremal_family,
    family_constant_formula,
    fuzz_campaign,
    hill_climb,
    make_shape,
    make_step_weight,
    SearchConfig,
    sharpness_sweep,
)
from treea1.cli import main as cli_main

FUZZ_GRID = (1, 2, 3, 5, 10, 100)


def _check(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" — {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def fuzz_results():
    """10,000 seeded random weights over k in {2,3}, depths 1..5."""
    start = time.monotonic()
    summaries = []
    for k in (2, 3):
        for m in (1, 2, 3, 4, 5):
            summaries.append(
                fuzz_campaign(k, m, 1000, seed=1000 * k + m, grid=FUZZ_GRID, checks=("kadic",))
            )
    return time.monotonic() - start, summaries


@pytest.fixture(scope="module")
def exhaustive_result():
    """All 81 weights on k=2, m=2 over grid {1,2,3}, every check enabled."""
    start = time.monotonic()
    summary = fuzz_campaign(2, 2, 0, seed=0, grid=(1, 2, 3), exhaustive=True)
    return time.monotonic() - start, summary


def test_criterion_1_sharpness_equality():
    start = time.monotonic()
    r2 = check_rearrangement_bound(extremal_exact(2, 2))
    r3 = check_rearrangement_bound(extremal_exact(3, Fraction(3, 2)))
    elapsed = time.monotonic() - start
    exact = (
        (r2.c, r2.bound, r2.sup_ratio, r2.margin) == (2, 3, 3, 0)
        and (r3.c, r3.bound, r3.sup_ratio, r3.margin)
        == (Fraction(3, 2), Fraction(5, 2), Fraction(5, 2), 0)
    )
    _check(
        "criterion 1: sharpness equality for extremal weights",
        exact and elapsed < 1.0,
        f"(k=2,c=2) and (k=3,c=3/2) exact, {elapsed:.3f}s < 1s",
    )


def test_criterion_2_bound_under_fuzzing(fuzz_results):
    elapsed, summaries = fuzz_results
    total = sum(len(s.rows) for s in summaries)
    all_hold = all(row.bound_holds and row.margin >= 0 for s in summaries for row in s.rows)
    _check(
        "criterion 2: bound holds on 10,000 fuzzed weights",
        total == 10_000 and all_hold and elapsed < 60.0,
        f"{total} weights, zero violations, {elapsed:.1f}s < 60s",
    )


def test_criterion_3_exhaustive_small_instance(exhaustive_result):
    elapsed, summary = exhaustive_result
    rows_ok = len(summary.rows) == 81 and all(
        row.bound_holds
        and row.stopping_consistent
        and row.growth_bound_ok
        and row.weak_type_ok
        and row.decomposition_ok
        and row.oracle_match
        for row in summary.rows
    )
    _check(
        "criterion 3: exhaustive oracle on all 81 small weights",
        rows_ok and elapsed < 5.0,
        f"81 weights x all checks, {elapsed:.2f}s < 5s",
    )


def test_criterion_4_superlevel_audits():
    shape = make_shape(2, 2)
    audited = 0
    for values in itertools.product((1, 2, 3), repeat=4):
        w = make_step_weight(shape, values)
        for j in range(1, 9):
            audit = audit_superlevel(w, Fraction(j, 8))
            assert audit.passed, (values, j)
            audited += 1
    _check(
        "criterion 4: superlevel estimates replicated at every t",
        audited == 81 * 8,
        f"{audited} audits, all inequalities exact",
    )


def test_criterion_5_kadic_bound(fuzz_results, exhaustive_result):
    _, summaries = fuzz_results
    _, exhaustive = exhaustive_result
    fuzzed_ok = all(row.kadic_ok for s in summaries for row in s.rows)
    exhaustive_ok = all(row.kadic_ok for row in exhaustive.rows)
    _check(
        "criterion 5: k-adic constant of the rearrangement within bound",
        fuzzed_ok and exhaustive_ok,
        "10,081 weights, exact comparison",
    )


def test_criterion_6_family_construction_audit():
    printed = family_constant_formula(2, 2, Fraction(3, 16))
    row = sharpness_sweep(2, 2, [4], [Fraction(3, 16)])[0]
    report = check_rearrangement_bound(extremal_family(2, 2, Fraction(3, 16), 4))
    ok = (
        printed == Fraction(7, 4)
        and row.nominal_c == Fraction(7, 4)
        and row.measured_c == Fraction(5, 2)
        and report.c == Fraction(5, 2)
        and report.holds
    )
    _check(
        "criterion 6: family audit reports nominal 7/4 vs measured 5/2",
        ok,
        "bound still holds with the measured constant",
    )


def test_criterion_7_search_reaches_sharpness():
    start = time.monotonic()
    result = hill_climb(
        SearchConfig(shape=make_shape(2, 2), iterations=5000, restarts=10, seed=1)
    )
    elapsed = time.monotonic() - start
    ok = result.best_objective >= 0.9 and result.exact_objective <= 1 and elapsed < 30.0
    _check(
        "criterion 7: hill climb reaches objective >= 0.9",
        ok,
        f"best {result.best_objective:.6f}, exact {result.exact_objective}, {elapsed:.1f}s < 30s",
    )


def test_criterion_8_cli_determinism(tmp_path):
    def run(argv):
        assert cli_main(argv) == 0

    commands = {
        "verify": (
            ["verify", "--k", "2", "--depth", "2", "--grid", "1,2,3", "--exhaustive"],
            ["report.csv"],
        ),
        "extremal": (
            ["extremal", "--k", "2", "--c", "2", "--mode", "paper", "--depths", "4,6"],
            ["sweep.csv"],
        ),
        "search": (
            ["search", "--k", "2", "--depth", "2", "--iters", "300", "--restarts", "2", "--seed", "1"],
            ["trace.csv", "best_weight.txt", "summary.json"],
        ),
    }
    identical = True
    for name, (argv, files) in commands.items():
        a = tmp_path / f"{name}_a"
        b = tmp_path / f"{name}_b"
        run(argv + ["--out", str(a)])
        run(argv + ["--out", str(b)])
        for file_name in files:
            identical &= (a / file_name).read_bytes() == (b / file_name).read_bytes()
        manifest = json.loads((a / "manifest.json").read_text())
        identical &= sorted(files) == manifest["outputs"]
    _check(
        "criterion 8: CLI runs are byte-identical given flags and seed",
        identical,
        "verify/extremal/search data files compared byte-for-byte",
    )
