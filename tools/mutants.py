#!/usr/bin/env python3
"""Mutation harness: show that the tier-1 suite notices the kernel going wrong.

Usage: ``python tools/mutants.py``, from any directory.

Each mutant names a file, an exact old text that occurs there once, the new
text and its expected outcome: ``killed`` with the tests file that a full
run found its first failing test in, or ``equivalent`` with a one-line
argument.  For each one the harness copies the source tree to a temporary
directory and applies the edit there.  It runs the named tests file alone
first, then, if that passes, the tier-1 suite, leaving out
``tests/test_mutants.py``, which checks these declarations and so fails on
any edit.  Both runs use ``-x``, a fixed ``--hypothesis-seed`` and the
``treea1-no-shrink`` Hypothesis profile of ``tests/conftest.py``, since a
kill needs the first failing example, not a shrunk one.  A mutant
is killed when either run fails, so it survives only after the full suite
has passed, and the outcome is the one a full run alone would give.  It
prints one line per mutant: killed or survived, the time taken and the first
failing test, then a summary with the number of full-suite runs.  It exits 1
if an old text does not occur exactly once or an outcome differs from the
declared one; the checkout itself is never edited.  A new mutant declared
without a module gets the full suite only, and its line names the file to
declare.  Stdlib only.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# what the tier-1 suite reads: the package, the tests, their configuration, and the
# benchmark, CI workflow and README, where tests/test_api.py looks for each public name's use
COPIED = ("src", "tests", "pyproject.toml", "perfbench", ".github", "README.md")
# checks these declarations, not the code, so every mutant would fail it
DECLARATIONS_TEST = "tests/test_mutants.py"
HYPOTHESIS_SEED = 0
# tests/conftest.py's default profile without the shrink phase; tier-1 runs keep the default
HYPOTHESIS_PROFILE = "treea1-no-shrink"
# a mutant that makes the suite hang is caught, not survived
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    expected: str  # "killed" or "equivalent"
    module: str = ""  # of a killed mutant: the tests file, run first, that a full run's first failure was in
    why: str = ""  # the one-line argument of an equivalent mutant


MUTANTS = (
    Mutant("sup_ratio_skips_the_first_boundary", "src/treea1/rearrangement.py",
           "    for i in range(1, len(values)):\n", "    for i in range(2, len(values)):\n",
           "killed", "tests/test_acceptance.py"),
    Mutant("kadic_constant_skips_the_root", "src/treea1/rearrangement.py",
           "        width = leaves\n", "        width = leaves // k\n", "killed", "tests/test_kernel.py"),
    Mutant("kadic_start_reads_the_stop_piece", "src/treea1/rearrangement.py",
           "bisect_left(ends, start)", "bisect_left(ends, stop)", "killed", "tests/test_kernel.py"),
    Mutant("weak_type_set_takes_ge", "src/treea1/verify.py",
           "by_maximal[count][0] > x:", "by_maximal[count][0] >= x:", "killed", "tests/test_acceptance.py"),
    Mutant("sweep_drops_the_running_maximum", "src/treea1/maximal.py",
           "running = [a if a > r else r for a, r in zip(row, parents)]",
           "running = [a for a, r in zip(row, parents)]", "killed", "tests/test_acceptance.py"),
    Mutant("bound_check_fires_below_margin_minus_one", "src/treea1/verify.py",
           "if report.margin >= 0 and report.c <= report.bound:",
           "if report.margin >= -1 and report.c <= report.bound:", "killed", "tests/test_cli.py"),
    Mutant("growth_check_takes_le", "src/treea1/verify.py",
           "if not (y_star < y_member and", "if not (y_star <= y_member and", "killed", "tests/test_verify.py"),
    Mutant("c_search_starts_from_one_half", "src/treea1/maximal.py",
           "best_mf, best_leaf = 1, 1", "best_mf, best_leaf = 1, 2", "equivalent",
           why="a parent's running maximum >= its least leaf > 0, so the first parent's ratio is at least 1, "
           "beats 1/2 and replaces it; the maximum is unchanged"),
    Mutant("least_leaf_fold_keeps_the_larger_leaf", "src/treea1/maximal.py",
           "a if a < b else b", "a if a > b else b", "killed", "tests/test_acceptance.py"),
    Mutant("lazy_maximal_ignores_the_leafs_own_value", "src/treea1/maximal.py",
           "[x if x > r else r for x, r in zip(leaves, parents)]", "[r for x, r in zip(leaves, parents)]",
           "killed", "tests/test_acceptance.py"),
    Mutant("audits_never_walk_a_superlevel_set", "src/treea1/verify.py",
           "nodes = superlevel_set(a, threshold) if above else ()", "nodes = ()", "killed", "tests/test_acceptance.py"),
    Mutant("audits_walk_only_above_two_leaves", "src/treea1/verify.py",
           "nodes = superlevel_set(a, threshold) if above else ()",
           "nodes = superlevel_set(a, threshold) if above > 1 else ()", "killed", "tests/test_acceptance.py"),
    Mutant("flag_runs_floors_a_positive_factor", "src/treea1/verify.py",
           "-(-bar // factor)", "bar // factor", "killed", "tests/test_verify.py"),
    Mutant("flag_runs_bisects_left_for_a_negative_factor", "src/treea1/verify.py",
           "bisect_right(points, bar // factor)", "bisect_left(points, bar // factor)",
           "killed", "tests/test_verify.py"),
    Mutant("flag_runs_takes_lt_for_a_zero_factor", "src/treea1/verify.py",
           "repeat(bar <= 0)", "repeat(bar < 0)", "killed", "tests/test_acceptance.py"),
    Mutant("chunk_profiles_key_drops_the_unit", "src/treea1/verify.py",
           "key = (a.unit, *sorted(counts.items()))", "key = tuple(sorted(counts.items()))",
           "killed", "tests/test_verify.py"),
    Mutant("superlevel_set_hits_take_ge", "src/treea1/maximal.py",
           "if x * q > bar and", "if x * q >= bar and", "killed", "tests/test_acceptance.py"),
    Mutant("superlevel_set_drops_the_parent_condition", "src/treea1/maximal.py",
           "if x * q > bar and parents[index // k] * q <= bar\n", "if x * q > bar\n",
           "killed", "tests/test_acceptance.py"),
    Mutant("superlevel_set_parent_takes_lt", "src/treea1/maximal.py",
           "parents[index // k] * q <= bar", "parents[index // k] * q < bar", "killed", "tests/test_acceptance.py"),
    Mutant("decomposition_takes_le", "src/treea1/verify.py",
           "table[node.level][node.index] == mf[leaf]", "table[node.level][node.index] <= mf[leaf]",
           "killed", "tests/test_analysis.py"),
    Mutant("draw_keeps_the_least_rejected_byte", "src/treea1/weights.py",
           "bytes(range(n << (8 - bits), 256))", "bytes(range((n << (8 - bits)) + 1, 256))",
           "killed", "tests/test_kernel.py"),
    Mutant("draw_keeps_n_on_a_wide_grid", "src/treea1/weights.py",
           "filter(n.__gt__,", "filter(n.__ge__,", "killed", "tests/test_weights.py"),
    Mutant("weight_text_drops_the_newline", "src/treea1/weights.py",
           '*_per_leaf(w.codes, texts)]) + "\\n"', "*_per_leaf(w.codes, texts)])", "killed", "tests/test_cli.py"),
    Mutant("rearrange_sorts_ascending", "src/treea1/rearrangement.py",
           "sorted(counts, reverse=True)", "sorted(counts)", "killed", "tests/test_acceptance.py"),
    Mutant("prefix_sum_oracle_drops_the_carried_best", "src/treea1/oracles.py",
           "best = [x if x > y else y for x, y in zip(averages,", "best = [x for x, y in zip(averages,",
           "killed", "tests/test_acceptance.py"),
    Mutant("oracle_check_skips_the_last_leaf", "src/treea1/verify.py",
           "scale == a.unit and scaled == a.scaled_maximal",
           "scale == a.unit and scaled[:-1] == a.scaled_maximal[:-1]", "killed", "tests/test_verify.py"),
    Mutant("weak_type_reference_takes_ge", "src/treea1/verify.py",
           "if mf > lam]", "if mf >= lam]", "killed", "tests/test_verify.py"),
    Mutant("member_writer_swaps_the_star", "src/treea1/cli.py",
           "{star.level},{inner}{star.index}", "{star.index},{inner}{star.level}", "killed", "tests/test_cli.py"),
    Mutant("search_move_skips_lowest_terms", "src/treea1/search.py",
           "shift = min((num & -num).bit_length() - 1, exp)", "shift = 0", "killed", "tests/test_search.py"),
    Mutant("search_move_never_floors", "src/treea1/search.py",
           "if num << _FLOOR_EXP < _FLOOR_NUM << exp:", "if False:", "killed", "tests/test_search.py"),
    Mutant("climb_undo_reinserts_at_the_new_index", "src/treea1/search.py",
           "self._ascending.insert(removed, old)", "self._ascending.insert(inserted, old)",
           "killed", "tests/test_acceptance.py"),
    Mutant("climb_undo_keeps_the_new_ratio", "src/treea1/search.py",
           "sums[pos], mins[pos], ratios[pos] = s, v, r", "sums[pos], mins[pos] = s, v",
           "killed", "tests/test_pinned_digests.py"),
    Mutant("climb_draws_one_more_position_bit", "src/treea1/search.py",
           "pos_bits, step_bits = n.bit_length(), steps.bit_length()",
           "pos_bits, step_bits = n.bit_length() + 1, steps.bit_length()", "killed", "tests/test_golden.py"),
    Mutant("family_sweep_takes_ge", "src/treea1/maximal.py",
           "if avg > top[0]:", "if avg >= top[0]:", "killed", "tests/test_acceptance.py"),
    Mutant("default_family_delta_skips_the_shape_check", "src/treea1/weights.py",
           "    make_shape(k, depth)  # refuses a bad k, and too many leaves, before any power of k is formed\n", "",
           "killed", "tests/test_cli.py"),
    Mutant("family_formula_drops_a_factor_k", "src/treea1/weights.py",
           "1 + k**2 * _positive(delta, \"delta\") * (c - 1)", "1 + k * _positive(delta, \"delta\") * (c - 1)",
           "killed", "tests/test_acceptance.py"),
    Mutant("audits_inside_level_set_takes_ge", "src/treea1/verify.py",
           "> lam.numerator * unit", ">= lam.numerator * unit", "killed", "tests/test_verify.py"),
    Mutant("stopping_check_takes_le", "src/treea1/verify.py",
           "set(fam.assignment) == set(fam.members)", "set(fam.assignment) <= set(fam.members)",
           "killed", "tests/test_verify.py"),
    Mutant("chunk_skips_one_draw_too_few", "src/treea1/verify.py",
           "for _ in range(indices.start):", "for _ in range(indices.start - 1):", "killed", "tests/test_cli.py"),
    Mutant("enumeration_makes_the_last_leaf_most_significant", "src/treea1/verify.py",
           "_from_grid(shape, grid, drawn)", "_from_grid(shape, grid, drawn[::-1])", "killed", "tests/test_cli.py"),
    Mutant("audits_keep_t_unreduced", "src/treea1/verify.py",
           "divisors = list(map(gcd, points, repeat(q)))", "divisors = [1] * len(points)",
           "killed", "tests/test_verify.py"),
    Mutant("violation_pickle_drops_the_detail", "src/treea1/errors.py",
           '"check": self.check, "detail": self.detail}', '"check": self.check}', "killed",
           "tests/test_verify.py"),
    Mutant("require_drops_the_trial_prefix", "src/treea1/verify.py",
           'prefix = "" if trial is None else f"trial {trial}: "', 'prefix = ""', "killed",
           "tests/test_cli.py"),
    Mutant("objective_exact_skips_the_bound_check", "src/treea1/search.py",
           '    _require(("bound",), report)\n', "", "killed", "tests/test_cli.py"),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file in this checkout."""
    return (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def _first_failure(output: str) -> str:
    """The first test pytest's short summary names as failed or in error, or the output's last line."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    lines = output.strip().splitlines()
    return lines[-1] if lines else ""


def _pytest(tree: Path, target: str) -> str | None:
    """Run pytest with ``-x`` on ``target`` in ``tree``: None if it passes, else the first failing test."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               f"--hypothesis-seed={HYPOTHESIS_SEED}", f"--hypothesis-profile={HYPOTHESIS_PROFILE}", target]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timeout after {TIMEOUT_S} s"
    return None if done.returncode == 0 else _first_failure(done.stdout + done.stderr)


def run(mutant: Mutant) -> tuple[bool, float, str, bool]:
    """Apply the mutant to a copy of the tree and test it there.

    Returns (killed, seconds, first failing test, whether the full suite ran).
    """
    with tempfile.TemporaryDirectory(prefix="treea1-mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, tree / name)
        target = tree / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        start = time.perf_counter()
        failure = _pytest(tree, mutant.module) if mutant.module else None
        full = failure is None
        if full:
            failure = _pytest(tree, f"--ignore={DECLARATIONS_TEST}")
        return failure is not None, time.perf_counter() - start, failure or "", full


def main() -> int:
    ok = True
    outcomes = {"killed": 0, "equivalent": 0, "survived": 0}
    full_runs = 0
    start = time.perf_counter()
    for mutant in MUTANTS:
        count = occurrences(mutant)
        if count != 1:
            print(f"{mutant.name}: old text occurs {count} times in {mutant.path}, expected once", flush=True)
            ok = False
            continue
        killed, seconds, failure, full = run(mutant)
        full_runs += full
        outcome = "killed" if killed else "survived"
        matches = killed == (mutant.expected == "killed")
        ok = ok and matches
        # a declared-equivalent survivor counts as equivalent; any other survivor as survived
        outcomes["equivalent" if not killed and matches else outcome] += 1
        note = "" if matches else f"  [declared {mutant.expected}]"
        detail = failure if killed else mutant.why
        print(f"{mutant.name}: {outcome} in {seconds:.1f} s  {detail}{note}", flush=True)
    print(f"{sum(outcomes.values())} mutants run: {outcomes['killed']} killed, {outcomes['equivalent']} equivalent, "
          f"{outcomes['survived']} survived, {full_runs} full-suite runs, in {time.perf_counter() - start:.1f} s",
          flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
