import dataclasses
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import step_weights
from treea1 import (
    ALL_CHECKS,
    ExtremalParams,
    GrowthCheck,
    LevelAudit,
    NodeId,
    ROOT,
    ParameterError,
    RearrangedProfile,
    StepWeight,
    StoppingFamily,
    SuperlevelAudit,
    ViolationError,
    WeightAnalysis,
    analyze,
    audit_grid,
    audit_superlevel,
    average_thresholds,
    check_decomposition,
    check_growth_bound,
    check_oracle_equality,
    check_rearrangement_bound,
    check_stopping_consistency,
    check_weak_type,
    decimal_string,
    default_family_delta,
    extremal_exact,
    extremal_family,
    fuzz_campaign,
    leaves_under,
    make_shape,
    make_step_weight,
    node_measure,
    prefix_average,
    random_weight,
    rearrange,
    refine,
    scale,
    sharpness_sweep,
    stopping_family,
    superlevel_set,
    weight_hash,
    weight_to_text,
)
import treea1.rearrangement
import treea1.verify
from treea1.cli import main


def test_report_constant_weight():
    report = check_rearrangement_bound(make_step_weight(make_shape(2, 2), [6] * 4), properties=True)
    assert (report.c, report.bound, report.sup_ratio, report.margin) == (1, 1, 1, 0)
    assert report.holds
    assert report.stopping_consistent and report.growth_bound_ok
    assert report.weak_type_ok and report.decomposition_ok


def test_report_extremal_weight_is_sharp():
    report = check_rearrangement_bound(extremal_exact(2, 2))
    assert (report.c, report.bound, report.sup_ratio, report.margin) == (2, 3, 3, 0)
    assert report.witness == Fraction(1, 2)
    assert report.holds
    assert report.stopping_consistent is None  # properties not requested


def test_report_spiked_weight():
    report = check_rearrangement_bound(make_step_weight(make_shape(2, 2), [4, 1, 1, 1]))
    assert (report.c, report.bound, report.sup_ratio, report.margin) == (
        Fraction(5, 2),
        4,
        4,
        0,
    )
    assert report.holds


@given(step_weights())
def test_bound_holds_for_random_weights(w):
    report = check_rearrangement_bound(w)
    assert report.holds
    assert report.c <= report.bound  # c <= k*c - k + 1 for c >= 1


@given(step_weights(), st.fractions(min_value=Fraction(1, 7), max_value=7, max_denominator=7))
def test_report_is_scaling_invariant(w, s):
    a = check_rearrangement_bound(w)
    b = check_rearrangement_bound(scale(w, s))
    assert (a.c, a.bound, a.sup_ratio, a.margin) == (b.c, b.bound, b.sup_ratio, b.margin)


@given(step_weights(max_depth=2))
def test_report_is_refinement_invariant(w):
    a = check_rearrangement_bound(w)
    b = check_rearrangement_bound(refine(w))
    assert (a.c, a.bound, a.sup_ratio, a.margin) == (b.c, b.bound, b.sup_ratio, b.margin)


def test_audit_extremal_weight_active_branch():
    audit = audit_superlevel(extremal_exact(2, 2), Fraction(3, 4))
    level = audit.level
    assert not level.degenerate
    assert level.level_value == 1 and level.threshold == 2
    assert level.nodes == (NodeId(2, 0), NodeId(2, 2))
    assert level.superlevel_measure == Fraction(1, 2)
    assert level.above_threshold_measure == Fraction(1, 2)
    assert level.set_average == 3
    assert audit.passed


def test_audit_extremal_weight_degenerate_branch():
    audit = audit_superlevel(extremal_exact(2, 2), Fraction(1, 4))
    level = audit.level
    assert level.degenerate
    assert level.level_value == 3 and level.threshold == 6
    assert level.nodes == () and level.set_average is None
    assert audit.passed


def test_audit_of_a_lost_superlevel_set_fails_its_leafwise_fallback(monkeypatch):
    # an empty set while two leaves of 3 exceed the threshold 2: only the fallback can notice
    monkeypatch.setattr(treea1.verify, "superlevel_set", lambda a, threshold: ())
    audit = audit_superlevel(extremal_exact(2, 2), Fraction(3, 4))
    level = audit.level
    assert level.degenerate
    assert level.level_value == 1 and level.threshold == 2
    assert level.nodes == () and level.set_average is None
    assert level.superlevel_measure == 0 and level.above_threshold_measure == Fraction(1, 2)
    assert not level.average_bounded
    assert [name for name, ok in audit.checks.items() if not ok] == ["average_bounded"]
    assert not audit.passed


def test_audit_constant_weight_is_degenerate_everywhere():
    w = make_step_weight(make_shape(3, 1), [2, 2, 2])
    for j in range(1, 10):
        audit = audit_superlevel(w, Fraction(j, 9))
        assert audit.level.degenerate and audit.passed


def test_audit_rejects_bad_t():
    with pytest.raises(ParameterError):
        audit_superlevel(extremal_exact(2, 2), 0)
    with pytest.raises(ParameterError):
        audit_superlevel(extremal_exact(2, 2), Fraction(5, 4))


@given(step_weights(max_depth=2))
def test_audit_passes_on_fine_grid(w):
    grain = w.shape.k ** (w.shape.m + 1)
    for j in range(1, grain + 1):
        audit = audit_superlevel(w, Fraction(j, grain))
        assert audit.passed


def test_report_with_audits_covers_canonical_grid():
    w = extremal_exact(2, 2)
    report = check_rearrangement_bound(w, with_audits=True)
    assert report.audits is not None
    assert len(report.audits) == 2 ** (2 + 1)
    assert [a.t for a in report.audits] == [Fraction(j, 8) for j in range(1, 9)]
    assert all(a.passed for a in report.audits)
    assert check_rearrangement_bound(w).audits is None


def _audit_oracle(report, t):
    """Every quantity of the superlevel audit at one t, by name, from scratch: one superlevel set and Fraction sums.

    This is the per-t audit the library replaced by one level record per
    rearrangement piece; it shares with it only the report it reads, and it
    computes each of the 13 record fields and ``passed`` at every t.
    """
    a = report.analysis
    w = a.weight
    lam = report.profile.value_at(t)
    threshold = report.c * lam
    n = w.shape.leaf_count
    above = Fraction(sum(1 for v in w.leaf_values if v > threshold), n)
    nodes = superlevel_set(a, threshold)
    if not nodes:
        fields = dict(
            t=t, level_value=lam, threshold=threshold, degenerate=True, nodes=(),
            superlevel_measure=Fraction(0), above_threshold_measure=above, set_average=None,
            nodes_are_members=True, average_bounded=all(v <= threshold for v in w.leaf_values),
            dominates_prefix=True, inside_level_set=True, measures_ordered=True,
        )
    else:
        mu = sum(node_measure(w.shape, node) for node in nodes)
        integral = sum(w.leaf_values[leaf] for node in nodes for leaf in leaves_under(w.shape, node)) / n
        set_average = integral / mu
        fields = dict(
            t=t, level_value=lam, threshold=threshold, degenerate=False, nodes=nodes,
            superlevel_measure=mu, above_threshold_measure=above, set_average=set_average,
            nodes_are_members=all(node in a.family.members for node in nodes),
            average_bounded=set_average <= report.bound * lam,
            dominates_prefix=set_average >= prefix_average(report.profile, t),
            inside_level_set=all(
                w.leaf_values[leaf] > lam for node in nodes for leaf in leaves_under(w.shape, node)
            ),
            measures_ordered=above <= mu <= t,
        )
    flags = ("nodes_are_members", "average_bounded", "dominates_prefix", "inside_level_set", "measures_ordered")
    return dict(fields, passed=all(fields[name] for name in flags))


def _all_fields(audit):
    """The audit's quantities by name: its per-t fields, its level record's fields and ``passed``."""
    fields = {name: getattr(audit, name) for name in SuperlevelAudit._fields if name != "level"}
    fields.update((f.name, getattr(audit.level, f.name)) for f in dataclasses.fields(LevelAudit))
    return dict(fields, passed=audit.passed)


def _assert_audits_match_oracle(w, reuse_report):
    """with_audits=True and audit_superlevel, given the weight or its report, against the oracle."""
    report = check_rearrangement_bound(w, with_audits=True)
    source = report if reuse_report else w
    grid = audit_grid(w)
    assert [a.t for a in report.audits] == list(grid)
    for t, audit in zip(grid, report.audits):
        expected = _audit_oracle(report, t)
        assert _all_fields(audit) == expected
        assert _all_fields(audit_superlevel(source, t)) == expected


# up to 64 leaves: k=2 to depth 6, k=3 and k=4 to depth 3
audit_weights = st.one_of(step_weights(ks=(2,), max_depth=6), step_weights(ks=(3, 4), max_depth=3))


@given(audit_weights)
def test_audits_match_the_per_t_oracle(w):
    # through the report: a plain weight would build a report per t, and the
    # extremal cases below cover that path
    _assert_audits_match_oracle(w, reuse_report=True)


@pytest.mark.parametrize("k, c", [(2, 2), (2, Fraction(5, 2)), (3, 2)])
@pytest.mark.parametrize("depth", [2, 3, 4])
def test_audits_match_the_per_t_oracle_on_extremal_weights(k, c, depth):
    w = extremal_exact(k, c)
    _assert_audits_match_oracle(w if depth == 2 else refine(w, depth - 2), reuse_report=False)
    if depth > 2:  # the family with delta below 1/k^2 is not a refinement
        delta = default_family_delta(k, depth)
        w = extremal_family(ExtremalParams.from_constant(k, c, delta, depth))
        _assert_audits_match_oracle(w, reuse_report=False)


def test_audit_through_a_report_reuses_its_analysis(monkeypatch):
    w = make_step_weight(make_shape(2, 3), [5, 1, 2, 2, 7, 1, 3, 1])
    report = check_rearrangement_bound(w)
    built = []
    original = WeightAnalysis.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(WeightAnalysis, "__init__", counted)
    through_report = [_all_fields(audit_superlevel(report, t)) for t in audit_grid(w)]
    assert built == []
    assert through_report == [_all_fields(audit_superlevel(w, t)) for t in audit_grid(w)]
    assert len(built) == len(through_report)  # a plain weight gets a new analysis per t


@given(audit_weights)
def test_audits_on_one_piece_share_one_level_record(w):
    report = check_rearrangement_bound(w, with_audits=True)
    levels = {}  # piece -> the level record of its first audit
    for audit in report.audits:
        assert levels.setdefault(report.profile._piece_index(audit.t), audit.level) is audit.level
    assert len({id(audit.level) for audit in report.audits}) == len(levels)
    for audit in report.audits:
        assert _all_fields(audit_superlevel(report, audit.t)) == _all_fields(audit)


def _weak_type_detail(report):
    return treea1.verify._failure("weak_type", report)


@given(audit_weights)
def test_weak_type_sweep_agrees_with_the_per_level_check(w):
    per_level = all(check_weak_type(w, lam) for lam in average_thresholds(w))
    assert (_weak_type_detail(check_rearrangement_bound(w)) is None) == per_level


def test_weak_type_sweep_reads_the_maximal_function():
    report = check_rearrangement_bound(make_step_weight(make_shape(2, 1), [1, 3]))
    a = report.analysis
    assert _weak_type_detail(report) is None
    # the leaf maximum everywhere: E = {M > 2} is the whole tree, and 2 * 1 < 2 fails
    object.__setattr__(a, "scaled_maximal", (max(a.scaled_averages[-1]),) * 2)
    assert _weak_type_detail(report) == "weak type fails at level 2"


def test_superlevel_sets_are_built_once_per_level(monkeypatch):
    calls = []
    original = treea1.verify.superlevel_set

    def counted(w, threshold):
        calls.append(threshold)
        return original(w, threshold)

    monkeypatch.setattr(treea1.verify, "superlevel_set", counted)
    w = make_step_weight(make_shape(2, 4), [5, 1, 2, 2, 7, 1, 3, 1, 1, 1, 4, 2, 6, 2, 2, 3])
    report = check_rearrangement_bound(w, properties=True, with_audits=True)
    assert report.weak_type_ok and all(a.passed for a in report.audits)
    levels = {report.profile.value_at(t) for t in audit_grid(w)}
    assert 0 < len(calls) <= len(levels)
    calls.clear()
    assert _weak_type_detail(report) is None
    assert calls == []


def test_audits_neither_check_t_nor_bisect_per_grid_point(monkeypatch):
    def refuse(*args):
        raise AssertionError("the grid walk already holds t's piece")

    for module, name in ((treea1.verify, "_check_t"), (treea1.verify, "prefix_average"),
                         (treea1.rearrangement, "_check_t"), (treea1.rearrangement, "bisect_left")):
        monkeypatch.setattr(module, name, refuse)
    seen = []
    original = treea1.verify._scaled_integral

    def recorded(profile, piece, cells, per):
        seen.append((piece, Fraction(cells, per * profile.n)))  # the integral runs up to t = cells / (per * n)
        return original(profile, piece, cells, per)

    monkeypatch.setattr(treea1.verify, "_scaled_integral", recorded)
    w = make_step_weight(make_shape(2, 3), [4, 2, 2, 2, 1, 1, 1, 1])  # two pieces with a superlevel set
    report = check_rearrangement_bound(w, with_audits=True)
    monkeypatch.undo()
    assert len(report.audits) == 16 and all(a.passed for a in report.audits)
    # a flag cannot show a prefix average from the wrong piece, so check the pieces themselves
    assert {piece for piece, _ in seen} == {1, 2}
    assert all(piece == report.profile._piece_index(t) for piece, t in seen)


@pytest.mark.parametrize("w", [
    make_step_weight(make_shape(2, 3), [5, 1, 2, 2, 7, 1, 3, 1]),
    extremal_family(ExtremalParams.from_constant(3, 2, default_family_delta(3, 3), 3)),
    random_weight(make_shape(2, 6), 5, [1, 2, 3, 5, 10, 100]),
])
def test_single_t_audits_walk_to_their_piece_without_a_bisect(w, monkeypatch):
    report = check_rearrangement_bound(w, with_audits=True)
    expected = [_all_fields(audit) for audit in report.audits]

    def refuse(*args):
        raise AssertionError("a single-t audit walks the pieces like the grid does")

    monkeypatch.setattr(treea1.rearrangement, "bisect_left", refuse)
    # by name: LevelAudit compares by identity
    assert [_all_fields(audit_superlevel(report, t)) for t in audit_grid(w)] == expected


def test_growth_bound_examples():
    assert check_growth_bound(make_step_weight(make_shape(2, 1), [3, 3])).ok  # vacuous
    result = check_growth_bound(extremal_exact(2, 2))
    assert result.ok and result.violation is None


def _raise_past_the_growth_limit(a):
    """Raise the last non-root member's scaled average just past its growth limit; returns it and its star."""
    fam = stopping_family(a)  # built before the table changes, so the members stay put
    member = fam.members[-1]
    star = fam.star[member]
    c, k = a.c, a.weight.shape.k
    table = [list(row) for row in a.scaled_averages]
    factor = k * c.numerator - (k - 1) * c.denominator
    table[member.level][member.index] = factor * table[star.level][star.index] // c.numerator + 1
    object.__setattr__(a, "scaled_averages", tuple(map(tuple, table)))
    return member, star


def test_growth_check_compares_the_scaled_averages(monkeypatch):
    a = analyze(extremal_exact(2, 2))
    assert check_growth_bound(a).ok
    member, star = _raise_past_the_growth_limit(a)
    av_member = Fraction(a.scaled_averages[member.level][member.index], a.unit)
    av_star = Fraction(a.scaled_averages[star.level][star.index], a.unit)
    limit = (2 - 1 / a.c) * av_star
    assert av_member > limit
    assert check_growth_bound(a).violation == (member, star, av_member, av_star, limit)

    original = treea1.verify.check_growth_bound

    def tampered(a):
        if len(stopping_family(a).members) > 1:
            _raise_past_the_growth_limit(a)
        return original(a)

    monkeypatch.setattr(treea1.verify, "check_growth_bound", tampered)
    with pytest.raises(ViolationError) as err:
        fuzz_campaign(2, 3, 5, seed=1, grid=[1, 2, 3], checks=("growth",))
    assert err.value.check == "growth"


def _flat_member(monkeypatch):
    """Make the child (1, 0) of a constant k=2 m=1 weight a member whose star, the root, has an equal average.

    The stopping check still passes, since the assignment's image is the members; only Av(I) < Av(J) fails.
    """
    child = NodeId(1, 0)
    family = StoppingFamily(members=(ROOT, child), star={child: ROOT}, assignment=(child, ROOT))
    monkeypatch.setattr(treea1.verify, "stopping_family", lambda w: family)
    assert check_stopping_consistency(make_step_weight(make_shape(2, 1), [1, 1]))


def test_growth_check_refuses_a_member_no_larger_than_its_star(monkeypatch):
    _flat_member(monkeypatch)
    result = check_growth_bound(make_step_weight(make_shape(2, 1), [1, 1]))
    assert not result.ok
    assert result.violation == (NodeId(1, 0), ROOT, 1, 1, 1)


def test_verify_exits_1_on_a_member_no_larger_than_its_star(tmp_path, monkeypatch):
    _flat_member(monkeypatch)
    out = tmp_path / "run"
    assert main(["verify", "--k", "2", "--depth", "1", "--exhaustive", "--grid", "1", "--out", str(out)]) == 1
    assert "check: growth" in (out / "counterexample.txt").read_text()


@given(step_weights())
def test_growth_bound_holds_for_random_weights(w):
    assert check_growth_bound(w).ok


def test_weak_type_examples():
    const = make_step_weight(make_shape(2, 1), [5, 5])
    assert check_weak_type(const, 5)  # empty superlevel set, vacuous
    assert check_weak_type(extremal_exact(2, 2), 2)  # 1/2 < (1/2)*(3/2)
    with pytest.raises(ParameterError):
        check_weak_type(const, 0)


@given(step_weights())
def test_weak_type_at_all_node_averages(w):
    for level in average_thresholds(w):
        assert check_weak_type(w, level)


def test_structure_checks_pass_exhaustively_on_small_grid():
    shape = make_shape(2, 2)
    for values in itertools.product((1, 2, 3), repeat=4):
        w = make_step_weight(shape, values)
        assert check_stopping_consistency(w)
        assert check_decomposition(w)
        assert check_oracle_equality(w)


def test_oracle_check_fails_on_a_tampered_maximal_function(tmp_path, monkeypatch):
    real = treea1.verify.maximal_function_bruteforce

    def tampered(w):  # the oracle, wrong at the last leaf
        *head, last = real(w)
        return (*head, last + 1)

    w = extremal_exact(2, 2)
    assert check_oracle_equality(w)
    monkeypatch.setattr(treea1.verify, "maximal_function_bruteforce", tampered)
    assert not check_oracle_equality(w)

    with pytest.raises(ViolationError) as err:
        fuzz_campaign(2, 3, 4, seed=1, grid=[1, 2, 3], checks=("oracle",))
    assert err.value.check == "oracle"
    assert err.value.detail.startswith("trial 0:")

    out = tmp_path / "run"
    assert main(["verify", "--k", "2", "--depth", "2", "--trials", "3", "--out", str(out)]) == 1
    counterexample = (out / "counterexample.txt").read_text()
    assert counterexample.startswith("2 2 ")
    assert "check: oracle" in counterexample
    assert not (out / "report.csv").exists()


def test_oracle_check_reads_the_kernels_scaled_maximal_function():
    report = check_rearrangement_bound(extremal_exact(2, 2))
    a = report.analysis
    assert check_oracle_equality(a) and treea1.verify._failure("oracle", report) is None
    # the kernel's maximal function, one scaled unit too high at the first leaf
    object.__setattr__(a, "scaled_maximal", (a.scaled_maximal[0] + 1, *a.scaled_maximal[1:]))
    assert not check_oracle_equality(a)
    assert treea1.verify._failure("oracle", report) == "fast maximal function disagrees with the prefix-sum oracle"


@pytest.mark.parametrize("k, m", [(2, 10), (3, 6)])
def test_every_check_runs_at_the_largest_benchmark_shapes(k, m):
    summary = fuzz_campaign(k, m, 2, seed=3, grid=[1, 2, 3, 5, 10, 100], checks=ALL_CHECKS)
    assert len(summary.rows) == 2
    assert all(row.bound_holds and row.oracle_match and row.kadic_ok for row in summary.rows)


def test_fuzz_campaign_empty():
    # with threads=2 too: no trials make no chunks, and the campaign runs in this process
    for threads in (1, 2):
        summary = fuzz_campaign(2, 2, 0, seed=0, grid=[1, 2], threads=threads)
        assert summary.rows == () and summary.workers == 1
        assert summary.worst_margin is None and summary.worst_weight_text is None


def test_fuzz_campaign_small_run_all_checks():
    summary = fuzz_campaign(2, 3, 40, seed=11, grid=[1, 2, 3])
    assert len(summary.rows) == 40
    assert summary.worst_margin is not None and summary.worst_margin >= 0
    assert all(row.bound_holds for row in summary.rows)
    assert all(row.kadic_ok and row.oracle_match for row in summary.rows)


def test_fuzz_campaign_is_deterministic():
    a = fuzz_campaign(3, 2, 25, seed=9, grid=[1, 5], checks=("kadic",))
    b = fuzz_campaign(3, 2, 25, seed=9, grid=[1, 5], checks=("kadic",))
    assert [r.weight_hash for r in a.rows] == [r.weight_hash for r in b.rows]
    assert a.worst_margin == b.worst_margin
    assert a.worst_weight_text == b.worst_weight_text


def test_fuzz_campaign_threads_match_serial():
    # 40 trials of 512 leaves is 2.5 workers' worth of leaves, so this starts a real pool
    assert 40 * 2**9 >= 2 * treea1.verify.MIN_LEAVES_PER_WORKER
    serial = fuzz_campaign(2, 9, 40, seed=5, grid=[1, 2, 3], checks=("kadic",))
    parallel = fuzz_campaign(2, 9, 40, seed=5, grid=[1, 2, 3], checks=("kadic",), threads=2)
    assert serial.workers == 1
    assert parallel.workers == min(2, os.cpu_count() or 1)
    assert [dataclasses.astuple(r) for r in serial.rows] == [dataclasses.astuple(r) for r in parallel.rows]
    assert serial.worst_margin == parallel.worst_margin
    assert serial.worst_weight_text == parallel.worst_weight_text


def test_campaign_below_the_threshold_starts_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a campaign below the threshold must not start a pool")

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", refuse)
    monkeypatch.setattr(treea1.verify.os, "cpu_count", lambda: 2)
    # 7 trials of 8 leaves: far less than one worker's share
    assert 7 * 2**3 < treea1.verify.MIN_LEAVES_PER_WORKER
    below = fuzz_campaign(2, 3, 7, seed=5, grid=[1, 2, 3], threads=2)
    serial = fuzz_campaign(2, 3, 7, seed=5, grid=[1, 2, 3])
    assert below.workers == serial.workers == 1
    assert [dataclasses.astuple(r) for r in below.rows] == [dataclasses.astuple(r) for r in serial.rows]
    assert below.worst_weight_text == serial.worst_weight_text


def test_importing_the_package_loads_no_process_pool():
    """multiprocessing is imported only by a campaign that starts a pool."""
    src = Path(treea1.verify.__file__).parents[1]
    code = "import sys, treea1.cli; print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={"PYTHONPATH": str(src)}, timeout=60)
    assert out.stdout.strip() == "[]"


def _inline_pool(monkeypatch, cpus):
    """Replace the process pool with an in-process map and pin the CPU count.

    The least work per worker is set to one leaf, so small campaigns pool.
    Returns the list of worker counts the campaign asked for and the list of
    argument tuples each worker would be sent; no process is started.
    """
    started, calls = [], []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            for args in zip(*iterables):
                calls.append(args)
                yield fn(*args)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(treea1.verify.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(treea1.verify, "MIN_LEAVES_PER_WORKER", 1)
    return started, calls


def _holds_weight(value) -> bool:
    if isinstance(value, StepWeight):
        return True
    return isinstance(value, (list, tuple)) and any(_holds_weight(item) for item in value)


def test_pooled_campaign_sends_workers_indices_and_seeds_only(monkeypatch):
    _, calls = _inline_pool(monkeypatch, 2)
    pooled = fuzz_campaign(2, 3, 7, seed=5, grid=[1, 2, 3], checks=("kadic",), threads=2)
    assert len(calls) == 2
    assert not any(_holds_weight(args) for args in calls)
    assert [args[3] for args in calls] == [range(0, 4), range(4, 7)]
    seeds = [args[2] for args in calls]
    assert [len(s) for s in seeds] == [4, 3] and all(isinstance(x, int) for s in seeds for x in s)
    serial = fuzz_campaign(2, 3, 7, seed=5, grid=[1, 2, 3], checks=("kadic",))
    assert [r.weight_hash for r in pooled.rows] == [r.weight_hash for r in serial.rows]
    assert pooled.worst_weight_text == serial.worst_weight_text


def test_campaign_weight_enumerates_the_grid_in_product_order():
    shape, grid = make_shape(2, 2), [Fraction(1), Fraction(2), Fraction(3)]
    weights = [treea1.verify._campaign_weight(shape, grid, None, i).leaf_values for i in range(81)]
    assert weights == list(itertools.product(grid, repeat=4))


def test_campaign_weight_with_seeds_is_the_seeded_draw():
    shape, grid = make_shape(3, 2), [Fraction(1), Fraction(5, 2), Fraction(7)]
    seeds = [0, 12345, 2**63 - 1]
    for i, trial_seed in enumerate(seeds):
        drawn = treea1.verify._campaign_weight(shape, grid, seeds[i], i)
        assert drawn.leaf_values == random_weight(shape, trial_seed, grid).leaf_values


def test_pooled_campaign_raises_the_lowest_violating_index(monkeypatch):
    _, calls = _inline_pool(monkeypatch, 3)
    shape, grid = make_shape(2, 3), [Fraction(1), Fraction(2), Fraction(3)]
    master = random.Random(8)
    seeds = [master.randrange(2**63) for _ in range(9)]
    texts = [weight_to_text(random_weight(shape, s, grid)) for s in seeds]
    assert texts[7] not in texts[:7] and texts[4] not in texts[:4]
    bad = {texts[4], texts[7]}  # one violation in each of the last two chunks
    monkeypatch.setattr(treea1.verify, "check_decomposition", lambda a: weight_to_text(a.weight) not in bad)
    with pytest.raises(ViolationError) as err:
        fuzz_campaign(2, 3, 9, seed=8, grid=[1, 2, 3], checks=("decomposition",), threads=3)
    assert [args[3] for args in calls] == [range(0, 3), range(3, 6), range(6, 9)]
    assert err.value.check == "decomposition"
    assert err.value.detail.startswith("trial 4:")
    assert err.value.weight_text == texts[4]


def test_fuzz_campaign_starts_no_more_workers_than_chunks(monkeypatch):
    started, _ = _inline_pool(monkeypatch, 64)
    pooled = fuzz_campaign(2, 2, 3, seed=5, grid=[1, 2, 3], checks=("kadic",), threads=50)
    serial = fuzz_campaign(2, 2, 3, seed=5, grid=[1, 2, 3], checks=("kadic",))
    assert started == [3]
    assert [r.weight_hash for r in pooled.rows] == [r.weight_hash for r in serial.rows]


def test_fuzz_campaign_starts_no_more_workers_than_cpus(monkeypatch):
    started, _ = _inline_pool(monkeypatch, 2)
    pooled = fuzz_campaign(2, 2, 9, seed=5, grid=[1, 2, 3], checks=("kadic",), threads=10_000)
    serial = fuzz_campaign(2, 2, 9, seed=5, grid=[1, 2, 3], checks=("kadic",))
    assert started == [2]
    assert [r.weight_hash for r in pooled.rows] == [r.weight_hash for r in serial.rows]
    assert pooled.worst_margin == serial.worst_margin
    assert pooled.worst_weight_text == serial.worst_weight_text


def test_fuzz_campaign_exhaustive_covers_grid():
    summary = fuzz_campaign(2, 2, 0, seed=0, grid=[1, 2, 3], exhaustive=True)
    assert len(summary.rows) == 81
    assert len({row.weight_hash for row in summary.rows}) == 81
    assert all(
        row.bound_holds
        and row.stopping_consistent
        and row.growth_bound_ok
        and row.weak_type_ok
        and row.decomposition_ok
        and row.oracle_match
        and row.kadic_ok
        for row in summary.rows
    )


@pytest.mark.parametrize("name", ["sup_ratio", "kadic_constant"])
def test_a_replaced_profile_function_reaches_an_exhaustive_campaign(monkeypatch, name):
    """The chunk's shared profile side calls these on the verify module, so a replacement is not bypassed."""
    original = getattr(treea1.verify, name)
    if name == "sup_ratio":
        def replaced(profile):
            ratio, witness = original(profile)
            return ratio + 2, witness
    else:
        def replaced(profile, k, m):
            return original(profile, k, m) + 2
    monkeypatch.setattr(treea1.verify, name, replaced)
    with pytest.raises(ViolationError) as err:
        fuzz_campaign(2, 3, 0, seed=0, grid=[1, 2], exhaustive=True)
    assert err.value.check == ("bound" if name == "sup_ratio" else "kadic")
    assert err.value.detail.startswith("trial 0:")


def _row_fields(rows):
    return [dataclasses.astuple(row) for row in rows]


@pytest.mark.parametrize("m", [2, 3])
def test_shared_profile_rows_equal_the_unshared_computation(m):
    """Grid 1/2,2/3,5: weights of different palettes have different units, and every row is checked."""
    from test_kernel import _fraction_c_and_sup_ratio

    shape, grid = make_shape(2, m), [Fraction(1, 2), Fraction(2, 3), Fraction(5)]
    summary = fuzz_campaign(2, m, 0, seed=0, grid=grid, exhaustive=True, checks=("kadic",))
    weights = [make_step_weight(shape, values) for values in itertools.product(grid, repeat=shape.leaf_count)]
    assert len(summary.rows) == len(weights) == 3**shape.leaf_count
    assert len({analyze(w).unit for w in weights}) > 1
    for row, w in zip(summary.rows, weights):
        assert row.weight_hash == weight_hash(w) and row.kadic_ok
        report = check_rearrangement_bound(w)
        assert (row.c, row.bound, row.sup_ratio, row.margin) == (report.c, report.bound, report.sup_ratio, report.margin)
        assert (row.c, row.sup_ratio) == _fraction_c_and_sup_ratio(w)


def test_shared_profiles_keep_each_weight_s_own_unit():
    """Grid 1/2,1,2: leaves (1/2, 1) at unit 2*k**m and (1, 2) at unit k**m are the same scaled ints."""
    shape, grid = make_shape(2, 2), [Fraction(1, 2), Fraction(1), Fraction(2)]
    profiles, unscaled = treea1.verify._ChunkProfiles(), set()
    for values in itertools.product(grid, repeat=shape.leaf_count):
        w = make_step_weight(shape, values)
        a = analyze(w)
        unscaled.add(tuple(sorted(Counter(a.scaled_averages[-1]).items())))
        shared = check_rearrangement_bound(a, _side=profiles.side(a))
        assert shared.profile == rearrange(w) == check_rearrangement_bound(w).profile
    assert len(unscaled) < len(profiles.sides) < 3**shape.leaf_count


def test_chunks_and_the_profile_cap_do_not_change_rows(monkeypatch):
    """k=2 m=3 on grid 1,2 has 9 leaf histograms, so they repeat within and across chunks."""
    serial = fuzz_campaign(2, 3, 60, seed=4, grid=[1, 2], checks=("kadic",))
    _, calls = _inline_pool(monkeypatch, 2)
    pooled = fuzz_campaign(2, 3, 60, seed=4, grid=[1, 2], checks=("kadic",), threads=2)
    assert [args[3] for args in calls] == [range(0, 30), range(30, 60)]
    assert _row_fields(pooled.rows) == _row_fields(serial.rows)

    exhaustive = fuzz_campaign(2, 3, 0, seed=0, grid=[1, 2], exhaustive=True)
    built = []
    post_init = RearrangedProfile.__post_init__
    monkeypatch.setattr(RearrangedProfile, "__post_init__", lambda self: built.append(1) or post_init(self))
    monkeypatch.setattr(treea1.verify, "MAX_CHUNK_PROFILE_VALUES", 3)
    capped = fuzz_campaign(2, 3, 0, seed=0, grid=[1, 2], exhaustive=True)
    assert _row_fields(capped.rows) == _row_fields(exhaustive.rows)
    assert capped.worst_weight_text == exhaustive.worst_weight_text
    # only the first two histograms fit in 3 values: no 2 (weight 0 alone, 1 value) and
    # one 2 (8 weights, 7 of them hits, 2 values)
    assert len(built) == 256 - 7


@pytest.mark.parametrize("cap, kept", [(0, 0), (100, 2), (4096, 40)])
def test_the_profile_cap_bounds_the_values_a_chunk_keeps(monkeypatch, cap, kept):
    """Grid 1..64 at 64 leaves: histograms of dozens of values that never repeat, as in a long fuzz campaign."""
    uncapped = fuzz_campaign(2, 6, 40, seed=3, grid=range(1, 65), checks=("kadic",))
    held = []
    side = treea1.verify._ChunkProfiles.side

    def recorded(self, a):
        result = side(self, a)
        assert self.values == sum(len(key) - 1 for key in self.sides) <= cap
        held.append((len(self.sides), self.values))
        return result

    monkeypatch.setattr(treea1.verify._ChunkProfiles, "side", recorded)
    monkeypatch.setattr(treea1.verify, "MAX_CHUNK_PROFILE_VALUES", cap)
    capped = fuzz_campaign(2, 6, 40, seed=3, grid=range(1, 65), checks=("kadic",))
    assert len(held) == 40 and _row_fields(capped.rows) == _row_fields(uncapped.rows)
    # each histogram holds 36 to 45 values: none fits in 0, two in 100, all 40 in 4,096
    sides, values = held[-1]
    assert sides == kept and values >= 36 * sides


def test_fuzz_campaign_validates_parameters():
    with pytest.raises(ParameterError):
        fuzz_campaign(2, 2, 5, seed=0, grid=[])
    with pytest.raises(ParameterError):
        fuzz_campaign(2, 2, 5, seed=0, grid=[1], checks=("no_such_check",))
    with pytest.raises(ParameterError):
        fuzz_campaign(2, 2, -1, seed=0, grid=[1])


def test_fuzz_campaign_refuses_bools_as_counts():
    # bool is a subclass of int, so True would otherwise run one trial on one worker
    with pytest.raises(ParameterError, match="trials"):
        fuzz_campaign(2, 2, True, seed=0, grid=[1, 2])
    with pytest.raises(ParameterError, match="threads"):
        fuzz_campaign(2, 2, 2, seed=0, grid=[1, 2], threads=True)


@pytest.mark.parametrize("exhaustive", [False, True])
def test_fuzz_campaign_refuses_a_seed_that_is_not_a_non_negative_int(exhaustive):
    # random.Random seeds with abs(seed), so -7 would run the campaign of 7
    for seed in (-7, True, None, 1.0, "7"):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            fuzz_campaign(2, 2, 3, seed=seed, grid=[1, 2], exhaustive=exhaustive)


def test_fuzz_campaign_aborts_on_violation(monkeypatch):
    monkeypatch.setattr(treea1.verify, "check_decomposition", lambda w: False)
    with pytest.raises(ViolationError) as err:
        treea1.verify.fuzz_campaign(2, 1, 5, seed=3, grid=[1, 2], checks=("decomposition",))
    assert err.value.check == "decomposition"
    assert err.value.weight_text.startswith("2 1 ")
    assert "trial 0" in err.value.detail


# check name -> (the function in treea1.verify it calls, a replacement that makes it fail on every weight)
_FAILING = {
    "stopping": ("check_stopping_consistency", lambda a: False),
    "growth": ("check_growth_bound", lambda a: GrowthCheck(False)),
    "weak_type": ("_weak_type_failure", lambda a: Fraction(1)),
    "decomposition": ("check_decomposition", lambda a: False),
    "oracle": ("maximal_function_bruteforce", lambda w: ()),
    "kadic": ("kadic_constant", lambda profile, k, depth: Fraction(10**9)),
}


@pytest.mark.parametrize("name", ALL_CHECKS)
def test_a_failing_check_is_reported_under_its_own_name(name, tmp_path, monkeypatch):
    monkeypatch.setattr(treea1.verify, *_FAILING[name])
    with pytest.raises(ViolationError) as err:
        fuzz_campaign(2, 2, 3, seed=1, grid=[1, 2, 3], checks=(name,))
    assert err.value.check == name

    out = tmp_path / "run"
    assert main(["verify", "--k", "2", "--depth", "2", "--trials", "3", "--out", str(out)]) == 1
    assert f"\ncheck: {name}\n" in (out / "counterexample.txt").read_text()


def test_sharpness_sweep_family_row():
    row = sharpness_sweep(2, 2, [4], [Fraction(3, 16)])[0]
    assert row.nominal_c == Fraction(7, 4)
    assert row.measured_c == Fraction(5, 2)
    assert row.bound == 4
    assert row.sup_ratio == 3
    assert row.ratio_at_branch_scale == Fraction(11, 4)
    assert row.gap == 1


def test_sharpness_sweep_exact_variant_has_zero_gap():
    row = sharpness_sweep(2, 2, [2], [Fraction(1, 4)])[0]
    assert row.measured_c == 2 and row.sup_ratio == 3 and row.gap == 0


def test_sharpness_sweep_default_deltas_approach_bound():
    rows = sharpness_sweep(2, 2, [4, 6, 8])
    ratios = [row.ratio_at_branch_scale for row in rows]
    assert ratios == sorted(ratios)
    assert all(r < 3 for r in ratios)
    assert ratios[-1] > Fraction(29, 10)  # closing in on k*c - k + 1 = 3


def test_sharpness_sweep_raises_with_the_family_weight_when_the_bound_fails(monkeypatch):
    original = treea1.verify.sup_ratio

    def tampered(profile):
        ratio, witness = original(profile)
        return ratio + 2, witness

    monkeypatch.setattr(treea1.verify, "sup_ratio", tampered)
    with pytest.raises(ViolationError) as info:
        sharpness_sweep(2, 2, [4])
    assert info.value.check == "bound"
    family = extremal_family(ExtremalParams.from_constant(2, 2, default_family_delta(2, 4), 4))
    assert info.value.weight_text == weight_to_text(family)


def test_sharpness_sweep_rejects_misaligned_delta():
    with pytest.raises(ParameterError):
        sharpness_sweep(2, 2, [4], [Fraction(1, 3)])
    with pytest.raises(ParameterError):
        sharpness_sweep(2, 2, [])
    for depth in (1, True):
        with pytest.raises(ParameterError, match="family depth must be an integer >= 2"):
            sharpness_sweep(2, 2, [depth])


def test_default_family_delta():
    assert default_family_delta(2, 2) == Fraction(1, 4)
    assert default_family_delta(2, 4) == Fraction(3, 16)
    assert default_family_delta(3, 3) == Fraction(2, 27)


def test_a_constant_above_its_bound_fails_the_bound_check(monkeypatch):
    # c = 1/2 gives the bound 2*c - 1 = 0 at k = 2, and a sup-ratio of 0 gives margin 0, so only c > bound fails
    monkeypatch.setattr(treea1.verify, "a1_constant", lambda a: Fraction(1, 2))
    monkeypatch.setattr(treea1.verify, "sup_ratio", lambda profile: (0, 1))
    with pytest.raises(ViolationError) as err:
        fuzz_campaign(2, 2, 3, seed=0, grid=[1, 2, 3])
    assert err.value.check == "bound"
    assert err.value.detail == "trial 0: c=1/2 exceeds bound=0, impossible for c >= 1"


# Two leaf values whose denominators are 3,000 digits long: a weight holding both has a constant and a
# sup-ratio that Python can still write, until the sup-ratio is pushed past the int-to-str limit.
LONG_DENOMINATORS = (10**2999 + 1, 10**2999 + 3)


def _inflate_the_sup_ratio(monkeypatch):
    """Multiply every sup-ratio by 10**3000, so a long one has more digits than Python writes."""
    original = treea1.verify.sup_ratio

    def inflated(profile):
        ratio, witness = original(profile)
        return ratio * 10**3000, witness

    monkeypatch.setattr(treea1.verify, "sup_ratio", inflated)


def test_a_failure_past_the_int_string_limit_is_reported_not_raised(monkeypatch, int_str_limit):
    _inflate_the_sup_ratio(monkeypatch)
    a, b = LONG_DENOMINATORS
    report = check_rearrangement_bound(make_step_weight(make_shape(2, 2), [2, 2, Fraction(1, a), Fraction(1, b)]))
    with pytest.raises(ViolationError) as err:
        treea1.verify._require(("bound",), report)
    assert err.value.check == "bound"
    assert err.value.detail == (f"sup_ratio={decimal_string(report.sup_ratio)} exceeds "
                                f"bound={decimal_string(report.bound)} (c={decimal_string(report.c)})")
    assert str(err.value) == f"check 'bound' failed: {err.value.detail}"
    with pytest.raises(ViolationError) as err:
        fuzz_campaign(2, 2, 3, 0, [Fraction(1, a), Fraction(1, b), 1])
    assert err.value.check == "bound"
    assert err.value.detail.startswith("trial 0: sup_ratio=1e+5999 exceeds bound=")  # the bound is writable
    assert str(err.value) == f"trial 0: check 'bound' failed: {err.value.detail.removeprefix('trial 0: ')}"
