"""One analysis per weight: built once, read by every check, and never a shortcut."""
from collections import Counter
from fractions import Fraction
from functools import cached_property

from hypothesis import given

from conftest import step_weights
from treea1 import (
    RearrangedProfile,
    StoppingFamily,
    WeightAnalysis,
    a1_constant,
    analyze,
    audit_superlevel,
    average_thresholds,
    check_decomposition,
    check_growth_bound,
    check_oracle_equality,
    check_rearrangement_bound,
    check_stopping_consistency,
    check_weak_type,
    extremal_exact,
    fuzz_campaign,
    make_shape,
    make_step_weight,
    maximal_function,
    stopping_family,
    superlevel_set,
)
import treea1.verify
import treea1.weights
from treea1.search import objective_exact


def _family_fields(fam):
    return fam.members, dict(fam.star), fam.assignment


def _report_fields(report):
    audits = tuple(
        (a.t, a.level.threshold, a.level.nodes, a.level.superlevel_measure, a.level.set_average, a.passed)
        for a in report.audits
    )
    return (report.c, report.bound, report.sup_ratio, report.margin, report.witness, report.holds,
            report.profile, report.stopping_consistent, report.growth_bound_ok, report.weak_type_ok,
            report.decomposition_ok, audits)


def _audit_fields(audit):
    level = audit.level
    return (audit.t, level.level_value, level.threshold, level.degenerate, level.nodes,
            level.superlevel_measure, level.above_threshold_measure, level.set_average, audit.passed)


def test_analyze_returns_an_analysis_unchanged():
    a = analyze(extremal_exact(2, 2))
    assert analyze(a) is a
    assert maximal_function(a) == (3, 2, 3, 2) and a.c == 2
    assert a.scaled_averages[:2] == ((2 * a.unit,), (2 * a.unit,) * 2)


def test_one_report_builds_the_tables_and_the_family_once(monkeypatch):
    built = []
    for cls, label in ((WeightAnalysis, "tables"), (StoppingFamily, "family")):
        original = cls.__init__

        def counted(self, *args, _original=original, _label=label, **kwargs):
            built.append(_label)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    w = make_step_weight(make_shape(2, 3), [5, 1, 2, 2, 7, 1, 3, 1])
    report = check_rearrangement_bound(w, properties=True, with_audits=True)
    assert report.decomposition_ok and all(a.passed for a in report.audits)
    assert built == ["tables", "family"]


def test_bound_and_kadic_checks_build_no_family(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the bound and k-adic checks need no stopping family")

    monkeypatch.setattr(StoppingFamily, "__init__", refuse)
    assert check_rearrangement_bound(extremal_exact(3, 2)).holds
    summary = fuzz_campaign(3, 2, 5, seed=1, grid=[1, 2, 3], checks=("kadic",))
    assert all(row.kadic_ok for row in summary.rows)


def test_bound_only_paths_never_build_the_per_leaf_maximal_function(monkeypatch):
    built = []
    original = WeightAnalysis.__init__

    def collected(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(WeightAnalysis, "__init__", collected)
    summary = fuzz_campaign(2, 4, 5, seed=2, grid=[1, 2, 3, 5], checks=("kadic",))
    assert all(row.kadic_ok for row in summary.rows) and len(built) == 5
    w = extremal_exact(3, 2)
    assert check_rearrangement_bound(w).holds
    assert objective_exact(w) == 1
    assert len(treea1.verify.sharpness_sweep(2, 2, [4])) == 1
    assert len(built) == 8
    for a in built:
        assert "scaled_maximal" not in a.__dict__
        assert len(a.scaled_parent_maximal) == len(a.scaled_averages[-2])


def test_the_per_leaf_maximal_function_is_built_once_on_first_read(monkeypatch):
    reads = []
    original = WeightAnalysis.scaled_maximal.func

    def counted(self):
        reads.append(self)
        return original(self)

    lazy = cached_property(counted)
    lazy.__set_name__(WeightAnalysis, "scaled_maximal")
    monkeypatch.setattr(WeightAnalysis, "scaled_maximal", lazy)
    w = make_step_weight(make_shape(2, 3), [5, 1, 2, 2, 7, 1, 3, 1])
    report = check_rearrangement_bound(w, properties=True)
    assert report.weak_type_ok and report.decomposition_ok
    assert reads == [report.analysis]
    a = analyze(w)
    assert maximal_function(a) == maximal_function(a) == (5, 3, Fraction(11, 4), Fraction(11, 4), 7, 4, 3, 3)
    assert reads == [report.analysis, a]


def test_a_kadic_campaign_builds_one_weight_and_one_analysis_per_weight(monkeypatch):
    built = Counter()
    original = WeightAnalysis.__init__

    def counted(self, *args, **kwargs):
        built["WeightAnalysis"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(WeightAnalysis, "__init__", counted)
    # a weight built from its codes skips __init__; both construction paths end in weights._fill
    fill = treea1.weights._fill

    def filled(w, *args):
        built[type(w).__name__] += 1
        return fill(w, *args)

    monkeypatch.setattr(treea1.weights, "_fill", filled)
    summary = fuzz_campaign(2, 3, 6, seed=3, grid=[1, Fraction(5, 3), 4], checks=("kadic",))
    assert len(summary.rows) == 6 and all(row.kadic_ok for row in summary.rows)
    assert built == {"StepWeight": 6, "WeightAnalysis": 6}


def test_an_exhaustive_campaign_builds_one_profile_and_kadic_constant_per_leaf_histogram(monkeypatch):
    """k=2 m=3 on grid 1,2: 256 weights, but only 9 histograms, one per count of leaves at 2."""
    built = Counter()

    def counting(label, original):
        def counted(*args, **kwargs):
            built[label] += 1
            return original(*args, **kwargs)

        return counted

    monkeypatch.setattr(WeightAnalysis, "__init__", counting("WeightAnalysis", WeightAnalysis.__init__))
    monkeypatch.setattr(RearrangedProfile, "__post_init__", counting("RearrangedProfile", RearrangedProfile.__post_init__))
    monkeypatch.setattr(treea1.verify, "kadic_constant", counting("kadic_constant", treea1.verify.kadic_constant))
    summary = fuzz_campaign(2, 3, 0, seed=0, grid=[1, 2], exhaustive=True)
    assert len(summary.rows) == 256 and all(row.kadic_ok for row in summary.rows)
    assert built == {"WeightAnalysis": 256, "RearrangedProfile": 9, "kadic_constant": 9}


@given(step_weights(max_depth=2))
def test_every_reader_answers_the_same_on_a_weight_and_its_analysis(w):
    """The oracles (average, maximal_function_bruteforce) take weights only."""
    a = analyze(w)
    assert maximal_function(a) == maximal_function(w)
    assert a1_constant(a) == a1_constant(w)
    assert _family_fields(stopping_family(a)) == _family_fields(stopping_family(w))
    thresholds = average_thresholds(w)
    assert average_thresholds(a) == thresholds
    for lam in thresholds + (thresholds[0] / 2,):
        assert superlevel_set(a, lam) == superlevel_set(w, lam)
        assert check_weak_type(a, lam) == check_weak_type(w, lam)
    assert check_stopping_consistency(a) == check_stopping_consistency(w)
    assert check_decomposition(a) == check_decomposition(w)
    assert check_oracle_equality(a) == check_oracle_equality(w)
    grown_a, grown_w = check_growth_bound(a), check_growth_bound(w)
    assert (grown_a.ok, grown_a.violation) == (grown_w.ok, grown_w.violation)
    full = dict(properties=True, with_audits=True)
    assert _report_fields(check_rearrangement_bound(a, **full)) == _report_fields(
        check_rearrangement_bound(w, **full)
    )
    t = Fraction(1, 2)
    assert _audit_fields(audit_superlevel(a, t)) == _audit_fields(audit_superlevel(w, t))


def test_decomposition_check_compares_two_independent_sweeps():
    a = analyze(extremal_exact(2, 2))
    assert check_decomposition(a)
    object.__setattr__(a, "scaled_maximal", tuple(v + 1 for v in a.scaled_maximal))
    assert not check_decomposition(a)
