from fractions import Fraction

import pytest
from hypothesis import given

from conftest import step_weights
from treea1 import (
    ParameterError,
    SearchConfig,
    extremal_exact,
    hill_climb,
    make_shape,
    make_step_weight,
    objective_exact,
    scale,
)
from treea1.search import _objective_float


def test_objective_examples():
    assert objective_exact(make_step_weight(make_shape(2, 2), [5] * 4)) == 1
    assert objective_exact(extremal_exact(2, 2)) == 1
    assert objective_exact(make_step_weight(make_shape(2, 2), [3, 1, 2, 1])) == Fraction(5, 6)


@given(step_weights())
def test_objective_never_exceeds_one(w):
    value = objective_exact(w)
    assert 0 < value <= 1


@given(step_weights())
def test_objective_scaling_invariance(w):
    assert objective_exact(scale(w, Fraction(7, 3))) == objective_exact(w)


@given(step_weights())
def test_float_evaluator_tracks_exact_objective(w):
    fast = _objective_float(w.shape.k, w.shape.m, [float(v) for v in w.leaf_values])
    assert fast == pytest.approx(float(objective_exact(w)), rel=1e-9, abs=1e-12)


def test_config_validation():
    shape = make_shape(2, 2)
    with pytest.raises(ParameterError):
        SearchConfig(shape=shape, iterations=0, restarts=1, seed=0)
    with pytest.raises(ParameterError):
        SearchConfig(shape=shape, iterations=1, restarts=0, seed=0)


def test_config_refuses_bools_as_counts():
    shape = make_shape(2, 2)
    with pytest.raises(ParameterError, match="iterations"):
        SearchConfig(shape=shape, iterations=True, restarts=1, seed=0)
    with pytest.raises(ParameterError, match="restarts"):
        SearchConfig(shape=shape, iterations=1, restarts=True, seed=0)


def test_hill_climb_minimal_budget():
    result = hill_climb(SearchConfig(shape=make_shape(2, 2), iterations=1, restarts=1, seed=0))
    assert len(result.trace) == 1
    assert 0 < result.exact_objective <= 1
    assert result.best_weight.shape == make_shape(2, 2)


def test_hill_climb_is_deterministic():
    config = SearchConfig(shape=make_shape(2, 2), iterations=200, restarts=3, seed=17)
    a = hill_climb(config)
    b = hill_climb(config)
    assert a.trace == b.trace
    assert a.best_weight == b.best_weight
    assert a.best_objective == b.best_objective
    assert a.best_restart == b.best_restart


def test_hill_climb_trace_is_non_decreasing():
    result = hill_climb(SearchConfig(shape=make_shape(2, 3), iterations=300, restarts=2, seed=5))
    assert len(result.trace) == 600
    assert all(a <= b for a, b in zip(result.trace, result.trace[1:]))
    assert result.best_objective == result.trace[-1]


def test_hill_climb_best_reverifies_exactly():
    result = hill_climb(SearchConfig(shape=make_shape(2, 2), iterations=500, restarts=2, seed=23))
    assert result.exact_objective <= 1
    assert result.best_objective <= 1 + 2.0**-40
    assert objective_exact(result.best_weight) == result.exact_objective
