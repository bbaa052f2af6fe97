import math
import random
from fractions import Fraction

import pytest
from hypothesis import given

from conftest import step_weights
import treea1.search
from treea1 import (
    ParameterError,
    SearchConfig,
    ViolationError,
    decimal_string,
    extremal_exact,
    hill_climb,
    make_shape,
    make_step_weight,
    objective_exact,
    scale,
)
from treea1.search import (
    _FACTOR_DENOM, _FLOAT_SLACK, _STEP_SPAN, _VALUE_FLOOR, MoveCounts, _FloatClimb, _move, _exact_at_most_one
)


def _objective_float(k: int, m: int, values: list[float]) -> float:
    """The climb's float objective re-evaluated from scratch: the reference for `_FloatClimb`.

    This is the evaluator the climb ran before its state became incremental,
    moved here unchanged; every `trace.csv` digest was recorded with it.
    """
    # maximal function via level sums and a top-down running max
    sums = values
    averages = [values]
    for _ in range(m):
        sums = [sum(sums[k * i + j] for j in range(k)) for i in range(len(sums) // k)]
        width = len(values) // len(sums)
        averages.append([s / width for s in sums])
    averages.reverse()
    running = averages[0]
    for level in range(1, m + 1):
        running = [max(running[i // k], a) for i, a in enumerate(averages[level])]
    c = max(mf / v for mf, v in zip(running, values))
    bound = k * c - k + 1

    # sup of prefix-average ratios over sorted leaf boundaries; boundaries
    # interior to a constant run can only tie or lose, so no coalescing needed
    ordered = sorted(values, reverse=True)
    best = 1.0
    prefix = 0.0
    for j in range(1, len(ordered)):
        prefix += ordered[j - 1]
        best = max(best, (prefix / j) / ordered[j])
    return best / bound


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
    fast = _FloatClimb(w.shape.k, w.shape.m, [float(v) for v in w.leaf_values]).score()
    assert fast == pytest.approx(float(objective_exact(w)), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("k, m", [(2, 1), (2, 6), (2, 8), (3, 4), (4, 2)])
def test_incremental_climb_equals_full_reevaluation(k, m):
    # seeded random walks with kept and undone moves, compared with == at every
    # step: the climb's trace is digest-pinned, so no rounding may differ
    rng = random.Random(1000 * k + m)
    n = k**m
    values = [float(rng.randint(1, 16)) for _ in range(n)]
    climb = _FloatClimb(k, m, values)
    assert climb.score() == _objective_float(k, m, values)
    for _ in range(1500):
        pos = rng.randrange(n)
        # equal leaves now and then, so sorted runs and tied minima are exercised too
        x = values[rng.randrange(n)] if rng.random() < 0.1 else values[pos] * rng.uniform(0.7, 1.3)
        old = climb.set(pos, x)
        assert old == values[pos]
        values[pos] = x
        assert climb.score() == _objective_float(k, m, values)
        if rng.random() < 0.5:
            assert climb.set(pos, old) == x
            values[pos] = old
            assert climb.score() == _objective_float(k, m, values)


def _climb_reference(config: SearchConfig):
    """The climb as it ran before its leaves were dyadic ints: the reference for `hill_climb`.

    Moves are `Fraction` products drawn with `randrange`/`randint`, every state
    is scored from scratch by `_objective_float`, and a rejected move is undone
    by setting the old value back.  Returns (trace, best values, best restart,
    restart counts).
    """
    k, m, n = config.shape.k, config.shape.m, config.shape.leaf_count

    def evaluate(values):
        score = _objective_float(k, m, [float(v) for v in values])
        if score > 1 + _FLOAT_SLACK:
            return float(_exact_at_most_one(make_step_weight(config.shape, values))), 1
        return score, 0

    master = random.Random(config.seed)
    restart_seeds = [master.randrange(2**63) for _ in range(config.restarts)]
    trace, counts = [], []
    global_best, best_values, best_restart = -math.inf, None, 0
    for restart, restart_seed in enumerate(restart_seeds):
        rng = random.Random(restart_seed)
        values = [Fraction(rng.randint(1, 16)) for _ in range(n)]
        current, fallbacks = evaluate(values)
        accepted = 0
        if current > global_best:
            global_best, best_values, best_restart = current, tuple(values), restart
        for _ in range(config.iterations):
            pos = rng.randrange(n)
            factor = Fraction(_FACTOR_DENOM + rng.randint(-_STEP_SPAN, _STEP_SPAN), _FACTOR_DENOM)
            old = values[pos]
            values[pos] = max(old * factor, _VALUE_FLOOR)
            score, fell_back = evaluate(values)
            fallbacks += fell_back
            if score >= current:
                current = score
                accepted += 1
            else:
                values[pos] = old
            if current > global_best:
                global_best, best_values, best_restart = current, tuple(values), restart
            trace.append(global_best)
        counts.append(MoveCounts(accepted, config.iterations - accepted, fallbacks))
    return tuple(trace), best_values, best_restart, tuple(counts)


@pytest.mark.parametrize(
    "k, m, iterations, seeds",
    [(2, 1, 300, range(6)), (2, 6, 200, range(4)), (3, 4, 200, range(4)), (4, 3, 150, range(3)), (2, 8, 60, range(2))],
)
def test_hill_climb_equals_the_fraction_move_reference(k, m, iterations, seeds):
    # the int moves, the chain undo and the unrolled draws must change nothing:
    # trace.csv, best_weight.txt and summary.json are digest-pinned
    for seed in seeds:
        config = SearchConfig(shape=make_shape(k, m), iterations=iterations, restarts=2, seed=seed)
        result = hill_climb(config)
        trace, best_values, best_restart, counts = _climb_reference(config)
        assert result.trace == trace
        assert result.best_weight.leaf_values == best_values
        assert result.best_restart == best_restart
        assert result.restart_counts == counts


def _dyadic(value: Fraction) -> tuple[int, int]:
    exp = value.denominator.bit_length() - 1
    assert value.denominator == 1 << exp
    return value.numerator, exp


def test_int_move_equals_the_fraction_move():
    rng = random.Random(7)
    steps = [-_STEP_SPAN, -_STEP_SPAN + 1, -1, 0, 1, _STEP_SPAN - 1, _STEP_SPAN]
    values = [_VALUE_FLOOR, _VALUE_FLOOR * 2, _VALUE_FLOOR / 2, Fraction(1), Fraction(16), Fraction(3, 1 << 70)]
    tiny = Fraction(1, 1 << 120)
    values += [_VALUE_FLOOR + tiny, _VALUE_FLOOR - tiny]
    for q in steps:
        # leaves whose product with this factor lands just above, on and just below the floor
        exact = _VALUE_FLOOR * _FACTOR_DENOM / (_FACTOR_DENOM + q)
        scale = 1 << 120
        low = Fraction(math.floor(exact * scale), scale)
        values += [low, low + Fraction(1, scale)]
    values += [Fraction(rng.randrange(1, 1 << rng.randrange(1, 90)), 1 << rng.randrange(0, 120)) for _ in range(300)]
    for value in values:
        num, exp = _dyadic(value)
        for q in steps + [rng.randint(-_STEP_SPAN, _STEP_SPAN) for _ in range(5)]:
            expected = max(value * Fraction(_FACTOR_DENOM + q, _FACTOR_DENOM), _VALUE_FLOOR)
            new_num, new_exp = _move(num, exp, _FACTOR_DENOM + q)
            assert Fraction(new_num, 1 << new_exp) == expected
            # lowest terms, as the Fraction keeps them
            assert (new_num, 1 << new_exp) == (expected.numerator, expected.denominator)
            assert new_num / (1 << new_exp) == float(expected)


def _climb_state(climb: _FloatClimb) -> tuple:
    return climb._sums, climb._mins, climb._ratios, climb._ascending


@pytest.mark.parametrize("k, m", [(2, 1), (2, 5), (3, 3), (4, 2)])
def test_undo_restores_the_state_a_fresh_climb_builds(k, m):
    rng = random.Random(31 * k + m)
    n = k**m
    values = [float(rng.randint(1, 16)) for _ in range(n)]
    climb = _FloatClimb(k, m, values)
    for _ in range(800):
        pos = rng.randrange(n)
        # equal leaves now and then, so sorted runs and tied minima are exercised too
        x = values[rng.randrange(n)] if rng.random() < 0.2 else values[pos] * rng.uniform(0.7, 1.3)
        old = values[pos]
        assert climb.set(pos, x) == old
        values[pos] = x
        assert _climb_state(climb) == _climb_state(_FloatClimb(k, m, values))
        if rng.random() < 0.5:
            climb.undo()
            values[pos] = old
            assert _climb_state(climb) == _climb_state(_FloatClimb(k, m, values))


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


def test_config_refuses_a_seed_that_is_not_a_non_negative_int():
    shape = make_shape(2, 2)
    for seed in (-3, True, None, 1.0, "3"):
        with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
            SearchConfig(shape=shape, iterations=1, restarts=1, seed=seed)


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


def test_hill_climb_counts_every_move_per_restart():
    config = SearchConfig(shape=make_shape(2, 3), iterations=250, restarts=3, seed=9)
    result = hill_climb(config)
    assert len(result.restart_counts) == 3
    for counts in result.restart_counts:
        assert counts.accepted + counts.rejected == 250
        assert counts.accepted > 0 and counts.rejected > 0


def test_hill_climb_counts_exact_fallbacks(monkeypatch):
    config = SearchConfig(shape=make_shape(2, 2), iterations=20, restarts=2, seed=3)
    assert all(counts.fallbacks == 0 for counts in hill_climb(config).restart_counts)
    monkeypatch.setattr(_FloatClimb, "score", lambda self: 1 + 2 * _FLOAT_SLACK)
    result = hill_climb(config)
    # every evaluation, the start of each restart included, took the exact path
    assert [counts.fallbacks for counts in result.restart_counts] == [21, 21]
    assert result.best_objective == float(result.exact_objective) <= 1


def test_an_objective_past_the_int_string_limit_is_reported_not_raised(monkeypatch, int_str_limit):
    huge = Fraction(10**4400 + 1, 3)
    monkeypatch.setattr(treea1.search, "objective_exact", lambda w: huge)
    with pytest.raises(ViolationError) as err:
        _exact_at_most_one(extremal_exact(2, 2))
    assert err.value.check == "objective"
    assert err.value.detail == f"exact objective {decimal_string(huge)}"
    assert str(err.value) == f"search objective {decimal_string(huge)} exceeds 1, contradicting the bound"
