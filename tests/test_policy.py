from __future__ import annotations

import math
import operator
import random

import pytest

from agentfork import schema
from agentfork.config import SimulatorConfig
from agentfork.policy import (
    PRIOR_BOUNDS,
    CalibrationState,
    ComplexityMetrics,
    PolicyError,
    RuntimeState,
    SpawnAction,
    SpawnDecision,
    Specialization,
    decide_spawn,
    dominant_specialization,
    normalize_all,
    normalize_metric,
    spawn_score,
    update_calibration,
)

from conftest import random_metrics

DEFAULT_WEIGHTS = (0.30, 0.20, 0.25, 0.15, 0.10)

SPIKE = ComplexityMetrics(
    interdependency=17.0,
    cyclomatic=40.0,
    failure_cascade=85.0,
    context_occupancy=0.97,
    uncertainty=8.0,
)


def test_calibration_widens_max():
    state = CalibrationState()
    update_calibration(state, ComplexityMetrics(15, 60, 5, 0.5, 2))
    assert state.bounds["cyclomatic"] == (0.0, 60.0)
    assert state.bounds["interdependency"] == (0.0, 20.0)


def test_calibration_noop_inside_bounds():
    state = CalibrationState()
    before = dict(state.bounds)
    update_calibration(state, ComplexityMetrics(5, 10, 20, 0.4, 3))
    assert state.bounds == before


def test_fresh_calibration_equals_priors():
    assert CalibrationState().bounds == PRIOR_BOUNDS


def test_calibration_never_shrinks():
    rng = random.Random(9)
    state = CalibrationState()
    history = []
    for _ in range(50):
        update_calibration(state, random_metrics(rng))
        history.append({k: v for k, v in state.bounds.items()})
    for earlier, later in zip(history, history[1:]):
        for name in earlier:
            assert later[name][0] <= earlier[name][0]
            assert later[name][1] >= earlier[name][1]


def test_normalize_metric_examples():
    assert normalize_metric(5, 0, 10) == pytest.approx(0.5)
    assert normalize_metric(3.7, 2.0, 2.0) == 0.0
    assert normalize_metric(99, 7, 7) == 0.0


def test_normalize_metric_clamps_and_rejects_bad_bounds():
    assert normalize_metric(-5, 0, 10) == 0.0
    assert normalize_metric(50, 0, 10) == 1.0
    with pytest.raises(PolicyError):
        normalize_metric(1, 5, 2)


def test_context_occupancy_identity_under_prior_bounds():
    state = CalibrationState()
    for value in (0.0, 0.25, 0.5, 0.97, 1.0):
        metrics = ComplexityMetrics(0, 0, 0, value, 0)
        assert normalize_all(metrics, state)[3] == pytest.approx(value)


def test_spawn_score_examples():
    assert spawn_score((1, 1, 1, 1, 1), DEFAULT_WEIGHTS) == pytest.approx(1.0)
    assert spawn_score((1, 0, 0, 0, 0), DEFAULT_WEIGHTS) == pytest.approx(0.30)
    assert spawn_score((0, 0, 0, 0, 0), DEFAULT_WEIGHTS) == 0.0


def test_spawn_score_is_a_left_fold_on_every_python():
    """From Python 3.12, ``sum`` of floats compensates its rounding. The
    score is a plain left fold, so these inputs, where the two differ,
    score alike on every version."""
    cases = [(DEFAULT_WEIGHTS, (0.84, 0.76, 0.42, 0.26, 0.51)), ((1.0,) * 5, (1e16, 1.0, -1e16, 0.0, 0.0))]
    for weights, normalized in cases:
        fold = 0.0
        for w, v in zip(weights, normalized):
            fold = fold + w * v
        assert fold != math.fsum(map(operator.mul, weights, normalized))
        assert spawn_score(normalized, weights) == fold


def test_spawn_score_monotone_in_each_coordinate():
    rng = random.Random(21)
    for _ in range(300):
        base = tuple(rng.random() for _ in range(5))
        score = spawn_score(base, DEFAULT_WEIGHTS)
        i = rng.randrange(5)
        bumped = tuple(
            min(1.0, v + rng.random() * (1 - v)) if k == i else v for k, v in enumerate(base)
        )
        assert spawn_score(bumped, DEFAULT_WEIGHTS) >= score - 1e-12


def test_dominant_specialization_mapping():
    assert dominant_specialization((0.1, 0.2, 0.9, 0.3, 0.0)) is Specialization.TESTING_DEBUGGING
    assert dominant_specialization((0.1, 0.2, 0.3, 0.9, 0.0)) is Specialization.CONTEXT_COMPRESSION
    assert dominant_specialization((0.9, 0.1, 0.1, 0.1, 0.1)) is Specialization.REFACTORING
    assert dominant_specialization((0.1, 0.9, 0.1, 0.1, 0.1)) is Specialization.SIMPLIFICATION
    assert dominant_specialization((0.1, 0.1, 0.1, 0.1, 0.9)) is Specialization.RESEARCH_ANALYSIS


def test_dominant_specialization_tie_breaks_in_metric_order():
    assert dominant_specialization((0.8, 0.8, 0.1, 0.1, 0.1)) is Specialization.REFACTORING
    assert dominant_specialization((0.1, 0.7, 0.7, 0.1, 0.1)) is Specialization.SIMPLIFICATION
    assert dominant_specialization((0.5, 0.5, 0.5, 0.5, 0.5)) is Specialization.REFACTORING


def test_dominant_specialization_scale_invariant():
    rng = random.Random(2)
    for _ in range(200):
        vec = tuple(rng.random() for _ in range(5))
        c = rng.uniform(0.05, 1.0)
        scaled = tuple(v * c for v in vec)
        assert dominant_specialization(vec) is dominant_specialization(scaled)


def test_decide_spawn_spike_spawns_context_compression():
    decision = decide_spawn(SPIKE, CalibrationState(), SimulatorConfig(), RuntimeState(depth=1))
    assert decision.action is SpawnAction.SPAWN
    assert decision.specialization is Specialization.CONTEXT_COMPRESSION
    assert decision.score == pytest.approx(0.853, abs=1e-9)
    assert decision.score > 0.7


def test_decide_spawn_blocked_at_max_depth():
    decision = decide_spawn(SPIKE, CalibrationState(), SimulatorConfig(), RuntimeState(depth=3))
    assert decision.action is SpawnAction.CONTINUE
    assert decision.specialization is None
    assert decision.score == pytest.approx(0.853, abs=1e-9)


def test_decide_spawn_below_threshold_continues():
    mild = ComplexityMetrics(10, 25, 50, 0.5, 5)
    decision = decide_spawn(mild, CalibrationState(), SimulatorConfig(), RuntimeState())
    assert decision.action is SpawnAction.CONTINUE
    assert decision.score == pytest.approx(0.5, abs=1e-9)


def test_decide_spawn_blocked_by_concurrency_and_cooldown():
    config = SimulatorConfig()
    blocked = decide_spawn(SPIKE, CalibrationState(), config, RuntimeState(active_children=4))
    assert blocked.action is SpawnAction.CONTINUE
    cooling = decide_spawn(
        SPIKE, CalibrationState(), config, RuntimeState(steps_since_last_spawn=2)
    )
    assert cooling.action is SpawnAction.CONTINUE


def test_decide_spawn_is_pure():
    state = CalibrationState()
    update_calibration(state, SPIKE)
    args = (SPIKE, state, SimulatorConfig(), RuntimeState(depth=1))
    assert decide_spawn(*args) == decide_spawn(*args)


def _oracle_decide(metrics, calibration, config, runtime_state):
    normalized = []
    for name in ("interdependency", "cyclomatic", "failure_cascade", "context_occupancy", "uncertainty"):
        value = getattr(metrics, name)
        lo, hi = calibration.bounds[name]
        normalized.append(0.0 if hi == lo else min(1.0, max(0.0, (value - lo) / (hi - lo))))
    score = sum(w * v for w, v in zip(config.weights, normalized))
    spawn = (
        score > config.spawn_threshold
        and runtime_state.depth < config.max_spawn_depth
        and runtime_state.active_children < config.concurrent_spawn_limit
        and runtime_state.steps_since_last_spawn >= config.cooldown_steps
    )
    spec = None
    if spawn:
        best = max(range(5), key=lambda i: (normalized[i], -i))
        spec = (
            Specialization.REFACTORING,
            Specialization.SIMPLIFICATION,
            Specialization.TESTING_DEBUGGING,
            Specialization.CONTEXT_COMPRESSION,
            Specialization.RESEARCH_ANALYSIS,
        )[best]
    return spawn, spec, score


def test_decide_spawn_matches_brute_force_oracle():
    rng = random.Random(77)
    config = SimulatorConfig()
    for _ in range(500):
        calibration = CalibrationState()
        for _ in range(rng.randint(0, 4)):
            update_calibration(calibration, random_metrics(rng))
        metrics = random_metrics(rng)
        runtime_state = RuntimeState(
            depth=rng.randint(0, 4),
            active_children=rng.randint(0, 6),
            steps_since_last_spawn=rng.randint(0, 10),
        )
        decision = decide_spawn(metrics, calibration, config, runtime_state)
        spawn, spec, score = _oracle_decide(metrics, calibration, config, runtime_state)
        assert (decision.action is SpawnAction.SPAWN) == spawn
        assert decision.specialization == spec
        assert decision.score == pytest.approx(score, abs=1e-12)


def test_spawn_decision_invariant():
    with pytest.raises(PolicyError):
        SpawnDecision(SpawnAction.SPAWN, None, 0.9, (1, 1, 1, 1, 1))
    with pytest.raises(PolicyError):
        SpawnDecision(SpawnAction.CONTINUE, Specialization.REFACTORING, 0.9, (1, 1, 1, 1, 1))


def test_simulator_config_validates_policy_knobs():
    with pytest.raises(PolicyError):
        SimulatorConfig(w1=0.5, w2=0.5, w3=0.5, w4=0.5, w5=0.5)
    with pytest.raises(schema.FieldError):
        SimulatorConfig(spawn_threshold=1.5)
    with pytest.raises(PolicyError):
        ComplexityMetrics(1, 1, 1, 1.2, 1)


@pytest.mark.parametrize("reading", [float("nan"), float("inf")])
@pytest.mark.parametrize("position", range(5))
def test_complexity_metrics_reject_non_finite_readings(position, reading):
    values = [1.0, 1.0, 1.0, 0.5, 1.0]
    values[position] = reading
    with pytest.raises(PolicyError, match="finite"):
        ComplexityMetrics(*values)


@pytest.mark.parametrize("reading", ["3", "1e3"])
def test_complexity_metrics_reject_a_string_reading(reading):
    with pytest.raises(TypeError):
        ComplexityMetrics(reading, 1.0, 1.0, 0.5, 1.0)
