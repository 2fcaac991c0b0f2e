"""Complexity-driven spawn decisions.

Five runtime complexity signals are normalized against running min/max
bounds, combined into a weighted score, and compared against a spawn
threshold. When the score clears the threshold and the depth, concurrency,
and cooldown gates all pass, the dominant metric picks the child's
specialization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .config import SimulatorConfig


class PolicyError(ValueError):
    """A bad policy input."""


class SpawnAction(str, Enum):
    CONTINUE = "continue"
    SPAWN = "spawn"


class Specialization(str, Enum):
    REFACTORING = "refactoring"
    SIMPLIFICATION = "simplification"
    TESTING_DEBUGGING = "testing_debugging"
    CONTEXT_COMPRESSION = "context_compression"
    RESEARCH_ANALYSIS = "research_analysis"


# Metric order doubles as the tie-break priority for specialization.
METRIC_NAMES = (
    "interdependency",
    "cyclomatic",
    "failure_cascade",
    "context_occupancy",
    "uncertainty",
)

SPECIALIZATION_BY_METRIC = {
    "interdependency": Specialization.REFACTORING,
    "cyclomatic": Specialization.SIMPLIFICATION,
    "failure_cascade": Specialization.TESTING_DEBUGGING,
    "context_occupancy": Specialization.CONTEXT_COMPRESSION,
    "uncertainty": Specialization.RESEARCH_ANALYSIS,
}

# Prior normalization bounds per metric; seeding with these prevents the
# first observation from degenerating to max == min.
PRIOR_BOUNDS = {
    "interdependency": (0.0, 20.0),
    "cyclomatic": (0.0, 50.0),
    "failure_cascade": (0.0, 100.0),
    "context_occupancy": (0.0, 1.0),
    "uncertainty": (0.0, 10.0),
}


@dataclass(frozen=True)
class ComplexityMetrics:
    """Raw per-step complexity readings from a metric provider."""

    interdependency: float
    cyclomatic: float
    failure_cascade: float
    context_occupancy: float
    uncertainty: float

    def __post_init__(self):
        for name in METRIC_NAMES:
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise PolicyError(f"{name} must be finite and >= 0, got {value}")
            object.__setattr__(self, name, float(value))
        if not 0.0 <= self.context_occupancy <= 1.0:
            raise PolicyError("context_occupancy must be in [0, 1]")


@dataclass
class CalibrationState:
    """Running min/max per metric, widened as observations arrive."""

    bounds: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(PRIOR_BOUNDS)
    )

    def __post_init__(self):
        for name, (lo, hi) in self.bounds.items():
            if lo > hi:
                raise PolicyError(f"{name}: min {lo} > max {hi}")


def update_calibration(state: CalibrationState, metrics: ComplexityMetrics) -> CalibrationState:
    """Widen bounds to cover the observation; bounds never shrink."""
    for name in METRIC_NAMES:
        value = getattr(metrics, name)
        lo, hi = state.bounds[name]
        state.bounds[name] = (min(lo, value), max(hi, value))
    return state


def normalize_metric(value: float, lo: float, hi: float) -> float:
    """Linear map of value onto [0, 1] given bounds, clamped.

    A degenerate window (hi == lo) normalizes to 0: a metric that has
    never varied is treated as non-alarming.
    """
    if lo > hi:
        raise PolicyError(f"min {lo} > max {hi}")
    if hi == lo:
        return 0.0
    return min(1.0, max(0.0, (value - lo) / (hi - lo)))


def normalize_all(metrics: ComplexityMetrics, state: CalibrationState) -> tuple[float, ...]:
    return tuple(
        normalize_metric(getattr(metrics, name), *state.bounds[name]) for name in METRIC_NAMES
    )


@dataclass(frozen=True)
class RuntimeState:
    """The loop-side facts the decision gates on.
    ``steps_since_last_spawn`` is None until the first spawn."""

    depth: int = 0
    active_children: int = 0
    steps_since_last_spawn: int | None = None

    def __post_init__(self):
        if min(self.depth, self.active_children, self.steps_since_last_spawn or 0) < 0:
            raise PolicyError("runtime state counts must be >= 0")


@dataclass(frozen=True)
class SpawnDecision:
    action: SpawnAction
    specialization: Specialization | None
    score: float
    normalized_metrics: tuple[float, ...]

    def __post_init__(self):
        if (self.action is SpawnAction.SPAWN) != (self.specialization is not None):
            raise PolicyError("specialization must be present exactly when spawning")


def spawn_score(normalized: tuple[float, ...], weights: tuple[float, ...]) -> float:
    """Weighted sum of normalized metrics; in [0, 1] for valid inputs.
    A left fold, since ``sum`` of floats compensates its rounding from
    Python 3.12 on, and the score must print alike on every version.
    Capped at 1, since valid weights sum to 1 only within 1e-9."""
    if len(normalized) != 5 or len(weights) != 5:
        raise PolicyError("five normalized values and five weights required")
    score = 0.0
    for w, v in zip(weights, normalized):
        score += w * v
    return min(1.0, score)


def dominant_specialization(normalized: tuple[float, ...]) -> Specialization:
    """Specialist mapped from the argmax metric; ties break in metric order."""
    if len(normalized) != 5:
        raise PolicyError("five normalized values required")
    best = max(range(5), key=lambda i: (normalized[i], -i))
    return SPECIALIZATION_BY_METRIC[METRIC_NAMES[best]]


def decide_spawn(
    metrics: ComplexityMetrics,
    calibration: CalibrationState,
    config: SimulatorConfig,
    runtime_state: RuntimeState,
) -> SpawnDecision:
    """Pure spawn/continue decision with full audit payload.

    Spawns only when the score strictly exceeds the threshold AND depth,
    concurrency, and cooldown gates all allow it; the cooldown gate is
    open until the first spawn. The runtime re-checks limits at spawn
    time; this gate keeps the decision self-consistent.
    """
    normalized = normalize_all(metrics, calibration)
    score = spawn_score(normalized, config.weights)
    allowed = (
        score > config.spawn_threshold
        and runtime_state.depth < config.max_spawn_depth
        and runtime_state.active_children < config.concurrent_spawn_limit
        and (
            runtime_state.steps_since_last_spawn is None
            or runtime_state.steps_since_last_spawn >= config.cooldown_steps
        )
    )
    if allowed:
        return SpawnDecision(
            action=SpawnAction.SPAWN,
            specialization=dominant_specialization(normalized),
            score=score,
            normalized_metrics=normalized,
        )
    return SpawnDecision(
        action=SpawnAction.CONTINUE, specialization=None, score=score, normalized_metrics=normalized
    )
