"""Run configuration: one flat file controls policy, relevance, and limits.

``CONFIG`` parses a config file: each key takes its JSON type from its
field's annotation and its default from the dataclass. ``validate``
holds the value rules, and every construction runs it; a config is
frozen, so ``decide_spawn``, ``slice_memory`` and ``compute_relevance``
read its knobs as validated. The embedding dimension is not a run knob:
the workload file's ``embedding_dim`` sets the embedder of its store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import schema
from .memory import MAX_INT, MemoryError
from .policy import PolicyError

@dataclass(frozen=True)
class SimulatorConfig:
    spawn_threshold: float = 0.7
    memory_threshold: float = 0.5
    w1: float = 0.30
    w2: float = 0.20
    w3: float = 0.25
    w4: float = 0.15
    w5: float = 0.10
    max_spawn_depth: int = 3
    concurrent_spawn_limit: int = 4
    child_timeout_secs: float = 600.0
    alpha: float = 0.3
    beta: float = 0.3
    gamma: float = 0.2
    delta: float = 0.2
    lambda_decay: float = 0.1
    cooldown_steps: int = 5
    parent_blocks: bool = True
    step_duration_secs: float = 1.0
    promote_threshold: float = 0.8
    semantic_merge_p: float = 0.73
    price_per_1k_tokens: float = 0.01
    price_per_api_call: float = 0.002
    checkpoint_dir: str | None = None

    def __post_init__(self):
        self.validate()

    @classmethod
    def from_file(cls, path: str | Path) -> "SimulatorConfig":
        return schema.parse_file(CONFIG, schema.read_json(path), path)

    @property
    def weights(self) -> tuple[float, float, float, float, float]:
        """The spawn score's weights, in ``policy.METRIC_NAMES`` order."""
        return (self.w1, self.w2, self.w3, self.w4, self.w5)

    def validate(self) -> None:
        # A rule that reads one key raises a FieldError naming it, so a file
        # reports it at that key; the weight sums stay at the top level.
        for i, w in enumerate(self.weights, 1):
            if not w >= 0:
                raise schema.FieldError(f"w{i}", "weights must be nonnegative")
        if not abs(sum(self.weights) - 1.0) <= 1e-9:
            raise PolicyError(f"weights must sum to 1, got {sum(self.weights)}")
        for key, ok, rule in (
            ("spawn_threshold", 0.0 <= self.spawn_threshold <= 1.0, "in [0, 1]"),
            ("max_spawn_depth", self.max_spawn_depth >= 1, "positive"),
            ("concurrent_spawn_limit", self.concurrent_spawn_limit >= 1, "positive"),
            ("cooldown_steps", self.cooldown_steps >= 0, ">= 0"),
            # At most 2**53 s each, so every sum of steps and child times
            # on the virtual clock stays finite.
            ("child_timeout_secs", 0 < self.child_timeout_secs <= MAX_INT, "in (0, 2**53]"),
            ("step_duration_secs", 0 < self.step_duration_secs <= MAX_INT, "in (0, 2**53]"),
            ("memory_threshold", 0.0 <= self.memory_threshold <= 1.0, "in [0, 1]"),
            ("semantic_merge_p", 0.0 <= self.semantic_merge_p <= 1.0, "in [0, 1]"),
            ("promote_threshold", 0.0 <= self.promote_threshold <= 1.0, "in [0, 1]"),
            # At most 2**53 each, so the cost of 2**53 tokens and calls stays finite.
            ("price_per_1k_tokens", 0 <= self.price_per_1k_tokens <= MAX_INT, "in [0, 2**53]"),
            ("price_per_api_call", 0 <= self.price_per_api_call <= MAX_INT, "in [0, 2**53]"),
        ):
            if not ok:
                raise schema.FieldError(key, f"{key} must be {rule}")
        parts = (self.alpha, self.beta, self.gamma, self.delta)
        for key, w in zip(("alpha", "beta", "gamma", "delta"), parts):
            if not w >= 0:
                raise schema.FieldError(key, f"relevance weights must be nonnegative: {parts}")
        if not abs(sum(parts) - 1.0) <= 1e-9:
            raise MemoryError(f"relevance weights must sum to 1, got {sum(parts)}")
        if not 0 < self.lambda_decay < math.inf:
            raise schema.FieldError("lambda_decay", "lambda_decay must be positive and finite")


CONFIG = schema.flat_table(SimulatorConfig)
