"""Run configuration: one flat file controls policy, relevance, and limits.

Each value must have its field's type: booleans for bool fields, JSON
integers for int fields, finite numbers for float fields and a string or
null for ``checkpoint_dir``. The embedding dimension is not a run knob:
the workload file's ``embedding_dim`` sets the embedder of its store.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

from .memory import RelevanceWeights
from .policy import SpawnPolicyConfig


class ConfigError(ValueError):
    pass


_FLOAT_MAX = sys.float_info.max
# What a JSON value must be for each field type of SimulatorConfig. The
# float bounds reject NaN, the infinities and ints too large for a float.
_ACCEPTS = {
    "bool": ("a boolean", lambda v: type(v) is bool),
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", lambda v: type(v) in (int, float) and -_FLOAT_MAX <= v <= _FLOAT_MAX),
    "str | None": ("a string or null", lambda v: v is None or type(v) is str),
}


@dataclass
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
    def from_dict(cls, data: dict) -> "SimulatorConfig":
        types = {f.name: f.type for f in fields(cls)}
        unknown = sorted(set(data) - set(types))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        errors = []
        for key, value in data.items():
            expected, accepts = _ACCEPTS[types[key]]
            if not accepts(value):
                errors.append(f"{key}: expected {expected}, got {json.dumps(value)}")
        if errors:
            raise ConfigError("; ".join(errors))
        return cls(**{key: float(v) if types[key] == "float" else v for key, v in data.items()})

    @classmethod
    def from_file(cls, path: str | Path) -> "SimulatorConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read ({exc.strerror})")
        except ValueError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})")
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_dict(data)

    def validate(self) -> None:
        # The policy and relevance range checks live in the sub-configs they feed.
        try:
            self.policy_config()
            self.relevance_weights()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.child_timeout_secs <= 0:
            raise ConfigError("child_timeout_secs must be positive")
        if self.step_duration_secs <= 0:
            raise ConfigError("step_duration_secs must be positive")
        if not 0.0 <= self.memory_threshold <= 1.0:
            raise ConfigError("memory_threshold must be in [0, 1]")
        if not 0.0 <= self.semantic_merge_p <= 1.0:
            raise ConfigError("semantic_merge_p must be in [0, 1]")
        if not 0.0 <= self.promote_threshold <= 1.0:
            raise ConfigError("promote_threshold must be in [0, 1]")
        if self.price_per_1k_tokens < 0 or self.price_per_api_call < 0:
            raise ConfigError("unit prices must be >= 0")

    def policy_config(self) -> SpawnPolicyConfig:
        return SpawnPolicyConfig(
            weights=(self.w1, self.w2, self.w3, self.w4, self.w5),
            spawn_threshold=self.spawn_threshold,
            max_spawn_depth=self.max_spawn_depth,
            concurrent_spawn_limit=self.concurrent_spawn_limit,
            cooldown_steps=self.cooldown_steps,
        )

    def relevance_weights(self) -> RelevanceWeights:
        return RelevanceWeights(
            alpha=self.alpha,
            beta=self.beta,
            gamma=self.gamma,
            delta_w=self.delta,
            lambda_decay=self.lambda_decay,
        )
