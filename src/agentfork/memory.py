"""Tiered memory store with relevance scoring and slicing.

An agent's memory is split into episodic, semantic, and working tiers.
Before handing a subtask to a child agent, the parent scores every item
against the subtask and transfers only the subset whose relevance clears
a threshold. Scoring blends keyword overlap, code-reference overlap,
recency decay, and embedding similarity under weights that sum to one.
"""

from __future__ import annotations

import hashlib
import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence, TYPE_CHECKING

if TYPE_CHECKING:
    from .protocol import TaskSpec

Embedder = Callable[[str], Sequence[float]]

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Small fixed list; enough to strip glue words from task descriptions
# without pulling in a language-processing dependency.
STOPWORDS = frozenset(
    """
    a an and are as at be but by for from had has have if in into is it its
    of on or that the their then there these this to was were will with
    not no so such than too very can could should would about over under
    """.split()
)


class MemoryTier(str, Enum):
    EPISODIC = "episodic"
    SEMANTIC = "semantic"
    WORKING = "working"


TIER_ORDER = (MemoryTier.EPISODIC, MemoryTier.SEMANTIC, MemoryTier.WORKING)


class MemoryError(ValueError):
    """Raised on store invariant violations (duplicate ids, bad dims)."""


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens of length >= 2, in order."""
    return [t for t in _TOKEN_RE.findall(text.lower()) if len(t) >= 2]


def extract_keywords(task_description: str) -> frozenset[str]:
    """Keyword set for a task: tokens minus stopwords. Deterministic."""
    return frozenset(tokenize(task_description)) - STOPWORDS


@lru_cache(maxsize=1 << 16)
def _token_bucket(token: str, dim: int) -> int:
    """Embedding bucket of one token; cached, as md5 dominates embedding."""
    return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:8], "big") % dim


def default_embed(text: str, dim: int) -> tuple[float, ...]:
    """Hashed bag-of-tokens embedding, L2-normalized.

    Each token is hashed (md5, so the bucket is stable across processes
    and runs) into one of ``dim`` buckets with weight +1. Texts with no
    tokens map to the zero vector, which downstream cosine treats as
    zero similarity. Entries are nonnegative by construction.
    """
    if dim <= 0:
        raise ValueError(f"embedding dim must be positive, got {dim}")
    buckets = [0.0] * dim
    for token in tokenize(text):
        buckets[_token_bucket(token, dim)] += 1.0
    norm = math.sqrt(sum(map(operator.mul, buckets, buckets)))
    if norm == 0.0:
        return tuple(buckets)
    return tuple(v / norm for v in buckets)


class DefaultEmbedder:
    """Callable wrapper around :func:`default_embed` with a fixed dim."""

    def __init__(self, dim: int = 64):
        if dim <= 0:
            raise ValueError(f"embedding dim must be positive, got {dim}")
        self.dim = dim

    def __call__(self, text: str) -> tuple[float, ...]:
        return default_embed(text, self.dim)


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise MemoryError(f"vector dim mismatch: {len(a)} vs {len(b)}")
    dot = sum(map(operator.mul, a, b))
    na = math.sqrt(sum(map(operator.mul, a, a)))
    nb = math.sqrt(sum(map(operator.mul, b, b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


@dataclass(frozen=True)
class MemoryItem:
    """One remembered fact/event. Immutable so snapshots can share items."""

    id: str
    tier: MemoryTier
    content: str
    referenced_files: frozenset[str] = frozenset()
    referenced_symbols: frozenset[str] = frozenset()
    created_at_step: int = 0
    embedding: tuple[float, ...] = ()

    def __post_init__(self):
        if self.created_at_step < 0:
            raise MemoryError(f"item {self.id}: created_at_step must be >= 0")
        if not isinstance(self.tier, MemoryTier):
            object.__setattr__(self, "tier", MemoryTier(self.tier))
        object.__setattr__(self, "referenced_files", frozenset(self.referenced_files))
        object.__setattr__(self, "referenced_symbols", frozenset(self.referenced_symbols))
        object.__setattr__(self, "created_at_step", int(self.created_at_step))
        embedding = tuple(float(v) for v in self.embedding)
        # One C-level sum finds a non-finite value; the per-value pass runs
        # only when it flags one, since a sum of finite values can overflow.
        if not math.isfinite(sum(embedding)) and not all(map(math.isfinite, embedding)):
            raise MemoryError(f"item {self.id}: embedding values must be finite")
        object.__setattr__(self, "embedding", embedding)

    @property
    def references(self) -> frozenset[str]:
        return self.referenced_files | self.referenced_symbols


@dataclass(frozen=True)
class RelevanceWeights:
    """Weights for the four relevance components plus the recency decay rate.

    alpha: keyword match, beta: code-dependency overlap, gamma: recency,
    delta_w: embedding similarity. The four must sum to 1.
    """

    alpha: float = 0.3
    beta: float = 0.3
    gamma: float = 0.2
    delta_w: float = 0.2
    lambda_decay: float = 0.1

    def __post_init__(self):
        parts = (self.alpha, self.beta, self.gamma, self.delta_w)
        if any(w < 0 for w in parts):
            raise MemoryError(f"relevance weights must be nonnegative: {parts}")
        if abs(sum(parts) - 1.0) > 1e-9:
            raise MemoryError(f"relevance weights must sum to 1, got {sum(parts)}")
        if self.lambda_decay <= 0:
            raise MemoryError("lambda_decay must be positive")


class MemoryStore:
    """Ordered, tier-partitioned collection of memory items.

    Single-writer: only the owning agent's loop mutates a store. Iteration
    order is episodic, then semantic, then working, each in insertion order.
    ``add`` and ``advance_to`` are the only writers; each write that
    changes the store's content bumps ``version``, so comparing versions
    proves isolation in O(1). ``token_count`` is the running whitespace
    word count of every item's content.
    """

    def __init__(self, embedding_dim: int, current_step: int = 0):
        if embedding_dim <= 0:
            raise MemoryError("embedding_dim must be positive")
        if current_step < 0:
            raise MemoryError("current_step must be >= 0")
        self.embedding_dim = embedding_dim
        self._step = current_step
        self._version = 0
        self._token_count = 0
        self._tiers: dict[MemoryTier, list[MemoryItem]] = {t: [] for t in TIER_ORDER}
        self._ids: set[str] = set()

    @property
    def current_step(self) -> int:
        return self._step

    @property
    def version(self) -> int:
        return self._version

    @property
    def token_count(self) -> int:
        return self._token_count

    def add(self, item: MemoryItem) -> None:
        if item.id in self._ids:
            raise MemoryError(f"duplicate memory item id {item.id!r}")
        if len(item.embedding) != self.embedding_dim:
            raise MemoryError(
                f"item {item.id}: embedding dim {len(item.embedding)} != store dim {self.embedding_dim}"
            )
        if item.created_at_step > self.current_step:
            raise MemoryError(
                f"item {item.id}: created_at_step {item.created_at_step} is ahead of store step {self.current_step}"
            )
        self._tiers[item.tier].append(item)
        self._ids.add(item.id)
        self._token_count += len(item.content.split())
        self._version += 1

    def items(self) -> Iterator[MemoryItem]:
        for tier in TIER_ORDER:
            yield from self._tiers[tier]

    def by_tier(self, tier: MemoryTier) -> tuple[MemoryItem, ...]:
        return tuple(self._tiers[tier])

    def tier_counts(self) -> dict[MemoryTier, int]:
        return {t: len(self._tiers[t]) for t in TIER_ORDER}

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._ids

    def advance_to(self, step: int) -> None:
        if step < self.current_step:
            raise MemoryError(f"cannot move step backwards: {self.current_step} -> {step}")
        if step != self.current_step:
            self._step = step
            self._version += 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MemoryStore):
            return NotImplemented
        return (
            self.embedding_dim == other.embedding_dim
            and self.current_step == other.current_step
            and self._tiers == other._tiers
        )

    def content_digest(self) -> str:
        """Stable digest of the full store state. O(N): it hashes every
        embedding float. Isolation checks compare ``version`` instead."""
        h = hashlib.sha256()
        h.update(f"{self.embedding_dim}:{self.current_step}".encode())
        for item in self.items():
            h.update(
                "|".join(
                    (
                        item.id,
                        item.tier.value,
                        item.content,
                        ",".join(sorted(item.referenced_files)),
                        ",".join(sorted(item.referenced_symbols)),
                        str(item.created_at_step),
                        ",".join(repr(v) for v in item.embedding),
                    )
                ).encode("utf-8")
            )
        return h.hexdigest()


@dataclass(frozen=True)
class MemorySlice:
    """Immutable subset of a parent store chosen for one child spawn."""

    items: tuple[MemoryItem, ...]
    source_store_step: int
    threshold_used: float

    def by_tier(self, tier: MemoryTier) -> tuple[MemoryItem, ...]:
        return tuple(it for it in self.items if it.tier is tier)

    def __len__(self) -> int:
        return len(self.items)


_PATHLIKE_RE = re.compile(r"^[\w\-./]*/[\w\-./]+$|^[\w\-]+\.\w+$")


def pathlike_tokens(text: str) -> frozenset[str]:
    """Whitespace tokens that look like file paths or dotted names."""
    found = set()
    for raw in text.split():
        tok = raw.strip(".,;:!?()[]{}'\"")
        if tok and _PATHLIKE_RE.match(tok):
            found.add(tok)
    return frozenset(found)


def task_references(task: "TaskSpec") -> frozenset[str]:
    """Everything a task points at: declared targets plus path-like
    tokens lifted from the description."""
    return task.referenced_files | task.referenced_symbols | pathlike_tokens(task.description)


def compute_relevance(
    item: MemoryItem,
    task: "TaskSpec",
    weights: RelevanceWeights,
    now_step: int,
    embedder: Embedder,
) -> float:
    """Score one memory item against a child task. Result in [0, 1].

    Weighted sum of four bounded components: fraction of task keywords
    present in the item, fraction of task code references the item also
    references, exponential recency decay over item age in steps, and
    embedding cosine similarity clamped at zero.
    """
    if now_step < item.created_at_step:
        raise MemoryError(
            f"item {item.id}: now_step {now_step} precedes created_at_step {item.created_at_step}"
        )
    task_embedding = embedder(task.description)
    if len(task_embedding) != len(item.embedding):
        raise MemoryError(
            f"item {item.id}: embedding dim {len(item.embedding)} != embedder dim {len(task_embedding)}"
        )
    score = _relevance_scorer(
        extract_keywords(task.description), task_references(task), task_embedding, weights, now_step
    )
    return score(item)


def _relevance_scorer(
    keywords: frozenset[str],
    refs: frozenset[str],
    task_embedding: Sequence[float],
    weights: RelevanceWeights,
    now_step: int,
) -> Callable[[MemoryItem], float]:
    """Relevance of one item against a fixed task, for a whole scan.

    The task-side terms (keywords, refs, the task embedding's norm and the
    recency term per item age) are computed once; each call does only the
    item's own work. Every float is computed with the same operations in
    the same order as :func:`cosine` and the weighted sum, so scores are
    bit-identical to scoring each item from scratch. The item's age is
    not checked here; callers guarantee ``created_at_step <= now_step``.
    """
    task_norm = math.sqrt(sum(map(operator.mul, task_embedding, task_embedding)))
    recency: dict[int, float] = {}

    def score(item: MemoryItem) -> float:
        # Keywords are tokens of length >= 2, so shorter raw tokens never match.
        keyword_match = (
            len(keywords.intersection(_TOKEN_RE.findall(item.content.lower()))) / len(keywords)
            if keywords
            else 0.0
        )
        dep_score = len(refs & item.references) / len(refs) if refs else 0.0
        age = now_step - item.created_at_step
        temporal = recency.get(age)
        if temporal is None:
            temporal = recency[age] = math.exp(-weights.lambda_decay * age)
        dot = sum(map(operator.mul, item.embedding, task_embedding))
        item_norm = math.sqrt(sum(map(operator.mul, item.embedding, item.embedding)))
        if item_norm == 0.0 or task_norm == 0.0:
            semantic = 0.0
        else:
            semantic = max(0.0, dot / (item_norm * task_norm))
        return (
            weights.alpha * keyword_match
            + weights.beta * dep_score
            + weights.gamma * temporal
            + weights.delta_w * semantic
        )

    return score


def slice_memory(
    store: MemoryStore,
    task: "TaskSpec",
    threshold: float,
    weights: RelevanceWeights,
    embedder: Embedder,
) -> MemorySlice:
    """Select items with relevance strictly above ``threshold``.

    Order is preserved from the store; items at exactly the threshold are
    excluded. The store is not modified.
    """
    if not 0.0 <= threshold <= 1.0:
        raise MemoryError(f"threshold must be in [0, 1], got {threshold}")
    task_embedding = embedder(task.description)
    if len(task_embedding) != store.embedding_dim:
        raise MemoryError(
            f"embedder dim {len(task_embedding)} != store dim {store.embedding_dim}"
        )
    now = store.current_step
    score = _relevance_scorer(
        extract_keywords(task.description), task_references(task), task_embedding, weights, now
    )
    kept = tuple(item for item in store.items() if score(item) > threshold)
    return MemorySlice(items=kept, source_store_step=now, threshold_used=threshold)


def snapshot_store(store: MemoryStore) -> MemoryStore:
    """Independent copy; mutating the copy never affects the original.

    Items are immutable, so tier lists are copied and items shared.
    """
    copy = MemoryStore(store.embedding_dim, store.current_step)
    for item in store.items():
        copy.add(item)
    return copy


def count_tokens(items: Iterable[MemoryItem]) -> int:
    """Whitespace word count over item contents. A cheap, backend-free
    proxy used for transfer-size reduction reporting."""
    return sum(len(item.content.split()) for item in items)


def reduction_percent(parent_tokens: int, slice_tokens: int) -> float:
    """1 - slice/parent as a percentage; 0 for an empty parent."""
    if parent_tokens <= 0:
        return 0.0
    return 100.0 * (1.0 - slice_tokens / parent_tokens)


def make_item(
    item_id: str,
    tier: MemoryTier | str,
    content: str,
    embedder: Embedder,
    referenced_files: Iterable[str] = (),
    referenced_symbols: Iterable[str] = (),
    created_at_step: int = 0,
) -> MemoryItem:
    """Build an item with its embedding derived from its content."""
    return MemoryItem(
        id=item_id,
        tier=MemoryTier(tier),
        content=content,
        referenced_files=frozenset(referenced_files),
        referenced_symbols=frozenset(referenced_symbols),
        created_at_step=created_at_step,
        embedding=tuple(embedder(content)),
    )

