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
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence, TYPE_CHECKING

if TYPE_CHECKING:
    from .config import SimulatorConfig
    from .protocol import TaskSpec

Embedder = Callable[[str], Sequence[float]]

# Maximal runs of [a-z0-9] two or more long: a one-letter run never
# matches, and a longer one matches whole.
_TOKEN_RE = re.compile(r"[a-z0-9]{2,}")

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
    """Raised on store invariant violations (duplicate ids, bad dims),
    and by ``SimulatorConfig`` on relevance weights that do not sum to 1."""


# The largest integer a package or workload file may carry: beyond 2**53
# integers lose precision in most JSON readers and overflow the float
# arithmetic of the report. Constructors of package types check it, so
# whatever they build, the wire codec can carry.
MAX_INT = 2**53
# The reference set of every item without references.
_NO_REFS: frozenset[str] = frozenset()


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens of length >= 2, in order."""
    return _TOKEN_RE.findall(text.lower())


def extract_keywords(task_description: str) -> frozenset[str]:
    """Keyword set for a task: tokens minus stopwords. Deterministic."""
    return frozenset(tokenize(task_description)) - STOPWORDS


def norm(vector: Sequence[float]) -> float:
    return math.sqrt(sum(map(operator.mul, vector, vector)))


def clamped_cosine(dot: float, a_norm: float, b_norm: float) -> float:
    """``dot / (a_norm * b_norm)``, the cosine of two embeddings, clamped
    to [0, 1]: 0 when either norm is 0 or the quotient is NaN (from an
    overflowed dot product or norm), 1 when it rounds above 1. Memory
    relevance and skill inheritance both score similarity with it."""
    if a_norm == 0.0 or b_norm == 0.0:
        return 0.0
    return min(1.0, max(0.0, dot / (a_norm * b_norm)))


# Keys a memo below remembers; when full, it starts over. The benchmark
# workloads use at most 100 distinct tokens and about 420 distinct
# embedding values.
MEMO_CAP = 1 << 16


class _Memo(dict):
    """``compute(key)`` of each key asked for, remembered while the memo
    holds fewer than ``MEMO_CAP`` keys."""

    def __init__(self, compute: Callable):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        if len(self) >= MEMO_CAP:
            self.clear()
        value = self[key] = self.compute(key)
        return value


@lru_cache(maxsize=1)
def _buckets_of(dim: int) -> _Memo:
    """The embedding bucket of each token for ``dim``, kept because md5
    dominates embedding; a run embeds at one dim, so only the last dim
    asked for keeps its memo."""
    return _Memo(lambda token: int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:8], "big") % dim)


# ``count / sqrt(squares)`` of each ``(count, squares)``: one float object
# per value, shared by every embedding that holds it.
_UNITS = _Memo(lambda key: key[0] / math.sqrt(key[1]))


def default_embed(text: str, dim: int) -> tuple[float, ...]:
    """Hashed bag-of-tokens embedding, L2-normalized.

    Each token is hashed (md5, so the bucket is stable across processes
    and runs) into one of ``dim`` buckets with weight +1. Texts with no
    tokens map to the zero vector, which downstream cosine treats as
    zero similarity. Entries are nonnegative by construction, never
    -0.0.

    Each entry is its bucket's token count over the vector's norm. The
    norm is taken from the integer counts, exact as the sum of squared
    float counts was, and each value comes from a memo, so the zeros of
    every embedding are one float and each other value is one float
    across embeddings while the memo holds it.
    """
    if dim <= 0:
        raise ValueError(f"embedding dim must be positive, got {dim}")
    counts = Counter(map(_buckets_of(dim).__getitem__, tokenize(text)))
    embedding = [0.0] * dim
    if counts:
        squares = sum(count * count for count in counts.values())
        # One lookup per distinct count, so a memo that starts over midway
        # cannot split one value of this embedding into two objects.
        unit = {count: _UNITS[count, squares] for count in set(counts.values())}
        for bucket, count in counts.items():
            embedding[bucket] = unit[count]
    return tuple(embedding)


# Texts one DefaultEmbedder remembers; when full, its memo starts over.
EMBED_MEMO = 1024


class DefaultEmbedder:
    """Callable wrapper around :func:`default_embed` with a fixed dim.

    Embeddings are memoized by text in the instance, so a text embedded
    again (the task, a skill template) costs a dict lookup. The memo is
    the instance's own: no other embedder or dim can read its entries.
    """

    def __init__(self, dim: int = 64):
        if dim <= 0:
            raise ValueError(f"embedding dim must be positive, got {dim}")
        self.dim = dim
        self._memo: dict[str, tuple[float, ...]] = {}

    def __call__(self, text: str) -> tuple[float, ...]:
        embedding = self._memo.get(text)
        if embedding is None:
            if len(self._memo) >= EMBED_MEMO:
                self._memo.clear()
            embedding = self._memo[text] = default_embed(text, self.dim)
        return embedding


def dot_with(vector: Sequence[float]) -> Callable[[Sequence[float]], float]:
    """``dot(e)``, the dot product of ``e`` with ``vector`` summed over
    ``vector``'s nonzero components only.

    For a finite ``e`` of the same length it is bit-identical to
    ``sum(map(operator.mul, e, vector))``: each skipped product is a
    zero, and adding a zero never changes ``sum``'s running total, which
    starts at +0.0 and so is never -0.0.
    """
    nonzero = [i for i, v in enumerate(vector) if v != 0.0]
    values = [vector[i] for i in nonzero]
    mul = operator.mul
    if len(nonzero) > 1:
        pick = operator.itemgetter(*nonzero)
        return lambda e: sum(map(mul, pick(e), values))
    # itemgetter returns a bare value for a single index.
    return lambda e: sum(map(mul, [e[i] for i in nonzero], values))


class _Wired:
    """Base of :class:`MemoryItem` holding its ``_wire`` slot.

    ``_wire`` is the item's compact wire text (UTF-8), stored on the
    instance by the package writer (``schema.package_parts``) once the
    whole item has encoded, so every later package reuses it. It is a
    slot of this base, not a field: equality, hash, repr and
    ``dataclasses.replace`` ignore it, and it lives exactly as long as the
    item. It is keyed by identity because equal items can differ on the
    wire (0.0 and -0.0 are equal).
    """

    __slots__ = ("_wire",)


@dataclass(frozen=True, slots=True)
class MemoryItem(_Wired):
    """One remembered fact/event. Immutable so stores and slices can share
    items. Slotted, so an item holds no ``__dict__``; ``_wire`` starts as
    ``None`` on every item, one made by ``replace`` included."""

    id: str
    tier: MemoryTier
    content: str
    referenced_files: frozenset[str] = _NO_REFS
    referenced_symbols: frozenset[str] = _NO_REFS
    created_at_step: int = 0
    embedding: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "_wire", None)
        if not self.id:
            raise MemoryError("item id must be nonempty")
        if not 0 <= self.created_at_step <= MAX_INT:
            raise MemoryError(f"item {self.id}: created_at_step must be in [0, 2**53]")
        if not isinstance(self.tier, MemoryTier):
            object.__setattr__(self, "tier", MemoryTier(self.tier))
        object.__setattr__(self, "referenced_files", frozenset(self.referenced_files) or _NO_REFS)
        object.__setattr__(self, "referenced_symbols", frozenset(self.referenced_symbols) or _NO_REFS)
        object.__setattr__(self, "created_at_step", int(self.created_at_step))
        embedding = self.embedding
        # A tuple of exact floats is kept as given, so items whose content
        # repeats share one tuple; anything else becomes one.
        if type(embedding) is not tuple or not {float}.issuperset(map(type, embedding)):
            embedding = tuple(map(float, embedding))
        # One C-level sum finds a non-finite value; the per-value pass runs
        # only when it flags one, since a sum of finite values can overflow.
        if not math.isfinite(sum(embedding)) and not all(map(math.isfinite, embedding)):
            raise MemoryError(f"item {self.id}: embedding values must be finite")
        object.__setattr__(self, "embedding", embedding)

    @property
    def references(self) -> frozenset[str]:
        return self.referenced_files | self.referenced_symbols


class MemoryStore:
    """Ordered, tier-partitioned collection of memory items.

    Single-writer: only the owning agent's loop mutates a store. Iteration
    order is episodic, then semantic, then working, each in insertion order.
    ``add`` and ``advance_to`` are the only writers; each write that
    changes the store's content bumps ``version``, so comparing versions
    proves isolation in O(1). ``token_count`` is the running whitespace
    word count of every item's content.

    The store indexes its items for :func:`slice_memory`, so a slice
    computes only task-side terms. Items that share their content and
    their embedding tuple form one group, analysed once: its keywords,
    its embedding's L2 norm and its word count. The index holds, for
    every keyword, the ids of the groups whose content holds it, and per
    tier, parallel to its items, each item's group id and embedding norm
    and, for every reference, the positions of the items that hold it.

    ``items``, if given, are added in order, as by ``add``.
    """

    def __init__(self, embedding_dim: int, current_step: int = 0, items: Iterable[MemoryItem] = ()):
        if embedding_dim <= 0:
            raise MemoryError("embedding_dim must be positive")
        if current_step < 0:
            raise MemoryError("current_step must be >= 0")
        self.embedding_dim = embedding_dim
        self._step = current_step
        self._version = 0
        self._token_count = 0
        self._tiers: dict[MemoryTier, list[MemoryItem]] = {t: [] for t in TIER_ORDER}
        self._tier_groups = {t: array("i") for t in TIER_ORDER}
        # Each item's norm, copied from its group: a slice reads norms in
        # tier order, and an array iterates faster than it is indexed.
        self._tier_norms = {t: array("d") for t in TIER_ORDER}
        self._ref_postings = {t: defaultdict(_positions) for t in TIER_ORDER}
        # A group is keyed by its content, a string its items already hold.
        # A later group with that content but another embedding tuple object
        # is keyed by (content, id of its tuple): a store never drops an
        # item, so no such id can be reused by another tuple while the store
        # lives. Equal-valued tuples that are distinct objects form separate
        # groups.
        self._groups: dict[str | tuple[str, int], int] = {}
        self._group_embeddings: list[tuple[float, ...]] = []
        self._group_norms = array("d")
        self._group_words: list[int] = []
        self._keyword_postings: defaultdict[str, array] = defaultdict(_positions)
        # A dict, not a set: a set built by insertion takes about five
        # times the memory of a dict of the same ids.
        self._ids: dict[str, None] = {}
        self._add_all(items)

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
        self._add_all((item,))

    def _add_all(self, items: Iterable[MemoryItem]) -> None:
        """Append and index ``items`` in order. Each item is checked, and
        a new group analysed, before the store changes, so an item that
        raises leaves the store as the items before it left it."""
        for item in items:
            if item.id in self._ids:
                raise MemoryError(f"duplicate memory item id {item.id!r}")
            if len(item.embedding) != self.embedding_dim:
                raise MemoryError(
                    f"item {item.id}: embedding dim {len(item.embedding)} != store dim {self.embedding_dim}"
                )
            if item.created_at_step > self._step:
                raise MemoryError(
                    f"item {item.id}: created_at_step {item.created_at_step} is ahead of store step {self._step}"
                )
            content, embedding = item.content, item.embedding
            key: str | tuple[str, int] = content
            group = self._groups.get(key)
            if group is not None and self._group_embeddings[group] is not embedding:
                key = (content, id(embedding))
                group = self._groups.get(key)
            if group is None:
                keywords = extract_keywords(content)
                length = norm(embedding)
                n_words = len(content.split())
                group = self._groups[key] = len(self._group_norms)
                self._group_embeddings.append(embedding)
                self._group_norms.append(length)
                self._group_words.append(n_words)
                _post(self._keyword_postings, keywords, group)
            tier = item.tier
            tier_items = self._tiers[tier]
            refs = item.references
            if refs:
                _post(self._ref_postings[tier], refs, len(tier_items))
            tier_items.append(item)
            self._tier_groups[tier].append(group)
            self._tier_norms[tier].append(self._group_norms[group])
            self._ids[item.id] = None
            self._token_count += self._group_words[group]
            self._version += 1

    def _indexed(
        self, keywords: frozenset[str], refs: frozenset[str], hits_only: bool
    ) -> Iterator[tuple[MemoryItem, int, float, int, int]]:
        """``(item, group id, embedding norm, keyword hits, reference
        hits)`` in store order, the hits counted from the postings: for
        every item, or with ``hits_only`` for the items with at least one
        hit. Keyword hits are counted once per group and read per item
        through its group id."""
        group_hits = _hits(self._keyword_postings, keywords, len(self._group_norms))
        for tier in TIER_ORDER:
            items = self._tiers[tier]
            groups = self._tier_groups[tier]
            keyword_hits = list(map(group_hits.__getitem__, groups))
            ref_hits = _hits(self._ref_postings[tier], refs, len(items))
            rows = zip(items, groups, self._tier_norms[tier], keyword_hits, ref_hits)
            yield from compress(rows, map(operator.or_, keyword_hits, ref_hits)) if hits_only else rows

    def items(self) -> Iterator[MemoryItem]:
        for tier in TIER_ORDER:
            yield from self._tiers[tier]

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


def _positions() -> array:
    return array("i")


def _post(postings: defaultdict[str, array], terms: Iterable[str], position: int) -> None:
    for term in terms:
        postings[term].append(position)


def _hits(postings: defaultdict[str, array], terms: Iterable[str], size: int) -> list[int]:
    """How many of ``terms`` each of ``size`` positions holds."""
    hits = [0] * size
    for term in terms:
        for position in postings.get(term, ()):
            hits[position] += 1
    return hits


@dataclass(frozen=True)
class MemorySlice:
    """Immutable subset of a parent store chosen for one child spawn,
    with ``tokens``, the whitespace word count of its items' contents."""

    items: tuple[MemoryItem, ...]
    tokens: int

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


@lru_cache(maxsize=256)
def _task_terms(task: "TaskSpec") -> tuple[frozenset[str], frozenset[str]]:
    """A task's keywords and references, computed once per distinct task
    while it stays among the last 256 scored. ``TaskSpec`` is frozen,
    hashable and holds no floats, so equal tasks have equal terms."""
    return extract_keywords(task.description), task_references(task)


def compute_relevance(
    item: MemoryItem,
    task: "TaskSpec",
    config: "SimulatorConfig",
    now_step: int,
    embedder: Embedder,
) -> float:
    """Score one memory item against a child task. Result in [0, 1].

    Weighted sum of four bounded components under the config's
    ``alpha``, ``beta``, ``gamma`` and ``delta``: fraction of task
    keywords present in the item, fraction of task code references the
    item also references, exponential recency decay (rate
    ``lambda_decay``) over item age in steps, and embedding cosine
    similarity clamped to [0, 1] (:func:`clamped_cosine`). Valid weights
    sum to 1 only within 1e-9, so the sum is capped at 1.
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
    keywords, refs = _task_terms(task)
    partial = _partial_scorer(keywords, refs, config, now_step)
    dot = sum(map(operator.mul, item.embedding, task_embedding))
    score = partial(
        len(keywords & extract_keywords(item.content)), len(refs & item.references), item.created_at_step
    ) + config.delta * clamped_cosine(dot, norm(item.embedding), norm(task_embedding))
    return min(1.0, score)


def _partial_scorer(
    keywords: frozenset[str],
    refs: frozenset[str],
    config: "SimulatorConfig",
    now_step: int,
) -> Callable[[int, int, int], float]:
    """The relevance score without its semantic term, for a fixed task.

    The returned ``partial(keyword_hits, ref_hits, created_at_step)``
    takes how many task keywords and references an item holds, and its
    step, and returns ``alpha * keyword_match + beta * dep_score + gamma
    * recency``, summed in that order, with ``exp(-lambda_decay * age)``
    computed once per age. The full score adds ``delta * cosine`` to it,
    so scores are bit-identical however the terms were found. The age is
    not checked here; callers guarantee ``created_at_step <= now_step``.
    """
    n_keywords = len(keywords)
    n_refs = len(refs)
    recency: dict[int, float] = {}

    def partial(keyword_hits: int, ref_hits: int, created_at_step: int) -> float:
        keyword_match = keyword_hits / n_keywords if n_keywords else 0.0
        dep_score = ref_hits / n_refs if n_refs else 0.0
        age = now_step - created_at_step
        temporal = recency.get(age)
        if temporal is None:
            temporal = recency[age] = math.exp(-config.lambda_decay * age)
        return config.alpha * keyword_match + config.beta * dep_score + config.gamma * temporal

    return partial


def slice_memory(
    store: MemoryStore,
    task: "TaskSpec",
    config: "SimulatorConfig",
    embedder: Embedder,
) -> MemorySlice:
    """Select items with relevance strictly above the config's
    ``memory_threshold``, scored as by :func:`compute_relevance`.

    Order is preserved from the store; items at exactly the threshold are
    excluded. The store is not modified. Keyword hits are counted once
    per group of items that share content and embedding, from the store's
    keyword postings, and reference hits per item from its reference
    postings; the dot product comes from :func:`dot_with`, exact here
    because item embeddings are finite. The slice's ``tokens`` sums the
    kept items' word counts, read per item through its group.

    The cosine lies in [0, 1] and rounding is monotone, so two shortcuts
    keep exactly the items a full scan keeps. ``delta * cosine`` is never
    negative, so an item whose partial score alone clears the threshold
    is kept without its dot product. An item with no keyword and no
    reference hit scores ``gamma * recency + delta * cosine``, at most
    ``gamma + delta`` as rounded, so when ``memory_threshold >= gamma +
    delta`` only the items that hold a task keyword or reference are
    scored. A score is capped at 1, which changes no strict ``>`` below
    1, and no item clears a threshold of 1.
    """
    task_embedding = embedder(task.description)
    if len(task_embedding) != store.embedding_dim:
        raise MemoryError(
            f"embedder dim {len(task_embedding)} != store dim {store.embedding_dim}"
        )
    threshold = config.memory_threshold
    if threshold >= 1.0:
        return MemorySlice(items=(), tokens=0)
    delta = config.delta
    keywords, refs = _task_terms(task)
    task_norm = norm(task_embedding)
    partial = _partial_scorer(keywords, refs, config, store.current_step)
    dot = dot_with(task_embedding)
    hits_only = threshold >= config.gamma + delta
    group_words = store._group_words
    kept: list[MemoryItem] = []
    tokens = 0
    for item, group, item_norm, keyword_hits, ref_hits in store._indexed(keywords, refs, hits_only):
        score = partial(keyword_hits, ref_hits, item.created_at_step)
        if score > threshold or score + delta * clamped_cosine(dot(item.embedding), item_norm, task_norm) > threshold:
            kept.append(item)
            tokens += group_words[group]
    return MemorySlice(items=tuple(kept), tokens=tokens)


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
        tier=tier,
        content=content,
        referenced_files=referenced_files,
        referenced_symbols=referenced_symbols,
        created_at_step=created_at_step,
        embedding=embedder(content),
    )

