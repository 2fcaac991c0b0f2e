"""Conflict detection and three-tier merging of concurrent child edits.

Children edit snapshots optimistically and return line-hunk diffs against
the base the parent handed out. At the join point the parent detects
file-level overlaps between child pairs, then resolves each conflict:
hunk-disjoint edits in the same file union automatically, overlapping
hunks go to a semantic merge backend, and declined semantic merges are
escalated back to the parent with the conflicting file excluded from the
merged result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import AbstractSet, Iterable, Protocol, Sequence


class DiffError(ValueError):
    pass


class ApplyError(DiffError):
    """A hunk's recorded old lines do not match the base file."""


@dataclass(frozen=True)
class Hunk:
    """One contiguous edit: replace ``old_lines`` at ``start_line`` (1-based)
    with ``new_lines``. Empty ``old_lines`` inserts before ``start_line``."""

    start_line: int
    old_lines: tuple[str, ...] = ()
    new_lines: tuple[str, ...] = ()

    def __post_init__(self):
        if self.start_line < 1:
            raise DiffError(f"start_line must be >= 1, got {self.start_line}")
        object.__setattr__(self, "start_line", int(self.start_line))
        object.__setattr__(self, "old_lines", tuple(self.old_lines))
        object.__setattr__(self, "new_lines", tuple(self.new_lines))

    def span(self) -> tuple[int, int]:
        """Half-open line interval this hunk occupies in the base file.

        A pure insertion occupies the single position it lands on, so two
        insertions at the same line still collide.
        """
        return (self.start_line, self.start_line + max(1, len(self.old_lines)))


@dataclass(frozen=True)
class Diff:
    """All of one child's hunks for one file, sorted and non-overlapping."""

    file: str
    hunks: tuple[Hunk, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "hunks", tuple(self.hunks))
        prev_end = 0
        for h in self.hunks:
            start, end = h.span()
            if start < prev_end:
                raise DiffError(f"{self.file}: hunks overlap or are unsorted at line {start}")
            prev_end = end

    def is_empty(self) -> bool:
        return not self.hunks


@dataclass(frozen=True)
class ConflictPair:
    """Two children whose diffs touch at least one common file."""

    left_child: str
    right_child: str
    files: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "files", frozenset(self.files))


class ResolutionTier(str, Enum):
    AUTO = "auto"
    SEMANTIC = "semantic"
    ESCALATED = "escalated"


_TIERS = tuple(ResolutionTier)


@dataclass(frozen=True)
class Resolution:
    pair: ConflictPair
    tier: ResolutionTier
    success: bool


@dataclass
class MergeOutcome:
    merged_diffs: list[Diff]
    resolutions: list[Resolution]
    stats: dict[ResolutionTier, int]
    escalated_files: set[str] = field(default_factory=set)

    def tier_count(self, tier: ResolutionTier) -> int:
        return self.stats.get(tier, 0)


def apply_diff(base: Sequence[str], diff: Diff) -> list[str]:
    """Apply hunks back-to-front; raises ApplyError on any context mismatch."""
    result = list(base)
    for hunk in reversed(diff.hunks):
        idx = hunk.start_line - 1
        if hunk.old_lines:
            window = result[idx : idx + len(hunk.old_lines)]
            if idx + len(hunk.old_lines) > len(result) or tuple(window) != hunk.old_lines:
                raise ApplyError(
                    f"{diff.file}: hunk at line {hunk.start_line} does not match base"
                )
        elif idx > len(result):
            raise ApplyError(
                f"{diff.file}: insertion at line {hunk.start_line} beyond end of file"
            )
        result[idx : idx + len(hunk.old_lines)] = list(hunk.new_lines)
    return result


def diff_applies(base: Sequence[str], diff: Diff) -> bool:
    try:
        apply_diff(base, diff)
        return True
    except ApplyError:
        return False


def combine_diffs(diffs: Iterable[Diff]) -> dict[str, Diff]:
    """One diff per file holding all of ``diffs``' hunks on it, sorted,
    in first-seen file order. A file's lone diff comes back as it is,
    since its hunks are already sorted and disjoint. Raises DiffError
    when hunks on one file overlap."""
    per_file: dict[str, list[Diff]] = {}
    for d in diffs:
        per_file.setdefault(d.file, []).append(d)
    return {
        path: group[0]
        if len(group) == 1
        else Diff(file=path, hunks=tuple(sorted((h for d in group for h in d.hunks), key=Hunk.span)))
        for path, group in per_file.items()
    }


def _detect_conflicts(entries: Sequence[tuple[str, AbstractSet[str]]]) -> list[ConflictPair]:
    pairs = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            shared = entries[i][1] & entries[j][1]
            if shared:
                pairs.append(
                    ConflictPair(left_child=entries[i][0], right_child=entries[j][0], files=shared)
                )
    return pairs


def line_disjoint(d_i: Diff, d_j: Diff) -> bool:
    """True when no hunk span from one diff intersects a span from the other."""
    if d_i.file != d_j.file:
        raise DiffError(f"line_disjoint compares diffs on one file: {d_i.file} vs {d_j.file}")
    for a in d_i.hunks:
        a0, a1 = a.span()
        for b in d_j.hunks:
            b0, b1 = b.span()
            if a0 < b1 and b0 < a1:
                return False
    return True


def auto_merge(d_i: Diff, d_j: Diff, base: Sequence[str]) -> Diff:
    """Union of hunks from two line-disjoint diffs on the same file.

    Applying the merged diff equals applying the two diffs in sequence
    (with the second rebased), and the operation is commutative.
    """
    if not line_disjoint(d_i, d_j):
        raise DiffError(f"{d_i.file}: auto_merge requires line-disjoint diffs")
    merged = Diff(
        file=d_i.file,
        hunks=tuple(sorted(d_i.hunks + d_j.hunks, key=lambda h: h.span())),
    )
    apply_diff(base, merged)  # surface context mismatches now, not at replay
    return merged


class MergeBackend(Protocol):
    """Proposes a reconciliation of two overlapping diffs on one file.

    Returns a candidate merged diff in base coordinates, or None to
    decline. Proposals are validated by the caller before acceptance.
    """

    def propose(self, d_i: Diff, d_j: Diff, base: Sequence[str]) -> Diff | None: ...


class StochasticMergeBackend:
    """Desk-scale stand-in for a model-backed merge service.

    Succeeds with probability ``p`` per attempt, drawn from the run's
    seeded RNG. On success it returns a union-with-preference merge: all
    of the left diff plus the right diff's hunks that avoid the left's
    line spans. Deterministic given the seed stream.
    """

    def __init__(self, p: float, rng):
        if not 0.0 <= p <= 1.0:
            raise DiffError(f"success probability must be in [0, 1], got {p}")
        self.p = p
        self.rng = rng
        self.attempts = 0
        self.successes = 0

    def propose(self, d_i: Diff, d_j: Diff, base: Sequence[str]) -> Diff | None:
        self.attempts += 1
        if self.rng.random() >= self.p:
            return None
        self.successes += 1
        keep = [h for h in d_j.hunks if all(not _spans_touch(h, other) for other in d_i.hunks)]
        return Diff(
            file=d_i.file,
            hunks=tuple(sorted(d_i.hunks + tuple(keep), key=lambda h: h.span())),
        )


def _spans_touch(a: Hunk, b: Hunk) -> bool:
    a0, a1 = a.span()
    b0, b1 = b.span()
    return a0 < b1 and b0 < a1


@dataclass(frozen=True)
class SemanticMergeResult:
    accepted: bool
    diff: Diff | None = None
    reason: str | None = None


def semantic_merge(
    d_i: Diff, d_j: Diff, base: Sequence[str], merge_backend: MergeBackend
) -> SemanticMergeResult:
    """Ask the backend to reconcile overlapping diffs; accept only
    proposals that apply cleanly to the base."""
    try:
        proposal = merge_backend.propose(d_i, d_j, base)
    except Exception as exc:  # transport or backend fault, not a protocol error
        return SemanticMergeResult(accepted=False, reason=f"backend failure: {exc}")
    if proposal is None:
        return SemanticMergeResult(accepted=False, reason="backend declined")
    if proposal.file != d_i.file:
        return SemanticMergeResult(accepted=False, reason="proposal targets wrong file")
    if not diff_applies(base, proposal):
        return SemanticMergeResult(accepted=False, reason="proposal failed validation")
    return SemanticMergeResult(accepted=True, diff=proposal)


def merge_diff_sets(
    entries: Sequence[tuple[str, Sequence[Diff]]],
    base_files: dict[str, Sequence[str]],
    merge_backend: MergeBackend,
) -> MergeOutcome:
    """Resolve all pairwise conflicts among the children's diff sets,
    given as ``(child id, diffs)`` in child order.

    Non-conflicting diffs pass straight through. Per shared file, the
    contributors' diffs are folded together in child order: disjoint
    hunks union automatically, overlapping hunks go through the backend,
    and a declined merge escalates the file, excluding every child's
    hunks on it from the merged output.
    """
    ids = [child_id for child_id, _ in entries]
    combined = [combine_diffs(diffs) for _, diffs in entries]
    pairs = _detect_conflicts([(child_id, per_file.keys()) for child_id, per_file in zip(ids, combined)])

    by_file: dict[str, list[tuple[int, Diff]]] = {}
    for idx, per_file in enumerate(combined):
        for path, diff in per_file.items():
            by_file.setdefault(path, []).append((idx, diff))

    # Fold each shared file's contributors in child order, recording the
    # tier each fold landed on; pair records aggregate over shared files.
    merged_per_file: dict[str, Diff] = {}
    fold_tier: dict[tuple[str, int], ResolutionTier] = {}
    escalated_files: set[str] = set()

    for path, contributors in by_file.items():
        if len(contributors) == 1:
            merged_per_file[path] = contributors[0][1]
            continue
        base = base_files.get(path, [])
        acc = contributors[0][1]
        escalated = False
        for idx, diff in contributors[1:]:
            if escalated:
                fold_tier[(path, idx)] = ResolutionTier.ESCALATED
                continue
            if line_disjoint(acc, diff):
                acc = auto_merge(acc, diff, base)
                fold_tier[(path, idx)] = ResolutionTier.AUTO
                continue
            attempt = semantic_merge(acc, diff, base, merge_backend)
            if attempt.accepted:
                acc = attempt.diff
                fold_tier[(path, idx)] = ResolutionTier.SEMANTIC
            else:
                fold_tier[(path, idx)] = ResolutionTier.ESCALATED
                escalated = True
        if escalated:
            escalated_files.add(path)
        else:
            merged_per_file[path] = acc

    index_of = {child_id: i for i, child_id in enumerate(ids)}
    resolutions = []
    stats = dict.fromkeys(_TIERS, 0)
    for pair in pairs:
        j = index_of[pair.right_child]
        tiers = {fold_tier[(path, j)] for path in pair.files if (path, j) in fold_tier}
        if ResolutionTier.ESCALATED in tiers or not tiers:
            tier = ResolutionTier.ESCALATED
        elif ResolutionTier.SEMANTIC in tiers:
            tier = ResolutionTier.SEMANTIC
        else:
            tier = ResolutionTier.AUTO
        resolutions.append(Resolution(pair=pair, tier=tier, success=tier is not ResolutionTier.ESCALATED))
        stats[tier] += 1

    merged = [merged_per_file[path] for path in sorted(merged_per_file)]
    return MergeOutcome(
        merged_diffs=merged,
        resolutions=resolutions,
        stats=stats,
        escalated_files=escalated_files,
    )

