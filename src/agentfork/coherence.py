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

import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, Iterable, Protocol, Sequence

from .memory import MAX_INT


class DiffError(ValueError):
    pass


class ApplyError(DiffError):
    """A hunk's recorded old lines do not match the base file."""


@dataclass(frozen=True)
class Hunk:
    """One contiguous edit: replace ``old_lines`` at ``start_line`` (1-based)
    with ``new_lines``. Empty ``old_lines`` inserts before ``start_line``."""

    # The span, stored on the instance by ``__post_init__``. It is not a
    # field: equality, hash, repr and ``dataclasses.replace`` ignore it.
    _span: ClassVar[tuple[int, int]]

    start_line: int
    old_lines: tuple[str, ...] = ()
    new_lines: tuple[str, ...] = ()

    def __post_init__(self):
        if isinstance(self.start_line, bool) or not isinstance(self.start_line, int):
            raise DiffError(f"start_line must be an integer, got {self.start_line!r}")
        if not 1 <= self.start_line <= MAX_INT:
            raise DiffError(f"start_line must be in [1, 2**53], got {self.start_line}")
        start = int(self.start_line)
        old_lines = tuple(self.old_lines)
        object.__setattr__(self, "start_line", start)
        object.__setattr__(self, "old_lines", old_lines)
        object.__setattr__(self, "new_lines", tuple(self.new_lines))
        object.__setattr__(self, "_span", (start, start + max(1, len(old_lines))))

    def span(self) -> tuple[int, int]:
        """Half-open line interval this hunk occupies in the base file.

        A pure insertion occupies the single position it lands on, so two
        insertions at the same line still collide.
        """
        return self._span


# Sort key for hunks: the span stored on the instance, read without a call.
_by_span = operator.attrgetter("_span")


@dataclass(frozen=True)
class Diff:
    """All of one child's hunks for one file, sorted and non-overlapping."""

    file: str
    hunks: tuple[Hunk, ...] = ()

    def __post_init__(self):
        if not self.file:
            raise DiffError("diff file must be nonempty")
        object.__setattr__(self, "hunks", tuple(self.hunks))
        prev_end = 0
        for h in self.hunks:
            start, end = h._span
            if start < prev_end:
                raise DiffError(f"{self.file}: hunks overlap or are unsorted at line {start}")
            prev_end = end


class ResolutionTier(str, Enum):
    AUTO = "auto"
    SEMANTIC = "semantic"
    ESCALATED = "escalated"


# Tiers by rank: a pair lands on the worst rank over its shared files.
_TIERS = tuple(ResolutionTier)
_AUTO, _SEMANTIC, _ESCALATED = range(len(_TIERS))


@dataclass(frozen=True, slots=True)
class Resolution:
    """Two children whose diffs touch at least one common file, and the
    worst tier their shared files' folds landed on."""

    left_child: str
    right_child: str
    files: frozenset[str]
    tier: ResolutionTier


@dataclass(slots=True)
class MergeOutcome:
    merged_diffs: list[Diff]
    resolutions: list[Resolution]
    escalated_files: set[str] = field(default_factory=set)

    def tier_count(self, tier: ResolutionTier) -> int:
        return sum(r.tier == tier for r in self.resolutions)


def _check_applies(base: Sequence[str], diff: Diff) -> None:
    """Raise the ApplyError that ``apply_diff(base, diff)`` would, for the
    same hunk, without building the file. Hunks are checked back to front
    as ``apply_diff`` splices them; since a diff's hunks are sorted and
    disjoint, the lines a hunk reads lie below every later splice, so each
    hunk is checked against ``base`` itself. The cost is per hunk line,
    not per file line."""
    for hunk in reversed(diff.hunks):
        idx = hunk.start_line - 1
        old = hunk.old_lines
        if old:
            if tuple(base[idx : idx + len(old)]) != old:
                raise ApplyError(f"{diff.file}: hunk at line {hunk.start_line} does not match base")
        elif idx > len(base):
            raise ApplyError(f"{diff.file}: insertion at line {hunk.start_line} beyond end of file")


def apply_diff(base: Sequence[str], diff: Diff) -> list[str]:
    """Apply hunks back-to-front; raises ApplyError on any context mismatch.
    The one function here that builds a file."""
    _check_applies(base, diff)
    result = list(base)
    for hunk in reversed(diff.hunks):
        idx = hunk.start_line - 1
        result[idx : idx + len(hunk.old_lines)] = hunk.new_lines
    return result


def diff_applies(base: Sequence[str], diff: Diff) -> bool:
    try:
        _check_applies(base, diff)
    except ApplyError:
        return False
    return True


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
        else Diff(file=path, hunks=tuple(sorted((h for d in group for h in d.hunks), key=_by_span)))
        for path, group in per_file.items()
    }


def line_disjoint(d_i: Diff, d_j: Diff) -> bool:
    """True when no hunk span from one diff intersects a span from the other."""
    if d_i.file != d_j.file:
        raise DiffError(f"line_disjoint compares diffs on one file: {d_i.file} vs {d_j.file}")
    for hunk in d_j.hunks:
        if not _clear_of(hunk, d_i.hunks):
            return False
    return True


def _clear_of(hunk: Hunk, hunks: tuple[Hunk, ...]) -> bool:
    """True when ``hunk``'s span intersects no span of ``hunks``."""
    b0, b1 = hunk._span
    for other in hunks:
        a0, a1 = other._span
        if a0 < b1 and b0 < a1:
            return False
    return True


def auto_merge(d_i: Diff, d_j: Diff, base: Sequence[str]) -> Diff | None:
    """Union of hunks from two diffs on the same file, or None when they
    are not line-disjoint.

    Applying the merged diff equals applying the two diffs in sequence
    (with the second rebased), and the operation is commutative.
    """
    if not line_disjoint(d_i, d_j):
        return None
    merged = Diff(file=d_i.file, hunks=tuple(sorted(d_i.hunks + d_j.hunks, key=_by_span)))
    _check_applies(base, merged)  # surface context mismatches now, not at replay
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
        keep = [h for h in d_j.hunks if _clear_of(h, d_i.hunks)]
        return Diff(file=d_i.file, hunks=tuple(sorted(d_i.hunks + tuple(keep), key=_by_span)))


@dataclass(frozen=True, slots=True)
class SemanticMergeResult:
    diff: Diff | None = None
    reason: str | None = None

    @property
    def accepted(self) -> bool:
        return self.diff is not None


def semantic_merge(
    d_i: Diff, d_j: Diff, base: Sequence[str], merge_backend: MergeBackend
) -> SemanticMergeResult:
    """Ask the backend to reconcile overlapping diffs; accept only
    proposals that apply cleanly to the base."""
    try:
        proposal = merge_backend.propose(d_i, d_j, base)
    except Exception as exc:  # transport or backend fault, not a protocol error
        return SemanticMergeResult(reason=f"backend failure: {exc}")
    if proposal is None:
        return SemanticMergeResult(reason="backend declined")
    if proposal.file != d_i.file:
        return SemanticMergeResult(reason="proposal targets wrong file")
    if not diff_applies(base, proposal):
        return SemanticMergeResult(reason="proposal failed validation")
    return SemanticMergeResult(diff=proposal)


def merge_diff_sets(
    entries: Sequence[tuple[str, Sequence[Diff]]],
    base_files: dict[str, Sequence[str]],
    merge_backend: MergeBackend,
) -> MergeOutcome:
    """Resolve all pairwise conflicts among the children's diff sets,
    given as ``(child id, diffs)`` in child order.

    A file that one child touches passes straight through. Per shared
    file, the contributors' diffs are folded together in child order:
    disjoint hunks union automatically, overlapping hunks go through the
    backend, and a declined merge escalates the file, excluding every
    child's hunks on it from the merged output. Conflict pairs come from
    the shared files, so children that share no file cost time linear in
    their diffs. Child ids must be distinct.
    """
    # ``dict`` keeps one entry per child id.
    if len(dict(entries)) < len(entries):
        raise DiffError(f"child ids must be distinct, got {[child_id for child_id, _ in entries]}")
    by_file: dict[str, list[tuple[int, Diff]]] = {}
    for i, (_, diffs) in enumerate(entries):
        for diff in diffs if len(diffs) == 1 else combine_diffs(diffs).values():
            by_file.setdefault(diff.file, []).append((i, diff))

    # Fold each file's contributors in child order; ``acc`` is None once
    # the file escalates. A lone contributor passes through unfolded. Each
    # pair (i, j) of contributors keeps the worst rank child j's folds
    # landed on and the files the two share.
    merged_per_file: dict[str, Diff] = {}
    escalated_files: set[str] = set()
    pairs: dict[tuple[int, int], list] = {}
    for path, contributors in by_file.items():
        base = base_files.get(path, [])
        acc = contributors[0][1]
        for m, (j, diff) in enumerate(contributors[1:], 1):
            if acc is None:
                rank = _ESCALATED
            elif (merged := auto_merge(acc, diff, base)) is not None:
                acc, rank = merged, _AUTO
            else:
                acc = semantic_merge(acc, diff, base, merge_backend).diff
                rank = _ESCALATED if acc is None else _SEMANTIC
            for i, _ in contributors[:m]:
                pair = pairs.get((i, j))
                if pair is None:
                    pairs[i, j] = [rank, [path]]
                else:
                    pair[0] = max(pair[0], rank)
                    pair[1].append(path)
        if acc is None:
            escalated_files.add(path)
        else:
            merged_per_file[path] = acc

    resolutions = [
        Resolution(entries[i][0], entries[j][0], frozenset(files), _TIERS[rank])
        for (i, j), (rank, files) in sorted(pairs.items())
    ]
    merged = [merged_per_file[path] for path in sorted(merged_per_file)]
    return MergeOutcome(merged_diffs=merged, resolutions=resolutions, escalated_files=escalated_files)
