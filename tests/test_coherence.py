from __future__ import annotations

import random
import re
import time
from typing import AbstractSet, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentfork import coherence
from agentfork.coherence import (
    ApplyError,
    Diff,
    DiffError,
    Hunk,
    MergeOutcome,
    Resolution,
    ResolutionTier,
    StochasticMergeBackend,
    apply_diff,
    auto_merge,
    combine_diffs,
    diff_applies,
    line_disjoint,
    merge_diff_sets,
    semantic_merge,
)
from agentfork.protocol import ChildMetrics, ChildStatus, ResultPayload, ResumePackage, validate_resume

from conftest import random_spawn_package


BASE = ["a", "b", "c"]


def test_apply_empty_diff_is_identity():
    assert apply_diff(BASE, Diff(file="f")) == BASE


def test_apply_replaces_line_two():
    diff = Diff(file="f", hunks=(Hunk(2, ("b",), ("B",)),))
    assert apply_diff(BASE, diff) == ["a", "B", "c"]


def test_apply_mismatched_old_lines_raises():
    diff = Diff(file="f", hunks=(Hunk(2, ("WRONG",), ("B",)),))
    with pytest.raises(ApplyError):
        apply_diff(BASE, diff)


def test_apply_insertion_and_deletion():
    insert = Diff(file="f", hunks=(Hunk(2, (), ("inserted",)),))
    assert apply_diff(BASE, insert) == ["a", "inserted", "b", "c"]
    append = Diff(file="f", hunks=(Hunk(4, (), ("tail",)),))
    assert apply_diff(BASE, append) == ["a", "b", "c", "tail"]
    delete = Diff(file="f", hunks=(Hunk(1, ("a",), ()),))
    assert apply_diff(BASE, delete) == ["b", "c"]


def test_apply_multiple_hunks_back_to_front():
    diff = Diff(file="f", hunks=(Hunk(1, ("a",), ("A", "A2")), Hunk(3, ("c",), ("C",))))
    assert apply_diff(BASE, diff) == ["A", "A2", "b", "C"]


def test_diff_rejects_overlapping_hunks():
    with pytest.raises(DiffError):
        Diff(file="f", hunks=(Hunk(1, ("a", "b"), ()), Hunk(2, ("b",), ())))


def _apply_by_copy(base, diff):
    """Reference: copy the base and splice every hunk into the copy, back
    to front, checking each against the copy as it is at that point.
    Returns the result, or the ApplyError message."""
    result = list(base)
    for hunk in reversed(diff.hunks):
        idx = hunk.start_line - 1
        if hunk.old_lines:
            window = result[idx : idx + len(hunk.old_lines)]
            if idx + len(hunk.old_lines) > len(result) or tuple(window) != hunk.old_lines:
                return f"{diff.file}: hunk at line {hunk.start_line} does not match base"
        elif idx > len(result):
            return f"{diff.file}: insertion at line {hunk.start_line} beyond end of file"
        result[idx : idx + len(hunk.old_lines)] = list(hunk.new_lines)
    return result


def _random_hunks(rng, base, stale_p=0.0):
    """Zero to four sorted, disjoint hunks on ``base``: replacements,
    deletions and insertions, some at ``len(base) + 1`` or past it, and
    with probability ``stale_p`` each a hunk whose old lines do not match
    the base."""
    hunks = []
    line = 1
    for _ in range(rng.randint(0, 4)):
        if line > len(base) + 3:
            break
        start = rng.randint(line, len(base) + 3)
        n_old = rng.randint(0, 3)
        if rng.random() < stale_p:
            old = ("stale",) * max(1, n_old)
        else:
            old = tuple(base[start - 1 : start - 1 + n_old]) if start <= len(base) else ()
        new = tuple(f"new {start}.{k}" for k in range(rng.randint(0, 2)))
        hunks.append(Hunk(start, old, new))
        line = start + max(1, len(old))
    return tuple(hunks)


def test_merge_checks_match_apply_on_a_copy():
    """diff_applies and auto_merge check a diff against the base in place;
    their verdict and ApplyError text equal those of applying the diff to
    a copy of the base, and apply_diff's result equals the copy's."""
    rng = random.Random(33)
    seen = set()
    for _ in range(3000):
        base = [f"l{k}" for k in range(rng.randint(0, 8))]
        hunks = _random_hunks(rng, base, stale_p=0.15)
        diff = Diff("f", hunks)
        expected = _apply_by_copy(base, diff)
        applies = isinstance(expected, list)
        seen.add("applies" if applies else re.sub(r" at line \d+", "", expected))
        assert diff_applies(base, diff) is applies
        left, right = Diff("f", hunks[::2]), Diff("f", hunks[1::2])
        if applies:
            assert apply_diff(base, diff) == expected
            assert auto_merge(left, right, base) == diff
        else:
            for check in (lambda: apply_diff(base, diff), lambda: auto_merge(left, right, base)):
                with pytest.raises(ApplyError) as raised:
                    check()
                assert str(raised.value) == expected
    assert seen == {
        "applies",
        "f: hunk does not match base",
        "f: insertion beyond end of file",
    }


class _UncopiableBase(list):
    """A base file that fails the test if anything iterates it, as
    ``list(base)`` does."""

    def __iter__(self):
        raise AssertionError("the base file was iterated")


def test_merge_checks_do_not_copy_the_base():
    base = _UncopiableBase(f"line {k}" for k in range(1, 9))
    left = Diff("f", (Hunk(2, (base[1],), ("L",)),))
    right = Diff("f", (Hunk(6, (base[5],), ("R",)), Hunk(9, (), ("tail",))))
    stale = Diff("f", (Hunk(4, ("stale",), ("S",)),))
    beyond = Diff("f", (Hunk(10, (), ("past the end",)),))
    assert diff_applies(base, right)
    assert not diff_applies(base, stale)
    assert not diff_applies(base, beyond)
    assert auto_merge(left, right, base) == Diff("f", left.hunks + right.hunks)
    with pytest.raises(ApplyError, match=re.escape("f: hunk at line 4 does not match base")):
        auto_merge(left, stale, base)
    with pytest.raises(ApplyError, match=re.escape("f: insertion at line 10 beyond end of file")):
        auto_merge(left, beyond, base)
    overlapping = Diff("f", (Hunk(2, (base[1], base[2]), ("O",)),))
    assert semantic_merge(left, overlapping, base, _AlwaysBackend(diff=right)).diff == right
    rejected = semantic_merge(left, overlapping, base, _AlwaysBackend(diff=stale))
    assert not rejected.accepted and rejected.reason == "proposal failed validation"


_F_EARLY = Diff(file="f", hunks=(Hunk(1, ("a",), ("A",)),))
_F_LATE = Diff(file="f", hunks=(Hunk(3, ("c",), ("C",)),))
_G = Diff(file="g", hunks=(Hunk(2, (), ("x",)),))


@pytest.mark.parametrize(
    "diffs, expected",
    [
        ((_F_EARLY,), {"f": _F_EARLY}),
        ((_G, _F_LATE), {"g": _G, "f": _F_LATE}),
        (
            (_F_LATE, _G, _F_EARLY),
            {"f": Diff(file="f", hunks=_F_EARLY.hunks + _F_LATE.hunks), "g": _G},
        ),
        (
            (Diff(file="f", hunks=(Hunk(1, ("a", "b"), ("X",)),)), Diff(file="f", hunks=(Hunk(2, ("b",), ("Y",)),))),
            None,
        ),
    ],
    ids=["lone", "lone-per-file", "sorted-union", "overlap"],
)
def test_combine_diffs_reuses_lone_diffs_and_unions_the_rest(diffs, expected, embedder):
    if expected is None:
        with pytest.raises(DiffError, match="overlap"):
            combine_diffs(diffs)
        spawn = random_spawn_package(random.Random(0), embedder)
        resume = ResumePackage(
            spawn_id=spawn.spawn_id,
            status=ChildStatus.SUCCESS,
            execution_time=1.0,
            result=ResultPayload(output="ok", code_diff=diffs, files_modified=frozenset({"f"})),
            metrics=ChildMetrics(1, 1, 1.0),
        )
        assert validate_resume(resume, spawn) == ["f: hunks overlap or are unsorted at line 2"]
        return
    combined = combine_diffs(diffs)
    assert combined == expected
    assert list(combined) == list(expected)
    lone = [d for d in diffs if sum(other.file == d.file for other in diffs) == 1]
    assert all(combined[d.file] is d for d in lone)


def _conflict_pairs(entries):
    """The child pairs merge_diff_sets resolved, in the order it reports them."""
    files = {diff.file for _, diffs in entries for diff in diffs}
    backend = StochasticMergeBackend(1.0, random.Random(0))
    outcome = merge_diff_sets(entries, {f: [""] * 10 for f in files}, backend)
    return outcome.resolutions


def test_detect_conflicts_disjoint_children():
    entries = [(f"c{i}", [Diff(file=f"f{i}")]) for i in range(4)]
    assert _conflict_pairs(entries) == []


def test_detect_conflicts_three_children_same_file():
    entries = [(f"c{i}", [Diff(file="f", hunks=(Hunk(1 + 2 * i, (), ("x",)),))]) for i in range(3)]
    pairs = [(p.left_child, p.right_child) for p in _conflict_pairs(entries)]
    assert pairs == [("c0", "c1"), ("c0", "c2"), ("c1", "c2")]


def test_detect_conflicts_single_child():
    assert _conflict_pairs([("only", [Diff(file="f")])]) == []


def test_line_disjoint_interval_cases():
    span_1_5 = Diff(file="f", hunks=(Hunk(1, tuple("abcde"), ("x",)),))
    span_10_12 = Diff(file="f", hunks=(Hunk(10, tuple("pqr"), ("y",)),))
    span_4_8 = Diff(file="f", hunks=(Hunk(4, tuple("defgh"), ("z",)),))
    assert line_disjoint(span_1_5, span_10_12)
    assert not line_disjoint(span_1_5, span_4_8)
    assert line_disjoint(Diff(file="f"), span_4_8)


def test_line_disjoint_insertions_at_same_point_collide():
    left = Diff(file="f", hunks=(Hunk(3, (), ("L",)),))
    right = Diff(file="f", hunks=(Hunk(3, (), ("R",)),))
    assert not line_disjoint(left, right)
    assert line_disjoint(left, Diff(file="f", hunks=(Hunk(4, (), ("R",)),)))


def test_line_disjoint_matches_interval_oracle():
    rng = random.Random(5)
    base = [f"l{k}" for k in range(1, 21)]
    for _ in range(500):
        a, b = _random_hunks(rng, base), _random_hunks(rng, base)
        a_spans = [(h.start_line, h.start_line + max(1, len(h.old_lines))) for h in a]
        b_spans = [(h.start_line, h.start_line + max(1, len(h.old_lines))) for h in b]
        expected = all(a1 <= b0 or b1 <= a0 for a0, a1 in a_spans for b0, b1 in b_spans)
        assert line_disjoint(Diff("f", a), Diff("f", b)) == expected
        assert line_disjoint(Diff("f", b), Diff("f", a)) == expected


def test_auto_merge_contains_both_edits_and_matches_sequential_apply():
    base = [f"line {i}" for i in range(1, 9)]
    left = Diff(file="f", hunks=(Hunk(2, (base[1],), ("LEFT",)),))
    right = Diff(file="f", hunks=(Hunk(6, (base[5],), ("RIGHT",)),))
    merged = auto_merge(left, right, base)
    applied = apply_diff(base, merged)
    assert "LEFT" in applied and "RIGHT" in applied
    # sequential oracle: apply left, then right (same coordinates still
    # valid here because the left edit does not change line count)
    assert applied == apply_diff(apply_diff(base, left), right)


def test_auto_merge_rebases_line_numbers_correctly():
    base = [f"line {i}" for i in range(1, 9)]
    grow = Diff(file="f", hunks=(Hunk(2, (base[1],), ("g1", "g2", "g3")),))
    late = Diff(file="f", hunks=(Hunk(6, (base[5],), ("LATE",)),))
    merged = auto_merge(grow, late, base)
    applied = apply_diff(base, merged)
    rebased_late = Diff(file="f", hunks=(Hunk(8, (base[5],), ("LATE",)),))
    assert applied == apply_diff(apply_diff(base, grow), rebased_late)


def test_auto_merge_is_commutative_and_identity_on_empty():
    base = [f"line {i}" for i in range(1, 9)]
    left = Diff(file="f", hunks=(Hunk(1, (base[0],), ("L",)),))
    right = Diff(file="f", hunks=(Hunk(4, (base[3],), ("R",)),))
    assert auto_merge(left, right, base) == auto_merge(right, left, base)
    assert auto_merge(left, Diff(file="f"), base) == left


def test_auto_merge_requires_disjoint():
    base = ["a", "b"]
    overlapping = Diff(file="f", hunks=(Hunk(1, ("a",), ("x",)),))
    assert auto_merge(overlapping, overlapping, base) is None


def test_each_fold_checks_line_disjointness_once(monkeypatch):
    calls = []

    def counted(d_i, d_j):
        calls.append((d_i.file, d_j.file))
        return line_disjoint(d_i, d_j)

    monkeypatch.setattr(coherence, "line_disjoint", counted)
    base = [f"line {i}" for i in range(1, 9)]
    entries = [
        ("c1", [Diff(file="f", hunks=(Hunk(2, (base[1],), ("L",)),))]),
        ("c2", [Diff(file="f", hunks=(Hunk(6, (base[5],), ("R",)),))]),
    ]
    outcome = merge_diff_sets(entries, {"f": base}, StochasticMergeBackend(1.0, random.Random(0)))
    assert outcome.tier_count(ResolutionTier.AUTO) == 1
    assert calls == [("f", "f")]


class _AlwaysBackend:
    def __init__(self, diff=None, error=None):
        self.diff = diff
        self.error = error

    def propose(self, d_i, d_j, base):
        if self.error:
            raise self.error
        return self.diff


def test_semantic_merge_accepts_valid_proposal():
    base = ["a", "b", "c"]
    left = Diff(file="f", hunks=(Hunk(1, ("a", "b"), ("x",)),))
    right = Diff(file="f", hunks=(Hunk(2, ("b", "c"), ("y",)),))
    proposal = Diff(file="f", hunks=(Hunk(1, ("a", "b", "c"), ("merged",)),))
    result = semantic_merge(left, right, base, _AlwaysBackend(diff=proposal))
    assert result.accepted and result.diff == proposal


def test_semantic_merge_declines_invalid_proposal():
    base = ["a", "b", "c"]
    left = Diff(file="f", hunks=(Hunk(1, ("a", "b"), ("x",)),))
    bogus = Diff(file="f", hunks=(Hunk(1, ("NOT", "THERE"), ("x",)),))
    result = semantic_merge(left, left, base, _AlwaysBackend(diff=bogus))
    assert not result.accepted and "validation" in result.reason


def test_semantic_merge_declines_on_backend_failure():
    base = ["a"]
    d = Diff(file="f", hunks=(Hunk(1, ("a",), ("x",)),))
    result = semantic_merge(d, d, base, _AlwaysBackend(error=ConnectionError("down")))
    assert not result.accepted and "backend failure" in result.reason
    declined = semantic_merge(d, d, base, _AlwaysBackend(diff=None))
    assert not declined.accepted and declined.reason == "backend declined"


def test_stochastic_backend_p_one_always_succeeds():
    rng = random.Random(0)
    backend = StochasticMergeBackend(1.0, rng)
    base = ["a", "b", "c", "d"]
    left = Diff(file="f", hunks=(Hunk(1, ("a", "b"), ("L",)),))
    right = Diff(file="f", hunks=(Hunk(2, ("b", "c"), ("R",)),))
    for _ in range(50):
        result = semantic_merge(left, right, base, backend)
        assert result.accepted
        assert apply_diff(base, result.diff)
    assert backend.successes == backend.attempts == 50


def test_stochastic_backend_union_prefers_left():
    rng = random.Random(0)
    backend = StochasticMergeBackend(1.0, rng)
    base = ["a", "b", "c", "d", "e"]
    left = Diff(file="f", hunks=(Hunk(2, ("b", "c"), ("L",)),))
    right = Diff(
        file="f",
        hunks=(Hunk(3, ("c",), ("R",)), Hunk(5, ("e",), ("R2",))),
    )
    proposal = backend.propose(left, right, base)
    applied = apply_diff(base, proposal)
    assert "L" in applied and "R2" in applied and "R" not in applied

    # On random multi-hunk diffs the proposal equals the filter that keeps
    # a right hunk only if it touches no left hunk's span, and each call
    # draws exactly one number from the RNG, accepted or not.
    def touch(a, b):
        (a0, a1), (b0, b1) = a.span(), b.span()
        return a0 < b1 and b0 < a1

    pick = random.Random(6)
    base = [f"l{k}" for k in range(1, 13)]
    for p in (1.0, 0.5):
        rng = random.Random(7)
        twin = random.Random(7)
        backend = StochasticMergeBackend(p, rng)
        for _ in range(300):
            left, right = Diff("f", _random_hunks(pick, base)), Diff("f", _random_hunks(pick, base))
            accepted = twin.random() < p
            proposal = backend.propose(left, right, base)
            assert rng.getstate() == twin.getstate()
            if not accepted:
                assert proposal is None
                continue
            keep = [h for h in right.hunks if all(not touch(h, other) for other in left.hunks)]
            assert proposal == Diff("f", tuple(sorted(left.hunks + tuple(keep), key=Hunk.span)))


def test_merge_results_no_conflicts_pass_through():
    rng = random.Random(0)
    backend = StochasticMergeBackend(1.0, rng)
    base_files = {"f1": ["a"], "f2": ["b"]}
    entries = [
        ("c1", [Diff(file="f1", hunks=(Hunk(1, ("a",), ("A",)),))]),
        ("c2", [Diff(file="f2", hunks=(Hunk(1, ("b",), ("B",)),))]),
    ]
    outcome = merge_diff_sets(entries, base_files, backend)
    assert len(outcome.merged_diffs) == 2
    assert outcome.resolutions == []
    assert all(outcome.tier_count(tier) == 0 for tier in ResolutionTier)


def test_merge_results_auto_tier_merges_both_edits():
    rng = random.Random(0)
    backend = StochasticMergeBackend(1.0, rng)
    base = [f"line {i}" for i in range(1, 9)]
    entries = [
        ("c1", [Diff(file="f", hunks=(Hunk(2, (base[1],), ("L",)),))]),
        ("c2", [Diff(file="f", hunks=(Hunk(6, (base[5],), ("R",)),))]),
    ]
    outcome = merge_diff_sets(entries, {"f": base}, backend)
    assert outcome.tier_count(ResolutionTier.AUTO) == 1
    assert outcome.resolutions == [Resolution("c1", "c2", frozenset({"f"}), ResolutionTier.AUTO)]
    merged = apply_diff(base, outcome.merged_diffs[0])
    assert "L" in merged and "R" in merged


def test_merge_results_escalation_excludes_conflicting_file():
    rng = random.Random(0)
    backend = StochasticMergeBackend(0.0, rng)
    base = ["a", "b", "c"]
    overlapping = Hunk(1, ("a", "b"), ("X",))
    entries = [
        ("c1", [Diff(file="f", hunks=(overlapping,))]),
        ("c2", [Diff(file="f", hunks=(Hunk(2, ("b", "c"), ("Y",)),)),
                Diff(file="g", hunks=(Hunk(1, (), ("safe",)),))]),
    ]
    outcome = merge_diff_sets(entries, {"f": base, "g": []}, backend)
    assert outcome.tier_count(ResolutionTier.ESCALATED) == 1
    assert outcome.resolutions == [Resolution("c1", "c2", frozenset({"f"}), ResolutionTier.ESCALATED)]
    assert outcome.escalated_files == {"f"}
    assert {d.file for d in outcome.merged_diffs} == {"g"}


def test_merge_results_semantic_tier_when_backend_accepts():
    rng = random.Random(0)
    backend = StochasticMergeBackend(1.0, rng)
    base = ["a", "b", "c"]
    entries = [
        ("c1", [Diff(file="f", hunks=(Hunk(1, ("a", "b"), ("X",)),))]),
        ("c2", [Diff(file="f", hunks=(Hunk(2, ("b", "c"), ("Y",)),))]),
    ]
    outcome = merge_diff_sets(entries, {"f": base}, backend)
    assert outcome.tier_count(ResolutionTier.SEMANTIC) == 1
    assert outcome.resolutions == [Resolution("c1", "c2", frozenset({"f"}), ResolutionTier.SEMANTIC)]
    assert apply_diff(base, outcome.merged_diffs[0]) == ["X", "c"]


def test_merge_results_rejects_a_child_id_given_twice():
    base = [f"line {i}" for i in range(1, 9)]
    entries = [
        ("a", [Diff(file="f", hunks=(Hunk(2, (base[1],), ("A",)),))]),
        ("b", [Diff(file="f", hunks=(Hunk(6, (base[5],), ("B",)),))]),
        ("b", [Diff(file="g", hunks=(Hunk(1, (), ("G",)),))]),
    ]
    with pytest.raises(DiffError, match=re.escape("child ids must be distinct, got ['a', 'b', 'b']")):
        merge_diff_sets(entries, {"f": base, "g": []}, StochasticMergeBackend(1.0, random.Random(0)))


def test_merge_results_rejects_a_duplicate_id_before_a_childs_overlap():
    overlapping = [
        Diff(file="f", hunks=(Hunk(1, ("a", "b"), ("X",)),)),
        Diff(file="f", hunks=(Hunk(2, ("b",), ("Y",)),)),
    ]
    with pytest.raises(DiffError, match="overlap"):
        merge_diff_sets([("a", overlapping)], {"f": ["a", "b"]}, StochasticMergeBackend(1.0, random.Random(0)))
    entries = [("a", overlapping), ("a", [Diff(file="g")])]
    with pytest.raises(DiffError, match=re.escape("child ids must be distinct, got ['a', 'a']")):
        merge_diff_sets(entries, {"f": ["a", "b"]}, StochasticMergeBackend(1.0, random.Random(0)))


def test_merge_of_children_on_distinct_files_is_linear():
    """Conflict pairs come from shared files, so 4,000 children that share
    none take milliseconds, where an all-pairs scan takes seconds."""
    entries = [(f"c{i}", [Diff(file=f"f{i}", hunks=(Hunk(1, (), (f"c{i}",)),))]) for i in range(4000)]
    backend = StochasticMergeBackend(1.0, random.Random(0))
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        outcome = merge_diff_sets(entries, {}, backend)
        elapsed.append(time.perf_counter() - start)
    assert outcome.resolutions == [] and outcome.escalated_files == set()
    assert all(outcome.tier_count(tier) == 0 for tier in ResolutionTier)
    by_file = {diffs[0].file: diffs[0] for _, diffs in entries}
    assert [d.file for d in outcome.merged_diffs] == sorted(by_file)
    assert all(d is by_file[d.file] for d in outcome.merged_diffs)
    assert backend.attempts == 0
    assert min(elapsed) < 0.5


def test_merge_results_tier_counts_partition_resolutions():
    rng = random.Random(13)
    backend_rng = random.Random(14)
    for _ in range(50):
        backend = StochasticMergeBackend(backend_rng.random(), backend_rng)
        base = [f"l{i}" for i in range(1, 13)]
        entries = []
        for c in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                start = rng.randint(1, 10)
                hunks = (Hunk(start, (base[start - 1],), (f"c{c}",)),)
                entries.append((f"c{c}", [Diff(file="shared", hunks=hunks)]))
            else:
                entries.append((f"c{c}", [Diff(file=f"own{c}", hunks=(Hunk(1, (), (f"c{c}",)),))]))
        outcome = merge_diff_sets(entries, {"shared": base, **{f"own{c}": [] for c in range(4)}}, backend)
        assert sum(outcome.tier_count(tier) for tier in ResolutionTier) == len(outcome.resolutions)
        for resolution in outcome.resolutions:
            # a pair escalates only on a file that the merge left out
            if resolution.tier is ResolutionTier.ESCALATED:
                assert resolution.files & outcome.escalated_files
        # whatever survived must apply cleanly to the base snapshot
        for diff in outcome.merged_diffs:
            apply_diff(base if diff.file == "shared" else [], diff)


def test_merge_results_reproducible_given_seed():
    def run():
        backend = StochasticMergeBackend(0.5, random.Random(42))
        base = ["a", "b", "c", "d"]
        entries = [
            ("c1", [Diff(file="f", hunks=(Hunk(1, ("a", "b"), ("X",)),))]),
            ("c2", [Diff(file="f", hunks=(Hunk(2, ("b", "c"), ("Y",)),))]),
        ]
        return merge_diff_sets(entries, {"f": base}, backend)

    first, second = run(), run()
    assert first.merged_diffs == second.merged_diffs
    assert [r.tier for r in first.resolutions] == [r.tier for r in second.resolutions]


def test_detect_conflicts_matches_pair_enumeration_oracle():
    rng = random.Random(99)
    files = [f"f{i}" for i in range(5)]
    for _ in range(100):
        entries = []
        for c in range(rng.randint(0, 5)):
            touched = rng.sample(files, rng.randint(0, 3))
            entries.append((f"c{c}", [Diff(file=f, hunks=(Hunk(1, (), (f"c{c}",)),)) for f in touched]))
        pairs = _conflict_pairs(entries)
        expected = []
        for i in range(len(entries)):
            for j in range(i + 1, len(entries)):
                shared = {d.file for d in entries[i][1]} & {d.file for d in entries[j][1]}
                if shared:
                    expected.append((f"c{i}", f"c{j}", shared))
        assert [(p.left_child, p.right_child, set(p.files)) for p in pairs] == [
            (a, b, set(s)) for a, b, s in expected
        ]
        assert all(p.left_child != p.right_child for p in pairs)


def _detect_conflicts(
    entries: Sequence[tuple[str, AbstractSet[str]]],
) -> list[tuple[str, str, frozenset[str]]]:
    """Every pair of children that share a file: (left id, right id, shared files)."""
    pairs = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            shared = entries[i][1] & entries[j][1]
            if shared:
                pairs.append((entries[i][0], entries[j][0], frozenset(shared)))
    return pairs


def _reference_merge_diff_sets(entries, base_files, merge_backend):
    """merge_diff_sets as it was before it folded by tier rank: a per-file
    escalated flag, a tier per (file, child index), and a per-pair set of
    tiers."""
    ids = [child_id for child_id, _ in entries]
    combined = [combine_diffs(diffs) for _, diffs in entries]
    pairs = _detect_conflicts([(child_id, per_file.keys()) for child_id, per_file in zip(ids, combined)])

    by_file = {}
    for idx, per_file in enumerate(combined):
        for path, diff in per_file.items():
            by_file.setdefault(path, []).append((idx, diff))

    merged_per_file = {}
    fold_tier = {}
    escalated_files = set()
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
    for left_child, right_child, files in pairs:
        j = index_of[right_child]
        tiers = {fold_tier[(path, j)] for path in files if (path, j) in fold_tier}
        if ResolutionTier.ESCALATED in tiers or not tiers:
            tier = ResolutionTier.ESCALATED
        elif ResolutionTier.SEMANTIC in tiers:
            tier = ResolutionTier.SEMANTIC
        else:
            tier = ResolutionTier.AUTO
        resolutions.append(Resolution(left_child, right_child, files, tier))

    merged = [merged_per_file[path] for path in sorted(merged_per_file)]
    return MergeOutcome(merged_diffs=merged, resolutions=resolutions, escalated_files=escalated_files)


_FOLD_BASE_LEN = 6


def _fold_base(file_index):
    return [f"f{file_index} line {k}" for k in range(1, _FOLD_BASE_LEN + 1)]


@st.composite
def _fold_diff(draw, file_index):
    """Sorted, non-overlapping hunks on one file: replacements, deletions
    and insertions (at the end of the file too), some with stale old lines
    so that a merge holding them fails to apply."""
    base = _fold_base(file_index)
    hunks = []
    line = 1
    while line <= _FOLD_BASE_LEN + 1 and len(hunks) < 3 and draw(st.booleans()):
        start = draw(st.integers(line, _FOLD_BASE_LEN + 1))
        n_old = draw(st.integers(0, min(2, _FOLD_BASE_LEN + 1 - start)))
        if n_old and draw(st.integers(0, 5)) == 0:
            old = ("stale",) * n_old
        else:
            old = tuple(base[start - 1 : start - 1 + n_old])
        hunks.append(Hunk(start, old, (f"new {start}.{len(hunks)}",)))
        line = start + max(1, n_old)
    return Diff(f"f{file_index}", tuple(hunks))


@st.composite
def _fold_entries(draw):
    """Two to four children over one to three files. A child sometimes
    gives two diffs on one file, which often overlap, and gives its diffs
    in any file order."""
    n_files = draw(st.integers(1, 3))
    entries = []
    for c in range(draw(st.integers(2, 4))):
        touched = [f for f in range(n_files) if draw(st.booleans())]
        diffs = [draw(_fold_diff(f)) for f in touched]
        diffs += [draw(_fold_diff(f)) for f in touched if draw(st.integers(0, 3)) == 0]
        entries.append((f"c{c}", draw(st.permutations(diffs))))
    return entries, {f"f{f}": _fold_base(f) for f in range(n_files)}


def _fold_run(fold, entries, base_files, p, seed):
    rng = random.Random(seed)
    backend = StochasticMergeBackend(p, rng)
    try:
        outcome = fold(entries, base_files, backend)
        tier_counts = [outcome.tier_count(tier) for tier in ResolutionTier]
        result = (outcome.merged_diffs, outcome.resolutions, tier_counts, outcome.escalated_files)
    except DiffError as exc:  # a stale hunk in an auto merge, or a child's own overlap
        result = (type(exc), str(exc))
    return result, backend.attempts, backend.successes, rng.random()


@settings(max_examples=400, deadline=None)
@given(case=_fold_entries(), p=st.sampled_from((0.0, 0.5, 1.0)), seed=st.integers(0, 2**32))
def test_merge_fold_matches_reference_fold(case, p, seed):
    entries, base_files = case
    assert _fold_run(merge_diff_sets, entries, base_files, p, seed) == _fold_run(
        _reference_merge_diff_sets, entries, base_files, p, seed
    )
