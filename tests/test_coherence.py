from __future__ import annotations

import random

import pytest

from agentfork.coherence import (
    ApplyError,
    Diff,
    DiffError,
    Hunk,
    ResolutionTier,
    StochasticMergeBackend,
    apply_diff,
    auto_merge,
    combine_diffs,
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
    return [r.pair for r in outcome.resolutions]


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
    for _ in range(200):
        def one(start, n):
            return Diff(file="f", hunks=(Hunk(start, tuple(f"l{start + k}" for k in range(n)), ("e",)),))

        a_start, a_len = rng.randint(1, 20), rng.randint(0, 4)
        b_start, b_len = rng.randint(1, 20), rng.randint(0, 4)
        a0, a1 = a_start, a_start + max(1, a_len)
        b0, b1 = b_start, b_start + max(1, b_len)
        expected = a1 <= b0 or b1 <= a0
        assert line_disjoint(one(a_start, a_len), one(b_start, b_len)) == expected


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
    with pytest.raises(DiffError):
        auto_merge(overlapping, overlapping, base)


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
    assert all(count == 0 for count in outcome.stats.values())


def test_merge_results_auto_tier_merges_both_edits():
    rng = random.Random(0)
    backend = StochasticMergeBackend(1.0, rng)
    base = [f"line {i}" for i in range(1, 9)]
    entries = [
        ("c1", [Diff(file="f", hunks=(Hunk(2, (base[1],), ("L",)),))]),
        ("c2", [Diff(file="f", hunks=(Hunk(6, (base[5],), ("R",)),))]),
    ]
    outcome = merge_diff_sets(entries, {"f": base}, backend)
    assert outcome.stats[ResolutionTier.AUTO] == 1
    assert outcome.resolutions[0].success
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
    assert outcome.stats[ResolutionTier.ESCALATED] == 1
    assert not outcome.resolutions[0].success
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
    assert outcome.stats[ResolutionTier.SEMANTIC] == 1
    assert outcome.resolutions[0].success
    assert apply_diff(base, outcome.merged_diffs[0]) == ["X", "c"]


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
        assert sum(outcome.stats.values()) == len(outcome.resolutions)
        for resolution in outcome.resolutions:
            assert resolution.success == (resolution.tier is not ResolutionTier.ESCALATED)
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
