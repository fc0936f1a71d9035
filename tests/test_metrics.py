"""Recovery metrics: outcome classification, recall arithmetic, alignment."""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optrace.metrics import (
    AlignmentCounts,
    RecallReport,
    align_free,
    classify_outcomes,
    family_of,
    naive_match_percent,
    recall_percent,
)

# --------------------------------------------------------------- families


def test_family_collapses_width_twins():
    assert family_of("i32.add") == "add"
    assert family_of("i64.add") == "add"
    assert family_of("i32.shr_s") == "shr_s"


def test_family_passes_width_free_and_unknown_labels_through():
    assert family_of("call") == "call"
    assert family_of("memory.grow") == "memory.grow"
    assert family_of("not-an-opcode") == "not-an-opcode"
    assert family_of(None) is None


# ---------------------------------------------------------------- recall


def test_recall_percent_arithmetic():
    assert recall_percent(10, 0, 0, 0) == 100.0
    assert recall_percent(10, 1, 1, 0) == pytest.approx(80.0)
    assert recall_percent(4, 1, 1, 1) == pytest.approx(25.0)
    # More errors than regions pushes recall below zero; no clamping.
    assert recall_percent(2, 2, 2, 2) == pytest.approx(-200.0)


def test_recall_percent_rejects_empty_denominator():
    with pytest.raises(ValueError):
        recall_percent(0, 0, 0, 0)
    with pytest.raises(ValueError):
        recall_percent(-1, 0, 0, 0)


# ---------------------------------------------------- outcome classification


def test_classify_counts_each_outcome_kind():
    truth = ["i32.add", None, "i32.sub", "call", None]
    pred = ["i32.add", "nop", None, "i32.mul", None]
    report = classify_outcomes(truth, pred)
    assert (report.n, report.correct) == (5, 2)
    assert (report.wrong, report.missed, report.inserted) == (1, 1, 1)
    assert report.recall == pytest.approx(100.0 * (1.0 - 3.0 / 5.0))


def test_classify_matches_width_twins_by_default():
    report = classify_outcomes(["i32.add"], ["i64.add"])
    assert report.correct == 1 and report.wrong == 0


def test_classify_strict_mode_separates_width_twins():
    report = classify_outcomes(["i32.add"], ["i64.add"], strict=True)
    assert report.correct == 0 and report.wrong == 1


def test_classify_confusion_uses_canonical_labels():
    report = classify_outcomes(["i32.add", "i64.add"], ["i64.add", "nop"])
    assert report.confusion[("add", "add")] == 1
    assert report.confusion[("add", "nop")] == 1
    strict = classify_outcomes(["i32.add"], ["i64.add"], strict=True)
    assert strict.confusion[("i32.add", "i64.add")] == 1


def test_classify_unattributed_agreement_is_correct():
    report = classify_outcomes([None, None], [None, None])
    assert report.correct == 2 and report.n == 2
    assert report.recall == 100.0


def test_classify_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        classify_outcomes(["nop"], ["nop", "nop"])


def test_classify_empty_streams_have_no_recall():
    report = classify_outcomes([], [])
    assert report.n == 0
    with pytest.raises(ValueError):
        report.recall


LABEL_POOL = ["i32.add", "i64.add", "i32.sub", "call", "nop", None]


def classify_row_by_row(truth_labels, predicted_labels, strict):
    """One branch per region, kept independent of the library implementation."""
    canon = (lambda x: x) if strict else family_of
    counts = Counter()
    confusion = Counter()
    for truth, pred in zip(truth_labels, predicted_labels):
        confusion[(canon(truth), canon(pred))] += 1
        if truth is None:
            counts["correct" if pred is None else "inserted"] += 1
        elif pred is None:
            counts["missed"] += 1
        else:
            counts["correct" if canon(truth) == canon(pred) else "wrong"] += 1
    return RecallReport(
        n=len(truth_labels),
        correct=counts["correct"],
        wrong=counts["wrong"],
        missed=counts["missed"],
        inserted=counts["inserted"],
        confusion=confusion,
    )


@settings(max_examples=200, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.sampled_from(LABEL_POOL), st.sampled_from(LABEL_POOL)),
        min_size=1,
        max_size=30,
    )
)
def test_classify_outcomes_partition_every_region(pairs):
    truth = [t for t, _ in pairs]
    pred = [p for _, p in pairs]
    for strict in (False, True):
        report = classify_outcomes(truth, pred, strict=strict)
        assert report == classify_row_by_row(truth, pred, strict)
        assert (
            report.correct + report.wrong + report.missed + report.inserted
            == report.n
            == len(pairs)
        )
        assert sum(report.confusion.values()) == report.n
    loose = classify_outcomes(truth, pred)
    strict = classify_outcomes(truth, pred, strict=True)
    # Family canonicalization can only turn wrong answers into correct ones.
    assert strict.recall <= loose.recall + 1e-9


# ---------------------------------------------------------------- alignment


def edit_distance(a, b):
    """Plain quadratic DP, kept independent of the library implementation."""
    la, lb = len(a), len(b)
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            cur[j] = min(prev[j - 1] + cost, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[lb]


def check_against_oracle(a, b):
    counts = align_free(a, b)
    assert counts.substituted + counts.deleted + counts.inserted == edit_distance(a, b)
    assert counts.matched + counts.substituted + counts.deleted == len(a)
    assert counts.matched + counts.substituted + counts.inserted == len(b)
    assert counts.n == len(a)
    return counts


def test_align_exhaustive_over_short_sequences():
    symbols = "abc"
    pools = [[""]]
    for _ in range(8):
        pools.append([s + c for s in pools[-1] for c in symbols])
    for la in range(9):
        for lb in range(9 - la):
            for a in pools[la]:
                for b in pools[lb]:
                    check_against_oracle(a, b)


def test_align_random_longer_sequences():
    rng = random.Random(99)
    for _ in range(150):
        a = [rng.choice("abcde") for _ in range(rng.randint(0, 25))]
        b = [rng.choice("abcde") for _ in range(rng.randint(0, 25))]
        check_against_oracle(a, b)


def test_align_identical_sequences():
    counts = align_free("abca", "abca")
    assert counts == AlignmentCounts(
        n=4, matched=4, substituted=0, deleted=0, inserted=0
    )
    assert counts.recall == 100.0


def test_align_prefers_substitution_on_ties():
    counts = align_free("ab", "ba")
    assert counts.substituted == 2
    assert counts.deleted == 0 and counts.inserted == 0


def test_align_empty_sides():
    assert align_free("", "xyz") == AlignmentCounts(
        n=0, matched=0, substituted=0, deleted=0, inserted=3
    )
    assert align_free("xyz", "") == AlignmentCounts(
        n=3, matched=0, substituted=0, deleted=3, inserted=0
    )
    with pytest.raises(ValueError):
        align_free("", "xyz").recall


def test_align_accepts_arbitrary_hashable_items():
    counts = check_against_oracle(
        ["i32.add", None, "call"], ["i32.add", "call"]
    )
    assert counts.matched == 2 and counts.deleted == 1


@settings(max_examples=200, deadline=None)
@given(
    a=st.lists(st.sampled_from("abc"), max_size=12),
    b=st.lists(st.sampled_from("abc"), max_size=12),
)
def test_align_matches_edit_distance(a, b):
    check_against_oracle(a, b)


def align_cell_by_cell(truth_seq, pred_seq):
    """The DP filled one cell at a time, with the library's traceback tie order."""
    a, b = list(truth_seq), list(pred_seq)
    la, lb = len(a), len(b)
    dp = np.zeros((la + 1, lb + 1), dtype=np.int64)
    dp[:, 0] = np.arange(la + 1)
    dp[0, :] = np.arange(lb + 1)
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dp[i, j] = min(dp[i - 1, j - 1] + cost, dp[i - 1, j] + 1, dp[i, j - 1] + 1)
    counts = Counter()
    i, j = la, lb
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            step = 0 if a[i - 1] == b[j - 1] else 1
            if dp[i, j] == dp[i - 1, j - 1] + step:
                counts["substituted" if step else "matched"] += 1
                i -= 1
                j -= 1
                continue
        if i > 0 and dp[i, j] == dp[i - 1, j] + 1:
            counts["deleted"] += 1
            i -= 1
            continue
        counts["inserted"] += 1
        j -= 1
    return AlignmentCounts(
        n=la,
        matched=counts["matched"],
        substituted=counts["substituted"],
        deleted=counts["deleted"],
        inserted=counts["inserted"],
    )


ALIGN_POOL = ["i32.add", "i64.add", "call", "br_if", "x", None]


@settings(max_examples=150, deadline=None)
@given(
    a=st.lists(st.sampled_from(ALIGN_POOL), max_size=40),
    b=st.lists(st.sampled_from(ALIGN_POOL), max_size=40),
)
def test_align_counts_equal_the_cell_by_cell_dp(a, b):
    # Equal counts, not only an equal distance: the traceback's tie order
    # (substitution, then deletion, then insertion) must not change.
    assert align_free(a, b) == align_cell_by_cell(a, b)


# -------------------------------------------------------------- naive match


def test_naive_match_counts_positional_hits_only():
    assert naive_match_percent("abcd", "abcd") == 100.0
    assert naive_match_percent("abcd", "abce") == 75.0
    # One leading insertion wrecks positional agreement.
    assert naive_match_percent("abcd", "xabc") == 0.0


def test_naive_match_uses_truth_length_as_denominator():
    assert naive_match_percent("abcd", "ab") == 50.0
    assert naive_match_percent("ab", "abcd") == 100.0


def test_naive_match_rejects_empty_truth():
    with pytest.raises(ValueError, match="empty"):
        naive_match_percent("", "abc")
