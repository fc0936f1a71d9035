"""Recovery-quality metrics.

Recall counts three error kinds against the number of evaluated regions:
wrong label, missed (a real instruction labeled as unattributed), and
inserted (an unattributed slice labeled as an instruction).  Width twins
(i32/i64) share handler code and are inherently indistinguishable, so
comparisons default to opcode-family granularity; strict mode compares
exact mnemonics for ablation studies.
"""

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .opcodes import OPCODES

__all__ = [
    "RecallReport",
    "AlignmentCounts",
    "family_of",
    "classify_outcomes",
    "recall_percent",
    "align_free",
    "naive_match_percent",
]


def family_of(label: str | None) -> str | None:
    """Collapse a mnemonic to its family name; unknown labels pass through."""
    if label is None:
        return None
    op = OPCODES.get(label)
    return op.family if op is not None else label


def recall_percent(n: int, wrong: int, missed: int, inserted: int) -> float:
    if n <= 0:
        raise ValueError("need at least one real instruction")
    return 100.0 * (1.0 - (wrong + missed + inserted) / n)


@dataclass(frozen=True)
class RecallReport:
    n: int
    correct: int
    wrong: int
    missed: int
    inserted: int
    confusion: Counter = field(default_factory=Counter)

    @property
    def recall(self) -> float:
        return recall_percent(self.n, self.wrong, self.missed, self.inserted)


def classify_outcomes(
    truth_labels, predicted_labels, strict: bool = False
) -> RecallReport:
    """Position-by-position comparison of truth and predicted segment labels.

    None marks a slice with no retired instruction.  Every position counts
    as one region: agreeing labels (including None against None) are
    correct, a None prediction against a real label is a miss, a real
    prediction against a None label is an insertion, and the rest are
    wrong.  The two sequences must align one-to-one.
    """
    if len(truth_labels) != len(predicted_labels):
        raise ValueError("truth and prediction streams have different lengths")
    confusion = Counter(zip(truth_labels, predicted_labels))
    if not strict:
        raw, confusion = confusion, Counter()
        for (truth, pred), count in raw.items():
            confusion[(family_of(truth), family_of(pred))] += count
    correct = wrong = missed = inserted = 0
    for (truth, pred), count in confusion.items():
        if truth == pred:
            correct += count
        elif pred is None:
            missed += count
        elif truth is None:
            inserted += count
        else:
            wrong += count
    return RecallReport(
        n=len(truth_labels),
        correct=correct,
        wrong=wrong,
        missed=missed,
        inserted=inserted,
        confusion=confusion,
    )


@dataclass(frozen=True)
class AlignmentCounts:
    n: int
    matched: int
    substituted: int
    deleted: int
    inserted: int

    @property
    def recall(self) -> float:
        return recall_percent(self.n, self.substituted, self.deleted, self.inserted)


def align_free(truth_seq, pred_seq) -> AlignmentCounts:
    """Minimum-edit alignment of two label sequences, no anchoring.

    Unit cost for substitution, deletion (truth item unexplained), and
    insertion (spurious prediction); matches are free.  On ties the
    traceback prefers substitution, then deletion, then insertion, which
    keeps error placement deterministic.  Quadratic in sequence length.
    """
    codes: dict = {}
    a = [codes.setdefault(x, len(codes)) for x in truth_seq]
    b = [codes.setdefault(x, len(codes)) for x in pred_seq]
    la, lb = len(a), len(b)
    b_codes = np.array(b, dtype=np.int64)
    cols = np.arange(1, lb + 1)
    dp = np.zeros((la + 1, lb + 1), dtype=np.int64)
    dp[:, 0] = np.arange(la + 1)
    dp[0, :] = np.arange(lb + 1)
    for i in range(1, la + 1):
        sub = dp[i - 1, :-1] + (b_codes != a[i - 1])
        cand = np.minimum(sub, dp[i - 1, 1:] + 1)
        # dp[i, j] = min(cand[j - 1], dp[i, j - 1] + 1) unrolls to
        # j + min over k <= j of (cand[k - 1] - k); the all-insertion path
        # from dp[i, 0] = i never wins, since cand[0] <= i.
        dp[i, 1:] = cols + np.minimum.accumulate(cand - cols)
    matched = substituted = deleted = inserted = 0
    i, j = la, lb
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            step = 0 if a[i - 1] == b[j - 1] else 1
            if dp[i, j] == dp[i - 1, j - 1] + step:
                if step:
                    substituted += 1
                else:
                    matched += 1
                i -= 1
                j -= 1
                continue
        if i > 0 and dp[i, j] == dp[i - 1, j] + 1:
            deleted += 1
            i -= 1
            continue
        inserted += 1
        j -= 1
    return AlignmentCounts(
        n=la,
        matched=matched,
        substituted=substituted,
        deleted=deleted,
        inserted=inserted,
    )


def naive_match_percent(truth_seq, pred_seq) -> float:
    """Positional agreement with no alignment, over the truth length."""
    truth = list(truth_seq)
    if not truth:
        raise ValueError("empty truth sequence")
    hits = sum(1 for t, p in zip(truth, pred_seq) if t == p)
    return 100.0 * hits / len(truth)
