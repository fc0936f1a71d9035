"""Pinned outputs of three small end2end runs, recorded from a reference build.

Each case runs `optrace end2end`, then preprocesses the victim trace it wrote
the way `attack` does.  The digests cover the detected dispatch page and its
confidence, the stack pages, the removed-event count, every segment's start
and four channels, the truth file and the predictions file, so a refactor of
the trace or label representation, the readers and writers, preprocessing or
the matcher that changes any of them fails here.  On the `bursty` case, `attack --channels` is also
pinned for every leave-one-out channel subset, so that the scorer's
per-channel paths are covered one by one; the codes, scores and margins of
`match_trace` are pinned for all 15 channel subsets; and the share of pairs
whose latency the matcher scores is bounded, so that it cannot fall back to
dense scoring.
"""

import hashlib
import itertools
from unittest import mock

import pytest

from optrace.cli import main
from optrace.matcher import Channel, CompiledDb, match_trace
from optrace.preprocess import preprocess_trace
from optrace.traceio import read_db, read_trace

CASES = {
    "default-noise": (
        (),
        "169218ba4bdd93e4fd5974ae51d591db9f7b909c7e53e6a28dcdb81aef0c4f9a",
        "40c3378ccdf1e2b0745725a3ee0b66cbf7b7de4fc9eeb2a6816321c1b5da09b6",
        "ed91ddf2f2a7cbf57e320a4d584107c664c0a863dc309f18f448b181dde90085",
    ),
    "bursty": (
        ("--config", "noise.ctx_switch_rate = 0.001953\n"),
        "ce930aa1e31c8e6642c39d65991f82d9b9bc270402986dad52a1777ec8be4ca8",
        "bb07246d5882b85e6e3933c63b763e16f6f46693e454256f2d6dcfd3525ee86a",
        "1ac0bbc54a1620d72826ab8a172441aceb107014a5eadb1f69f1b1ecd70e866a",
    ),
    "zero-noise": (
        ("--zero-noise",),
        "71ab7c5f420c9e4f061e62d23c99ab2bbf6f4a02ad6eb8cc3309ca49e132c83f",
        "91a1ac698395d7f67939355f6ac239429a2574990aff789c6e6b2237933f3910",
        "1f4ba954fb6abf90ff8b5f378c8e0114811fe8f789a9d6e94d3e685f8ddb0231",
    ),
}


def preprocess_digest(trace_path) -> str:
    report, _, segments = preprocess_trace(read_trace(trace_path))
    h = hashlib.sha256()
    h.update(repr((
        report.optable_page,
        report.optable_confidence,
        sorted(report.stack_pages),
        report.events_removed,
    )).encode())
    for s in segments:
        h.update(repr((s.start_index, s.modes, s.classes, s.pf, s.latency)).encode())
    return h.hexdigest()


def end2end(out_dir, extra) -> list[str]:
    """Run the small end2end case into `out_dir`; returns its config arguments."""
    options = list(extra)
    if extra[:1] == ("--config",):
        config = out_dir / "case.config"
        config.write_text(extra[1])
        options = ["--config", str(config)]
    argv = [
        "end2end", "--seed", "0", "--iterations", "8", "--repeats", "4",
        "--out-dir", str(out_dir), *options,
    ]
    assert main(argv) == 0
    return options


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_small_runs_keep_their_pinned_outputs(tmp_path, capsys, case):
    extra, want_preprocess, want_predictions, want_truth = CASES[case]
    end2end(tmp_path, extra)
    capsys.readouterr()
    assert preprocess_digest(tmp_path / "victim.csv") == want_preprocess
    assert sha256_of(tmp_path / "predictions.csv") == want_predictions
    assert sha256_of(tmp_path / "truth.csv") == want_truth


# `attack --channels` predictions on the `bursty` case (DB width 17, 18 of
# its 1,664 segments longer), by the channel left out.
SUBSET_PREDICTIONS = {
    "mode": "c3735c118f68d656d794aa65f81a2930050a21fc7226570d3713d08087778f93",
    "class": "b91ca1d41d8b6b1145eabb8e52da593c8d3ab7dbbcd0104c0e8494976fe51f05",
    "pf": "7bd3faa1915f89f9c85fa98c882ca7c9ce97f57ade5e2cf4bb1c1ee9e7b8cb48",
    "latency": "32b33210e6e221a8fa600a067ed75d12e949a881b09b90fda1204a08998e7bd5",
}


@pytest.fixture(scope="module")
def bursty_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("bursty")
    return out_dir, end2end(out_dir, CASES["bursty"][0])


@pytest.mark.parametrize("left_out", SUBSET_PREDICTIONS)
def test_channel_subsets_keep_their_pinned_predictions(bursty_run, tmp_path, capsys, left_out):
    out_dir, options = bursty_run
    channels = ",".join(name for name in SUBSET_PREDICTIONS if name != left_out)
    out = tmp_path / "predictions.csv"
    assert main([
        "attack", "--trace", str(out_dir / "victim.csv"), "--db", str(out_dir / "db.txt"),
        "--channels", channels, "--out", str(out), *options,
    ]) == 0
    capsys.readouterr()
    assert sha256_of(out) == SUBSET_PREDICTIONS[left_out]


@pytest.fixture(scope="module")
def bursty_inputs(bursty_run):
    """The `bursty` case's segments, preprocessed as `attack` does, and its DB."""
    out_dir, _ = bursty_run
    _, _, segments = preprocess_trace(read_trace(out_dir / "victim.csv"))
    return segments, read_db(out_dir / "db.txt")


# `match_trace` codes, scores and margins on the `bursty` case, over every
# channel subset in turn.
ALL_SUBSETS_SCORES = "36317af5c5e1486e00e9e1904d1766215982cf7a53c9be76522c2eb1125b70f4"


def test_every_channel_subset_keeps_its_pinned_scores(bursty_inputs):
    segments, db = bursty_inputs
    h = hashlib.sha256()
    for k in range(1, len(Channel) + 1):
        for subset in itertools.combinations(Channel, k):
            predictions = match_trace(segments, db, frozenset(subset))
            for column in (predictions.codes, predictions.score, predictions.margin):
                h.update(column.tobytes())
    assert h.hexdigest() == ALL_SUBSETS_SCORES


def test_latency_is_scored_for_few_pairs(bursty_inputs):
    # 8.7% of the distinct segment keys x entries when written; dense
    # scoring would be 100%.
    segments, db = bursty_inputs
    scored, keys = [], []
    real_pairs, real_blocks = CompiledDb._score_pairs, CompiledDb.score_blocks

    def score_pairs(self, x, L, rows, key, entry, side):
        if Channel.LATENCY in x:
            scored.append(len(key))
        return real_pairs(self, x, L, rows, key, entry, side)

    def score_blocks(self, segments):
        for rows, slot, key, entry, score in real_blocks(self, segments):
            keys.append(int(key[-1]) + 1)
            yield rows, slot, key, entry, score

    with mock.patch.object(CompiledDb, "_score_pairs", score_pairs), \
            mock.patch.object(CompiledDb, "score_blocks", score_blocks):
        match_trace(segments, db)
    assert sum(keys) > 1000
    assert sum(scored) <= 0.15 * sum(keys) * len(db.entries)
