"""Pinned outputs of three small end2end runs, recorded from a reference build.

Each case runs `optrace end2end`, then preprocesses the victim trace it wrote
the way `attack` does.  The digests cover the detected dispatch page and its
confidence, the stack pages, the removed-event count, every segment's start
and four channels, and the predictions file, so a refactor of the trace
representation, the reader, preprocessing or the matcher that changes any
of them fails here.
"""

import hashlib

import pytest

from optrace.cli import main
from optrace.preprocess import preprocess_trace
from optrace.traceio import read_trace

CASES = {
    "default-noise": (
        (),
        "169218ba4bdd93e4fd5974ae51d591db9f7b909c7e53e6a28dcdb81aef0c4f9a",
        "40c3378ccdf1e2b0745725a3ee0b66cbf7b7de4fc9eeb2a6816321c1b5da09b6",
    ),
    "bursty": (
        ("--config", "noise.ctx_switch_rate = 0.001953\n"),
        "ce930aa1e31c8e6642c39d65991f82d9b9bc270402986dad52a1777ec8be4ca8",
        "bb07246d5882b85e6e3933c63b763e16f6f46693e454256f2d6dcfd3525ee86a",
    ),
    "zero-noise": (
        ("--zero-noise",),
        "71ab7c5f420c9e4f061e62d23c99ab2bbf6f4a02ad6eb8cc3309ca49e132c83f",
        "91a1ac698395d7f67939355f6ac239429a2574990aff789c6e6b2237933f3910",
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


@pytest.mark.parametrize("case", CASES)
def test_small_runs_keep_their_pinned_outputs(tmp_path, capsys, case):
    extra, want_preprocess, want_predictions = CASES[case]
    argv = [
        "end2end", "--seed", "0", "--iterations", "8", "--repeats", "4",
        "--out-dir", str(tmp_path),
    ]
    if extra[:1] == ("--config",):
        config = tmp_path / "case.config"
        config.write_text(extra[1])
        argv += ["--config", str(config)]
    else:
        argv += list(extra)
    assert main(argv) == 0
    capsys.readouterr()
    assert preprocess_digest(tmp_path / "victim.csv") == want_preprocess
    predictions = (tmp_path / "predictions.csv").read_bytes()
    assert hashlib.sha256(predictions).hexdigest() == want_predictions
