"""Shared trace-pipeline builders and the scalar scoring oracle for the test suite.

Synthesizing traces dominates test runtime, so every builder is memoized;
tests that share a (seed, noise, mitigation) combination reuse one run.
Seeds, noise values, and the profile-seed offset mirror the CLI defaults
so pipeline-level expectations here match `optrace end2end` behavior.
"""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import optrace
from optrace.bytecode import execute
from optrace.cli import PROFILE_SEED_OFFSET
from optrace.handlers import apply_mitigation, default_handler_specs
from optrace.machine import (
    Labels,
    LayoutConfig,
    MitigationConfig,
    NoiseModel,
    SideChannelTrace,
    build_layout,
    synthesize_trace,
)
from optrace.matcher import (
    DEFAULT_CHANNELS,
    Channel,
    Predictions,
    match_trace,
    pearson,
    score_discrete,
)
from optrace.metrics import classify_outcomes
from optrace.preprocess import Segment, Segments, preprocess_trace
from optrace.profiler import Fingerprint, _fingerprints, build_fingerprint_db
from optrace.workloads import benchmark_module, reference_module

FULL_CHANNELS = frozenset(Channel)
NO_LATENCY = FULL_CHANNELS - {Channel.LATENCY}
DEFAULT_SIGMA = 60.0


def noise_model(seed: int, sigma: float = DEFAULT_SIGMA, zero: bool = False) -> NoiseModel:
    if zero:
        return NoiseModel.zero(rng_seed=seed)
    return NoiseModel(latency_jitter_sigma=sigma, rng_seed=seed)


@lru_cache(maxsize=None)
def profile_db(seed: int, sigma: float = DEFAULT_SIGMA, zero: bool = False, repeats: int = 32):
    """Fingerprint DB from the coverage program under its own layout."""
    run = execute(reference_module(repeats), step_limit=10_000_000)
    layout = build_layout(seed, LayoutConfig())
    trace = synthesize_trace(
        run,
        layout,
        default_handler_specs(),
        noise_model(seed + 1, sigma, zero),
        profiling_markers=True,
    )
    return build_fingerprint_db(
        trace, layout.marker_page, layout.optable_page, frozenset(layout.stack_pages)
    )


@lru_cache(maxsize=None)
def victim(
    seed: int,
    sigma: float = DEFAULT_SIGMA,
    zero: bool = False,
    nop_prob: float = 0.0,
    iterations: int = 55,
):
    """Benchmark run, synthesized and preprocessed; truth kept alongside."""
    run = execute(benchmark_module(seed, iterations), step_limit=50_000_000)
    layout = build_layout(seed, LayoutConfig())
    specs = default_handler_specs()
    if nop_prob > 0.0:
        specs = apply_mitigation(
            specs, MitigationConfig(nop_insertion_prob=nop_prob), seed
        )
    trace = synthesize_trace(
        run, layout, specs, noise_model(seed + 1, sigma, zero), profiling_markers=False
    )
    report, filtered, segments = preprocess_trace(trace)
    return SimpleNamespace(
        run=run,
        layout=layout,
        trace=trace,
        report=report,
        segments=segments,
        truth=tuple(trace.truth.labels),
    )


@lru_cache(maxsize=None)
def attack_report(
    seed: int,
    sigma: float = DEFAULT_SIGMA,
    zero: bool = False,
    nop_prob: float = 0.0,
    iterations: int = 55,
    channels: frozenset = FULL_CHANNELS,
    strict: bool = False,
):
    """Recall report for one profiled-then-attacked benchmark run."""
    v = victim(seed, sigma, zero, nop_prob, iterations)
    db = profile_db(seed + PROFILE_SEED_OFFSET, sigma, zero)
    predictions = match_trace(v.segments, db, channels)
    return classify_outcomes(v.truth, predictions.labels, strict=strict)


def trace_of(events, truth=None, layout_seed=None) -> SideChannelTrace:
    """A trace whose rows are `events`, a list of `StepEvent`s, in order."""
    events = list(events)
    return SideChannelTrace(
        page=[ev.page for ev in events],
        mode=[ord(ev.mode) for ev in events],
        pf=[ev.pf_count for ev in events],
        latency=[ev.latency for ev in events],
        truth=truth,
        layout_seed=layout_seed,
    )


def segments_of(segments) -> Segments:
    """`segments`, a list of `Segment`s, stacked in order as the row ranges of one trace."""
    segments = list(segments)
    lengths = np.array([len(s) for s in segments], dtype=np.int64)
    ends = np.cumsum(lengths)
    trace = SideChannelTrace(
        page=np.zeros(int(lengths.sum())),  # a segment holds no pages
        mode=np.frombuffer("".join(s.modes for s in segments).encode("ascii"), np.uint8),
        pf=[v for s in segments for v in s.pf],
        latency=[v for s in segments for v in s.latency],
        truth=None,
        layout_seed=None,
    )
    classes = np.frombuffer("".join(s.classes for s in segments).encode("ascii"), np.uint8)
    return Segments(trace, classes, ends - lengths, ends)


def labels_of(pairs) -> Labels:
    """`pairs`, a list of (row, label) pairs, as a Labels; labels are coded as first seen."""
    pairs = list(pairs)
    table = list(dict.fromkeys(label for _, label in pairs))
    rows = np.array([row for row, _ in pairs], np.int64)
    return Labels(rows, np.array([table.index(label) for _, label in pairs], np.int64), table)


def predictions_of(rows) -> Predictions:
    """`rows`, a list of `Prediction`s, stacked in order; labels are coded as first seen."""
    rows = list(rows)
    labels = labels_of((p.segment_id, p.label) for p in rows)
    score, margin = ([getattr(p, name) for p in rows] for name in ("score", "margin"))
    return Predictions(
        labels.rows, labels.codes, labels.table, np.array(score, float), np.array(margin, float)
    )


def dedup_fingerprints(labeled_segments):
    """The profiler's merge of `(label, Segment)` pairs, the segments stacked in order."""
    labels = [label for label, _ in labeled_segments]
    return _fingerprints(labels, segments_of(seg for _, seg in labeled_segments))


def segment_events(trace, segment):
    """The StepEvents of a segment's rows in the trace it was cut from."""
    return trace.take(slice(segment.start_index, segment.start_index + len(segment))).events


# The scalar scorer: one segment against one fingerprint, the oracle of CompiledDb's bulk scores.
def score_numeric(a, b) -> float:
    """Correlation over the common prefix, scaled by the length ratio.

    Constant vectors make correlation undefined, so they get their own
    rules: two constants agree fully or not at all; a constant against a
    varying vector falls back to Hamming-style counting.
    """
    if not a or not b:
        return 1.0 if len(a) == len(b) else 0.0
    m = min(len(a), len(b))
    ax, bx = a[:m], b[:m]
    a_const = all(v == ax[0] for v in ax)
    b_const = all(v == bx[0] for v in bx)
    if a_const and b_const:
        return 1.0 if ax[0] == bx[0] else 0.0
    if a_const or b_const:
        mism = sum(1 for p, q in zip(ax, bx) if p != q)
        return 1.0 / (1.0 + mism + abs(len(a) - len(b)))
    r = max(pearson(ax, bx), 0.0)
    return r * (m / max(len(a), len(b)))


def score_segment(
    segment: Segment, fp: Fingerprint, channels: frozenset[Channel] = DEFAULT_CHANNELS
) -> float:
    score = 1.0
    if Channel.MODE in channels:
        score *= score_discrete(segment.modes, fp.modes)
    if Channel.CLASS in channels:
        score *= score_discrete(segment.classes, fp.classes)
    if Channel.PF in channels:
        score *= score_numeric(segment.pf, fp.pf)
    if Channel.LATENCY in channels:
        score *= score_numeric(segment.latency, fp.latency)
    return score


def mean_recall(seeds, **kwargs) -> float:
    recalls = [attack_report(seed, **kwargs).recall for seed in seeds]
    return sum(recalls) / len(recalls)


def run_optrace(*argv, cwd, hash_seed: str) -> subprocess.CompletedProcess:
    """`python -m optrace` in a child process that imports this test's optrace.

    The directory holding the imported package goes first on the child's
    PYTHONPATH, so neither the working directory nor an installed copy can
    shadow it; `hash_seed` fixes the child's string-hash order.
    """
    env = dict(os.environ)
    src = str(Path(optrace.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "optrace", *map(str, argv)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
