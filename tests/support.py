"""Shared trace-pipeline builders and the scalar scoring oracle for the test suite.

`ops`, `synth` and `seg` build small runs, traces and segments.  Synthesizing
the benchmark traces dominates test runtime, so the pipeline builders are
memoized; tests that share a (seed, noise, mitigation) combination reuse one run.
Seeds, noise values, and the profile-seed offset mirror the CLI defaults
so pipeline-level expectations here match `optrace end2end` behavior.
"""

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import optrace
from optrace.bytecode import OpcodeTrace, execute
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
    score_discrete,
)
from optrace.metrics import classify_outcomes
from optrace.opcodes import OPCODES
from optrace.preprocess import Segment, Segments, preprocess_trace
from optrace.profiler import FingerprintDb, _merged, build_fingerprint_db
from optrace.workloads import benchmark_module, reference_module

FULL_CHANNELS = frozenset(Channel)
NO_LATENCY = FULL_CHANNELS - {Channel.LATENCY}
DEFAULT_SIGMA = 60.0
ZERO = NoiseModel.zero(rng_seed=0)


def ops(*mnemonics) -> OpcodeTrace:
    """A run that retired `mnemonics`, in order."""
    return OpcodeTrace(
        executed=tuple(OPCODES[name] for name in mnemonics), step_limit_hit=False
    )


def synth(run, seed=0, noise=ZERO, markers=False, specs=None, config=None):
    """The layout `build_layout(seed, config)` and the trace synthesized on it from `run`, an
    `OpcodeTrace` or the mnemonics it retired, by `specs` (default: the default handler specs)."""
    layout = build_layout(seed, config or LayoutConfig())
    trace = synthesize_trace(
        run if isinstance(run, OpcodeTrace) else ops(*run),
        layout,
        specs or default_handler_specs(),
        noise,
        profiling_markers=markers,
    )
    return layout, trace


@dataclass(frozen=True)
class Entry:
    """One fingerprint DB entry: its label, its channel rows, and its latency means."""

    label: str | None
    modes: str
    classes: str
    pf: tuple[int, ...]
    latency: tuple[float, ...]
    support: int

    def __len__(self) -> int:
        return len(self.modes)


def fp(label, modes, classes, pf, latency, support=1) -> Entry:
    assert len(modes) == len(classes) == len(pf) == len(latency)
    return Entry(label, modes, classes, tuple(pf), tuple(float(v) for v in latency), support)


def db_of(*entries: Entry, meta=None) -> FingerprintDb:
    """`entries` packed into a FingerprintDb, in order; each latency mean times its support
    must be an integer, which becomes its latency_sum."""
    lengths = np.array([len(e) for e in entries], np.int64)
    support = np.array([e.support for e in entries], np.int64)
    latency = np.array([v for e in entries for v in e.latency], np.float64)
    per_row = np.repeat(support, lengths)
    sums = np.rint(latency * per_row)
    assert (sums / per_row == latency).all()
    modes, classes = ("".join(e.modes for e in entries), "".join(e.classes for e in entries))
    return FingerprintDb(
        entries=labels_of(zip(np.cumsum(lengths) - lengths, [e.label for e in entries])),
        support=support,
        mode=np.frombuffer(modes.encode("ascii"), np.uint8),
        classes=np.frombuffer(classes.encode("ascii"), np.uint8),
        pf=np.array([v for e in entries for v in e.pf], np.int64),
        latency_sum=sums.astype(np.int64),
        meta=dict(meta or {}),
    )


def entries_of(db: FingerprintDb) -> list[Entry]:
    """The entries of `db`, in order, each latency mean latency_sum / support."""
    out = []
    for start, length, label, support in zip(
        db.entries.rows.tolist(), db.lengths.tolist(), db.entries.labels, db.support.tolist()
    ):
        rows = slice(start, start + length)
        out.append(Entry(
            label,
            db.mode[rows].tobytes().decode("ascii"),
            db.classes[rows].tobytes().decode("ascii"),
            tuple(db.pf[rows].tolist()),
            tuple((db.latency_sum[rows] / support).tolist()),
            support,
        ))
    return out


def seg(modes, classes, pf, latency) -> Segment:
    """A segment at row 0 with the given channels, all of one length."""
    assert len(modes) == len(classes) == len(pf) == len(latency)
    return Segment(
        start_index=0,
        modes=modes,
        classes=classes,
        pf=tuple(pf),
        latency=tuple(latency),
    )


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


def trace_meta(path) -> dict[str, str]:
    """The `# key=value` lines of an optrace file, and its first line without `# ` as `format`."""
    first, *lines = Path(path).read_bytes().splitlines()
    meta = {"format": first.decode()[2:].strip()}
    for line in filter(lambda line: line.startswith(b"#"), lines):
        key, equals, value = line.decode().lstrip("#").partition("=")
        if equals:
            meta[key.strip()] = value.strip()
    return meta


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


def dedup_fingerprints(labeled_segments) -> list[Entry]:
    """The entries of the profiler's merge of `(label, Segment)` pairs, the segments stacked
    in order."""
    labels = labels_of(enumerate(label for label, _ in labeled_segments))
    return entries_of(_merged(labels, segments_of(seg for _, seg in labeled_segments), {}))


def segment_events(trace, segment):
    """The StepEvents of a segment's rows in the trace it was cut from."""
    return trace.take(slice(segment.start_index, segment.start_index + len(segment))).events


# The scalar scorer: one segment against one DB entry, the oracle of CompiledDb's bulk scores.
def sqrt_of(q: Fraction) -> float:
    """sqrt(q) correctly rounded, for a Fraction q > 0."""
    n, d = q.numerator, q.denominator
    # s = floor(sqrt(q) * 2**k) has at least 60 bits, and its last bit is set
    # when the root is inexact, so one correctly rounded division rounds it.
    k = 60 + d.bit_length()
    s = math.isqrt((n << 2 * k) // d)
    if s * s * d != n << 2 * k:
        s |= 1
    return s / (1 << k)


def score_numeric(a, b) -> float:
    """Correlation over the common prefix, clipped to [0, 1] and scaled by the length ratio.

    Constant vectors make correlation undefined, so they get their own
    rules: two constants agree fully or not at all; a constant against a
    varying vector falls back to Hamming-style counting.  The correlation is
    computed exactly in rationals and rounded once, so exactly equal
    correlations give equal floats, and the oracle shares no code with the
    scorer's kernel.
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
    fa, fb = [Fraction(v) for v in ax], [Fraction(v) for v in bx]
    sa, sb = sum(fa), sum(fb)
    cov = m * sum(p * q for p, q in zip(fa, fb)) - sa * sb
    va = m * sum(p * p for p in fa) - sa * sa
    vb = m * sum(q * q for q in fb) - sb * sb
    r = sqrt_of(cov * cov / (va * vb)) if cov > 0 else 0.0
    return r * (m / max(len(a), len(b)))


def score_segment(
    segment: Segment, fp: Entry, channels: frozenset[Channel] = DEFAULT_CHANNELS
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
