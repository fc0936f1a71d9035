"""Trace preprocessing: locate interpreter structures, clean, and segment.

Works purely on the observable channel (page, mode, pf, latency); layout
ground truth is never consulted.  The dispatch table page shows up as the
page whose reads are followed by execution on a fresh code page; the stack
region is whatever pages are both read and written often enough to cover the
regions between dispatches.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .machine import EXEC, READ, WRITE, SideChannelTrace

__all__ = [
    "DetectionError",
    "SegmentationError",
    "PreprocessReport",
    "Segment",
    "Segments",
    "detect_optable_page",
    "detect_stack_pages",
    "filter_redundant",
    "segment_trace",
    "check_settings",
    "preprocess_trace",
    "OPTABLE_CLASS", "STACK_CLASS", "OTHER_CLASS",
]

DEFAULT_COVERAGE_TARGET = 0.95
DEFAULT_WINDOW = 16
DEFAULT_MIN_RW_FRAC = 0.005

# Page classes, as the ASCII codes of the class column: optable, stack, everything else.
OPTABLE_CLASS, STACK_CLASS, OTHER_CLASS = b"OSX"


class DetectionError(ValueError):
    """The trace does not exhibit the structure being looked for."""


class SegmentationError(ValueError):
    """Trace cannot be split into per-opcode segments."""


@dataclass(frozen=True)
class PreprocessReport:
    optable_page: int
    optable_confidence: float
    stack_pages: frozenset[int]
    events_removed: int


@dataclass(frozen=True)
class Segment:
    """One inter-dispatch slice of the trace: its first row and channel vectors.

    Page classes collapse to O (optable), S (stack), X (everything else):
    which handler page ran is deliberately not used.
    """

    start_index: int
    modes: str
    classes: str
    pf: tuple[int, ...]
    latency: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.modes)


class Segments(Sequence):
    """Segments as row ranges of one trace: segment i is rows starts[i]:ends[i].

    `classes` holds every row's page class as an ASCII code.  Indexing with
    an integer builds that Segment; with a slice, mask or index array, it
    gives a Segments.
    """

    def __init__(self, trace: SideChannelTrace, classes, starts, ends):
        self.trace, self.classes, self.starts, self.ends = trace, classes, starts, ends

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i):
        if not isinstance(i, (int, np.integer)):
            return Segments(self.trace, self.classes, self.starts[i], self.ends[i])
        rows = slice(self.starts[i], self.ends[i])
        return Segment(
            start_index=int(self.starts[i]),
            modes=self.trace.mode[rows].tobytes().decode("ascii"),
            classes=self.classes[rows].tobytes().decode("ascii"),
            pf=tuple(self.trace.pf[rows].tolist()),
            latency=tuple(self.trace.latency[rows].tolist()),
        )

    @property
    def lengths(self) -> np.ndarray:
        return self.ends - self.starts

    @property
    def rows(self) -> np.ndarray:
        """The rows of every segment, segment by segment."""
        offsets = np.cumsum(self.lengths) - self.lengths
        return np.arange(self.lengths.sum()) + np.repeat(self.starts - offsets, self.lengths)


def detect_optable_page(trace: SideChannelTrace) -> tuple[int, float]:
    """Find the dispatch-table page via the read-then-execute pattern.

    A qualifying pair is a read immediately followed by an execute event on a
    page different from the previously executing one, i.e. a read that
    redirected control.  Returns (page, confidence); confidence is the
    winning page's share of all qualifying pairs, and ties go to the
    lowest page.
    """
    page, mode = trace.page, trace.mode
    is_exec = mode == EXEC
    # Row of the last execute event at or before each row (-1: none yet).
    last_exec = np.maximum.accumulate(np.where(is_exec, np.arange(len(mode)), -1))
    prev = last_exec[:-1]
    fresh = (prev < 0) | (page[1:] != page[np.maximum(prev, 0)])
    hits = page[:-1][(mode[:-1] == READ) & is_exec[1:] & fresh]
    if not len(hits):
        raise DetectionError("no read-then-execute pairs in trace")
    pages, counts = np.unique(hits, return_counts=True)
    best = int(np.argmax(counts))
    return int(pages[best]), int(counts[best]) / len(hits)


def _boundaries(trace: SideChannelTrace, optable_page: int) -> np.ndarray:
    """Rows of the optable reads, each the start of one dispatch region."""
    return np.flatnonzero((trace.mode == READ) & (trace.page == optable_page))


def detect_stack_pages(
    trace: SideChannelTrace,
    optable_page: int,
    coverage_target: float = DEFAULT_COVERAGE_TARGET,
    min_rw_frac: float = DEFAULT_MIN_RW_FRAC,
) -> frozenset[int]:
    """Pick the interpreter-stack pages: read+written often, covering regions.

    Candidates (pages with enough reads AND writes, spread over enough
    distinct inter-dispatch regions) are ranked by min(reads, writes) and
    added in rank order until at least coverage_target of the regions
    contain an access to the chosen set, or candidates run out.  The
    spread requirement keeps one long preemption burst — heavy traffic
    confined to a single region — out of the candidate pool.
    """
    starts = _boundaries(trace, optable_page)
    if not len(starts):
        return frozenset()
    data = np.flatnonzero((trace.mode == READ) | (trace.mode == WRITE))
    pages, code = np.unique(trace.page[data], return_inverse=True)
    mode = trace.mode[data]
    off_table = pages[code] != optable_page
    reads = np.bincount(code[off_table & (mode == READ)], minlength=len(pages))
    writes = np.bincount(code[off_table & (mode == WRITE)], minlength=len(pages))

    # Distinct (region, page) pairs of data accesses inside regions, for
    # spread and coverage; region k runs from starts[k] to starts[k + 1].
    region = np.searchsorted(starts, data, side="right") - 1
    pairs = np.sort((region * len(pages) + code)[region >= 0])
    pairs = pairs[np.diff(pairs, prepend=-1) != 0]
    pair_region, pair_code = np.divmod(pairs, len(pages))
    spread = np.bincount(pair_code, minlength=len(pages))

    threshold = max(2, int(min_rw_frac * len(starts)))
    rw = np.minimum(reads, writes)
    candidates = np.flatnonzero((rw >= threshold) & (spread >= threshold))
    candidates = candidates[np.lexsort((pages[candidates], -rw[candidates]))]

    chosen: set[int] = set()
    hit = np.zeros(len(starts), dtype=bool)
    covered = 0
    for c in candidates.tolist():
        if covered / len(starts) >= coverage_target:
            break
        chosen.add(int(pages[c]))
        hit[pair_region[pair_code == c]] = True
        covered = int(np.count_nonzero(hit))
    return frozenset(chosen)


def filter_redundant(
    trace: SideChannelTrace,
    optable_page: int,
    stack_pages: frozenset[int] = frozenset(),
    window: int = DEFAULT_WINDOW,
) -> tuple[SideChannelTrace, int]:
    """Drop events on pages that never appear near a dispatch boundary.

    Keeps every event whose page shows up within +-window events of some
    optable read (plus the detected interpreter pages themselves); long
    co-tenant bursts disappear while opcode-region events survive.  Truth
    boundary indices are remapped.  Returns (filtered trace, removed count).
    """
    n = len(trace)
    window = min(window, n)  # a window as long as the trace already reaches every row
    starts = _boundaries(trace, optable_page)
    # +1 where a boundary's window opens, -1 where it closes: rows with a
    # positive running sum lie within +-window of some boundary.
    edges = np.bincount(np.clip(starts - window, 0, n), minlength=n + 1) - np.bincount(
        np.clip(starts + window + 1, 0, n), minlength=n + 1
    )
    near = np.cumsum(edges[:n]) > 0
    keep_pages = np.union1d(trace.page[near], [optable_page, *stack_pages])
    keep = np.isin(trace.page, keep_pages)
    return trace.take(keep), n - int(np.count_nonzero(keep))


def segment_trace(
    trace: SideChannelTrace,
    optable_page: int,
    stack_pages: frozenset[int] = frozenset(),
) -> Segments:
    """Split at optable reads; each segment covers one dispatched opcode.

    Events before the first boundary (the partial first dispatch) are
    discarded.  The final segment runs to the end of the trace.
    """
    starts = _boundaries(trace, optable_page)
    if len(starts) < 2:
        raise SegmentationError("need at least 2 dispatch boundaries to segment")
    classes = np.full(len(trace), OTHER_CLASS, dtype=np.uint8)
    classes[np.isin(trace.page, np.array(sorted(stack_pages), dtype=np.int64))] = STACK_CLASS
    classes[trace.page == optable_page] = OPTABLE_CLASS
    return Segments(trace, classes, starts, np.append(starts[1:], len(trace)))


def check_settings(coverage_target: float, window: int, min_rw_frac: float) -> None:
    """Raise ValueError for a preprocessing setting outside its range."""
    for name, value in (("coverage_target", coverage_target), ("min_rw_frac", min_rw_frac)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1]")
    if window < 0:
        raise ValueError("window must be >= 0")


def preprocess_trace(
    trace: SideChannelTrace,
    coverage_target: float = DEFAULT_COVERAGE_TARGET,
    window: int = DEFAULT_WINDOW,
    min_rw_frac: float = DEFAULT_MIN_RW_FRAC,
) -> tuple[PreprocessReport, SideChannelTrace, Segments]:
    """Full pipeline: detect structures, filter noise, segment."""
    check_settings(coverage_target, window, min_rw_frac)
    optable_page, confidence = detect_optable_page(trace)
    stack_pages = detect_stack_pages(
        trace, optable_page, coverage_target=coverage_target, min_rw_frac=min_rw_frac
    )
    filtered, removed = filter_redundant(trace, optable_page, stack_pages, window=window)
    segments = segment_trace(filtered, optable_page, stack_pages)
    report = PreprocessReport(
        optable_page=optable_page,
        optable_confidence=confidence,
        stack_pages=stack_pages,
        events_removed=removed,
    )
    return report, filtered, segments
