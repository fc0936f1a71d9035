"""Building the fingerprint database from marker-instrumented runs.

During profiling the analyst controls the interpreter, so each dispatch tail
additionally writes to a dedicated marker page.  Marker writes delimit one
region per retired opcode; stripping the marker events and cutting at
dispatch-table reads yields slices shaped exactly like the segments the
attack phase recovers, so fingerprints and observations compare one-to-one.
"""

from dataclasses import dataclass

import numpy as np

from .machine import WRITE, Labels, SideChannelTrace
from .preprocess import Segment, Segments, segment_trace

# No handler expands to anywhere near this many native steps: a longer slice was preempted.
MAX_SLICE_LEN = 64

__all__ = [
    "MAX_SLICE_LEN",
    "ProfilingError",
    "FingerprintDb",
    "split_by_marker",
    "build_fingerprint_db",
]


class ProfilingError(ValueError):
    """Marker stream and dispatch stream disagree."""


@dataclass(frozen=True, eq=False)
class FingerprintDb:
    """The fingerprint entries as the columns of `db.txt`.

    Entry e merges support[e] profiling slices that agree on every discrete
    channel and on their label (None for a mid-handler dispatch-table read).
    Its rows start at entries.rows[e] and run to the next entry's first row:
    per row, the ASCII codes `mode` and `classes`, the fault count `pf` and
    the int64 `latency_sum` of the slices, so its mean is latency_sum / support.
    """

    entries: Labels
    support: np.ndarray
    mode: np.ndarray
    classes: np.ndarray
    pf: np.ndarray
    latency_sum: np.ndarray
    meta: dict[str, str]

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.entries.rows, append=len(self.mode))

    def labels(self) -> set[str | None]:
        return set(self.entries.labels)

    def __eq__(self, other) -> bool:
        columns = ("support", "mode", "classes", "pf", "latency_sum")
        return isinstance(other, FingerprintDb) and self.entries == other.entries and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in columns
        ) and self.meta == other.meta


def _labeled_slices(
    trace: SideChannelTrace,
    marker_page: int,
    optable_page: int,
    stack_pages: frozenset[int],
) -> tuple[Labels, Segments]:
    """The marker-stripped trace's slices and the truth label of each."""
    if trace.truth is None:
        raise ProfilingError("profiling trace carries no ground-truth labels")
    is_marker = trace.page == marker_page
    marker_count = int(np.count_nonzero(is_marker & (trace.mode == WRITE)))
    if marker_count == 0:
        raise ProfilingError("trace has no marker writes; synthesized without markers?")
    null = np.array([label is None for label in trace.truth.table], dtype=bool)
    labeled = len(trace.truth) - int(np.count_nonzero(null[trace.truth.codes]))
    if marker_count != labeled:
        raise ProfilingError(
            f"{marker_count} marker writes but {labeled} labeled dispatches"
        )

    stripped = trace.take(~is_marker)
    segments = segment_trace(stripped, optable_page, stack_pages)
    # Slice i is labelled by truth row i: the truth rows must be the dispatch rows, in order.
    rows, dispatches = trace.truth.rows, np.flatnonzero(~is_marker)[segments.starts]
    if not np.array_equal(rows, dispatches):
        # At the first index where they differ, the earlier row (or the only one) has no partner.
        n = min(len(rows), len(dispatches))
        i = int(np.argmax(np.append(rows[:n] != dispatches[:n], True)))
        if i < len(dispatches) and (i == len(rows) or dispatches[i] < rows[i]):
            raise ProfilingError(f"dispatch at event {dispatches[i]} has no ground-truth label")
        raise ProfilingError(f"ground-truth row {rows[i]} labels no dispatch")
    return stripped.truth, segments


def split_by_marker(
    trace: SideChannelTrace,
    marker_page: int,
    optable_page: int,
    stack_pages: frozenset[int] = frozenset(),
) -> list[tuple[str | None, Segment]]:
    """Cut a marker-instrumented trace into labeled per-opcode slices.

    Marker writes only validate the stream (one per retired opcode); the
    actual cuts happen at dispatch-table reads after the marker events are
    stripped, matching the attack-side segmentation geometry.
    """
    labels, segments = _labeled_slices(trace, marker_page, optable_page, stack_pages)
    return list(zip(labels.labels, segments))


def _merged(labels: Labels, segs: Segments, meta: dict[str, str]) -> FingerprintDb:
    """The DB of one entry per group of slices that agree on label and every discrete channel.

    A latency sum that reaches 2**50 in magnitude is a ProfilingError naming
    the label of the first such group, in slice order.  Entries come out
    sorted by label (unlabeled last), modes, classes and pf, for stable
    serialization.
    """
    trace, table = segs.trace, labels.table
    modes, classes = trace.mode.tobytes(), segs.classes.tobytes()
    # Big-endian bytes of pf + 2**63, which sort as the tuples of pf values do.
    pf = (trace.pf.astype(np.uint64) ^ np.uint64(2**63)).astype(">u8").tobytes()
    groups: dict[tuple, int] = {}
    slot = np.array([
        groups.setdefault((code, modes[s:e], classes[s:e], pf[8 * s : 8 * e]), len(groups))
        for code, s, e in zip(labels.codes.tolist(), segs.starts.tolist(), segs.ends.tolist())
    ], dtype=np.int64)

    keys = sorted(groups, key=lambda key: (table[key[0]] is None, table[key[0]] or "", key))
    order = np.array([groups[key] for key in keys], dtype=np.int64)  # each entry's group
    first = np.unique(slot, return_index=True)[1][order]  # each entry's first slice
    rows = segs[first].rows  # the rows of each entry's first slice
    at = np.cumsum(segs.lengths[first]) - segs.lengths[first]  # each entry's first DB row
    src = segs.rows
    dst = np.repeat(at[np.argsort(order)][slot] - segs.starts, segs.lengths) + src
    # Below 2**50 a sum is far inside int64; the float64 sum, unlike the int64 one, cannot wrap.
    if (bad := np.abs(np.bincount(dst, trace.latency[src], len(rows))) >= 2.0**50).any():
        label = table[np.repeat(labels.codes, segs.lengths)[np.argmax(bad[dst])]]
        raise ProfilingError(f"a latency sum of {label!r} slices reaches 2**50")
    latency_sum = np.zeros(len(rows), np.int64)
    np.add.at(latency_sum, dst, trace.latency[src])
    entries = Labels(at, labels.codes[first], table)
    return FingerprintDb(entries, np.bincount(slot)[order], trace.mode[rows], segs.classes[rows],
                         trace.pf[rows], latency_sum, meta)


def build_fingerprint_db(
    trace: SideChannelTrace,
    marker_page: int,
    optable_page: int,
    stack_pages: frozenset[int] = frozenset(),
    meta: dict[str, str] | None = None,
) -> FingerprintDb:
    """The deduplicated database of a marker-instrumented run's slices of at most MAX_SLICE_LEN."""
    labels, segments = _labeled_slices(trace, marker_page, optable_page, stack_pages)
    short = segments.lengths <= MAX_SLICE_LEN
    if not short.any():
        raise ProfilingError(f"every profiling slice exceeded MAX_SLICE_LEN ({MAX_SLICE_LEN})")
    return _merged(labels[short], segments[short], dict(meta or {}))
