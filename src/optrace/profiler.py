"""Fingerprint database construction from marker-instrumented runs.

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

__all__ = [
    "ProfilingError",
    "Fingerprint",
    "FingerprintDb",
    "split_by_marker",
    "build_fingerprint_db",
]


class ProfilingError(ValueError):
    """Marker stream and dispatch stream disagree."""


@dataclass(frozen=True)
class Fingerprint:
    """Channel vectors for one opcode (or one unlabeled dispatch slice).

    label None marks slices produced by mid-handler dispatch-table reads;
    they carry no retired opcode.  support counts how many raw slices were
    merged into this entry; latency holds their element-wise means.
    """

    label: str | None
    modes: str
    classes: str
    pf: tuple[int, ...]
    latency: tuple[float, ...]
    support: int

    def __len__(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class FingerprintDb:
    entries: tuple[Fingerprint, ...]
    meta: dict[str, str]

    def __len__(self) -> int:
        return len(self.entries)

    def labels(self) -> set[str | None]:
        return {fp.label for fp in self.entries}


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

    if (np.diff(trace.truth.rows) <= 0).any():  # each slice start is looked up among them
        raise ProfilingError("ground-truth rows do not increase")
    stripped = trace.take(~is_marker)
    truth = stripped.truth
    segments = segment_trace(stripped, optable_page, stack_pages)
    at = np.searchsorted(truth.rows, segments.starts)
    found = np.append(truth.rows, -1)[at] == segments.starts  # -1: no start is there
    if not found.all():
        start = segments.starts[np.argmin(found)]
        raise ProfilingError(f"dispatch at event {start} has no ground-truth label")
    return truth[at], segments


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


def _fingerprints(labels: list[str | None], segs: Segments) -> list[Fingerprint]:
    """Merge slices that agree on label and every discrete channel.

    Latency, the only noisy channel, is averaged element-wise across the
    merged slices; a latency sum that reaches 2**50 in magnitude is a
    ProfilingError.  Entries come out sorted for stable serialization.
    """
    modes = segs.trace.mode.tobytes()
    classes = segs.classes.tobytes()
    pf = segs.trace.pf.tobytes()
    size = segs.trace.pf.itemsize
    groups: dict[tuple, list[int]] = {}
    for label, start, end in zip(labels, segs.starts.tolist(), segs.ends.tolist()):
        key = (label, modes[start:end], classes[start:end], pf[start * size : end * size])
        groups.setdefault(key, []).append(start)

    entries = []
    for (label, modes_b, classes_b, _), starts in groups.items():
        rows = np.array(starts)[:, None] + np.arange(len(modes_b))
        latency = segs.trace.latency[rows]
        # Below 2**50 a sum is far inside int64, and the DB file's rint(mean * support) gives
        # it back exactly; the float64 sum, unlike the int64 one, cannot wrap.
        if (np.abs(latency.sum(axis=0, dtype=np.float64)) >= 2.0**50).any():
            raise ProfilingError(f"a latency sum of {label!r} slices reaches 2**50")
        latency = latency.sum(axis=0) / len(starts)
        entries.append(
            Fingerprint(
                label=label,
                modes=modes_b.decode("ascii"),
                classes=classes_b.decode("ascii"),
                pf=tuple(segs.trace.pf[starts[0] : starts[0] + len(modes_b)].tolist()),
                latency=tuple(latency.tolist()),
                support=len(starts),
            )
        )
    entries.sort(
        key=lambda fp: (fp.label is None, fp.label or "", fp.modes, fp.classes, fp.pf)
    )
    return entries


def build_fingerprint_db(
    trace: SideChannelTrace,
    marker_page: int,
    optable_page: int,
    stack_pages: frozenset[int] = frozenset(),
    meta: dict[str, str] | None = None,
    max_slice_len: int = 64,
) -> FingerprintDb:
    """Profile a marker-instrumented run into a deduplicated database.

    No handler expands to anywhere near max_slice_len native steps, so any
    longer slice means the run was preempted mid-dispatch; such slices are
    discarded rather than stored as nonsense fingerprints.
    """
    labels, segments = _labeled_slices(trace, marker_page, optable_page, stack_pages)
    short = segments.lengths <= max_slice_len
    if not short.any():
        raise ProfilingError("every profiling slice exceeded max_slice_len")
    return FingerprintDb(
        entries=tuple(_fingerprints(labels[short].labels, segments[short])),
        meta=dict(meta or {}),
    )
