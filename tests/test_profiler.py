"""Profiling: marker-delimited slicing, labeling, and fingerprint dedup."""

from dataclasses import replace

import numpy as np
import pytest

from optrace.opcodes import all_opcodes
from optrace.profiler import ProfilingError, build_fingerprint_db, split_by_marker

from support import (
    dedup_fingerprints,
    labels_of,
    ops,
    profile_db,
    seg,
    segment_events,
    synth,
    trace_of,
)


# ------------------------------------------------------------------ split


def test_split_yields_one_labeled_slice_per_dispatch():
    layout, trace = synth(ops("i32.const", "i32.const", "i32.add", "drop"), markers=True)
    slices = split_by_marker(
        trace, layout.marker_page, layout.optable_page, frozenset(layout.stack_pages)
    )
    assert [label for label, _ in slices] == [
        "i32.const",
        "i32.const",
        "i32.add",
        "drop",
    ]
    for _, segment in slices:
        # Every slice starts at the dispatch-table read that opened it.
        assert segment.modes[0] == "R"
        assert segment.classes[0] == "O"


def test_split_marks_mid_handler_dispatch_reads_unlabeled():
    layout, trace = synth(ops("i32.const", "call", "i32.const", "i32.add"), markers=True)
    slices = split_by_marker(
        trace, layout.marker_page, layout.optable_page, frozenset(layout.stack_pages)
    )
    # The call handler touches the dispatch table once mid-body, opening an
    # extra slice that carries no retired opcode.
    assert [label for label, _ in slices] == [
        "i32.const",
        "call",
        None,
        "i32.const",
        "i32.add",
    ]


def test_split_strips_marker_events_from_slices():
    layout, trace = synth(ops("nop", "nop", "nop"), markers=True)
    slices = split_by_marker(trace, layout.marker_page, layout.optable_page)
    # Slices index the trace without its marker events: each slice's channels
    # must be those rows, which a slice holding a marker write would not be.
    unmarked = [ev for ev in trace.events if ev.page != layout.marker_page]
    for _, segment in slices:
        rows = segment_events(trace_of(unmarked), segment)
        assert segment.modes == "".join(ev.mode for ev in rows)
        assert segment.pf == tuple(ev.pf_count for ev in rows)
        assert segment.latency == tuple(ev.latency for ev in rows)


def test_split_requires_ground_truth():
    layout, trace = synth(ops("nop", "nop"), markers=True)
    bare = trace_of(
        events=trace.events, truth=None, layout_seed=trace.layout_seed
    )
    with pytest.raises(ProfilingError, match="ground-truth"):
        split_by_marker(bare, layout.marker_page, layout.optable_page)


def test_split_rejects_unmarked_trace():
    layout, trace = synth(ops("nop", "nop"))
    with pytest.raises(ProfilingError, match="marker"):
        split_by_marker(trace, layout.marker_page, layout.optable_page)


def test_split_rejects_marker_truth_count_mismatch():
    layout, trace = synth(ops("nop", "nop", "nop"), markers=True)
    doctored = trace_of(
        events=trace.events,
        truth=labels_of([*trace.truth, (0, "drop")]),
        layout_seed=trace.layout_seed,
    )
    with pytest.raises(ProfilingError, match="marker writes but"):
        split_by_marker(doctored, layout.marker_page, layout.optable_page)


def test_split_rejects_truth_rows_out_of_order():
    # Each slice's label is looked up among the truth rows by a binary search.
    layout, trace = synth(ops("nop", "i32.const", "drop"), markers=True)
    pairs = list(trace.truth)
    doctored = trace_of(
        events=trace.events,
        truth=labels_of([pairs[1], pairs[0], *pairs[2:]]),
        layout_seed=trace.layout_seed,
    )
    with pytest.raises(ProfilingError, match="rows do not increase"):
        split_by_marker(doctored, layout.marker_page, layout.optable_page)


# ------------------------------------------------------------------ dedup


def test_dedup_merges_matching_slices_and_averages_latency():
    a = seg("RE", "OX", (8, 5), (5548, 5314))
    b = seg("RE", "OX", (8, 5), (5550, 5310))
    entries = dedup_fingerprints([("nop", a), ("nop", b)])
    assert len(entries) == 1
    fp = entries[0]
    assert fp.label == "nop"
    assert fp.support == 2
    assert fp.latency == (5549.0, 5312.0)
    assert fp.modes == "RE" and fp.classes == "OX" and fp.pf == (8, 5)


def test_dedup_keeps_distinct_labels_apart():
    a = seg("RE", "OX", (8, 5), (5548, 5314))
    entries = dedup_fingerprints([("nop", a), ("drop", a)])
    assert {fp.label for fp in entries} == {"nop", "drop"}
    assert all(fp.support == 1 for fp in entries)


def test_dedup_keeps_distinct_channels_apart():
    a = seg("RE", "OX", (8, 5), (5548, 5314))
    b = seg("RW", "OS", (8, 9), (5548, 5314))
    entries = dedup_fingerprints([("nop", a), ("nop", b)])
    assert len(entries) == 2


def test_dedup_sorts_unlabeled_entries_last():
    a = seg("RE", "OX", (8, 5), (5548.0, 5314.0))
    b = seg("RW", "OS", (8, 9), (5548.0, 5314.0))
    entries = dedup_fingerprints([(None, a), ("zz.op", b)])
    assert [fp.label for fp in entries] == ["zz.op", None]


def test_dedup_collapses_a_uniform_zero_noise_run():
    layout, trace = synth(ops(*["nop"] * 5), markers=True)
    slices = split_by_marker(trace, layout.marker_page, layout.optable_page)
    entries = dedup_fingerprints(slices)
    # Four identical full slices merge; the final one lacks the next
    # dispatch tail and stays separate.
    supports = sorted(fp.support for fp in entries)
    assert supports == [1, 4]
    assert all(fp.label == "nop" for fp in entries)


# --------------------------------------------------------------- database


def test_build_db_is_deterministic():
    layout, trace = synth(ops("i32.const", "i32.const", "i32.add"), markers=True)
    kwargs = dict(
        marker_page=layout.marker_page,
        optable_page=layout.optable_page,
        stack_pages=frozenset(layout.stack_pages),
    )
    assert build_fingerprint_db(trace, **kwargs) == build_fingerprint_db(
        trace, **kwargs
    )


def test_build_db_support_accounts_for_every_slice():
    layout, trace = synth(ops("i32.const", "call", "drop", "nop"), markers=True)
    slices = split_by_marker(
        trace, layout.marker_page, layout.optable_page, frozenset(layout.stack_pages)
    )
    db = build_fingerprint_db(
        trace,
        layout.marker_page,
        layout.optable_page,
        frozenset(layout.stack_pages),
    )
    assert sum(fp.support for fp in db.entries) == len(slices)


def test_build_db_carries_meta():
    layout, trace = synth(ops("nop", "nop"), markers=True)
    db = build_fingerprint_db(
        trace,
        layout.marker_page,
        layout.optable_page,
        meta={"config_hash": "abc"},
    )
    assert db.meta == {"config_hash": "abc"}
    bare = build_fingerprint_db(trace, layout.marker_page, layout.optable_page)
    assert bare.meta == {}


def test_build_db_drops_overlong_slices():
    layout, trace = synth(ops("i32.const", "i32.const", "i32.add", "i32.add"), markers=True)
    full = build_fingerprint_db(trace, layout.marker_page, layout.optable_page)
    # i32.add expands to more native steps than i32.const; a cap between the
    # two lengths keeps only the shorter slices.
    const_len = max(
        len(fp) for fp in full.entries if fp.label == "i32.const"
    )
    trimmed = build_fingerprint_db(
        trace,
        layout.marker_page,
        layout.optable_page,
        max_slice_len=const_len,
    )
    assert trimmed.labels() == {"i32.const"}
    assert all(len(fp) <= const_len for fp in trimmed.entries)


def test_build_db_rejects_cap_that_drops_everything():
    layout, trace = synth(ops("nop", "nop"), markers=True)
    with pytest.raises(ProfilingError, match="max_slice_len"):
        build_fingerprint_db(
            trace, layout.marker_page, layout.optable_page, max_slice_len=0
        )


@pytest.mark.parametrize("latency", [2**48, 2**49, 2**62])
def test_build_db_refuses_latency_sums_that_reach_2_to_the_50(latency):
    # `nop` slices merge three to an entry here.  In int64 three latencies of 2**62 summed to a
    # mean of -1.5e18; 2**50 keeps every sum exact through the DB file's latency_sum column.
    layout, trace = synth(ops(*["nop"] * 4), seed=3, markers=True)
    trace = replace(trace, latency=np.full(len(trace), latency, np.int64))
    if 3 * latency < 2**50:
        db = build_fingerprint_db(trace, layout.marker_page, layout.optable_page)
        assert [fp.support for fp in db.entries] == [1, 3]
        assert {v for fp in db.entries for v in fp.latency} == {latency}
    else:
        with pytest.raises(ProfilingError, match=r"a latency sum of 'nop' slices reaches 2\*\*50"):
            build_fingerprint_db(trace, layout.marker_page, layout.optable_page)


# ------------------------------------------------------- reference corpus


def test_reference_db_names_every_opcode():
    db = profile_db(0, zero=True)
    mnemonics = {info.mnemonic for info in all_opcodes()}
    assert db.labels() == mnemonics | {None}


def test_reference_db_pins_the_add_fingerprint():
    db = profile_db(0, zero=True)
    adds = [fp for fp in db.entries if fp.label == "i32.add" and len(fp) == 8]
    assert len(adds) == 1
    fp = adds[0]
    assert fp.modes == "REEEREWR"
    assert fp.classes == "OXXXSXSX"
    assert fp.pf == (8, 5, 5, 5, 7, 5, 9, 8)
    assert sum(fp.latency) == 44050
