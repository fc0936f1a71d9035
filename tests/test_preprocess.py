"""Structure recovery: dispatch-page detection, filtering, segmentation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optrace.bytecode import execute
from optrace.handlers import default_handler_specs
from optrace.machine import (
    LayoutConfig,
    NoiseModel,
    StepEvent,
    build_layout,
    synthesize_trace,
)
from optrace.preprocess import (
    DetectionError,
    PreprocessConfig,
    SegmentationError,
    detect_optable_page,
    detect_stack_pages,
    filter_redundant,
    preprocess_trace,
    segment_trace,
)
from optrace.workloads import benchmark_module

from support import ZERO, segment_events, synth, trace_of

BURSTY = NoiseModel(
    latency_jitter_sigma=0.0,
    apic_quantum=0,
    ctx_switch_rate=0.004,
    ctx_switch_extra_steps_mean=400.0,
    multistep_prob=0.0,
    rng_seed=2,
)


def bench_trace(seed=0, noise=ZERO):
    run = execute(benchmark_module(seed, iterations=4))
    layout = build_layout(seed, LayoutConfig())
    trace = synthesize_trace(run, layout, default_handler_specs(), noise)
    return run, layout, trace


def expected_keep_pages(trace, optable_page, stack_pages, window=PreprocessConfig.window):
    """Brute-force restatement of the filter rule for oracle comparison."""
    keep = {optable_page} | set(stack_pages)
    events = trace.events
    for index, event in enumerate(events):
        if event.page == optable_page and event.mode == "R":
            lo, hi = max(0, index - window), min(len(events), index + window + 1)
            keep.update(ev.page for ev in events[lo:hi])
    return keep


# ---------------------------------------------------------------- detection


def test_zero_noise_detection_is_exact():
    _, layout, trace = bench_trace()
    page, confidence = detect_optable_page(trace)
    assert page == layout.optable_page
    assert confidence == 1.0


def test_detection_survives_default_noise():
    _, layout, trace = bench_trace(noise=NoiseModel(rng_seed=1))
    page, confidence = detect_optable_page(trace)
    assert page == layout.optable_page
    assert confidence > 0.9


def test_detection_needs_read_then_execute_pairs():
    only_writes = trace_of(
        events=[StepEvent(5, "W", 9, 100)] * 50, truth=None, layout_seed=0
    )
    with pytest.raises(DetectionError):
        detect_optable_page(only_writes)
    with pytest.raises(DetectionError):
        detect_optable_page(trace_of(events=[], truth=None, layout_seed=0))


def test_detection_maps_through_page_relabeling():
    _, layout, trace = bench_trace()
    base_page, base_confidence = detect_optable_page(trace)
    for relabel in (lambda p: p + 17, lambda p: 2_000_000 - p):
        mapped = trace_of(
            events=[
                StepEvent(relabel(ev.page), ev.mode, ev.pf_count, ev.latency)
                for ev in trace.events
            ],
            truth=trace.truth,
            layout_seed=trace.layout_seed,
        )
        page, confidence = detect_optable_page(mapped)
        assert page == relabel(base_page)
        assert confidence == base_confidence


def test_detection_tie_breaks_on_lowest_page():
    # two interleaved dispatch loops with identical pair counts
    events = []
    for _ in range(10):
        events += [StepEvent(30, "R", 8, 100), StepEvent(40, "E", 5, 100)]
        events += [StepEvent(20, "R", 8, 100), StepEvent(50, "E", 5, 100)]
    trace = trace_of(events=events, truth=None, layout_seed=0)
    page, confidence = detect_optable_page(trace)
    assert page == 20
    assert confidence == 0.5


# ------------------------------------------------------------- stack pages


def test_stack_detection_recovers_layout_pages():
    _, layout, trace = bench_trace()
    found = detect_stack_pages(trace, layout.optable_page)
    assert found == set(layout.stack_pages)


def test_stack_detection_empty_for_stackless_module():
    layout, trace = synth(["nop"] * 40)
    assert detect_stack_pages(trace, layout.optable_page) == set()


def test_stack_detection_zero_target_returns_empty():
    _, layout, trace = bench_trace()
    assert detect_stack_pages(trace, layout.optable_page, coverage_target=0.0) == set()


# ---------------------------------------------------------------- filtering


def test_filter_removes_nothing_on_clean_trace():
    _, layout, trace = bench_trace()
    filtered, removed = filter_redundant(
        trace, layout.optable_page, frozenset(layout.stack_pages)
    )
    assert removed == 0
    assert filtered.events == trace.events
    assert filtered.truth == trace.truth


def test_filter_removes_burst_pages_exactly():
    _, layout, trace = bench_trace(noise=BURSTY)
    known = layout.all_pages()
    assert any(ev.page not in known for ev in trace.events)

    stacks = frozenset(layout.stack_pages)
    keep = expected_keep_pages(trace, layout.optable_page, stacks)
    expected_events = [ev for ev in trace.events if ev.page in keep]

    filtered, removed = filter_redundant(trace, layout.optable_page, stacks)
    assert filtered.events == expected_events
    assert removed == len(trace.events) - len(expected_events)

    # truth labels must still point at dispatch reads, in order
    events = filtered.events  # built once: each access rebuilds every event
    for index, label in filtered.truth:
        assert events[index].page == layout.optable_page
        assert events[index].mode == "R"
    assert [lab for _, lab in filtered.truth] == [lab for _, lab in trace.truth]


def test_filter_is_idempotent():
    _, layout, trace = bench_trace(noise=BURSTY)
    stacks = frozenset(layout.stack_pages)
    once, _ = filter_redundant(trace, layout.optable_page, stacks)
    twice, removed_again = filter_redundant(once, layout.optable_page, stacks)
    assert removed_again == 0
    assert twice.events == once.events
    assert twice.truth == once.truth


@pytest.mark.parametrize("window", [2**63 - 1, 10**20])
def test_filter_caps_a_window_longer_than_the_trace(window):
    # Such a window reaches every row, as one of the trace's length does;
    # uncapped, 2**63 - 1 wraps in int64 and 10**20 does not fit in it.
    _, layout, trace = bench_trace(noise=BURSTY)
    stacks = frozenset(layout.stack_pages)
    want, want_removed = filter_redundant(trace, layout.optable_page, stacks, len(trace))
    got, removed = filter_redundant(trace, layout.optable_page, stacks, window)
    assert removed == want_removed
    assert got.events == want.events
    assert got.truth == want.truth


def test_filter_handles_empty_trace():
    empty = trace_of(events=[], truth=None, layout_seed=0)
    filtered, removed = filter_redundant(empty, 1, frozenset())
    assert filtered.events == []
    assert removed == 0


# ------------------------------------------------------------- segmentation


def test_simple_opcodes_make_one_segment_each():
    names = ["i32.const", "i32.const", "i32.add", "drop"]
    layout, trace = synth(names)
    segments = segment_trace(trace, layout.optable_page, frozenset(layout.stack_pages))
    assert len(segments) == len(names)


def test_call_adds_one_null_segment():
    names = ["i32.const", "call", "nop", "return", "drop"]
    layout, trace = synth(names)
    segments = segment_trace(trace, layout.optable_page, frozenset(layout.stack_pages))
    assert len(segments) == len(names) + 1


def test_segment_channels_align_with_events():
    _, layout, trace = bench_trace()
    segments = segment_trace(trace, layout.optable_page, frozenset(layout.stack_pages))
    for segment in segments[:200]:
        size = len(segment_events(trace, segment))
        assert len(segment.modes) == size
        assert len(segment.classes) == size
        assert len(segment.pf) == size
        assert len(segment.latency) == size
        assert set(segment.modes) <= set("RWE")
        assert set(segment.classes) <= set("OSX")
        assert segment_events(trace, segment)[0].page == layout.optable_page
        assert segment_events(trace, segment)[0].mode == "R"


def test_segments_partition_the_trace():
    _, layout, trace = bench_trace()
    segments = segment_trace(trace, layout.optable_page, frozenset(layout.stack_pages))
    rebuilt = []
    for segment in segments:
        assert segment.start_index == len(rebuilt) + segments[0].start_index
        rebuilt.extend(segment_events(trace, segment))
    prefix = trace.events[: segments[0].start_index]
    assert prefix + rebuilt == trace.events


def test_segmentation_requires_two_boundaries():
    layout, trace = synth(["nop"])  # single dispatch, one boundary
    with pytest.raises(SegmentationError):
        segment_trace(trace, layout.optable_page, frozenset())
    with pytest.raises(SegmentationError):
        segment_trace(
            trace_of(events=[], truth=None, layout_seed=0), 1, frozenset()
        )


def test_preprocess_trace_bundles_the_stages():
    _, layout, trace = bench_trace(noise=NoiseModel(rng_seed=1))
    report, filtered, segments = preprocess_trace(trace)
    assert report.optable_page == layout.optable_page
    assert report.optable_confidence > 0.9
    assert report.stack_pages == set(layout.stack_pages)
    assert report.optable_page not in report.stack_pages
    assert report.events_removed == len(trace.events) - len(filtered.events)
    assert len(segments) >= 1


@pytest.mark.parametrize(
    "setting",
    [{"window": -40}, {"coverage_target": 5.0}, {"coverage_target": -0.5}, {"min_rw_frac": 1.5}],
)
def test_preprocess_trace_rejects_out_of_range_settings(setting):
    with pytest.raises(ValueError, match=next(iter(setting))) as caught:
        PreprocessConfig(**setting)
    assert not isinstance(caught.value, (DetectionError, SegmentationError))


# ------------------------------------------------------------ property test

_SIMPLE_OPS = st.sampled_from(
    ["nop", "i32.const", "drop", "i32.add", "local.get", "block", "end", "call"]
)


@settings(max_examples=30, deadline=None)
@given(st.lists(_SIMPLE_OPS, min_size=2, max_size=40), st.integers(0, 2**20))
def test_zero_noise_segment_count_matches_dispatch_count(names, seed):
    layout, trace = synth(names, seed=seed)
    extras = sum(1 for m in names if m == "call")
    segments = segment_trace(trace, layout.optable_page, frozenset(layout.stack_pages))
    assert len(segments) == len(names) + extras
    page, confidence = detect_optable_page(trace)
    assert page == layout.optable_page
    assert confidence == 1.0
    rebuilt = [ev for segment in segments for ev in segment_events(trace, segment)]
    assert trace.events[segments[0].start_index :] == rebuilt
