"""Trace synthesis: emission geometry, calibration, noise, and mitigations."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optrace.bytecode import execute
from optrace.handlers import apply_mitigation, default_handler_specs
from optrace.machine import (
    BYTECODE,
    DISPATCH,
    EXEC,
    FRAME,
    LINEAR,
    MARKER,
    MAX_REGION_PAGES,
    MAX_SPAN,
    MAX_TIMER_CYCLES,
    MAX_VARIANTS,
    NEXT,
    OPERAND,
    OPTABLE,
    OWN,
    READ,
    STEPS,
    WRITE,
    HandlerSpec,
    LayoutConfig,
    MitigationConfig,
    NoiseModel,
    StepEvent,
    _merge_multisteps,
    build_layout,
    shuffle_handler_pages,
    step,
    synthesize_trace,
)
from optrace.opcodes import OPCODES, all_opcodes
from optrace.preprocess import segment_trace
from optrace.workloads import benchmark_module, reference_module

from support import ZERO, labels_of, ops, synth, trace_of


# ----------------------------------------------------------------- layout


def test_layout_places_regions_on_distinct_frames():
    config = LayoutConfig()
    layout = build_layout(7, config)
    needed = 2 + len(all_opcodes()) + config.stack_pages + config.bytecode_pages + config.linear_pages
    assert len(layout.all_pages()) == needed


def test_layout_is_deterministic_and_seed_sensitive():
    assert build_layout(5) == build_layout(5)
    assert build_layout(5) != build_layout(6)


def test_layout_rejects_overfull_span():
    with pytest.raises(ValueError, match="span"):
        build_layout(0, LayoutConfig(span=16))


def test_layout_span_is_bounded_so_every_address_fits_in_int64():
    # Burst pages reach 8,192 pages above the highest frame, which is below the span.
    assert (MAX_SPAN - 1 + 8192) * 4096 <= 2**63 - 1 < (MAX_SPAN + 8192) * 4096
    noise = NoiseModel(0.0, 0, 0.01, 50.0, 0.0, rng_seed=4)
    config = LayoutConfig(span=MAX_SPAN)
    layout, trace = synth(ops(*["i32.const", "drop"] * 200), noise=noise, config=config)
    assert max(layout.all_pages()) < trace.page.max() <= max(layout.all_pages()) + 8192
    with pytest.raises(ValueError, match=f"span must be <= {MAX_SPAN}"):
        LayoutConfig(span=MAX_SPAN + 1)


@pytest.mark.parametrize("field", ["stack_pages", "bytecode_pages", "linear_pages"])
def test_layout_bounds_each_region_page_count(field):
    # A span of 2**40 has room for them, but every frame is drawn.
    span = 2**40
    assert MAX_REGION_PAGES == 65536
    for count in (0, MAX_REGION_PAGES + 1, 10**9):
        with pytest.raises(ValueError, match=f"{field} must be in \\[1, 65536\\]"):
            LayoutConfig(**{field: count, "span": span})
    config = LayoutConfig(**{field: MAX_REGION_PAGES, "span": span})
    assert len(build_layout(0, config).all_pages()) == config.frames


# ----------------------------------------------------- handler validation


def test_handler_spec_accepts_extra_optable_loads():
    spec = HandlerSpec(opcode=OPCODES["nop"], body=((OPTABLE, READ, 8, 10),))
    assert len(spec.body) == 1


def test_handler_spec_rejects_stack_traffic_beyond_arity():
    nop, const = OPCODES["nop"], OPCODES["i32.const"]  # nop pops 0, pushes 0; const pushes 1
    with pytest.raises(ValueError, match="arity"):
        HandlerSpec(opcode=nop, body=((OPERAND, READ, 7, 10),))
    with pytest.raises(ValueError, match="arity"):
        HandlerSpec(opcode=const, body=((OPERAND, WRITE, 9, 10),) * 2)
    HandlerSpec(opcode=const, body=((OPERAND, WRITE, 9, 10), (FRAME, READ, 7, 10)))


@pytest.mark.parametrize(
    "row", [(OWN, READ, 7, 10), (OWN, WRITE, 9, 10), (FRAME, EXEC, 5, 10),
            (LINEAR, EXEC, 5, 10), (OPTABLE, EXEC, 5, 10), (OWN, ord("X"), 5, 10)],
)
def test_handler_spec_runs_execute_steps_only_on_its_own_page(row):
    with pytest.raises(ValueError, match="own page"):
        HandlerSpec(opcode=OPCODES["nop"], body=(row,))


@pytest.mark.parametrize("row", [(NEXT, EXEC, 5, 10), (DISPATCH, READ, 8, 10),
                                 (MARKER, WRITE, 9, 10), (9, READ, 7, 10)])
def test_handler_spec_leaves_the_tail_sources_to_the_tail(row):
    with pytest.raises(ValueError, match="not a body source"):
        HandlerSpec(opcode=OPCODES["nop"], body=((OWN, EXEC, 5, 10), row))


def test_handler_spec_step_field_validation():
    nop = OPCODES["nop"]
    for latency in (0, -5):
        with pytest.raises(ValueError, match="latency"):
            HandlerSpec(opcode=nop, body=((OWN, EXEC, 5, latency),))
    with pytest.raises(ValueError, match="pf"):
        HandlerSpec(opcode=nop, body=((BYTECODE, READ, 0, 10),))
    HandlerSpec(opcode=nop, body=((OWN, EXEC, 1, 1),))


# ------------------------------------------------------- emission geometry


def test_event_count_matches_handler_shapes():
    specs = default_handler_specs()
    names = ["i32.const", "i32.const", "i32.add", "drop"]
    layout, trace = synth(ops(*names))
    body_steps = sum(len(specs[OPCODES[n]].body) for n in names)
    tails = len(names) * 3  # one prologue plus one tail per non-final opcode
    assert len(trace.events) == body_steps + tails

    _, marked = synth(ops(*names), markers=True)
    assert len(marked.events) == body_steps + len(names) * 4


def test_truth_labels_sit_on_dispatch_reads():
    layout, trace = synth(ops("i32.const", "i32.const", "i32.add", "drop"))
    labels = []
    for index, label in trace.truth:
        event = trace.events[index]
        assert event.mode == "R"
        assert event.page == layout.optable_page
        labels.append(label)
    assert labels == ["i32.const", "i32.const", "i32.add", "drop"]


def test_marker_writes_count_retired_opcodes():
    run = execute(reference_module(2))
    layout, trace = synth(run, markers=True)
    marker_writes = sum(
        1 for ev in trace.events if ev.page == layout.marker_page and ev.mode == "W"
    )
    assert marker_writes == len(run.executed)


def test_mid_handler_dispatch_reads_are_null_labeled():
    layout, trace = synth(ops("i32.const", "call", "nop", "return", "drop"))
    labels = [label for _, label in trace.truth]
    assert labels.count(None) == 1
    assert len(labels) == 5 + 1  # five dispatches plus call's extra lookup


def test_dispatch_branches_land_on_next_handler_page():
    layout, trace = synth(ops("i32.const", "drop"))
    events = trace.events
    # prologue: bytecode fetch, optable read, branch to the const handler
    assert events[0].mode == "R"
    assert events[1].page == layout.optable_page
    assert events[2].mode == "E"
    assert events[2].page == layout.handler_pages[OPCODES["i32.const"]]


def test_add_handler_segment_shape_and_calibration():
    layout, trace = synth(ops("i32.const", "i32.const", "i32.add", "drop"))
    segments = segment_trace(trace, layout.optable_page, frozenset(layout.stack_pages))
    add_segment = segments[2]
    assert add_segment.modes == "REEEREWR"
    assert add_segment.classes == "OXXXSXSX"
    assert add_segment.pf == (8, 5, 5, 5, 7, 5, 9, 8)
    assert sum(add_segment.latency) == 44050
    assert 43500 <= sum(add_segment.latency) <= 44600


def test_zero_noise_latencies_equal_base_values():
    specs = default_handler_specs()
    layout, trace = synth(ops("nop", "nop", "nop"))
    nop_spec = specs[OPCODES["nop"]]
    reg_latency = STEPS["reg"][2]
    assert nop_spec.body == ((OWN, EXEC, 5, reg_latency),)
    body_events = [ev for ev in trace.events if ev.mode == "E" and ev.pf_count == 5]
    assert all(ev.latency in (reg_latency, STEPS["branch"][2]) for ev in body_events)


def test_width_twins_share_handler_shape():
    specs = default_handler_specs()
    for mnemonic in ("add", "sub", "and", "eq", "lt_s", "load", "store", "const"):
        a = specs[OPCODES[f"i32.{mnemonic}"]]
        b = specs[OPCODES[f"i64.{mnemonic}"]]
        assert a.body == b.body


def test_distinct_families_differ_in_some_channel():
    specs = default_handler_specs()
    shapes = {}
    for op, spec in specs.items():
        shapes.setdefault(spec.body, set()).add(op.family)
    for families in shapes.values():
        assert len(families) == 1


# ------------------------------------------------- event-by-event reference

_NO_LABEL = object()


def reference_emission(opcode_trace, layout, specs, markers, picks=None):
    """Zero-noise synthesis as a plain walk that emits one event at a time.

    Each opcode runs its handler body, then the dispatch tail of the next
    opcode (bytecode fetch, marker write when profiling, labeled optable
    read, branch to the next handler); a prologue tail dispatches the first
    opcode and the last opcode stops before its tail.  `picks` holds the
    variant each retired opcode runs (the first one by default).  The tail's
    rows and each page source's page are spelled out here, not taken from
    the synthesizer.
    """
    events, truth = [], []
    depth = linear = fetched = 0

    def emit(page, mode, pf, latency, label=_NO_LABEL):
        if label is not _NO_LABEL:
            truth.append((len(events), label))
        events.append(StepEvent(page, mode, pf, latency))

    def bytecode_page():
        return layout.bytecode_pages[fetched // 4096 % len(layout.bytecode_pages)]

    def body_page(op, source):
        nonlocal linear
        if source == OWN:  # register ops and in-handler branches
            return layout.handler_pages[op]
        if source == OPTABLE:
            return layout.optable_page
        if source == FRAME:
            return layout.stack_pages[0]
        if source == OPERAND:
            return layout.stack_pages[min(1 + depth // 512, len(layout.stack_pages) - 1)]
        if source == BYTECODE:
            return bytecode_page()
        assert source == LINEAR
        page = layout.linear_mem_pages[linear % len(layout.linear_mem_pages)]
        linear += 1
        return page

    def emit_tail(dispatched):
        nonlocal fetched
        emit(bytecode_page(), "R", 8, 5540)
        fetched += 1
        if markers:
            emit(layout.marker_page, "W", 9, 5400)
        emit(layout.optable_page, "R", 8, 5540, dispatched.mnemonic)
        emit(layout.handler_pages[dispatched], "E", 5, 5309)

    ops = opcode_trace.executed
    if ops:
        emit_tail(ops[0])
    for i, op in enumerate(ops):
        variants = (specs[op],) if isinstance(specs[op], HandlerSpec) else specs[op]
        for source, mode, pf, latency in variants[0 if picks is None else picks[i]].body:
            label = None if (source, mode) == (OPTABLE, READ) else _NO_LABEL
            emit(body_page(op, source), chr(mode), pf, latency, label)
        if i + 1 < len(ops):
            emit_tail(ops[i + 1])
        depth = max(depth - op.pops, 0) + op.pushes
    return events, tuple(truth)


def assert_matches_reference(opcode_trace, layout_seed, config, markers, nop_prob):
    layout = build_layout(layout_seed, config)
    specs = default_handler_specs()
    if nop_prob:
        specs = apply_mitigation(specs, MitigationConfig(nop_insertion_prob=nop_prob), layout_seed)
    trace = synthesize_trace(opcode_trace, layout, specs, ZERO, profiling_markers=markers)
    events, truth = reference_emission(opcode_trace, layout, specs, markers)
    assert trace.events == events
    assert trace.truth == truth


pages = st.integers(min_value=1, max_value=3)


@settings(max_examples=60, deadline=None)
@given(
    names=st.lists(st.sampled_from(sorted(OPCODES)), max_size=40),
    layout_seed=st.integers(min_value=0, max_value=2**16),
    config=st.builds(LayoutConfig, stack_pages=pages, bytecode_pages=pages, linear_pages=pages),
    markers=st.booleans(),
    nop_prob=st.sampled_from([0.0, 0.5]),
)
@example(names=[], layout_seed=0, config=LayoutConfig(), markers=False, nop_prob=0.0)
@example(names=["call", "memory.grow"], layout_seed=1, config=LayoutConfig(1, 1, 1),
         markers=True, nop_prob=0.0)
def test_zero_noise_synthesis_matches_the_event_by_event_reference(
    names, layout_seed, config, markers, nop_prob
):
    assert_matches_reference(ops(*names), layout_seed, config, markers, nop_prob)


def test_long_run_matches_the_reference_across_bytecode_and_stack_pages():
    middle = ["i32.load", "call", "i32.store", "local.get", "memory.grow", "global.set", "i64.add"]
    names = ["i32.const"] * 700 + middle * 1100 + ["drop"] * 700
    run = ops(*names)
    assert len(names) > 2 * 4096  # the bytecode fetch wraps past two pages
    for markers in (False, True):
        assert_matches_reference(run, 5, LayoutConfig(3, 2, 3), markers, 0.3)


def test_variant_picks_come_from_one_draw_over_the_retired_opcodes():
    run = execute(reference_module(1))
    layout = build_layout(2)
    specs = apply_mitigation(default_handler_specs(), MitigationConfig(variant_count=3), seed=2)
    trace = synthesize_trace(run, layout, specs, NoiseModel.zero(rng_seed=7))
    picks = np.random.default_rng(7).integers(0, np.full(len(run.executed), 3))
    assert len(set(picks.tolist())) == 3
    events, truth = reference_emission(run, layout, specs, False, picks.tolist())
    assert trace.events == events
    assert trace.truth == truth


# ------------------------------------------------------------------- noise


def test_quantized_latencies_are_timer_multiples():
    noise = NoiseModel(latency_jitter_sigma=60.0, apic_quantum=35, rng_seed=9)
    _, trace = synth(ops(*["i32.const", "drop"] * 20), noise=noise)
    assert all(ev.latency % 35 == 0 and ev.latency >= 35 for ev in trace.events)


def test_jitter_spreads_latency_around_base():
    noise = NoiseModel(
        latency_jitter_sigma=60.0,
        apic_quantum=0,
        ctx_switch_rate=0.0,
        ctx_switch_extra_steps_mean=0.0,
        multistep_prob=0.0,
        rng_seed=3,
    )
    _, trace = synth(ops(*["nop"] * 400), noise=noise)
    load = STEPS["load"][2]
    # every pf-8 read (bytecode fetch, dispatch lookup) shares one base latency
    lats = [ev.latency for ev in trace.events if ev.mode == "R" and ev.pf_count == 8]
    mean = sum(lats) / len(lats)
    spread = math.sqrt(sum((v - mean) ** 2 for v in lats) / len(lats))
    assert len(set(lats)) > 10
    assert abs(mean - load) < 10
    assert 40 < spread < 90


def test_context_switch_bursts_visit_foreign_pages():
    noise = NoiseModel(
        latency_jitter_sigma=0.0,
        apic_quantum=0,
        ctx_switch_rate=0.01,
        ctx_switch_extra_steps_mean=50.0,
        multistep_prob=0.0,
        rng_seed=4,
    )
    layout, trace = synth(ops(*["i32.const", "drop"] * 200), noise=noise)
    known = layout.all_pages()
    foreign = [ev for ev in trace.events if ev.page not in known]
    assert foreign
    assert {ev.mode for ev in foreign} <= {"R", "W", "E"}


@pytest.mark.parametrize("seed", [1, 2])
def test_burst_and_tail_rows_carry_their_step_calibration(seed):
    # Without jitter or rounding every row keeps its step's base latency.
    noise = NoiseModel(
        latency_jitter_sigma=0.0,
        apic_quantum=0,
        ctx_switch_rate=0.01,
        ctx_switch_extra_steps_mean=20.0,
        multistep_prob=0.0,
        rng_seed=seed,
    )
    layout, trace = synth(execute(reference_module(1)), seed=seed, noise=noise, markers=True)
    ours = np.isin(trace.page, list(layout.all_pages()))
    foreign = np.stack([trace.mode, trace.pf, trace.latency], axis=1)[~ours]
    assert set(map(tuple, foreign.tolist())) == {STEPS[kind] for kind in ("reg", "load", "store")}

    kept = trace.take(ours)
    dispatched = [(row, label) for row, label in kept.truth if label is not None]
    dispatch = np.array([row for row, _ in dispatched])
    handlers = [layout.handler_pages[OPCODES[label]] for _, label in dispatched]
    tail = [
        (step("load", BYTECODE), np.isin(kept.page[dispatch - 2], layout.bytecode_pages)),
        (step("store", MARKER), kept.page[dispatch - 1] == layout.marker_page),
        (step("load", DISPATCH), kept.page[dispatch] == layout.optable_page),
        (step("branch", NEXT), kept.page[dispatch + 1] == handlers),
    ]
    for at, ((_, mode, pf, latency), on_its_page) in enumerate(tail, start=-2):
        assert on_its_page.all()
        assert (kept.mode[dispatch + at] == mode).all()
        assert (kept.pf[dispatch + at] == pf).all()
        assert (kept.latency[dispatch + at] == latency).all()


@pytest.mark.parametrize("markers", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_noise_leaves_the_interpreter_rows_in_place(seed, markers):
    noise = NoiseModel(
        latency_jitter_sigma=60.0,
        apic_quantum=35,
        ctx_switch_rate=0.01,
        ctx_switch_extra_steps_mean=20.0,
        multistep_prob=0.0,
        rng_seed=seed,
    )
    run = execute(reference_module(1))
    layout, noisy = synth(run, seed=seed, noise=noise, markers=markers)
    _, clean = synth(run, seed=seed, markers=markers)
    ours = np.isin(noisy.page, list(layout.all_pages()))
    assert not ours.all()  # bursts happened
    kept = noisy.take(ours)
    assert np.array_equal(kept.page, clean.page)
    assert np.array_equal(kept.mode, clean.mode)
    assert np.array_equal(kept.pf, clean.pf)
    assert kept.truth == clean.truth
    rows = [row for row, _ in noisy.truth]
    assert (noisy.page[rows] == layout.optable_page).all()
    assert (noisy.mode[rows] == ord("R")).all()
    assert (noisy.latency % 35 == 0).all() and (noisy.latency >= 35).all()


@pytest.mark.parametrize(
    "field, value",
    [
        ("ctx_switch_rate", 2.0),
        ("ctx_switch_rate", -0.1),
        ("multistep_prob", 1.5),
        ("latency_jitter_sigma", -1.0),
        ("latency_jitter_sigma", float("nan")),
        ("latency_jitter_sigma", float("inf")),
        ("latency_jitter_sigma", 1e300),
        ("latency_jitter_sigma", MAX_TIMER_CYCLES * 1.0000001),
        ("apic_quantum", -35),
        ("apic_quantum", 10**19),
        ("apic_quantum", MAX_TIMER_CYCLES + 1),
        ("ctx_switch_extra_steps_mean", -1.0),
    ],
)
def test_noise_model_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        NoiseModel(**{field: value})


def test_timer_settings_at_their_bound_give_valid_latencies():
    noise = NoiseModel(MAX_TIMER_CYCLES, MAX_TIMER_CYCLES, 0.0, 0.0, 0.0, rng_seed=3)
    _, trace = synth(ops(*["i32.const", "drop"] * 200), noise=noise)
    assert (trace.latency % MAX_TIMER_CYCLES == 0).all()
    assert (trace.latency >= MAX_TIMER_CYCLES).all()


def test_noise_model_bounds_burst_rows_per_interpreter_row():
    # Each field is in range, but together they ask for 2,258 burst rows per
    # interpreter row.
    with pytest.raises(ValueError, match="ctx_switch_rate \\* ctx_switch_extra_steps_mean"):
        NoiseModel(ctx_switch_rate=1.0)
    with pytest.raises(ValueError, match="burst rows"):
        NoiseModel(ctx_switch_rate=0.5, ctx_switch_extra_steps_mean=33.0)
    # 16 rows is the most allowed; a mean below one row counts as one row.
    NoiseModel(ctx_switch_rate=0.5, ctx_switch_extra_steps_mean=32.0)
    NoiseModel(ctx_switch_rate=1.0, ctx_switch_extra_steps_mean=0.0)
    NoiseModel(ctx_switch_rate=0.001953)


def test_multistep_merging_conserves_fault_and_latency_mass():
    clean_noise = NoiseModel.zero(rng_seed=5)
    merged_noise = NoiseModel(0.0, 0, 0.0, 0.0, 1.0, rng_seed=5)
    run = ops(*["i32.const", "drop"] * 10)
    _, clean = synth(run, noise=clean_noise)
    _, merged = synth(run, noise=merged_noise)
    assert len(merged.events) == math.ceil(len(clean.events) / 2)
    assert sum(e.pf_count for e in merged.events) == sum(e.pf_count for e in clean.events)
    assert sum(e.latency for e in merged.events) == sum(e.latency for e in clean.events)


def merge_event_by_event(rng, prob, events, truth):
    """The multistep merge as a walk that draws one number per visited event."""
    labels = dict(truth)
    merged, merged_truth = [], []
    i = 0
    while i < len(events):
        if i in labels:
            merged_truth.append((len(merged), labels[i]))
        if i + 1 < len(events) and rng.random() < prob:
            a, b = events[i], events[i + 1]
            merged.append(StepEvent(a.page, a.mode, a.pf_count + b.pf_count, a.latency + b.latency))
            i += 2
        else:
            merged.append(events[i])
            i += 1
    return merged, tuple(merged_truth)


@pytest.mark.parametrize("prob", [0.0, 0.02, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bulk_multistep_merge_matches_the_event_by_event_walk(prob, seed):
    _, trace = synth(ops(*["i32.const", "call", "drop"] * 20), noise=NoiseModel(rng_seed=seed))
    merged = _merge_multisteps(np.random.default_rng(seed), prob, trace)
    want = merge_event_by_event(np.random.default_rng(seed), prob, trace.events, trace.truth)
    assert (merged.events, merged.truth) == want


def test_take_moves_truth_pairs_with_their_rows():
    events = [StepEvent(page, "R", 0, 10 * page) for page in range(5)]
    truth = ((0, "a"), (2, "b"), (3, None), (4, "c"), (7, "out"), (-1, "neg"))
    trace = trace_of(events, truth=labels_of(truth), layout_seed=4)

    kept = trace.take(np.array([True, False, True, False, True]))
    assert [ev.page for ev in kept.events] == [0, 2, 4]
    assert kept.truth == ((0, "a"), (1, "b"), (2, "c"))
    assert kept.layout_seed == 4

    tail = trace.take(slice(2, 4))
    assert [ev.page for ev in tail.events] == [2, 3]
    assert tail.truth == ((0, "b"), (1, None))

    bare = trace_of(events).take(slice(1, 3))
    assert bare.truth is None and len(bare) == 2


def test_synthesis_is_deterministic_for_fixed_seeds():
    noise = NoiseModel(rng_seed=8)
    run = execute(benchmark_module(1, iterations=1))
    _, a = synth(run, seed=2, noise=noise)
    _, b = synth(run, seed=2, noise=noise)
    assert a.events == b.events
    assert a.truth == b.truth


def test_missing_handler_spec_is_reported():
    from optrace.machine import SynthesisError

    specs = default_handler_specs()
    del specs[OPCODES["nop"]]
    with pytest.raises(SynthesisError, match="nop"):
        synth(ops("nop", "drop"), specs=specs)


# -------------------------------------------------------------- mitigations


def test_nop_insertion_pads_handler_bodies():
    specs = default_handler_specs()
    padded = apply_mitigation(specs, MitigationConfig(nop_insertion_prob=0.5), seed=1)
    grew = 0
    for op, original in specs.items():
        new = padded[op]
        assert isinstance(new, HandlerSpec)
        assert len(new.body) >= len(original.body)
        grew += len(new.body) - len(original.body)
    assert grew > 0


def test_variant_mitigation_yields_distinct_templates():
    specs = default_handler_specs()
    varied = apply_mitigation(specs, MitigationConfig(variant_count=3), seed=1)
    entry = varied[OPCODES["i32.add"]]
    assert isinstance(entry, tuple) and len(entry) == 3
    lengths = {len(v.body) for v in entry}
    assert len(lengths) > 1


def test_shuffle_handlers_permutes_page_assignment():
    layout = build_layout(3)
    shuffled = shuffle_handler_pages(layout, seed=3)
    assert set(shuffled.handler_pages.values()) == set(layout.handler_pages.values())
    assert shuffled.handler_pages != layout.handler_pages
    assert shuffle_handler_pages(layout, seed=3) == shuffled


def test_mitigation_config_validation():
    with pytest.raises(ValueError):
        MitigationConfig(nop_insertion_prob=1.5)
    for count in (0, MAX_VARIANTS + 1, 10**9):
        with pytest.raises(ValueError, match="variant_count must be in \\[1, 1000\\]"):
            MitigationConfig(variant_count=count)
    MitigationConfig(variant_count=MAX_VARIANTS)


def test_stack_depth_spills_to_next_operand_page():
    deep = ["i32.const"] * 600 + ["drop"] * 600
    layout, trace = synth(ops(*deep), config=LayoutConfig(stack_pages=3))
    operand_pages = {
        ev.page for ev in trace.events
        if ev.page in layout.stack_pages and ev.mode in "RW"
    }
    # page 0 is the frame page; const/drop touch only operand slots, which
    # overflow from page 1 onto page 2 past 512 entries of depth
    assert operand_pages == {layout.stack_pages[1], layout.stack_pages[2]}
