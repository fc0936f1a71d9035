"""Trace synthesis: emission geometry, calibration, noise, and mitigations."""

import math

import numpy as np
import pytest

from optrace.bytecode import OpcodeTrace, execute
from optrace.handlers import BASE_LATENCY, apply_mitigation, default_handler_specs
from optrace.machine import (
    HandlerSpec,
    LayoutConfig,
    MitigationConfig,
    NativeStep,
    NoiseModel,
    PageClass,
    SideChannelTrace,
    StackRole,
    StepEvent,
    StepKind,
    _merge_multisteps,
    build_layout,
    classify_page,
    shuffle_handler_pages,
    synthesize_trace,
)
from optrace.opcodes import OPCODES, all_opcodes, opcode_info
from optrace.preprocess import segment_trace
from optrace.workloads import benchmark_module, reference_module

ZERO = NoiseModel.zero(rng_seed=0)


def ops(*mnemonics):
    return OpcodeTrace(
        executed=tuple(OPCODES[name] for name in mnemonics), step_limit_hit=False
    )


def synth(opcode_trace, seed=0, noise=ZERO, markers=False, specs=None, config=None):
    layout = build_layout(seed, config or LayoutConfig())
    trace = synthesize_trace(
        opcode_trace,
        layout,
        specs or default_handler_specs(),
        noise,
        profiling_markers=markers,
    )
    return layout, trace


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


def test_classify_page_covers_every_region():
    layout = build_layout(11)
    assert classify_page(layout, layout.optable_page) is PageClass.OPTABLE
    assert classify_page(layout, layout.marker_page) is PageClass.MARKER
    assert classify_page(layout, layout.stack_pages[0]) is PageClass.STACK
    assert classify_page(layout, layout.bytecode_pages[0]) is PageClass.BYTECODE
    assert classify_page(layout, layout.linear_mem_pages[0]) is PageClass.LINEAR_MEM
    handler_page = next(iter(layout.handler_pages.values()))
    assert classify_page(layout, handler_page) is PageClass.HANDLER_CODE
    foreign = max(layout.all_pages()) + 1
    assert classify_page(layout, foreign) is PageClass.OTHER


# ----------------------------------------------------- handler validation


def good_tail():
    return (
        NativeStep(StepKind.LOAD, target_class=PageClass.BYTECODE, base_latency=10),
        NativeStep(StepKind.LOAD, target_class=PageClass.OPTABLE, base_latency=10),
        NativeStep(StepKind.EXEC_BRANCH, base_latency=10),
    )


def test_handler_spec_requires_dispatch_tail():
    nop = OPCODES["nop"]
    with pytest.raises(ValueError, match="dispatch tail"):
        HandlerSpec(opcode=nop, steps=good_tail()[:2])
    reversed_tail = (good_tail()[1], good_tail()[0], good_tail()[2])
    with pytest.raises(ValueError, match="dispatch tail"):
        HandlerSpec(opcode=nop, steps=reversed_tail)


def test_handler_spec_checks_optable_access_count():
    nop = OPCODES["nop"]
    extra = NativeStep(StepKind.LOAD, target_class=PageClass.OPTABLE, base_latency=10)
    with pytest.raises(ValueError, match="optable loads"):
        HandlerSpec(opcode=nop, steps=(extra,) + good_tail())
    spec = HandlerSpec(opcode=nop, steps=(extra,) + good_tail(), extra_optable_accesses=1)
    assert len(spec.body) == 1


def test_handler_spec_rejects_stack_traffic_beyond_arity():
    nop = OPCODES["nop"]  # pops 0, pushes 0
    pop = NativeStep(
        StepKind.LOAD,
        target_class=PageClass.STACK,
        stack_role=StackRole.OPERAND,
        base_latency=10,
    )
    with pytest.raises(ValueError, match="arity"):
        HandlerSpec(opcode=nop, steps=(pop,) + good_tail())


def test_native_step_field_validation():
    with pytest.raises(ValueError, match="target class"):
        NativeStep(StepKind.LOAD, base_latency=10)
    with pytest.raises(ValueError, match="target class"):
        NativeStep(StepKind.REG_OP, target_class=PageClass.STACK, base_latency=10)
    with pytest.raises(ValueError, match="latency"):
        NativeStep(StepKind.REG_OP, base_latency=0)
    with pytest.raises(ValueError, match="pf_count"):
        NativeStep(StepKind.REG_OP, base_latency=10, pf_count=0)


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
    reg_latency = BASE_LATENCY[StepKind.REG_OP]
    assert nop_spec.body[0].base_latency == reg_latency
    body_events = [ev for ev in trace.events if ev.mode == "E" and ev.pf_count == 5]
    assert all(
        ev.latency in (reg_latency, BASE_LATENCY[StepKind.EXEC_BRANCH])
        for ev in body_events
    )


def test_width_twins_share_handler_shape():
    specs = default_handler_specs()
    for mnemonic in ("add", "sub", "and", "eq", "lt_s", "load", "store", "const"):
        a = specs[OPCODES[f"i32.{mnemonic}"]]
        b = specs[OPCODES[f"i64.{mnemonic}"]]
        assert a.steps == b.steps


def test_distinct_families_differ_in_some_channel():
    specs = default_handler_specs()
    shapes = {}
    for op, spec in specs.items():
        key = tuple(
            (s.kind, s.target_class, s.stack_role, s.pf_count, s.base_latency)
            for s in spec.steps
        )
        shapes.setdefault(key, set()).add(op.family)
    for families in shapes.values():
        assert len(families) == 1


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
    load = BASE_LATENCY[StepKind.LOAD]
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
    trace = SideChannelTrace.from_events(events, truth=truth, layout_seed=4)

    kept = trace.take(np.array([True, False, True, False, True]))
    assert [ev.page for ev in kept.events] == [0, 2, 4]
    assert kept.truth == ((0, "a"), (1, "b"), (2, "c"))
    assert kept.layout_seed == 4

    tail = trace.take(slice(2, 4))
    assert [ev.page for ev in tail.events] == [2, 3]
    assert tail.truth == ((0, "b"), (1, None))

    bare = SideChannelTrace.from_events(events).take(slice(1, 3))
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
        assert new.tail == original.tail
        assert len(new.body) >= len(original.body)
        grew += len(new.body) - len(original.body)
    assert grew > 0


def test_variant_mitigation_yields_distinct_templates():
    specs = default_handler_specs()
    varied = apply_mitigation(specs, MitigationConfig(variant_count=3), seed=1)
    entry = varied[OPCODES["i32.add"]]
    assert isinstance(entry, tuple) and len(entry) == 3
    lengths = {len(v.steps) for v in entry}
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
    with pytest.raises(ValueError):
        MitigationConfig(variant_count=0)


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
