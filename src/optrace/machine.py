"""Machine model: turns an opcode trace into a single-step side-channel trace.

Every retired native instruction of the interpreter becomes one trace row
(one StepEvent when read as events) carrying the page it touched, the
access mode (R/W/E), a page-fault count and a latency.  Instructions with
a data access report that access; pure register and branch instructions
report an execute fault on their code page.  Branch events are attributed
to the branch-target page, which is what makes the read-then-execute
dispatch pattern visible downstream.

Per handler the emission order is: body steps, then the shared dispatch tail
(bytecode read, optable read, dispatch branch).  The optable read of a tail
fetches the *next* opcode, so truth labels attach there.  A dispatch prologue
is emitted before the first opcode and the final handler stops before its
tail (the interpreter exits instead of dispatching).
"""

import enum
from dataclasses import dataclass, replace

import numpy as np

from .bytecode import OpcodeTrace
from .opcodes import OPCODES, OpcodeId, all_opcodes, opcode_info

__all__ = [
    "PageClass",
    "StepKind",
    "StackRole",
    "MemoryLayout",
    "LayoutConfig",
    "NativeStep",
    "HandlerSpec",
    "NoiseModel",
    "StepEvent",
    "SideChannelTrace",
    "MitigationConfig",
    "SynthesisError",
    "build_layout",
    "classify_page",
    "shuffle_handler_pages",
    "synthesize_trace",
]

PAGE_SIZE = 4096

# Operand-stack slots per page; depth beyond this spills to the next page.
_SLOTS_PER_PAGE = 512


class PageClass(enum.Enum):
    OPTABLE = "OPTABLE"
    STACK = "STACK"
    HANDLER_CODE = "HANDLER_CODE"
    BYTECODE = "BYTECODE"
    MARKER = "MARKER"
    LINEAR_MEM = "LINEAR_MEM"
    OTHER = "OTHER"


class StepKind(enum.Enum):
    REG_OP = "REG_OP"
    LOAD = "LOAD"
    STORE = "STORE"
    EXEC_BRANCH = "EXEC_BRANCH"


class StackRole(enum.Enum):
    """Which part of the interpreter stack region a STACK access targets."""

    OPERAND = "OPERAND"
    FRAME = "FRAME"


class SynthesisError(ValueError):
    """Inconsistent synthesis inputs (e.g. opcode without a handler spec)."""


@dataclass(frozen=True, slots=True)
class NativeStep:
    kind: StepKind
    target_class: PageClass | None = None
    stack_role: StackRole | None = None
    base_latency: int = 0
    pf_count: int = 1

    def __post_init__(self):
        data = self.kind in (StepKind.LOAD, StepKind.STORE)
        if data and self.target_class is None:
            raise ValueError("LOAD/STORE steps need a target class")
        if not data and self.target_class is not None:
            raise ValueError("only LOAD/STORE steps carry a target class")
        if self.base_latency <= 0:
            raise ValueError("base latency must be positive")
        if self.pf_count < 1:
            raise ValueError("pf_count must be >= 1")


@dataclass(frozen=True)
class HandlerSpec:
    """Native-step template for one opcode's interpreter handler."""

    opcode: OpcodeId
    steps: tuple[NativeStep, ...]
    extra_optable_accesses: int = 0

    def __post_init__(self):
        if len(self.steps) < 3:
            raise ValueError("handler needs at least the dispatch tail")
        tail = self.steps[-3:]
        ok = (
            tail[0].kind is StepKind.LOAD
            and tail[0].target_class is PageClass.BYTECODE
            and tail[1].kind is StepKind.LOAD
            and tail[1].target_class is PageClass.OPTABLE
            and tail[2].kind is StepKind.EXEC_BRANCH
        )
        if not ok:
            raise ValueError(f"{self.opcode.mnemonic}: handler must end with the dispatch tail")
        optable_loads = sum(
            1 for s in self.steps if s.kind is StepKind.LOAD and s.target_class is PageClass.OPTABLE
        )
        if optable_loads != 1 + self.extra_optable_accesses:
            raise ValueError(
                f"{self.opcode.mnemonic}: optable loads ({optable_loads}) must equal "
                f"1 + extra_optable_accesses ({self.extra_optable_accesses})"
            )
        info = opcode_info(self.opcode)
        operand_loads = sum(
            1
            for s in self.steps
            if s.kind is StepKind.LOAD
            and s.target_class is PageClass.STACK
            and s.stack_role is StackRole.OPERAND
        )
        operand_stores = sum(
            1
            for s in self.steps
            if s.kind is StepKind.STORE
            and s.target_class is PageClass.STACK
            and s.stack_role is StackRole.OPERAND
        )
        if operand_loads > info.pops or operand_stores > info.pushes:
            raise ValueError(
                f"{self.opcode.mnemonic}: operand-stack accesses exceed pop/push arity"
            )

    @property
    def body(self) -> tuple[NativeStep, ...]:
        return self.steps[:-3]

    @property
    def tail(self) -> tuple[NativeStep, ...]:
        return self.steps[-3:]


@dataclass(frozen=True)
class LayoutConfig:
    stack_pages: int = 2
    bytecode_pages: int = 2
    linear_pages: int = 2
    span: int = 1 << 20  # page-frame numbers are drawn from [0, span)

    def __post_init__(self):
        if min(self.stack_pages, self.bytecode_pages, self.linear_pages) < 1:
            raise ValueError("page counts must be >= 1")
        if self.frames > self.span:
            raise ValueError(f"layout needs {self.frames} frames but span is {self.span}")

    @property
    def frames(self) -> int:
        """Distinct frames a layout takes: optable, marker, regions and handlers."""
        return 2 + len(OPCODES) + self.stack_pages + self.bytecode_pages + self.linear_pages


@dataclass(frozen=True)
class MemoryLayout:
    page_size: int
    optable_page: int
    handler_pages: dict[OpcodeId, int]
    stack_pages: tuple[int, ...]
    bytecode_pages: tuple[int, ...]
    marker_page: int
    linear_mem_pages: tuple[int, ...]
    seed: int

    def all_pages(self) -> frozenset[int]:
        return frozenset(
            [self.optable_page, self.marker_page]
            + list(self.handler_pages.values())
            + list(self.stack_pages)
            + list(self.bytecode_pages)
            + list(self.linear_mem_pages)
        )


def build_layout(seed: int, config: LayoutConfig | None = None) -> MemoryLayout:
    """Deterministically place every interpreter region on distinct frames."""
    config = config or LayoutConfig()
    opcodes = all_opcodes()
    rng = np.random.default_rng(seed)
    frames = [int(f) for f in rng.choice(config.span, size=config.frames, replace=False)]
    it = iter(frames)
    optable = next(it)
    marker = next(it)
    stacks = tuple(next(it) for _ in range(config.stack_pages))
    bytecodes = tuple(next(it) for _ in range(config.bytecode_pages))
    linears = tuple(next(it) for _ in range(config.linear_pages))
    handlers = {op: next(it) for op in opcodes}
    return MemoryLayout(
        page_size=PAGE_SIZE,
        optable_page=optable,
        handler_pages=handlers,
        stack_pages=stacks,
        bytecode_pages=bytecodes,
        marker_page=marker,
        linear_mem_pages=linears,
        seed=seed,
    )


def classify_page(layout: MemoryLayout, page: int) -> PageClass:
    if page == layout.optable_page:
        return PageClass.OPTABLE
    if page == layout.marker_page:
        return PageClass.MARKER
    if page in layout.stack_pages:
        return PageClass.STACK
    if page in layout.bytecode_pages:
        return PageClass.BYTECODE
    if page in layout.linear_mem_pages:
        return PageClass.LINEAR_MEM
    if page in layout.handler_pages.values():
        return PageClass.HANDLER_CODE
    return PageClass.OTHER


def shuffle_handler_pages(layout: MemoryLayout, seed: int) -> MemoryLayout:
    """Permute the opcode -> handler-page assignment (deployment mitigation)."""
    rng = np.random.default_rng(seed)
    ops = sorted(layout.handler_pages, key=lambda o: o.mnemonic)
    pages = [layout.handler_pages[o] for o in ops]
    order = rng.permutation(len(pages))
    shuffled = {ops[i]: pages[int(order[i])] for i in range(len(ops))}
    return replace(layout, handler_pages=shuffled)


@dataclass(frozen=True)
class NoiseModel:
    """Measurement-noise parameters; all-zero means a perfectly clean trace."""

    latency_jitter_sigma: float = 60.0
    apic_quantum: int = 35
    ctx_switch_rate: float = 1953 / 10_000_000
    ctx_switch_extra_steps_mean: float = 2258.0
    multistep_prob: float = 10 / 2_810_963_156
    rng_seed: int = 0

    @classmethod
    def zero(cls, rng_seed: int = 0) -> "NoiseModel":
        return cls(0.0, 0, 0.0, 0.0, 0.0, rng_seed)


@dataclass(frozen=True, slots=True)
class StepEvent:
    page: int
    mode: str  # 'R' | 'W' | 'E'
    pf_count: int
    latency: int


@dataclass(eq=False)
class SideChannelTrace:
    """A single-step trace as four columns with one row per observed step.

    `page` holds int64 page numbers, `mode` the uint8 ASCII codes of R, W and
    E, `pf` int64 page-fault counts and `latency` int64 latencies.  `truth`
    holds one (row, label) pair per optable read of a synthesized trace; a
    trace read from a file has None.
    """

    page: np.ndarray
    mode: np.ndarray
    pf: np.ndarray
    latency: np.ndarray
    truth: tuple[tuple[int, str | None], ...] | None
    layout_seed: int | None

    def __post_init__(self):
        self.page = np.asarray(self.page, dtype=np.int64)
        self.mode = np.asarray(self.mode, dtype=np.uint8)
        self.pf = np.asarray(self.pf, dtype=np.int64)
        self.latency = np.asarray(self.latency, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.page)

    @classmethod
    def from_events(cls, events, truth=None, layout_seed=None) -> "SideChannelTrace":
        events = list(events)
        return cls(
            page=[ev.page for ev in events],
            mode=[ord(ev.mode) for ev in events],
            pf=[ev.pf_count for ev in events],
            latency=[ev.latency for ev in events],
            truth=truth,
            layout_seed=layout_seed,
        )

    @property
    def events(self) -> list[StepEvent]:
        """The rows as StepEvents, built on each access."""
        modes = self.mode.tobytes().decode("ascii")
        return list(map(StepEvent, self.page.tolist(), modes, self.pf.tolist(),
                        self.latency.tolist()))

    def take(self, rows) -> "SideChannelTrace":
        """The selected rows (a mask or a slice) as a new trace.

        Each truth pair moves with its row; a pair whose row is dropped or
        out of range is dropped.
        """
        truth = self.truth
        if truth is not None:
            n = len(self)
            kept = np.zeros(n, dtype=bool)
            kept[rows] = True
            row = np.cumsum(kept) - 1
            truth = tuple((int(row[i]), label) for i, label in truth if 0 <= i < n and kept[i])
        return SideChannelTrace(
            self.page[rows], self.mode[rows], self.pf[rows], self.latency[rows],
            truth, self.layout_seed,
        )


@dataclass(frozen=True)
class MitigationConfig:
    nop_insertion_prob: float = 0.0
    shuffle_handlers: bool = False
    variant_count: int = 1

    def __post_init__(self):
        if not 0.0 <= self.nop_insertion_prob <= 1.0:
            raise ValueError("nop_insertion_prob must be in [0, 1]")
        if self.variant_count < 1:
            raise ValueError("variant_count must be >= 1")


_NO_LABEL = object()  # events that are not truth boundaries

SpecMap = dict  # OpcodeId -> HandlerSpec | tuple[HandlerSpec, ...]


class _Synth:
    """One synthesis run; bundles rng state and page resolution."""

    def __init__(self, layout: MemoryLayout, noise: NoiseModel, profiling_markers: bool):
        self.layout = layout
        self.noise = noise
        self.markers = profiling_markers
        self.rng = np.random.default_rng(noise.rng_seed)
        # The trace's columns, one entry per event, and its truth pairs.
        self.page: list[int] = []
        self.mode: list[str] = []
        self.pf: list[int] = []
        self.latency: list[int] = []
        self.truth: list[tuple[int, str | None]] = []
        self.depth = 0  # replayed operand-stack depth
        self.linear_counter = 0
        self.bytecode_counter = 0
        # Foreign frames (co-tenant activity) live above every layout frame.
        self.foreign_base = max(layout.all_pages()) + 1

    # -- low-level emission --------------------------------------------------

    def jitter(self, base: float) -> int:
        noise = self.noise
        x = float(base)
        if noise.latency_jitter_sigma > 0:
            x += self.rng.normal(0.0, noise.latency_jitter_sigma)
        if noise.apic_quantum > 0:
            q = noise.apic_quantum
            return max(q, q * int(round(x / q)))
        return max(1, int(round(x)))

    def emit(self, page: int, mode: str, pf: int, base_latency: float, label=_NO_LABEL) -> None:
        if label is not _NO_LABEL:
            self.truth.append((len(self.page), label))
        self.page.append(page)
        self.mode.append(mode)
        self.pf.append(pf)
        self.latency.append(self.jitter(base_latency))

    def maybe_burst(self) -> None:
        rate = self.noise.ctx_switch_rate
        if rate > 0 and self.rng.random() < rate:
            self._emit_burst()

    def _emit_burst(self) -> None:
        """Co-tenant preemption: a run of foreign-page events.

        Modeled as mostly straight-line execution over a tiny working set
        with occasional data touches, so the burst rarely fakes the
        read-then-execute dispatch pattern.
        """
        rng = self.rng
        mean = max(self.noise.ctx_switch_extra_steps_mean, 1.0)
        length = int(rng.geometric(1.0 / mean))
        pool = rng.integers(0, 4096, size=6)
        code = [self.foreign_base + int(p) for p in pool[:3]]
        data = [self.foreign_base + 4096 + int(p) for p in pool[3:]]
        current = code[0]
        for _ in range(length):
            u = rng.random()
            if u < 0.04:
                current = code[int(rng.integers(0, len(code)))]
                self.emit(current, "E", 5, 5280)
            elif u < 0.10:
                self.emit(data[int(rng.integers(0, len(data)))], "R", 7, 5540)
            elif u < 0.16:
                self.emit(data[int(rng.integers(0, len(data)))], "W", 9, 5400)
            else:
                self.emit(current, "E", 5, 5280)

    # -- page resolution -----------------------------------------------------

    def data_page(self, step: NativeStep) -> int:
        layout = self.layout
        cls = step.target_class
        if cls is PageClass.OPTABLE:
            return layout.optable_page
        if cls is PageClass.STACK:
            if step.stack_role is StackRole.FRAME or len(layout.stack_pages) == 1:
                return layout.stack_pages[0]
            index = 1 + self.depth // _SLOTS_PER_PAGE
            return layout.stack_pages[min(index, len(layout.stack_pages) - 1)]
        if cls is PageClass.BYTECODE:
            index = (self.bytecode_counter // 4096) % len(layout.bytecode_pages)
            return layout.bytecode_pages[index]
        if cls is PageClass.LINEAR_MEM:
            page = layout.linear_mem_pages[self.linear_counter % len(layout.linear_mem_pages)]
            self.linear_counter += 1
            return page
        raise SynthesisError(f"unexpected data class {cls}")

    # -- structured emission ---------------------------------------------------

    def emit_body(self, spec: HandlerSpec, handler_page: int) -> None:
        for step in spec.body:
            self.maybe_burst()
            if step.kind in (StepKind.REG_OP, StepKind.EXEC_BRANCH):
                # In-handler branches land on the handler's own page.
                self.emit(handler_page, "E", step.pf_count, step.base_latency)
            elif step.kind is StepKind.LOAD:
                label = None if step.target_class is PageClass.OPTABLE else _NO_LABEL
                self.emit(self.data_page(step), "R", step.pf_count, step.base_latency, label)
            else:
                self.emit(self.data_page(step), "W", step.pf_count, step.base_latency)

    def emit_tail(self, tail: tuple[NativeStep, ...], dispatched: OpcodeId) -> None:
        """Dispatch of `dispatched`: bytecode fetch, optable read, branch."""
        fetch, lookup, branch = tail
        self.maybe_burst()
        self.emit(self.data_page(fetch), "R", fetch.pf_count, fetch.base_latency)
        self.bytecode_counter += 1
        if self.markers:
            self.maybe_burst()
            self.emit(self.layout.marker_page, "W", 9, 5400)
        self.maybe_burst()
        self.emit(
            self.layout.optable_page,
            "R",
            lookup.pf_count,
            lookup.base_latency,
            label=dispatched.mnemonic,
        )
        self.maybe_burst()
        target = self.layout.handler_pages[dispatched]
        self.emit(target, "E", branch.pf_count, branch.base_latency)


def _variants_of(specs: SpecMap, op: OpcodeId) -> tuple[HandlerSpec, ...]:
    entry = specs[op]
    if isinstance(entry, HandlerSpec):
        return (entry,)
    return tuple(entry)


def synthesize_trace(
    trace: OpcodeTrace,
    layout: MemoryLayout,
    specs: SpecMap,
    noise: NoiseModel,
    profiling_markers: bool = False,
) -> SideChannelTrace:
    """Expand retired opcodes into one trace row per native instruction, plus truth.

    Truth records one (event index, label) pair per optable read: the opcode
    it dispatches, or NULL (None) for the extra optable touches of handlers
    like call and memory.grow.
    """
    ops = trace.executed
    missing = {op.mnemonic for op in ops if op not in specs}
    if missing:
        raise SynthesisError(f"no handler spec for: {', '.join(sorted(missing))}")

    synth = _Synth(layout, noise, profiling_markers)
    if ops:
        first_variants = _variants_of(specs, ops[0])
        synth.emit_tail(first_variants[0].tail, dispatched=ops[0])
        for i, op in enumerate(ops):
            variants = _variants_of(specs, op)
            if len(variants) == 1:
                spec = variants[0]
            else:
                spec = variants[int(synth.rng.integers(0, len(variants)))]
            synth.emit_body(spec, layout.handler_pages[op])
            if i + 1 < len(ops):
                synth.emit_tail(spec.tail, dispatched=ops[i + 1])
            info = opcode_info(op)
            synth.depth = max(synth.depth - info.pops, 0) + info.pushes

    trace = SideChannelTrace(
        page=synth.page,
        mode=np.frombuffer("".join(synth.mode).encode("ascii"), dtype=np.uint8),
        pf=synth.pf,
        latency=synth.latency,
        truth=tuple(synth.truth),
        layout_seed=layout.seed,
    )
    if noise.multistep_prob > 0:
        trace = _merge_multisteps(synth.rng, noise.multistep_prob, trace)
    return trace


def _merge_multisteps(rng, prob: float, trace: SideChannelTrace) -> SideChannelTrace:
    """Occasionally two native steps retire under one observation.

    Walking the events in order, each event that has a successor draws one
    uniform number; below `prob`, the successor folds into it (fault counts
    and latencies add, the successor's truth label is lost) and the walk
    skips it.  Draw k is made at event k + (merges before it), so one bulk
    draw gives the same merges as drawing event by event.
    """
    n = len(trace)
    merged: list[int] = []
    for draw in np.flatnonzero(rng.random(max(n - 1, 0)) < prob).tolist():
        i = draw + len(merged)
        if i + 1 >= n:
            break
        merged.append(i)
    if not merged:
        return trace
    at = np.array(merged)
    keep = np.ones(n, dtype=bool)
    keep[at + 1] = False
    out = trace.take(keep)
    # Merges are at least two rows apart, so each earlier one removed one row before `at`.
    row = at - np.arange(len(at))
    out.pf[row] += trace.pf[at + 1]
    out.latency[row] += trace.latency[at + 1]
    return out
