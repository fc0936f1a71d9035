"""Machine model: turns an opcode trace into a single-step side-channel trace.

Every retired native instruction of the interpreter becomes one trace row
(one StepEvent when read as events) carrying the page it touched, the
access mode (R/W/E), a page-fault count and a latency.  Instructions with
a data access report that access; pure register and branch instructions
report an execute fault on their code page.  Branch events are attributed
to the branch-target page, which is what makes the read-then-execute
dispatch pattern visible downstream.

Per handler the emission order is: body steps, then the shared dispatch tail
(bytecode read, marker write when profiling, optable read, dispatch branch).
Handler specs hold only their bodies; the tail is the machine's `_TAIL`.
The optable read of a tail fetches the *next* opcode, so truth labels attach
there.  A dispatch prologue is emitted before the first opcode and the final
handler stops before its tail (the interpreter exits instead of dispatching).
Body, tail and burst rows alike take their mode, pf and base latency from
one step table, `STEPS`.
"""

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .bytecode import OpcodeTrace
from .opcodes import OPCODES, OpcodeId, all_opcodes

__all__ = [
    "MemoryLayout",
    "LayoutConfig",
    "HandlerSpec",
    "NoiseModel",
    "StepEvent",
    "Labels",
    "SideChannelTrace",
    "MitigationConfig",
    "SynthesisError",
    "build_layout",
    "shuffle_handler_pages",
    "step",
    "STEPS",
    "synthesize_trace",
]

PAGE_SIZE = 4096

# Operand-stack slots per page; depth beyond this spills to the next page.
_SLOTS_PER_PAGE = 512

# Burst pages lie in the _BURST_REACH pages above a layout's highest frame:
# code pages in the lower half, data pages in the upper half.
_BURST_REACH = 8192
# The largest span whose pages, burst pages included, have int64 byte addresses.
MAX_SPAN = 2**63 // PAGE_SIZE - _BURST_REACH
# Bound on the timer jitter sigma and the APIC quantum, in cycles (see NoiseModel).
MAX_TIMER_CYCLES = 2**32
# Bound on each region's page count (see LayoutConfig).
MAX_REGION_PAGES = 2**16
# Bound on the handler variants per opcode (see MitigationConfig).
MAX_VARIANTS = 1000


class SynthesisError(ValueError):
    """Inconsistent synthesis inputs (e.g. opcode without a handler spec)."""


# Page sources of template rows: own handler, next handler, optable (an extra
# read, labeled NULL), labeled dispatch read, marker, frame, operand page at
# the current depth, bytecode page at the dispatch count, linear memory in turn.
OWN, NEXT, OPTABLE, DISPATCH, MARKER, FRAME, OPERAND, BYTECODE, LINEAR = range(9)
# Access modes, as the ASCII codes of the mode column.
READ, WRITE, EXEC = b"RWE"
_BODY_SOURCES = (OWN, OPTABLE, FRAME, OPERAND, BYTECODE, LINEAR)

# The calibration of every native step, by kind: (mode, pf, base latency).
STEPS = {"reg": (EXEC, 5, 5280), "branch": (EXEC, 5, 5309),
         "load": (READ, 7, 5540), "store": (WRITE, 9, 5400)}


def step(kind: str, source: int, dlat: int = 0) -> tuple[int, int, int, int]:
    """The template row (page source, mode, pf, base latency) of a `kind` step on
    `source`'s page, `dlat` cycles slower than its base.  A read of the bytecode,
    the optable or the dispatch source takes one more fault than other reads."""
    mode, pf, latency = STEPS[kind]
    if mode == READ and source in (BYTECODE, OPTABLE, DISPATCH):
        pf += 1
    return source, mode, pf, latency + dlat


# The dispatch tail that follows every handler body: bytecode fetch, marker
# write (when profiling), labeled optable read of the next opcode, branch to
# its handler.
_TAIL = (step("load", BYTECODE), step("store", MARKER), step("load", DISPATCH),
         step("branch", NEXT))


@dataclass(frozen=True)
class HandlerSpec:
    """One opcode's interpreter handler body, ahead of the dispatch tail, as template rows:
    (page source, mode, pf, base latency), one per native instruction."""

    opcode: OpcodeId
    body: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        op = self.opcode
        for source, mode, pf, latency in self.body:
            if source not in _BODY_SOURCES:
                raise ValueError(f"{op.mnemonic}: page source {source} is not a body source"
                                 " (the next handler, dispatch read and marker are the tail's)")
            if mode not in (READ, WRITE, EXEC) or (mode == EXEC) != (source == OWN):
                raise ValueError(f"{op.mnemonic}: execute steps, and only they, run on the"
                                 " handler's own page")
            if latency <= 0:
                raise ValueError(f"{op.mnemonic}: base latency must be positive")
            if pf < 1:
                raise ValueError(f"{op.mnemonic}: pf must be >= 1")
        operand = [mode for source, mode, *_ in self.body if source == OPERAND]
        if operand.count(READ) > op.pops or operand.count(WRITE) > op.pushes:
            raise ValueError(f"{op.mnemonic}: operand-stack accesses exceed pop/push arity")


@dataclass(frozen=True)
class LayoutConfig:
    """Page counts of the stack, bytecode and linear-memory regions, and the span
    their frames are drawn from.

    `build_layout` draws every frame, so a page count is bounded by
    MAX_REGION_PAGES, 65,536 pages (256 MiB), and not only by the span: a
    million pages take most of a second and over 100 MB to draw.  The bound is
    16 times the most linear memory a program can grow to (256 Wasm pages).
    """

    stack_pages: int = 2
    bytecode_pages: int = 2
    linear_pages: int = 2
    span: int = 1 << 20  # page-frame numbers are drawn from [0, span)

    def __post_init__(self):
        for name in ("stack_pages", "bytecode_pages", "linear_pages"):
            if not 1 <= getattr(self, name) <= MAX_REGION_PAGES:
                raise ValueError(f"{name} must be in [1, {MAX_REGION_PAGES}]")
        if self.span > MAX_SPAN:
            raise ValueError(f"span must be <= {MAX_SPAN}")
        if self.frames > self.span:
            raise ValueError(f"layout needs {self.frames} frames but span is {self.span}")

    @property
    def frames(self) -> int:
        """Distinct frames a layout takes: optable, marker, regions and handlers."""
        return 2 + len(OPCODES) + self.stack_pages + self.bytecode_pages + self.linear_pages


@dataclass(frozen=True)
class MemoryLayout:
    optable_page: int
    handler_pages: dict[OpcodeId, int]
    stack_pages: tuple[int, ...]
    bytecode_pages: tuple[int, ...]
    marker_page: int
    linear_mem_pages: tuple[int, ...]
    seed: int

    def all_pages(self) -> frozenset[int]:
        return frozenset([
            self.optable_page, self.marker_page, *self.handler_pages.values(),
            *self.stack_pages, *self.bytecode_pages, *self.linear_mem_pages,
        ])


def build_layout(seed: int, config: LayoutConfig | None = None) -> MemoryLayout:
    """Deterministically place every interpreter region on distinct frames."""
    config = config or LayoutConfig()
    rng = np.random.default_rng(seed)
    frames = iter(rng.choice(config.span, size=config.frames, replace=False).tolist())
    optable, marker = next(frames), next(frames)
    stacks, bytecodes, linears = (
        tuple(next(frames) for _ in range(count))
        for count in (config.stack_pages, config.bytecode_pages, config.linear_pages)
    )
    handlers = {op: next(frames) for op in all_opcodes()}
    return MemoryLayout(
        optable_page=optable,
        handler_pages=handlers,
        stack_pages=stacks,
        bytecode_pages=bytecodes,
        marker_page=marker,
        linear_mem_pages=linears,
        seed=seed,
    )


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
    """Measurement-noise parameters; all-zero means a perfectly clean trace.

    A burst follows an interpreter row with probability `ctx_switch_rate`
    and runs `max(ctx_switch_extra_steps_mean, 1)` rows on average, so their
    product is the expected number of burst rows per interpreter row.  The
    trace and the memory synthesis needs grow with it, so a product above 16,
    where a trace is almost all bursts, is rejected.  The default gives 0.44
    and the `bursty` benchmark 4.4.

    `latency_jitter_sigma` and `apic_quantum` lie in [0, MAX_TIMER_CYCLES],
    2**32 cycles (over a second at 4 GHz), so that every jittered and
    rounded latency fits in int64.
    """

    latency_jitter_sigma: float = 60.0
    apic_quantum: int = 35
    ctx_switch_rate: float = 1953 / 10_000_000
    ctx_switch_extra_steps_mean: float = 2258.0
    multistep_prob: float = 10 / 2_810_963_156
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("ctx_switch_rate", "multistep_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        for name in ("latency_jitter_sigma", "apic_quantum"):
            if not 0 <= getattr(self, name) <= MAX_TIMER_CYCLES:
                raise ValueError(f"{name} must be in [0, {MAX_TIMER_CYCLES}]")
        if not self.ctx_switch_extra_steps_mean >= 0:
            raise ValueError("ctx_switch_extra_steps_mean must be >= 0")
        if self.ctx_switch_rate * max(self.ctx_switch_extra_steps_mean, 1.0) > 16:
            raise ValueError(
                "ctx_switch_rate * ctx_switch_extra_steps_mean must be <= 16"
                " burst rows per interpreter row"
            )

    @classmethod
    def zero(cls, rng_seed: int = 0) -> "NoiseModel":
        return cls(0.0, 0, 0.0, 0.0, 0.0, rng_seed)


@dataclass(frozen=True, slots=True)
class StepEvent:
    page: int
    mode: str  # 'R' | 'W' | 'E'
    pf_count: int
    latency: int


class Labels(Sequence):
    """A label stream as int64 columns: label i sits at row rows[i] and is table[codes[i]],
    None standing for NULL.  Items are (row, label) pairs; a slice, mask or index array gives
    the stream of the selected labels, sharing the table."""

    def __init__(self, rows, codes, table: list):
        self.rows, self.codes, self.table = rows, codes, table

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return next(iter(self._take([i])))
        return self._take(i)

    def __iter__(self):
        return zip(self.rows.tolist(), self.labels)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)

    @property
    def labels(self) -> list:
        """The label of every row, in order."""
        return np.array(self.table, dtype=object)[self.codes].tolist()

    def _take(self, i) -> "Labels":
        return Labels(self.rows[i], self.codes[i], self.table)


@dataclass(eq=False)
class SideChannelTrace:
    """A single-step trace as four columns with one row per observed step.

    `page` holds int64 page numbers, `mode` the uint8 ASCII codes of R, W and
    E, `pf` int64 page-fault counts and `latency` int64 latencies.  `truth`
    labels the row of each optable read of a synthesized trace; a trace read
    from a file has None.
    """

    page: np.ndarray
    mode: np.ndarray
    pf: np.ndarray
    latency: np.ndarray
    truth: Labels | None
    layout_seed: int | None

    def __post_init__(self):
        self.page = np.asarray(self.page, dtype=np.int64)
        self.mode = np.asarray(self.mode, dtype=np.uint8)
        self.pf = np.asarray(self.pf, dtype=np.int64)
        self.latency = np.asarray(self.latency, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.page)

    @property
    def events(self) -> list[StepEvent]:
        """The rows as StepEvents, built on each access."""
        modes = self.mode.tobytes().decode("ascii")
        return list(map(StepEvent, self.page.tolist(), modes, self.pf.tolist(),
                        self.latency.tolist()))

    def take(self, rows) -> "SideChannelTrace":
        """The selected rows (a mask or a slice) as a new trace.

        Each truth label moves with its row; a label whose row is dropped or
        out of range is dropped.
        """
        truth = self.truth
        if truth is not None:
            kept = np.zeros(len(self) + 1, dtype=bool)  # the last row stands for out of range
            kept[:-1][rows] = True
            truth = truth[kept[np.clip(truth.rows, -1, len(self))]]
            truth = Labels(np.cumsum(kept)[truth.rows] - 1, truth.codes, truth.table)
        return SideChannelTrace(
            self.page[rows], self.mode[rows], self.pf[rows], self.latency[rows],
            truth, self.layout_seed,
        )


@dataclass(frozen=True)
class MitigationConfig:
    """Hardened-build options (see handlers.apply_mitigation).

    `variant_count` is at most MAX_VARIANTS, 1,000: every variant is a handler
    spec per opcode and a template per opcode a run retires, so time and memory
    grow linearly with it.  Synthesizing the `primes` workload takes about
    1 s and 70 MB with 1,000 variants, and 19 s and 490 MB with 10,000.
    """

    nop_insertion_prob: float = 0.0
    shuffle_handlers: bool = False
    variant_count: int = 1

    def __post_init__(self):
        if not 0.0 <= self.nop_insertion_prob <= 1.0:
            raise ValueError("nop_insertion_prob must be in [0, 1]")
        if not 1 <= self.variant_count <= MAX_VARIANTS:
            raise ValueError(f"variant_count must be in [1, {MAX_VARIANTS}]")


# A burst row jumps to one of its burst's three code pages, reads or writes
# one of its three data pages, or steps on its current code page: a uniform
# draw below each cut picks that kind, whose step gives its mode, pf and base latency.
_BURST_CUTS = (0.04, 0.10, 0.16)
_BURST_ROWS = np.array([STEPS[kind] for kind in ("reg", "load", "store", "reg")], np.int16)


def _interpreter_rows(rng, layout, distinct, variants, opi, markers):
    """Page, mode, pf and base latency columns of the interpreter's rows, and
    the rows of its optable reads with their label codes: code i for opcode
    distinct[i], len(distinct) for NULL.

    Each retired opcode runs a variant drawn uniformly from its `variants`.
    A template is a variant's body, then the dispatch tail.  Unit 0 is the
    prologue, the tail alone; unit u > 0 runs retired opcode u - 1, and the
    last unit stops before its tail.  Each unit is a run of template-table
    rows, gathered all at once.
    """
    tail = _TAIL if markers else tuple(row for row in _TAIL if row[0] != MARKER)
    flat = [spec.body + tail for specs in variants for spec in specs]
    t_len = np.array([len(rows) for rows in flat])
    t_start = np.cumsum(t_len) - t_len
    sizes = np.array([len(specs) for specs in variants])
    count = sizes[opi]
    pick = rng.integers(0, count) if (count > 1).any() else np.zeros_like(count)
    tmpl = (np.cumsum(sizes) - sizes)[opi] + pick
    src_t, mode_t, pf_t, lat_t = np.array([row for rows in flat for row in rows]).T
    start = np.concatenate(([t_len[0] - len(tail)], t_start[tmpl]))
    length = np.concatenate(([len(tail)], t_len[tmpl]))
    length[-1] -= len(tail)
    idx = np.repeat((start - np.cumsum(length) + length).astype(np.int32), length)
    idx += np.arange(len(idx), dtype=np.int32)
    src, mode = src_t.astype(np.uint8)[idx], mode_t.astype(np.uint8)[idx]
    pf, latency = pf_t[idx], lat_t[idx]
    del idx
    units = np.arange(len(length), dtype=np.int32)
    unit = np.repeat(units, length)

    # Each opcode sets depth = max(depth - pops, 0) + pushes.  Its first term
    # is a running sum of pushes[i-1] - pops[i] clamped at 0, which is the
    # running sum less its running minimum (where that is below 0).
    pops, pushes = (np.array([getattr(op, k) for op in distinct])[opi] for k in ("pops", "pushes"))
    total = np.cumsum(np.concatenate(([0], pushes[:-1])) - pops)
    after = total - np.minimum(np.minimum.accumulate(total), 0) + pushes
    depth = np.concatenate(([0, 0], after[:-1]))  # as each unit starts
    handler = np.array([layout.handler_pages[op] for op in distinct])[opi]
    unit_page = np.zeros((9, len(units)), dtype=np.int64)
    unit_page[OWN, 1:] = unit_page[NEXT, :-1] = handler
    unit_page[[OPTABLE, DISPATCH]] = layout.optable_page
    unit_page[MARKER] = layout.marker_page
    unit_page[FRAME] = layout.stack_pages[0]
    unit_page[OPERAND] = np.take(layout.stack_pages, 1 + depth // _SLOTS_PER_PAGE, mode="clip")
    # Unit u fetches after u dispatches, 4096 per bytecode page.
    unit_page[BYTECODE] = np.take(layout.bytecode_pages, units // 4096, mode="wrap")
    page = unit_page[src, unit]
    rows = src == LINEAR
    page[rows] = np.take(layout.linear_mem_pages, np.arange(np.count_nonzero(rows)), mode="wrap")

    # Unit u dispatches retired opcode u; extra optable reads are NULL.
    labeled = np.flatnonzero((src == DISPATCH) | (src == OPTABLE) & (mode == READ))
    null = len(distinct)
    code = np.where(src[labeled] == DISPATCH, np.append(opi, null)[unit[labeled]], null)
    return page, mode, pf, latency, labeled, code


def _bursts(rng, count: int, noise: NoiseModel, layout: MemoryLayout):
    """Co-tenant preemption: the lengths of `count` bursts of foreign-page
    rows, and the page, mode, pf and base latency columns of their rows.

    Modeled as mostly straight-line execution over a tiny working set with
    occasional data touches, so a burst rarely fakes the read-then-execute
    dispatch pattern.  A burst starts on its first code page.
    """
    lengths = rng.geometric(1.0 / max(noise.ctx_switch_extra_steps_mean, 1.0), size=count)
    # Three code, then three data pages, above every frame of the layout.
    half = _BURST_REACH // 2
    pools = max(layout.all_pages()) + 1 + rng.integers(0, half, size=(count, 6))
    pools[:, 3:] += half
    kind = np.searchsorted(_BURST_CUTS, rng.random(lengths.sum()), side="right").astype(np.uint8)
    pick = rng.integers(0, 3, size=len(kind), dtype=np.uint8)
    # A step runs on the code page of its burst's last jump, or on its first.
    jump = kind == 0
    anchor = jump.copy()
    anchor[np.cumsum(lengths) - lengths] = True
    last = np.maximum.accumulate(np.where(anchor, np.arange(len(kind), dtype=np.int32), 0))
    # A jump picks a code page (column 0-2), a read or write a data page (3-5).
    column = np.where(kind == 3, np.where(jump, pick, 0)[last], pick + np.uint8(3) * (kind > 0))
    page = pools[np.repeat(np.arange(count, dtype=np.int32), lengths), column]
    return lengths, page, *_BURST_ROWS[kind].T


def synthesize_trace(
    trace: OpcodeTrace,
    layout: MemoryLayout,
    specs: dict,
    noise: NoiseModel,
    profiling_markers: bool = False,
) -> SideChannelTrace:
    """Expand retired opcodes into one trace row per native instruction, plus truth.

    `specs` maps each opcode to its HandlerSpec or to a tuple of equivalent
    variants.  Truth labels the row of each optable read with the opcode
    it dispatches, or NULL (None) for the extra optable touches of
    handlers like call and memory.grow.

    Noise comes from one generator seeded with `noise.rng_seed`, drawn in
    bulk in this order; a zero-noise model draws nothing.  One `integers`
    call picks every opcode's variant, if some opcode has more than one.
    One `random` call over the interpreter's rows (marker writes included)
    puts a burst before each row that draws below `ctx_switch_rate`.  One
    call each draws the burst lengths, page pools, row kinds and page
    picks.  One `normal` call jitters every row.  The multistep merges
    draw last.
    """
    ops = trace.executed
    _, first, opi = np.unique([op.code for op in ops], return_index=True, return_inverse=True)
    distinct = [ops[i] for i in first.tolist()]
    missing = sorted(op.mnemonic for op in distinct if op not in specs)
    if missing:
        raise SynthesisError(f"no handler spec for: {', '.join(missing)}")
    if not ops:
        return SideChannelTrace([], [], [], [], Labels(*np.empty((2, 0), int), []), layout.seed)

    rng = np.random.default_rng(noise.rng_seed)
    variants = [(s,) if isinstance(s := specs[op], HandlerSpec) else tuple(s) for op in distinct]
    page, mode, pf, latency, labeled, codes = _interpreter_rows(
        rng, layout, distinct, variants, opi, profiling_markers
    )

    if noise.ctx_switch_rate > 0:
        at = np.flatnonzero(rng.random(len(page)) < noise.ctx_switch_rate)
        lengths, *burst = _bursts(rng, len(at), noise, layout)
        # A burst goes before the row that drew it: shift each row past them.
        shift = np.zeros(len(page), dtype=np.int64)
        shift[at] = lengths
        row = np.arange(len(page)) + np.cumsum(shift, out=shift)
        foreign = np.ones(len(page) + len(burst[0]), dtype=bool)
        foreign[row] = False
        ours = page, mode, pf, latency
        page, mode, pf, latency = (np.empty(len(foreign), dtype=c.dtype) for c in ours)
        for column, interpreter, bursts in zip((page, mode, pf, latency), ours, burst):
            column[row], column[foreign] = interpreter, bursts
        del ours, burst
        labeled = row[labeled]
    sigma, step = noise.latency_jitter_sigma, max(noise.apic_quantum, 1)
    if sigma > 0 or noise.apic_quantum > 0:
        # Gaussian timer jitter, then rounding to the APIC quantum (or to 1).
        x = rng.normal(0.0, sigma, size=len(latency)) if sigma > 0 else np.zeros(len(latency))
        x += latency
        np.rint(x / step, out=x)
        latency[:] = np.maximum(x * step, step)

    table = [op.mnemonic for op in distinct] + [None]
    out = SideChannelTrace(page, mode, pf, latency, Labels(labeled, codes, table), layout.seed)
    if noise.multistep_prob > 0:
        out = _merge_multisteps(rng, noise.multistep_prob, out)
    return out


def _merge_multisteps(rng, prob: float, trace: SideChannelTrace) -> SideChannelTrace:
    """Occasionally two native steps retire under one observation.

    Walking the events in order, each event that has a successor draws one
    uniform number; below `prob`, the successor folds into it (fault counts
    and latencies add, the successor's truth label is lost) and the walk
    skips it.  Draw k is made at event k + (merges before it), so one bulk
    draw gives the same merges as drawing event by event.
    """
    n = len(trace)
    draws = np.flatnonzero(rng.random(max(n - 1, 0)) < prob)
    at = draws + np.arange(len(draws))
    at = at[at + 1 < n]
    if not len(at):
        return trace
    keep = np.ones(n, dtype=bool)
    keep[at + 1] = False
    out = trace.take(keep)
    # Merges are at least two rows apart, so each earlier one removed one row before `at`.
    row = at - np.arange(len(at))
    out.pf[row] += trace.pf[at + 1]
    out.latency[row] += trace.latency[at + 1]
    return out
