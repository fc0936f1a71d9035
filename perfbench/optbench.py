"""The optrace pipeline composed from the library's public calls, timed from outside.

One benchmark run profiles a reference build (set-up), then pushes the
workload's victim traces through the same calls `optrace end2end` makes,
checks every trace, and cross-checks the first one against the `end2end`
command itself.  Every call into a layer of `optrace` runs inside
`Recorder.span`, so each layer is timed without changing the library.

Times are wall-clock (`time.perf_counter`).  On a shared 2-vCPU VM, process
CPU time tracked wall time within 2%, so it would not remove that noise.
Set-up is the median of `SETUP_REPS` repetitions of importing `optrace` in a
fresh interpreter plus building the DB.  Each workload runs a fixed number of
victim traces, so every figure of a run comes from the same inputs however
fast the code is; the measuring time only stops a run from starting another
trace.
"""

import hashlib
import io
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import optrace
from optrace import (
    bytecode, cli, handlers, machine, matcher, metrics, preprocess, profiler, traceio, workloads,
)

# Victim trace i of a run uses seed + i * SEED_STRIDE, so runs with nearby
# seeds share no victim program.
SEED_STRIDE = 1000
SETUP_REPS = 5
STEP_LIMIT = 10_000_000
# Segments longer than any profiled slice (the profiler's max_slice_len).
LONG_SEGMENT = 64
LOW_MARGIN = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    iterations: int
    traces: int  # victim traces per run, each with its own seed
    zero_noise: bool = False
    config_text: str = ""  # `key = value` lines, as `optrace --config FILE` reads them
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "noisy",
            55,
            3,
            why="default noise model: 98% of segment keys are distinct, so the matcher "
            "does about half the work and a key cache cannot help",
        ),
        Workload(
            "clean_10x",
            550,
            1,
            zero_noise=True,
            why="zero noise at 10x scale (829k events): per-event objects in read, "
            "synthesis and preprocessing dominate; few distinct keys make matching cheap",
        ),
        Workload(
            "bursty",
            55,
            1,
            config_text="noise.ctx_switch_rate = 0.001953\n",
            why="10x preemption-burst rate: most events are foreign, the filter keeps "
            "many, and the matcher scores segments of thousands of events",
        ),
    )
}


# ------------------------------------------------------------------ timing


@dataclass(slots=True)
class Span:
    name: str
    trace_id: str
    start: float
    end: float
    parent: int | None  # index into Recorder.spans


class Recorder:
    """Times calls into the library; when traced, also keeps one span per call.

    Spans stay in memory until the run ends.  Children inherit the trace id
    of their parent; a root span names its own.
    """

    def __init__(self, traced: bool):
        self.traced = traced
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, trace_id: str | None = None):
        parent = self._open[-1] if self._open else None
        if self.traced:
            if trace_id is None:
                trace_id = self.spans[parent].trace_id
            index = len(self.spans)
            self.spans.append(Span(name, trace_id, 0.0, 0.0, parent))
            self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.durations[name].append(end - start)
            if self.traced:
                self._open.pop()
                self.spans[index].start = start
                self.spans[index].end = end


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name not covered by the span's children."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    for span, child in zip(spans, covered):
        out[span.name] += span.end - span.start - child
    return dict(out)


def layer_of(span_name: str) -> str:
    """The optrace module a span times; roots and `bench.*` spans are glue."""
    layer, dot, _ = span_name.partition(".")
    return layer if dot and layer != "bench" else "bench"


# ---------------------------------------------------------------- pipeline


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Context:
    """Everything a run derives once from its workload."""

    workload: Workload
    work_dir: Path
    config_path: Path | None
    cfg: dict
    digest: str
    channels: frozenset

    @classmethod
    def create(cls, workload: Workload, work_dir: Path) -> "Context":
        work_dir.mkdir(parents=True, exist_ok=True)
        config_path = None
        if workload.config_text:
            config_path = work_dir / "bench.config"
            config_path.write_text(workload.config_text)
        cfg = traceio.load_config(config_path)
        channels = frozenset(
            matcher.Channel(name.strip()) for name in cfg["match.channels"].split(",")
        )
        return cls(workload, work_dir, config_path, cfg, traceio.config_hash(cfg), channels)

    def synthesize(self, run, seed: int, markers: bool):
        """`end2end`'s synthesis of an executed run, from the same config helpers."""
        layout = machine.build_layout(seed, cli._layout_from_config(self.cfg))
        specs = handlers.default_handler_specs()
        if not markers:
            mitigation = cli._mitigation_from_config(self.cfg)
            specs = handlers.apply_mitigation(specs, mitigation, seed)
            if mitigation.shuffle_handlers:
                layout = machine.shuffle_handler_pages(layout, seed)
        noise = cli._noise_from_config(self.cfg, seed + 1, zero=self.workload.zero_noise)
        trace = machine.synthesize_trace(run, layout, specs, noise, profiling_markers=markers)
        return layout, trace


# Run in a fresh interpreter, so that every set-up repetition pays the import
# a user pays once per process, with byte code already compiled.
_IMPORT_PROBE = """import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import optrace, optrace.traceio, optrace.workloads
print(time.perf_counter() - start)
"""


def time_import() -> float:
    """Seconds to import `optrace` in a fresh interpreter."""
    src = Path(optrace.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(src)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def _execute(module):
    run = bytecode.execute(module, step_limit=STEP_LIMIT)
    if run.step_limit_hit:
        raise bytecode.Trap(f"step limit {STEP_LIMIT} hit before program end")
    return run


@dataclass
class Setup:
    db: profiler.FingerprintDb
    db_sha256: str
    entries: int
    slices_dropped: int


def build_db(ctx: Context, rec: Recorder, seed: int, count: bool) -> Setup:
    """Profile the reference build into a fingerprint DB, as `end2end` does."""
    profile_seed = seed + cli.PROFILE_SEED_OFFSET
    text = workloads.reference_text()
    db_path = ctx.work_dir / "db.txt"
    with rec.span("setup", trace_id="setup"):
        with rec.span("bytecode.profile_parse"):
            module = bytecode.parse_flat_module(text)
        with rec.span("bytecode.profile_execute"):
            run = _execute(module)
        with rec.span("machine.profile_synthesize"):
            layout, ptrace = ctx.synthesize(run, profile_seed, markers=True)
        with rec.span("profiler.build_db"):
            db = profiler.build_fingerprint_db(
                ptrace,
                layout.marker_page,
                layout.optable_page,
                frozenset(layout.stack_pages),
                meta={"config_hash": ctx.digest, "profile_seed": str(profile_seed)},
            )
        with rec.span("traceio.db"):
            traceio.write_db(db_path, db)
            loaded = traceio.read_db(db_path)
    if len(loaded.entries) != len(db.entries):
        raise traceio.FormatError(
            f"read back {len(loaded.entries)} of {len(db.entries)} DB entries"
        )
    dropped = 0
    if count:
        slices = profiler.split_by_marker(
            ptrace, layout.marker_page, layout.optable_page, frozenset(layout.stack_pages)
        )
        dropped = sum(1 for _, seg in slices if len(seg) > LONG_SEGMENT)
    # Victims are matched against the in-memory DB, as `end2end` does: the
    # file rounds latencies, which moves scores in their last printed digit.
    return Setup(db, sha256(db_path.read_bytes()), len(db.entries), dropped)


@dataclass
class TraceResult:
    seed: int
    events: int
    pipeline_s: float
    attack_s: float
    recall: float
    recall_strict: float
    labels_sha256: str
    predictions_sha256: str
    report_lines: dict[str, str]
    counts: dict[str, float]
    failures: list[str] = field(default_factory=list)


def run_trace(ctx: Context, rec: Recorder, db, seed: int) -> TraceResult:
    """One victim trace from program text to scored labels, then its checks."""
    cfg = ctx.cfg
    trace_path = ctx.work_dir / "victim.csv"
    truth_path = ctx.work_dir / "truth.csv"
    pred_path = ctx.work_dir / "predictions.csv"
    # Program text is generated untimed: the library receives only inputs.
    text = workloads.benchmark_text(seed, ctx.workload.iterations)
    with rec.span("trace", trace_id=str(seed)):
        with rec.span("bytecode.parse"):
            module = bytecode.parse_flat_module(text)
        with rec.span("bench.pipeline"):
            with rec.span("bytecode.execute"):
                run = _execute(module)
            with rec.span("machine.synthesize"):
                layout, vtrace = ctx.synthesize(run, seed, markers=False)
            with rec.span("traceio.write_trace"):
                traceio.write_trace(trace_path, vtrace, config_hash=ctx.digest)
            with rec.span("traceio.truth_predictions"):
                traceio.write_truth(truth_path, vtrace, config_hash=ctx.digest)
            with rec.span("bench.attack"):
                with rec.span("traceio.read_trace"):
                    victim = traceio.read_trace(trace_path)
                with rec.span("preprocess.detect_optable"):
                    page, confidence = preprocess.detect_optable_page(victim)
                with rec.span("preprocess.detect_stack"):
                    stack = preprocess.detect_stack_pages(
                        victim,
                        page,
                        coverage_target=cfg["preprocess.coverage_target"],
                        min_rw_frac=cfg["preprocess.min_rw_frac"],
                    )
                with rec.span("preprocess.filter"):
                    filtered, removed = preprocess.filter_redundant(
                        victim, page, stack, window=cfg["preprocess.window"]
                    )
                with rec.span("preprocess.segment"):
                    segments = preprocess.segment_trace(filtered, page, stack)
                with rec.span("matcher.match"):
                    predictions = matcher.match_trace(segments, db, ctx.channels)
            with rec.span("traceio.truth_predictions"):
                traceio.write_predictions(
                    pred_path, predictions, config_hash=ctx.digest, layout_seed=victim.layout_seed
                )
            with rec.span("traceio.truth_predictions"):
                truth, _ = traceio.read_truth(truth_path)
            truth_labels = [label for _, label in truth]
            pred_labels = [p.label for p in predictions]
            with rec.span("metrics.classify"):
                report = metrics.classify_outcomes(truth_labels, pred_labels)

    # Everything below is untimed: checks, counts and digests.
    failures = []
    if len(predictions) != len(truth):
        failures.append(f"{len(predictions)} predictions vs {len(truth)} truth labels")
    if page != layout.optable_page:
        failures.append(f"dispatch table 0x{page:x} != layout 0x{layout.optable_page:x}")
    if ctx.workload.zero_noise and (report.wrong, report.missed, report.inserted) != (0, 0, 0):
        failures.append(f"zero-noise recall {report.recall:.3f}% is not exact")

    own_pages = layout.all_pages()
    foreign = sum(1 for ev in vtrace.events if ev.page not in own_pages)
    foreign_kept = sum(1 for ev in filtered.events if ev.page not in own_pages)
    keys = {(s.modes, s.classes, s.pf, s.latency) for s in segments}
    lengths = [len(s) for s in segments]
    strict = metrics.classify_outcomes(truth_labels, pred_labels, strict=True)
    return TraceResult(
        seed=seed,
        events=len(vtrace.events),
        pipeline_s=rec.durations["bench.pipeline"][-1],
        attack_s=rec.durations["bench.attack"][-1],
        recall=report.recall,
        recall_strict=strict.recall,
        labels_sha256=sha256(
            "\n".join("NULL" if label is None else label for label in pred_labels).encode()
        ),
        predictions_sha256=sha256(pred_path.read_bytes()),
        report_lines={
            "segments": f"segments: {len(segments)}",
            "dispatch_confidence": f"dispatch_confidence: {confidence:.6f}",
            "recall": f"recall: {report.recall:.3f}%",
            "counts": f"counts: n={report.n} correct={report.correct} wrong={report.wrong} "
            f"missed={report.missed} inserted={report.inserted}",
        },
        counts={
            "bytecode.retired": len(run.executed),
            "machine.events": len(vtrace.events),
            "machine.foreign_events": foreign,
            "traceio.trace_bytes": trace_path.stat().st_size,
            "preprocess.events_removed": removed,
            "preprocess.foreign_removed": foreign - foreign_kept,
            "preprocess.segments": len(segments),
            "preprocess.long_segments": sum(1 for n in lengths if n > LONG_SEGMENT),
            "preprocess.max_segment_len": max(lengths),
            "preprocess.optable_confidence": confidence,
            "matcher.distinct_keys": len(keys),
            "matcher.low_margin": sum(1 for p in predictions if p.margin < LOW_MARGIN),
        },
        failures=failures,
    )


def cross_check(ctx: Context, first: TraceResult, db_sha256: str) -> list[str]:
    """Run `optrace end2end` on the first seed and compare it with our result."""
    out_dir = ctx.work_dir / "end2end"
    argv = [
        "end2end",
        "--seed", str(first.seed),
        "--iterations", str(ctx.workload.iterations),
        "--out-dir", str(out_dir),
    ]
    if ctx.workload.zero_noise:
        argv.append("--zero-noise")
    if ctx.config_path is not None:
        argv += ["--config", str(ctx.config_path)]
    with redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    if status != 0:
        return [f"end2end exited {status}"]
    report = dict(
        line.split(": ", 1) for line in (out_dir / "report.txt").read_text().splitlines()
    )
    problems = [
        f"end2end {line!r} != {report.get(key)!r}"
        for key, line in first.report_lines.items()
        if line != f"{key}: {report.get(key)}"
    ]
    if sha256((out_dir / "db.txt").read_bytes()) != db_sha256:
        problems.append("end2end db.txt differs from the benchmark's DB")
    if sha256((out_dir / "predictions.csv").read_bytes()) != first.predictions_sha256:
        problems.append("end2end predictions.csv differs from the benchmark's")
    return problems


# --------------------------------------------------------------------- run


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    setup: Setup
    setup_reps: list[float]  # import plus DB build, per repetition
    traces: list[TraceResult]
    attempted: int
    errors: list[str]  # run-level check failures
    peak_rss_mb: float
    spans: list[Span]
    durations: dict[str, list[float]]
    overhead_s: float | None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    work_dir: Path,
) -> RunResult:
    """Set up, run the workload's victim traces, then run the untimed checks.

    No trace starts after `seconds`; at the sizes of WORKLOADS this cut is
    reached only by code much slower than today's.
    """
    ctx = Context.create(workload, work_dir)
    rec = Recorder(traced)
    errors: list[str] = []
    try:
        # A traced run only explains where time goes; set-up is measured
        # (as a median of several repetitions) by the untraced runs.
        setup_reps = []
        reps = []
        for rep in range(1 if traced else SETUP_REPS):
            import_s = 0.0 if traced else time_import()
            reps.append(build_db(ctx, rec, seed, count=(rep == 0)))
            setup_reps.append(import_s + rec.durations["setup"][-1])
        setup = reps[0]
        if any(rep.db_sha256 != setup.db_sha256 for rep in reps):
            errors.append("fingerprint DB differs between set-up repetitions")

        traces: list[TraceResult] = []
        attempted = 0
        start = time.perf_counter()
        while attempted < workload.traces and (
            attempted == 0 or time.perf_counter() - start < seconds
        ):
            trace_seed = seed + attempted * SEED_STRIDE
            attempted += 1
            try:
                traces.append(run_trace(ctx, rec, setup.db, trace_seed))
            except Exception:
                errors.append(f"trace seed {trace_seed} raised:\n{traceback.format_exc()}")
            if attempted == 1:
                # Peak after set-up and one trace, however many traces run.
                rss = peak_rss_mb()

        overhead_s = None
        first = traces[0] if traces and traces[0].seed == seed else None
        if first is not None:
            try:
                if traced:
                    # The same trace again, untraced, gives the tracing overhead.
                    again = run_trace(ctx, Recorder(traced=False), setup.db, seed)
                    overhead_s = first.pipeline_s - again.pipeline_s
                    if again.labels_sha256 != first.labels_sha256:
                        errors.append("same seed gave different predictions on a second pass")
                errors += cross_check(ctx, first, setup.db_sha256)
            except Exception:
                errors.append(f"check of seed {seed} raised:\n{traceback.format_exc()}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return RunResult(
        workload=workload.name,
        seed=seed,
        traced=traced,
        setup=setup,
        setup_reps=setup_reps,
        traces=traces,
        attempted=attempted,
        errors=errors,
        peak_rss_mb=rss,
        spans=rec.spans,
        durations=dict(rec.durations),
        overhead_s=overhead_s,
    )


# ----------------------------------------------------------------- metrics

# Name -> (unit, better).  BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pipeline_events_per_s": ("events/s", "higher"),
    "attack_events_per_s": ("events/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "recall_pct": ("%", "higher"),
    "recall_strict_pct": ("%", "higher"),
}

LAYERS = ("bytecode", "machine", "traceio", "preprocess", "profiler", "matcher", "metrics")

PER_LAYER_UNITS = {
    "bytecode.parse_s": "s",
    "bytecode.execute_s": "s",
    "bytecode.retired": "count",
    "machine.synthesize_s": "s",
    "machine.profile_synthesize_s": "s",
    "machine.events": "count",
    "machine.foreign_events": "count",
    "traceio.write_trace_s": "s",
    "traceio.read_trace_s": "s",
    "traceio.trace_bytes": "B",
    "traceio.truth_predictions_s": "s",
    "traceio.db_s": "s",
    "preprocess.detect_optable_s": "s",
    "preprocess.detect_stack_s": "s",
    "preprocess.filter_s": "s",
    "preprocess.segment_s": "s",
    "preprocess.events_removed": "count",
    "preprocess.foreign_removed_frac": "ratio",
    "preprocess.segments": "count",
    "preprocess.long_segments": "count",
    "preprocess.max_segment_len": "count",
    "preprocess.optable_confidence": "ratio",
    "profiler.build_db_s": "s",
    "profiler.entries": "count",
    "profiler.slices_dropped": "count",
    "matcher.match_s": "s",
    "matcher.segments_per_s": "1/s",
    "matcher.distinct_key_frac": "ratio",
    "matcher.low_margin_frac": "ratio",
    "metrics.classify_s": "s",
    **{f"self.{layer}_s": "s" for layer in LAYERS},
    "self.bench_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "failure_rate": "ratio",
}

# Per-layer timings summed over victim traces, by the span that times them.
_TRACE_TIMINGS = [
    "bytecode.parse", "bytecode.execute", "machine.synthesize", "traceio.write_trace",
    "traceio.read_trace", "traceio.truth_predictions", "preprocess.detect_optable",
    "preprocess.detect_stack", "preprocess.filter", "preprocess.segment", "matcher.match",
    "metrics.classify",
]
# Per-layer timings of set-up, as the median over set-up repetitions.
_SETUP_TIMINGS = ["machine.profile_synthesize", "profiler.build_db", "traceio.db"]
_SUMMED_COUNTS = [
    "bytecode.retired", "machine.events", "machine.foreign_events", "traceio.trace_bytes",
    "preprocess.events_removed", "preprocess.segments", "preprocess.long_segments",
]


def failed(result: RunResult) -> int:
    raised = result.attempted - len(result.traces)
    return raised + sum(1 for t in result.traces if t.failures)


def end_to_end(result: RunResult) -> dict[str, float]:
    traces = result.traces
    events = sum(t.events for t in traces)
    return {
        "setup_s": statistics.median(result.setup_reps),
        "pipeline_events_per_s": events / sum(t.pipeline_s for t in traces) if traces else 0.0,
        "attack_events_per_s": events / sum(t.attack_s for t in traces) if traces else 0.0,
        "peak_rss_mb": result.peak_rss_mb,
        "recall_pct": statistics.fmean(t.recall for t in traces) if traces else 0.0,
        "recall_strict_pct": statistics.fmean(t.recall_strict for t in traces) if traces else 0.0,
    }


def _ratio(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def per_layer(result: RunResult) -> dict[str, float]:
    durations = result.durations
    traces = result.traces
    out: dict[str, float] = {}
    for name in _TRACE_TIMINGS:
        out[f"{name}_s"] = sum(durations.get(name, ()))
    for name in _SETUP_TIMINGS:
        out[f"{name}_s"] = statistics.median(durations[name])

    def total(key):
        return sum(t.counts[key] for t in traces)

    for key in _SUMMED_COUNTS:
        out[key] = total(key)
    out["preprocess.max_segment_len"] = max(
        (t.counts["preprocess.max_segment_len"] for t in traces), default=0
    )
    out["preprocess.optable_confidence"] = (
        statistics.fmean(t.counts["preprocess.optable_confidence"] for t in traces)
        if traces
        else 0.0
    )
    # With no foreign events there is nothing left to remove.
    out["preprocess.foreign_removed_frac"] = _ratio(
        total("preprocess.foreign_removed"), total("machine.foreign_events"), 1.0
    )
    out["profiler.entries"] = result.setup.entries
    out["profiler.slices_dropped"] = result.setup.slices_dropped
    segments = total("preprocess.segments")
    out["matcher.segments_per_s"] = _ratio(segments, out["matcher.match_s"], 0.0)
    out["matcher.distinct_key_frac"] = _ratio(total("matcher.distinct_keys"), segments, 0.0)
    out["matcher.low_margin_frac"] = _ratio(total("matcher.low_margin"), segments, 0.0)

    by_layer = dict.fromkeys([*LAYERS, "bench"], 0.0)
    for name, seconds in self_times(result.spans).items():
        by_layer[layer_of(name)] += seconds
    for layer, seconds in by_layer.items():
        out[f"self.{layer}_s"] = seconds
    out["trace.overhead_s"] = result.overhead_s if result.overhead_s is not None else 0.0
    out["trace.spans"] = len(result.spans)
    out["failure_rate"] = failed(result) / result.attempted
    return out


def largest_self_time(spans: list[Span]) -> str:
    """The library call (not glue) with the most self time."""
    named = {n: s for n, s in self_times(spans).items() if layer_of(n) != "bench"}
    return max(named, key=named.get) if named else ""
