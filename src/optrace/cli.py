"""Command-line pipeline driver.

Subcommands mirror the attack phases: synth (victim trace), profile
(fingerprint DB), preprocess (structure report), attack (label recovery),
eval (recall), ablate (channel study), end2end (all of the above).

Exit codes: 0 success, 2 usage or configuration error, 3 malformed or
inconsistent data files, 4 pipeline failure (detection or matching).
"""

import argparse
import dataclasses
import sys
from contextlib import suppress
from pathlib import Path

import numpy as np

from .bytecode import ParseError, Trap, execute, parse_flat_module
from .handlers import apply_mitigation, default_handler_specs
from .machine import (
    LayoutConfig,
    MitigationConfig,
    NoiseModel,
    SynthesisError,
    build_layout,
    shuffle_handler_pages,
    synthesize_trace,
)
from .matcher import Channel, MatchError, match_trace
from .metrics import classify_outcomes
from .preprocess import DetectionError, SegmentationError, preprocess_trace
from .profiler import ProfilingError, build_fingerprint_db
from .traceio import (
    DEFAULT_CONFIG,
    ConfigError,
    FormatError,
    config_hash,
    config_record,
    decode_text,
    load_config,
    parse_channels,
    read_db,
    read_predictions,
    read_trace,
    read_truth,
    write_config,
    write_confusion,
    write_db,
    write_predictions,
    write_segments,
    write_trace,
    write_truth,
)
from .workloads import benchmark_module, primes_module, reference_module

# Profiling runs on the attacker's own instance, which maps pages
# independently of the victim; any fixed offset gives it a distinct layout.
PROFILE_SEED_OFFSET = 7919

_USAGE_ERRORS = (ConfigError,)
_DATA_ERRORS = (FormatError, ParseError, Trap)
_PIPELINE_ERRORS = (
    DetectionError,
    SegmentationError,
    ProfilingError,
    MatchError,
    SynthesisError,
)


class EvalError(ValueError):
    """Input files do not describe the same run, or their rows are out of order."""


def _noise_from_config(cfg, seed: int, zero: bool = False) -> NoiseModel:
    return NoiseModel.zero(rng_seed=seed) if zero else config_record(cfg, "noise", rng_seed=seed)


def _layout_from_config(cfg) -> LayoutConfig:
    return config_record(cfg, "layout")


def _mitigation_from_config(cfg) -> MitigationConfig:
    return config_record(cfg, "mitigation")


def _build_module(args):
    if getattr(args, "module", None):
        module_path = Path(args.module)
        if not module_path.is_file():
            raise ConfigError(f"module file not found: {module_path}")
        return parse_flat_module(decode_text(module_path.read_bytes()))
    if args.workload == "benchmark":
        return benchmark_module(args.seed, args.iterations)
    if args.workload == "reference":
        return reference_module()
    return primes_module()  # "primes", the last choice --workload allows


def _synthesize(cfg, seed, module, markers: bool, zero_noise: bool, step_limit: int):
    run = execute(module, step_limit=step_limit)
    if run.step_limit_hit:
        raise Trap(f"step limit {step_limit} hit before program end")
    layout = build_layout(seed, _layout_from_config(cfg))
    mitigation = _mitigation_from_config(cfg)
    specs = default_handler_specs()
    if not markers:
        # Deployed-interpreter hardening applies to the victim only; the
        # profiling replica is always the stock build.
        specs = apply_mitigation(specs, mitigation, seed)
        if mitigation.shuffle_handlers:
            layout = shuffle_handler_pages(layout, seed)
    noise = _noise_from_config(cfg, seed + 1, zero=zero_noise)
    trace = synthesize_trace(
        run, layout, specs, noise, profiling_markers=markers
    )
    return run, layout, trace


def _cmd_synth(args) -> int:
    cfg = load_config(args.config)
    run, layout, trace = _synthesize(
        cfg,
        args.seed,
        _build_module(args),
        args.markers,
        args.zero_noise,
        args.step_limit,
    )
    digest = config_hash(cfg)
    write_trace(args.out_trace, trace, config_hash=digest)
    write_truth(args.out_truth, trace, config_hash=digest)
    config_out = args.out_config or str(Path(args.out_trace).with_suffix(".config"))
    write_config(config_out, cfg)
    print(
        f"synth: {len(run.executed)} retired opcodes, {len(trace)} events, "
        f"layout seed {args.seed}"
    )
    print(f"synth: trace -> {args.out_trace}")
    print(f"synth: truth -> {args.out_truth}")
    print(f"synth: config -> {config_out}")
    return 0


def _profile_db(cfg, trace, layout, seed: int):
    """The fingerprint DB of a marker-instrumented trace, tagged with its config and seed."""
    return build_fingerprint_db(
        trace,
        layout.marker_page,
        layout.optable_page,
        frozenset(layout.stack_pages),
        meta={"config_hash": config_hash(cfg), "profile_seed": str(seed)},
    )


def _cmd_profile(args) -> int:
    cfg = load_config(args.config)
    if bool(args.trace) != bool(args.truth):
        raise ConfigError("--trace and --truth must be given together")
    if args.trace:
        # Replay a marker-instrumented run captured earlier with
        # `synth --markers`; the layout seed travels in the trace header.
        bare = read_trace(args.trace)
        trace = dataclasses.replace(bare, truth=_truth_of(bare, args.truth))
        layout = build_layout(bare.layout_seed, _layout_from_config(cfg))
        seed = bare.layout_seed
    else:
        module = reference_module(args.repeats)
        _, layout, trace = _synthesize(
            cfg, args.seed, module, True, args.zero_noise, args.step_limit
        )
        seed = args.seed
    db = _profile_db(cfg, trace, layout, seed)
    write_db(args.out, db)
    labels = db.labels() - {None}
    print(f"profile: {len(db.entries)} fingerprints covering {len(labels)} opcodes")
    print(f"profile: db -> {args.out}")
    return 0


def _preprocess(cfg, trace):
    return preprocess_trace(trace, config_record(cfg, "preprocess"))


def _attack(cfg, trace, db, channels, out):
    """Preprocess and match `trace`, and write its predictions to `out`."""
    report, _, segments = _preprocess(cfg, trace)
    predictions = match_trace(segments, db, channels)
    write_predictions(
        out, predictions, config_hash=config_hash(cfg), layout_seed=trace.layout_seed
    )
    return report, segments, predictions


def _cmd_attack(args) -> int:
    cfg = load_config(args.config)
    channels = parse_channels(args.channels or cfg["match.channels"])
    trace = read_trace(args.trace)
    db = read_db(args.db)
    report, _, predictions = _attack(cfg, trace, db, channels, args.out)
    print(
        f"attack: dispatch table page 0x{report.optable_page:x} "
        f"(confidence {report.optable_confidence:.4f}), "
        f"{len(report.stack_pages)} stack pages, "
        f"{report.events_removed} events filtered"
    )
    print(f"attack: {len(predictions)} segments labeled -> {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    cfg = load_config(args.config)
    trace = read_trace(args.trace)
    report, _, segments = _preprocess(cfg, trace)
    print(f"dispatch table page: 0x{report.optable_page:x}")
    print(f"confidence: {report.optable_confidence:.6f}")
    print(f"stack pages: {' '.join(f'0x{p:x}' for p in sorted(report.stack_pages))}")
    print(f"events removed: {report.events_removed}")
    print(f"segments: {len(segments)}")
    if args.out:
        write_segments(
            args.out,
            segments,
            config_hash=config_hash(cfg),
            layout_seed=trace.layout_seed,
        )
        print(f"segments -> {args.out}")
    return 0


def _check_same_run(kind: str, seed, truth_meta, force: bool | None = None) -> None:
    """The `kind` file's layout_seed `seed` must be the truth header's; `force`, eval's --force,
    skips the check."""
    theirs = truth_meta.get("layout_seed")
    if not force and (seed is None or str(seed) != theirs):
        hint = "" if force is None else "; pass --force to compare anyway"
        raise EvalError(f"layout_seed mismatch between {kind} ({seed}) and truth ({theirs}){hint}")


def _check_row_order(truth, predictions=None) -> None:
    """Labels are compared by position: segment ids must run 0..n-1 and boundaries increase."""
    ids = np.arange(0) if predictions is None else predictions.rows
    if (off := ids != np.arange(len(ids))).any():
        row = int(off.argmax())
        raise EvalError(f"predictions data row {row + 1}: segment_id {ids[row]}, expected {row}")
    rows = truth.rows
    if (down := np.diff(rows) <= 0).any():
        row = int(down.argmax()) + 1
        raise EvalError(
            f"truth data row {row + 1}: boundary_index {rows[row]} does not exceed {rows[row - 1]}"
        )


def _truth_of(trace, path):
    """The truth file at `path`, checked to come from the run of `trace`, to be in order and
    to label rows of `trace`."""
    truth, meta = read_truth(path)
    _check_same_run("trace", trace.layout_seed, meta)
    _check_row_order(truth)
    if (outside := (truth.rows < 0) | (truth.rows >= len(trace))).any():
        row = int(outside.argmax())
        raise EvalError(f"truth data row {row + 1}: boundary_index {truth.rows[row]} is outside "
                        f"the trace's {len(trace)} rows")
    return truth


def _evaluate(pred_labels, truth_labels, strict: bool):
    if len(pred_labels) != len(truth_labels):
        raise EvalError(
            f"{len(pred_labels)} predictions vs {len(truth_labels)} truth labels"
        )
    if not truth_labels:
        raise EvalError("no predictions and no truth labels to score")
    return classify_outcomes(truth_labels, pred_labels, strict=strict)


def _cmd_eval(args) -> int:
    predictions, pred_meta = read_predictions(args.predictions)
    truth, truth_meta = read_truth(args.truth)
    _check_same_run("predictions", pred_meta.get("layout_seed"), truth_meta, args.force)
    _check_row_order(truth, predictions)
    report = _evaluate(predictions.labels, truth.labels, args.strict)
    print(f"recall: {report.recall:.3f}%")
    if args.counts:
        print(
            f"counts: n={report.n} correct={report.correct} wrong={report.wrong} "
            f"missed={report.missed} inserted={report.inserted}"
        )
    if args.out_confusion:
        write_confusion(args.out_confusion, report.confusion)
        print(f"confusion -> {args.out_confusion}")
    return 0


# All channels, then each channel left out in turn, last channel first.
_ABLATION_SETS = [
    ",".join(c.value for c in Channel if c is not out) for out in (None, *reversed(Channel))
]


def _dedup_subsets(specs: list[str]) -> list[frozenset[Channel]]:
    subsets: list[frozenset[Channel]] = []
    for spec in specs:
        channels = parse_channels(spec)
        if channels in subsets:
            print(f"warning: duplicate channel subset {spec!r} skipped", file=sys.stderr)
            continue
        subsets.append(channels)
    return subsets


def _cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    trace = read_trace(args.trace)
    db = read_db(args.db)
    truth_labels = _truth_of(trace, args.truth).labels
    specs = args.subsets.split(";") if args.subsets else _ABLATION_SETS
    subsets = _dedup_subsets(specs)
    # Preprocessing ignores the channels: run it once for every subset.
    _, _, segments = _preprocess(cfg, trace)
    lines = ["channels,recall_percent,n,correct,wrong,missed,inserted"]
    for channels in subsets:
        predictions = match_trace(segments, db, channels)
        report = _evaluate(predictions.labels, truth_labels, args.strict)
        shown = "+".join(c.value for c in Channel if c in channels)
        lines.append(
            f"{shown},{report.recall:.3f},{report.n},{report.correct},"
            f"{report.wrong},{report.missed},{report.inserted}"
        )
    body = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(body)
        print(f"ablation table -> {args.out}")
    else:
        print(body, end="")
    return 0


def _cmd_end2end(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    digest = config_hash(cfg)
    write_config(out / "config.txt", cfg)

    profile_seed = args.seed + PROFILE_SEED_OFFSET
    module = reference_module(args.repeats)
    _, playout, ptrace = _synthesize(
        cfg, profile_seed, module, True, args.zero_noise, args.step_limit
    )
    db = _profile_db(cfg, ptrace, playout, profile_seed)
    write_db(out / "db.txt", db)

    run, _, vtrace = _synthesize(
        cfg, args.seed, _build_module(args), False, args.zero_noise, args.step_limit
    )
    write_trace(out / "victim.csv", vtrace, config_hash=digest)
    write_truth(out / "truth.csv", vtrace, config_hash=digest)

    channels = parse_channels(cfg["match.channels"])
    victim = read_trace(out / "victim.csv")
    report, segments, predictions = _attack(cfg, victim, db, channels, out / "predictions.csv")

    truth, _ = read_truth(out / "truth.csv")
    result = _evaluate(predictions.labels, truth.labels, args.strict)
    lines = [
        f"seed: {args.seed}",
        f"config_hash: {digest}",
        f"retired: {len(run.executed)}",
        f"segments: {len(segments)}",
        f"dispatch_confidence: {report.optable_confidence:.6f}",
        f"recall: {result.recall:.3f}%",
        f"counts: n={result.n} correct={result.correct} wrong={result.wrong} "
        f"missed={result.missed} inserted={result.inserted}",
    ]
    (out / "report.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


def _int_at_least(low: int, noun: str):
    """argparse type: an integer of at least `low`, named `noun` when refused."""
    def parse(text: str) -> int:
        with suppress(ValueError):
            if int(text) >= low:
                return int(text)
        raise argparse.ArgumentTypeError(f"expected a {noun} integer, got {text!r}")
    return parse


_positive_int, _seed = _int_at_least(1, "positive"), _int_at_least(0, "non-negative")


def build_parser() -> argparse.ArgumentParser:
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", metavar="FILE", help="key = value settings file")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed, default=0, help="master seed (default 0)")
    program = argparse.ArgumentParser(add_help=False)
    program.add_argument("--workload", default="benchmark",
                         choices=["benchmark", "reference", "primes"])
    program.add_argument("--module", metavar="FILE", help="flat module text to run instead")
    program.add_argument("--iterations", type=_positive_int, default=55)
    synthesis = argparse.ArgumentParser(add_help=False)
    synthesis.add_argument("--step-limit", type=_positive_int, default=10_000_000)
    synthesis.add_argument("--zero-noise", action="store_true")
    profiling = argparse.ArgumentParser(add_help=False)
    profiling.add_argument("--repeats", type=_positive_int, default=32)
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--strict", action="store_true",
                         help="exact mnemonics instead of opcode families")

    parser = argparse.ArgumentParser(
        prog="optrace",
        description="Interpreter instruction-recovery pipeline on page-access traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", parents=[config, seed, program, synthesis],
                           help="generate a victim trace")
    synth.add_argument("--markers", action="store_true",
                       help="instrumented profiling build (marker page writes)")
    synth.add_argument("--out-trace", default="victim.csv")
    synth.add_argument("--out-truth", default="truth.csv")
    synth.add_argument("--out-config", metavar="FILE",
                       help="resolved settings path (default: trace path, .config)")
    synth.set_defaults(func=_cmd_synth)

    profile = sub.add_parser("profile", parents=[config, seed, synthesis, profiling],
                             help="build a fingerprint database")
    profile.add_argument("--trace", metavar="FILE",
                         help="marker-instrumented trace CSV (default: synthesize)")
    profile.add_argument("--truth", metavar="FILE",
                         help="truth CSV matching --trace")
    profile.add_argument("--out", default="db.txt")
    profile.set_defaults(func=_cmd_profile)

    attack = sub.add_parser("attack", parents=[config],
                            help="recover opcode labels from a trace")
    attack.add_argument("--trace", required=True)
    attack.add_argument("--db", required=True)
    attack.add_argument("--channels", help=f"comma list: {DEFAULT_CONFIG['match.channels']}")
    attack.add_argument("--out", default="predictions.csv")
    attack.set_defaults(func=_cmd_attack)

    prep = sub.add_parser("preprocess", parents=[config],
                          help="report detected interpreter structure")
    prep.add_argument("--trace", required=True)
    prep.add_argument("--out", metavar="FILE",
                      help="write segmented trace CSV (segment_id column)")
    prep.set_defaults(func=_cmd_preprocess)

    ev = sub.add_parser("eval", parents=[scoring],
                        help="score predictions against truth")
    ev.add_argument("--predictions", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--counts", action="store_true", help="print error breakdown")
    ev.add_argument("--force", action="store_true",
                    help="skip the same-run header check")
    ev.add_argument("--out-confusion", metavar="FILE",
                    help="write confusion matrix CSV")
    ev.set_defaults(func=_cmd_eval)

    ablate = sub.add_parser("ablate", parents=[config, scoring],
                            help="recall per fingerprint-channel subset")
    ablate.add_argument("--trace", required=True)
    ablate.add_argument("--db", required=True)
    ablate.add_argument("--truth", required=True)
    ablate.add_argument("--subsets", metavar="LISTS",
                        help="semicolon-separated channel lists "
                             "(default: full plus each leave-one-out)")
    ablate.add_argument("--out", metavar="FILE", help="write table instead of stdout")
    ablate.set_defaults(func=_cmd_ablate)

    end2end = sub.add_parser(
        "end2end", parents=[config, seed, program, synthesis, profiling, scoring],
        help="profile, synthesize, attack, and evaluate",
    )
    end2end.add_argument("--out-dir", default="optrace-out")
    end2end.set_defaults(func=_cmd_end2end)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EvalError, *_DATA_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _PIPELINE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
