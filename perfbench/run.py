"""optrace benchmark: one workload per process, from program text to scored labels.

    python3 perfbench/run.py --workload noisy --seed 0 --seconds 10 --trace 0

Run from anywhere inside a checkout: the library is imported from the
checkout's `src/`.  With `--trace 0` the last line of standard output is a
JSON object whose metrics are the end-to-end metrics of BENCHMARK.json; with
`--trace 1` they are the per-layer metrics, taken from spans recorded around
every library call.  Each workload runs a fixed number of victim traces;
`--seconds` only stops a run from starting another.  Lines before it give every metric by name with its unit,
the seeds used and the digests of the DB and of each trace's predictions.
The run record (and, when traced, the spans) is written under `.perfbench/`.
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "optrace" / "__init__.py").is_file():
        print(f"error: no optrace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import optrace

    if not Path(optrace.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported optrace from {optrace.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import optbench

    if args.workload not in optbench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(optbench.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = optbench.WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    result = optbench.run(
        workload, args.seed, args.seconds, bool(args.trace), OUT / "work" / tag
    )

    # End-to-end metrics come from untraced runs only.
    if result.traced:
        reported = optbench.per_layer(result)
    else:
        reported = optbench.end_to_end(result)
    failed = optbench.failed(result)
    units = {name: unit for name, (unit, _) in optbench.END_TO_END.items()}
    units.update(optbench.PER_LAYER_UNITS)
    shown = {**reported, "failure_rate": failed / result.attempted}
    for name, value in shown.items():
        print(f"{name:34s} {value:>16.6f} {units[name]}")
    print(f"seeds: {' '.join(str(t.seed) for t in result.traces)}")
    print(f"setup_reps_s: {' '.join(f'{s:.3f}' for s in result.setup_reps)}")
    print(f"db_sha256: {result.setup.db_sha256}")
    for t in result.traces:
        print(f"labels_sha256 seed {t.seed}: {t.labels_sha256}")
        for failure in t.failures:
            print(f"FAILED seed {t.seed}: {failure}")
    for error in result.errors:
        print(f"FAILED: {error}")
    if result.traced:
        print(f"largest self time: {optbench.largest_self_time(result.spans)}")

    record = {
        "workload": asdict(workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "metrics": shown,
        "db_sha256": result.setup.db_sha256,
        "traces": [asdict(t) for t in result.traces],
        "errors": result.errors,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if result.traced:
        (OUT / f"{tag}-spans.json").write_text(
            json.dumps([asdict(s) for s in result.spans]) + "\n"
        )

    print(json.dumps({
        "correct": failed == 0 and not result.errors,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
