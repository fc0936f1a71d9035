"""Tests of the benchmark itself, on tiny programs.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import optbench  # noqa: E402
import run  # noqa: E402

TINY = 2


@pytest.fixture(autouse=True)
def _fast(monkeypatch, tmp_path):
    monkeypatch.setattr(optbench, "SETUP_REPS", 2)
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def _tiny(name, traces=1):
    return replace(optbench.WORKLOADS[name], iterations=TINY, traces=traces)


def _run_main(monkeypatch, capsys, workload, trace, seed=3):
    monkeypatch.setitem(optbench.WORKLOADS, workload, _tiny(workload))
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in optbench.WORKLOADS.values()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == optbench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == optbench.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(optbench.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, workload, trace):
    lines, result = _run_main(monkeypatch, capsys, workload, trace)
    expected = optbench.PER_LAYER_UNITS if trace else {
        name: unit for name, (unit, _) in optbench.END_TO_END.items()
    }
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    printed = {line.split()[0]: line.split()[-1] for line in lines if len(line.split()) == 3}
    for name, unit in {**expected, "failure_rate": "ratio"}.items():
        assert printed[name] == unit
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_wrong_label_fails_the_exact_recall_check(monkeypatch, tmp_path):
    real = optbench.matcher.match_trace

    def one_wrong(segments, db, channels):
        predictions = real(segments, db, channels)
        first = predictions[1]
        predictions[1] = replace(first, label="i32.mul" if first.label != "i32.mul" else "nop")
        return predictions

    monkeypatch.setattr(optbench.matcher, "match_trace", one_wrong)
    result = optbench.run(_tiny("clean_10x"), 0, 0, False, tmp_path / "work")
    assert result.attempted == 1
    assert optbench.failed(result) == 1
    assert "not exact" in result.traces[0].failures[0]
    assert optbench.per_layer(result)["failure_rate"] == 1.0


def test_raising_layer_counts_as_failed(monkeypatch, tmp_path):
    def broken(*args, **kwargs):
        raise optbench.preprocess.SegmentationError("injected")

    monkeypatch.setattr(optbench.preprocess, "segment_trace", broken)
    result = optbench.run(_tiny("noisy"), 0, 0, False, tmp_path / "work")
    assert (result.attempted, len(result.traces), optbench.failed(result)) == (1, 0, 1)
    assert "injected" in result.errors[0]


def test_traced_spans_nest(tmp_path):
    seed = 5
    result = optbench.run(_tiny("noisy"), seed, 0, True, tmp_path / "work")
    spans = result.spans
    roots = [s for s in spans if s.parent is None]
    assert [(s.name, s.trace_id) for s in roots] == [("setup", "setup"), ("trace", str(seed))]
    for span in spans:
        assert span.start <= span.end
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert span.trace_id == parent.trace_id
    # Siblings do not overlap, so self times add up to the roots.
    self_total = sum(optbench.self_times(spans).values())
    assert self_total == pytest.approx(sum(s.end - s.start for s in roots))
    layers = {optbench.layer_of(s.name) for s in spans}
    assert layers == {*optbench.LAYERS, "bench"}
    metrics = optbench.per_layer(result)
    assert metrics["trace.spans"] == len(spans)
    assert all(metrics[f"self.{layer}_s"] > 0 for layer in optbench.LAYERS)


def test_same_seed_gives_same_digests(tmp_path):
    a, b, c = (
        optbench.run(_tiny("bursty", traces=2), seed, 60, False, tmp_path / "work")
        for seed in (7, 7, 8)
    )
    assert a.setup.db_sha256 == b.setup.db_sha256
    assert [t.labels_sha256 for t in a.traces] == [t.labels_sha256 for t in b.traces]
    assert a.traces[0].labels_sha256 != c.traces[0].labels_sha256
    assert not a.errors and not b.errors and not c.errors


def test_trace_count_is_fixed_and_seconds_only_cap_it(tmp_path):
    workload = _tiny("noisy", traces=2)
    ample = optbench.run(workload, 4, 60, False, tmp_path / "work")
    assert [t.seed for t in ample.traces] == [4, 4 + optbench.SEED_STRIDE]
    capped = optbench.run(workload, 4, 0, False, tmp_path / "work")
    assert [t.seed for t in capped.traces] == [4]
    assert len(ample.setup_reps) == len(capped.setup_reps) == optbench.SETUP_REPS


def test_exits_nonzero_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "optbench.py"):
        shutil.copy(HERE / name, bench / name)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "noisy", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
