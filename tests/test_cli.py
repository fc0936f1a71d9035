"""Command-line driver: pipeline wiring, artifacts, and exit codes."""

from types import SimpleNamespace

import pytest

from optrace import cli
from optrace.cli import main
from optrace.machine import LayoutConfig, MitigationConfig, NoiseModel
from optrace.matcher import Channel
from optrace.traceio import load_config, read_db, trace_meta

from support import run_optrace


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One zero-noise primes run pushed through synth -> profile -> attack."""
    d = tmp_path_factory.mktemp("cli")
    paths = SimpleNamespace(
        dir=d,
        trace=d / "victim.csv",
        truth=d / "truth.csv",
        config=d / "victim.config",
        db=d / "db.txt",
        preds=d / "predictions.csv",
    )
    assert run(
        "synth", "--workload", "primes", "--zero-noise", "--seed", 3,
        "--out-trace", paths.trace, "--out-truth", paths.truth,
    ) == 0
    assert run(
        "profile", "--zero-noise", "--seed", 11, "--repeats", 4,
        "--out", paths.db,
    ) == 0
    assert run(
        "attack", "--trace", paths.trace, "--db", paths.db, "--out", paths.preds,
    ) == 0
    return paths


# ------------------------------------------------------------------ synth


def test_synth_writes_all_artifacts(pipeline):
    assert pipeline.trace.is_file()
    assert pipeline.truth.is_file()
    # Config lands next to the trace unless --out-config overrides it.
    assert pipeline.config.is_file()
    meta = trace_meta(pipeline.trace)
    assert meta["format"] == "optrace trace v1"
    assert meta["layout_seed"] == "3"
    assert "config_hash" in meta


def test_synth_is_deterministic(tmp_path, pipeline):
    again = tmp_path / "again.csv"
    assert run(
        "synth", "--workload", "primes", "--zero-noise", "--seed", 3,
        "--out-trace", again, "--out-truth", tmp_path / "again.truth",
    ) == 0
    assert again.read_bytes() == pipeline.trace.read_bytes()


def test_synth_honors_out_config(tmp_path):
    cfg_path = tmp_path / "custom.cfg"
    assert run(
        "synth", "--workload", "primes", "--zero-noise",
        "--out-trace", tmp_path / "t.csv", "--out-truth", tmp_path / "t.truth",
        "--out-config", cfg_path,
    ) == 0
    assert "match.channels" in cfg_path.read_text()


def test_synth_runs_user_modules(tmp_path, capsys):
    module = tmp_path / "tiny.ot"
    module.write_text("i32.const 1\ni32.const 2\ni32.add\ndrop\nreturn\n")
    assert run(
        "synth", "--module", module, "--zero-noise",
        "--out-trace", tmp_path / "t.csv", "--out-truth", tmp_path / "t.truth",
    ) == 0
    assert "5 retired opcodes" in capsys.readouterr().out


# ---------------------------------------------------------------- profile


def test_profile_reports_coverage(pipeline, capsys):
    assert run("profile", "--zero-noise", "--repeats", 2,
               "--out", pipeline.dir / "db2.txt") == 0
    out = capsys.readouterr().out
    assert "fingerprints covering 58 opcodes" in out


def test_profile_from_recorded_files(tmp_path):
    trace = tmp_path / "prof.csv"
    truth = tmp_path / "prof.truth"
    assert run(
        "synth", "--workload", "primes", "--zero-noise", "--markers",
        "--out-trace", trace, "--out-truth", truth,
    ) == 0
    db_path = tmp_path / "db.txt"
    assert run("profile", "--trace", trace, "--truth", truth, "--out", db_path) == 0
    db = read_db(db_path)
    assert "i32.rem_s" in db.labels()
    assert db.meta["profile_seed"] == "0"


def test_profile_requires_trace_and_truth_together(tmp_path, pipeline, capsys):
    assert run("profile", "--trace", pipeline.trace, "--out", tmp_path / "x.txt") == 2
    assert "together" in capsys.readouterr().err


def test_profile_rejects_markerless_trace(tmp_path, pipeline, capsys):
    assert run(
        "profile", "--trace", pipeline.trace, "--truth", pipeline.truth,
        "--out", tmp_path / "x.txt",
    ) == 4
    assert "marker" in capsys.readouterr().err


def test_profile_needs_layout_seed_header(tmp_path, capsys):
    trace = tmp_path / "prof.csv"
    truth = tmp_path / "prof.truth"
    run("synth", "--workload", "primes", "--zero-noise", "--markers",
        "--out-trace", trace, "--out-truth", truth)
    stripped = [
        line for line in trace.read_text().splitlines()
        if not line.startswith("# layout_seed")
    ]
    trace.write_text("\n".join(stripped) + "\n")
    assert run("profile", "--trace", trace, "--truth", truth,
               "--out", tmp_path / "x.txt") == 3
    assert "layout_seed" in capsys.readouterr().err


# ----------------------------------------------------- attack + preprocess


def test_attack_then_eval_recovers_zero_noise_run(pipeline, capsys):
    assert run("eval", "--predictions", pipeline.preds, "--truth", pipeline.truth,
               "--counts") == 0
    out = capsys.readouterr().out
    assert "recall: 100.000%" in out
    assert "wrong=0 missed=0 inserted=0" in out


def test_strict_eval_still_perfect_at_zero_noise(pipeline, capsys):
    # Width twins tie on every channel; the lexicographic tie-break picks
    # the i32 variant, which is what this workload actually runs.
    assert run("eval", "--predictions", pipeline.preds, "--truth", pipeline.truth,
               "--strict") == 0
    assert "recall: 100.000%" in capsys.readouterr().out


def test_eval_writes_confusion_table(pipeline, tmp_path, capsys):
    out_path = tmp_path / "confusion.csv"
    assert run("eval", "--predictions", pipeline.preds, "--truth", pipeline.truth,
               "--out-confusion", out_path) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "truth,predicted,count"
    assert all(int(line.rsplit(",", 1)[1]) > 0 for line in lines[1:])


def test_attack_rejects_unknown_channel(pipeline, tmp_path, capsys):
    assert run(
        "attack", "--trace", pipeline.trace, "--db", pipeline.db,
        "--channels", "mode,bogus", "--out", tmp_path / "p.csv",
    ) == 2
    assert "unknown channel" in capsys.readouterr().err


def test_attack_rejects_empty_channel_list(pipeline, tmp_path, capsys):
    assert run(
        "attack", "--trace", pipeline.trace, "--db", pipeline.db,
        "--channels", " , ", "--out", tmp_path / "p.csv",
    ) == 2
    assert "empty channel" in capsys.readouterr().err


def synth_marked(tmp_path, seed, *noise):
    """The trace and truth paths of a marker-instrumented primes run at layout seed `seed`."""
    trace, truth = tmp_path / f"m{seed}.csv", tmp_path / f"m{seed}.truth"
    assert run("synth", "--workload", "primes", "--markers", "--seed", seed, *noise,
               "--out-trace", trace, "--out-truth", truth) == 0
    return trace, truth


@pytest.mark.parametrize("noise", [(), ("--zero-noise",)], ids=["noisy", "zero-noise"])
def test_profile_refuses_truth_of_another_run(tmp_path, capsys, noise):
    # With noise the seed-4 labels fall off the seed-0 dispatches (a pipeline
    # failure); without, they fall on them and would build a wrong DB.
    trace, _ = synth_marked(tmp_path, 0, *noise)
    _, truth = synth_marked(tmp_path, 4, *noise)
    assert run("profile", "--trace", trace, "--truth", truth, "--out", tmp_path / "x.txt") == 3
    err = capsys.readouterr().err
    assert err == "error: layout_seed mismatch between trace (0) and truth (4)\n"
    assert not (tmp_path / "x.txt").exists()


def test_profile_refuses_truth_boundaries_out_of_order(tmp_path, capsys):
    trace, truth = synth_marked(tmp_path, 0, "--zero-noise")
    first, second = (row.split(",")[0] for row in truth.read_text().splitlines()[4:6])
    swapped = with_data_rows(truth, tmp_path, lambda r: [r[1], r[0], *r[2:]])
    assert run("profile", "--trace", trace, "--truth", swapped, "--out", tmp_path / "x.txt") == 3
    err = capsys.readouterr().err
    assert err == f"error: truth data row 2: boundary_index {first} does not exceed {second}\n"


def test_preprocess_reports_structure(pipeline, tmp_path, capsys):
    seg_path = tmp_path / "segments.csv"
    assert run("preprocess", "--trace", pipeline.trace, "--out", seg_path) == 0
    out = capsys.readouterr().out
    assert "dispatch table page: 0x" in out
    assert "confidence: 1.000000" in out
    assert seg_path.read_text().startswith("# optrace segments v1")


# ------------------------------------------------------------------- eval


def test_eval_refuses_mismatched_runs(tmp_path, pipeline, capsys):
    other_truth = tmp_path / "other.truth"
    run("synth", "--workload", "primes", "--zero-noise", "--seed", 4,
        "--out-trace", tmp_path / "other.csv", "--out-truth", other_truth)
    assert run("eval", "--predictions", pipeline.preds, "--truth", other_truth) == 3
    assert "layout_seed mismatch" in capsys.readouterr().err


def test_eval_of_header_only_files_is_a_data_error(tmp_path, capsys):
    # Nothing to score is not a recall of 0 or 100: README promises exit 3.
    preds, truth = tmp_path / "p.csv", tmp_path / "t.csv"
    preds.write_text("# optrace predictions v1\n# layout_seed=3\nsegment_id,label,score,margin\n")
    truth.write_text("# optrace truth v1\n# layout_seed=3\nboundary_index,label\n")
    assert run("eval", "--predictions", preds, "--truth", truth) == 3
    assert capsys.readouterr().err == "error: no predictions and no truth labels to score\n"


def with_data_rows(path, tmp_path, edit):
    """A copy of `path` whose data rows, those after the column header, are `edit(rows)`."""
    lines = path.read_text().splitlines()
    head = next(k for k, line in enumerate(lines) if not line.startswith("#")) + 1
    out = tmp_path / path.name
    out.write_text("\n".join(lines[:head] + edit(lines[head:])) + "\n")
    return out


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda rows: rows[::-1], "predictions data row 1: segment_id {last}, expected 0"),
        (lambda rows: rows[:3] + rows[2:-1], "predictions data row 4: segment_id 2, expected 3"),
        (lambda rows: rows[:3] + rows[4:], "predictions data row 4: segment_id 4, expected 3"),
    ],
    ids=["reversed", "duplicated", "missing"],
)
@pytest.mark.parametrize("force", [(), ("--force",)], ids=["checked", "forced"])
def test_eval_refuses_predictions_out_of_segment_order(
    tmp_path, pipeline, capsys, edit, message, force
):
    # Labels are compared by position, so data row k must be segment k-1;
    # --force skips only the same-run header check.
    preds = with_data_rows(pipeline.preds, tmp_path, edit)
    last = pipeline.preds.read_text().splitlines()[-1].split(",")[0]
    assert run("eval", "--predictions", preds, "--truth", pipeline.truth, *force) == 3
    assert capsys.readouterr().err == f"error: {message.format(last=last)}\n"


def test_eval_refuses_truth_boundaries_out_of_order(tmp_path, pipeline, capsys):
    truth = with_data_rows(pipeline.truth, tmp_path, lambda r: [r[1], r[0], *r[2:]])
    first, second = (row.split(",")[0] for row in pipeline.truth.read_text().splitlines()[4:6])
    assert run("eval", "--predictions", pipeline.preds, "--truth", truth, "--force") == 3
    err = capsys.readouterr().err
    assert err == f"error: truth data row 2: boundary_index {first} does not exceed {second}\n"


def test_eval_force_overrides_header_check(tmp_path, pipeline):
    headerless = tmp_path / "stripped.truth"
    lines = [
        line for line in pipeline.truth.read_text().splitlines()
        if not line.startswith("# layout_seed")
    ]
    headerless.write_text("\n".join(lines) + "\n")
    assert run("eval", "--predictions", pipeline.preds, "--truth", headerless) == 3
    assert run("eval", "--predictions", pipeline.preds, "--truth", headerless,
               "--force") == 0


# ----------------------------------------------------------------- ablate


def test_ablate_emits_default_table(pipeline, capsys):
    assert run("ablate", "--trace", pipeline.trace, "--db", pipeline.db,
               "--truth", pipeline.truth) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "channels,recall_percent,n,correct,wrong,missed,inserted"
    assert len(lines) == 6
    assert lines[1].startswith("mode+class+pf+latency,100.000")
    assert {line.split(",")[0] for line in lines[2:]} == {
        "mode+class+pf",
        "mode+class+latency",
        "mode+pf+latency",
        "class+pf+latency",
    }


def test_ablate_refuses_truth_of_another_run(tmp_path, pipeline, capsys):
    other_truth = tmp_path / "other.truth"
    run("synth", "--workload", "primes", "--zero-noise", "--seed", 4,
        "--out-trace", tmp_path / "other.csv", "--out-truth", other_truth)
    capsys.readouterr()
    assert run("ablate", "--trace", pipeline.trace, "--db", pipeline.db,
               "--truth", other_truth) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: layout_seed mismatch between trace (3) and truth (4)\n"
    assert captured.out == ""


def test_ablate_refuses_truth_boundaries_out_of_order(tmp_path, pipeline, capsys):
    truth = with_data_rows(pipeline.truth, tmp_path, lambda r: [r[1], r[0], *r[2:]])
    first, second = (row.split(",")[0] for row in pipeline.truth.read_text().splitlines()[4:6])
    assert run("ablate", "--trace", pipeline.trace, "--db", pipeline.db, "--truth", truth) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: truth data row 2: boundary_index {first} does not exceed {second}\n"
    )
    assert captured.out == ""


def test_ablate_deduplicates_subsets(pipeline, tmp_path, capsys):
    out_path = tmp_path / "ablate.csv"
    assert run(
        "ablate", "--trace", pipeline.trace, "--db", pipeline.db,
        "--truth", pipeline.truth, "--subsets", "mode,class;class,mode",
        "--out", out_path,
    ) == 0
    captured = capsys.readouterr()
    assert "duplicate channel subset" in captured.err
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("mode+class,")


# -------------------------------------------------------------- exit codes


def test_missing_module_file_is_a_usage_error(tmp_path, capsys):
    assert run(
        "synth", "--module", tmp_path / "nope.ot",
        "--out-trace", tmp_path / "t.csv", "--out-truth", tmp_path / "t.truth",
    ) == 2
    assert "module file not found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "--workload", "primes", "--step-limit", "0"),
        ("synth", "--iterations", "0"),
        ("synth", "--iterations", "-1"),
        ("profile", "--repeats", "0"),
        ("profile", "--repeats", "-3"),
    ],
)
def test_non_positive_count_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as info:
        run(*argv, "--out-trace" if argv[0] == "synth" else "--out", tmp_path / "x")
    assert info.value.code == 2
    assert f"expected a positive integer, got '{argv[-1]}'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_unknown_config_key_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense.key = 1\n")
    assert run(
        "synth", "--workload", "primes", "--config", bad,
        "--out-trace", tmp_path / "t.csv", "--out-truth", tmp_path / "t.truth",
    ) == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting",
    [
        "layout.stack_pages = 0",
        "mitigation.variant_count = 0",
        "mitigation.nop_insertion_prob = 1.5",
        "layout.span = 10",
        "layout.span = 1152921504606846976",
        "noise.ctx_switch_rate = 2",
        "noise.ctx_switch_rate = 1",
        "noise.multistep_prob = -0.5",
        "noise.latency_jitter_sigma = -1",
        "noise.latency_jitter_sigma = inf",
        "noise.latency_jitter_sigma = 1e300",
        "noise.apic_quantum = -35",
        "noise.apic_quantum = 10000000000000000000",
        "noise.ctx_switch_extra_steps_mean = -1",
    ],
)
def test_out_of_range_setting_is_a_usage_error(tmp_path, setting):
    bad = tmp_path / "bad.cfg"
    bad.write_text(setting + "\n")
    proc = run_optrace(
        "synth", "--workload", "primes", "--config", bad,
        "--out-trace", tmp_path / "t.csv", "--out-truth", tmp_path / "t.truth",
        cwd=tmp_path, hash_seed="0",
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {setting.split('.')[0]}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "setting",
    ["preprocess.window = -40", "preprocess.coverage_target = 5", "preprocess.min_rw_frac = -0.1"],
)
def test_out_of_range_preprocess_setting_is_a_usage_error(pipeline, tmp_path, capsys, setting):
    bad = tmp_path / "bad.cfg"
    bad.write_text(setting + "\n")
    assert run("preprocess", "--trace", pipeline.trace, "--config", bad) == 2
    assert capsys.readouterr().err.startswith("error: preprocess: ")
    # The settings are checked before detection, which would fail here with exit 4.
    dead = tmp_path / "dead.csv"
    dead.write_text("# optrace trace v1\naddress,mode,pf_count,latency\n0x1000,W,1,10\n")
    assert run("preprocess", "--trace", dead, "--config", bad) == 2
    assert run("preprocess", "--trace", dead) == 4
    # end2end stops before it profiles or writes anything.
    out = tmp_path / "e2e"
    assert run("end2end", "--iterations", 1, "--config", bad, "--out-dir", out) == 2
    assert not out.exists()


def test_every_config_key_reaches_the_code_that_owns_it(tmp_path, monkeypatch):
    path = tmp_path / "all.cfg"
    path.write_text(
        "noise.latency_jitter_sigma = 12.5\n"
        "noise.apic_quantum = 7\n"
        "noise.ctx_switch_rate = 0.001\n"
        "noise.ctx_switch_extra_steps_mean = 99.5\n"
        "noise.multistep_prob = 0.25\n"
        "layout.stack_pages = 3\n"
        "layout.bytecode_pages = 4\n"
        "layout.linear_pages = 5\n"
        "layout.span = 4096\n"
        "mitigation.nop_insertion_prob = 0.5\n"
        "mitigation.shuffle_handlers = true\n"
        "mitigation.variant_count = 3\n"
        "preprocess.coverage_target = 0.9\n"
        "preprocess.window = 8\n"
        "preprocess.min_rw_frac = 0.01\n"
        "match.channels = mode,pf\n"
    )
    cfg = load_config(path)
    assert cli._noise_from_config(cfg, 41) == NoiseModel(
        latency_jitter_sigma=12.5,
        apic_quantum=7,
        ctx_switch_rate=0.001,
        ctx_switch_extra_steps_mean=99.5,
        multistep_prob=0.25,
        rng_seed=41,
    )
    assert cli._noise_from_config(cfg, 41, zero=True) == NoiseModel.zero(rng_seed=41)
    assert cli._layout_from_config(cfg) == LayoutConfig(
        stack_pages=3, bytecode_pages=4, linear_pages=5, span=4096
    )
    assert cli._mitigation_from_config(cfg) == MitigationConfig(
        nop_insertion_prob=0.5, shuffle_handlers=True, variant_count=3
    )
    seen = {}

    def fake_preprocess(trace, **kwargs):
        seen.update(kwargs, trace=trace)
        return "report"

    monkeypatch.setattr(cli, "preprocess_trace", fake_preprocess)
    assert cli._preprocess(cfg, "trace") == "report"
    assert seen == {
        "trace": "trace", "coverage_target": 0.9, "window": 8, "min_rw_frac": 0.01,
    }
    assert cli._parse_channels(cfg["match.channels"]) == {Channel.MODE, Channel.PF}


def test_malformed_trace_file_is_a_data_error(pipeline, tmp_path, capsys):
    assert run("attack", "--trace", pipeline.truth, "--db", pipeline.db,
               "--out", tmp_path / "p.csv") == 3
    assert "expected 'optrace trace v1'" in capsys.readouterr().err


def test_malformed_db_number_is_a_data_error(pipeline, tmp_path, capsys):
    lines = pipeline.db.read_text().splitlines()
    entry = next(i for i, line in enumerate(lines) if line.startswith("entry "))
    lines[entry] = lines[entry].split("support=")[0] + "support=many"
    bad = tmp_path / "bad.db"
    bad.write_text("\n".join(lines) + "\n")
    assert run("attack", "--trace", pipeline.trace, "--db", bad,
               "--out", tmp_path / "p.csv") == 3
    assert capsys.readouterr().err.startswith(f"error: line {entry + 1}: ")


@pytest.mark.parametrize("letter", ["Q", "\u00e9"], ids=["ascii", "non-ascii"])
def test_db_mode_letter_outside_rwe_is_a_data_error(pipeline, tmp_path, capsys, letter):
    # An entry's channels all lengthened by one, the mode's new letter off the alphabet.
    lines = pipeline.db.read_text().splitlines()
    entry = next(k for k, line in enumerate(lines) if line.startswith("modes "))
    lines[entry] += letter
    lines[entry + 1] += "O"
    lines[entry + 2] += ",0"
    lines[entry + 3] += ",0.000000"
    bad = tmp_path / "bad.db"
    bad.write_text("\n".join(lines) + "\n")
    assert run("attack", "--trace", pipeline.trace, "--db", bad,
               "--out", tmp_path / "p.csv") == 3
    err = capsys.readouterr().err
    assert err == f"error: line {entry + 1}: bad mode letter {letter!r}\n"


def test_db_non_finite_latency_is_a_data_error(pipeline, tmp_path, capsys):
    # Such an entry scores nan against every segment, and nan wins every pick.
    lines = pipeline.db.read_text().splitlines()
    entry = next(k for k, line in enumerate(lines) if line.startswith("latency "))
    lines[entry] = "latency " + ",".join(["nan"] * len(lines[entry].split(",")))
    bad = tmp_path / "bad.db"
    bad.write_text("\n".join(lines) + "\n")
    assert run("attack", "--trace", pipeline.trace, "--db", bad,
               "--out", tmp_path / "p.csv") == 3
    err = capsys.readouterr().err
    assert err == f"error: line {entry + 1}: non-finite latency value nan\n"


@pytest.mark.parametrize(
    "row",
    [
        b"0x1000,R,1,\xff\xfe",
        b'"0x' + b"0" * 140_000 + b'1000",R,1,10',
        b"0x1000,R,1,9223372036854775808",
    ],
    ids=["undecodable-bytes", "oversized-field", "int64-overflow"],
)
def test_unreadable_trace_row_is_a_data_error(pipeline, tmp_path, capsys, row):
    lines = pipeline.trace.read_bytes().splitlines()
    lines[5] = row
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"\n".join(lines) + b"\n")
    assert run("attack", "--trace", bad, "--db", pipeline.db,
               "--out", tmp_path / "p.csv") == 3
    assert capsys.readouterr().err.startswith("error: line 6: ")


def test_undecodable_module_is_a_data_error(tmp_path, capsys):
    module = tmp_path / "bad.ot"
    module.write_bytes(b"nop\n\xff\xfe\nreturn\n")
    assert run(
        "synth", "--module", module,
        "--out-trace", tmp_path / "t.csv", "--out-truth", tmp_path / "t.truth",
    ) == 3
    assert capsys.readouterr().err.startswith("error: line 2: undecodable bytes")


def test_missing_input_file_is_a_data_error(tmp_path, pipeline, capsys):
    assert run("attack", "--trace", tmp_path / "ghost.csv", "--db", pipeline.db,
               "--out", tmp_path / "p.csv") == 3


def test_undetectable_trace_is_a_pipeline_error(tmp_path, pipeline, capsys):
    dead = tmp_path / "dead.csv"
    rows = "\n".join("0x1000,W,1,10" for _ in range(8))
    dead.write_text(f"# optrace trace v1\naddress,mode,pf_count,latency\n{rows}\n")
    assert run("attack", "--trace", dead, "--db", pipeline.db,
               "--out", tmp_path / "p.csv") == 4
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as info:
        run("frobnicate")
    assert info.value.code == 2


def test_python_m_optrace_keeps_exit_codes(tmp_path):
    bare = run_optrace(cwd=tmp_path, hash_seed="0")
    assert bare.returncode == 2
    assert bare.stderr.startswith("usage: optrace ")
    missing = run_optrace(
        "eval", "--predictions", tmp_path / "p.csv", "--truth", tmp_path / "t.csv",
        cwd=tmp_path, hash_seed="0",
    )
    assert missing.returncode == 3, missing.stderr
    assert missing.stderr.startswith("error:")


# ---------------------------------------------------------------- end2end


def test_end2end_is_byte_reproducible(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert run(
            "end2end", "--workload", "primes", "--zero-noise",
            "--repeats", 4, "--seed", 9, "--out-dir", d,
        ) == 0
    out = capsys.readouterr().out
    assert "recall: 100.000%" in out
    for name in ("victim.csv", "truth.csv", "db.txt", "predictions.csv",
                 "report.txt", "config.txt"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
