"""Serialization round-trips and format validation for every file kind."""

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optrace import traceio
from optrace.bytecode import OpcodeTrace
from optrace.handlers import default_handler_specs
from optrace.machine import (
    PAGE_SIZE,
    LayoutConfig,
    NoiseModel,
    SideChannelTrace,
    StepEvent,
    build_layout,
    synthesize_trace,
)
from optrace.matcher import Prediction
from optrace.opcodes import OPCODES
from optrace.profiler import Fingerprint, FingerprintDb, build_fingerprint_db
from optrace.traceio import (
    DEFAULT_CONFIG,
    ConfigError,
    FormatError,
    config_hash,
    load_config,
    parse_config_text,
    read_db,
    read_predictions,
    read_trace,
    read_truth,
    trace_meta,
    write_config,
    write_db,
    write_predictions,
    write_segments,
    write_trace,
    write_truth,
)

ZERO = NoiseModel.zero(rng_seed=0)


def small_trace(markers=False, mnemonics=("i32.const", "call", "i32.add")):
    opcode_trace = OpcodeTrace(
        executed=tuple(OPCODES[name] for name in mnemonics), step_limit_hit=False
    )
    layout = build_layout(3, LayoutConfig())
    trace = synthesize_trace(
        opcode_trace,
        layout,
        default_handler_specs(),
        ZERO,
        profiling_markers=markers,
    )
    return layout, trace


# ---------------------------------------------------------------- traces


def test_trace_round_trip(tmp_path):
    _, trace = small_trace()
    path = tmp_path / "t.trace"
    write_trace(path, trace, config_hash="cafe01234567")
    back = read_trace(path)
    assert back.events == list(trace.events)
    assert back.layout_seed == trace.layout_seed
    assert back.truth is None
    meta = trace_meta(path)
    assert meta["format"] == "optrace trace v1"
    assert meta["config_hash"] == "cafe01234567"
    assert int(meta["layout_seed"]) == trace.layout_seed


def test_trace_addresses_are_page_aligned_hex(tmp_path):
    _, trace = small_trace()
    path = tmp_path / "t.trace"
    write_trace(path, trace)
    for line in path.read_text().splitlines():
        if line.startswith(("#", "address")):
            continue
        addr = int(line.split(",")[0], 16)
        assert addr % PAGE_SIZE == 0


def test_read_trace_rejects_wrong_format_kind(tmp_path):
    _, trace = small_trace(markers=True)
    path = tmp_path / "t.truth"
    write_truth(path, trace)
    with pytest.raises(FormatError, match="expected 'optrace trace v1'") as info:
        read_trace(path)
    assert info.value.line == 1


def test_read_trace_rejects_missing_header(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("address,mode,pf_count,latency\n0x0,R,1,10\n")
    with pytest.raises(FormatError, match="header"):
        read_trace(path)


def test_read_trace_rejects_wrong_columns(tmp_path):
    path = tmp_path / "cols.trace"
    path.write_text("# optrace trace v1\npage,mode\n")
    with pytest.raises(FormatError, match="column header"):
        read_trace(path)


@pytest.mark.parametrize(
    "row,message",
    [
        ("0x1000,R,1", "4 fields"),
        ("0x1000,Q,1,10", "access mode"),
        ("0x1001,R,1,10", "not page aligned"),
        ("zz,R,1,10", "invalid literal"),
        ("0x1000,R,one,10", "invalid literal"),
        ("0x8000000000000000,R,1,10", "address '0x8000000000000000' does not fit in int64"),
        ("0x1000,R,9223372036854775808,10", "pf_count '9223372036854775808' does not fit"),
        ("0x1000,R,1,-9223372036854775809", "latency '-9223372036854775809' does not fit"),
    ],
)
def test_read_trace_reports_bad_rows_with_line_numbers(tmp_path, row, message):
    path = tmp_path / "bad.trace"
    path.write_text(f"# optrace trace v1\naddress,mode,pf_count,latency\n{row}\n")
    with pytest.raises(FormatError, match=message) as info:
        read_trace(path)
    assert info.value.line == 3


# Rows whose address, pf and latency fit in int64, and how each is written.
_ROWS = st.lists(
    st.tuples(
        st.integers(0, 2**51 - 1),
        st.sampled_from("RWE"),
        st.integers(-(2**63), 2**63 - 1),
        st.integers(-(2**63), 2**63 - 1),
        st.sampled_from(["\n", "\r\n", "\r"]),  # line ending
        st.sampled_from(["", "\x0c", " ", "# note"]),  # a line break or a line before it
        st.booleans(),  # quote the address field
    ),
    max_size=14,
)
_MUTATIONS = {
    "mode": (lambda f: [f[0], "Q", f[2], f[3]], "bad access mode"),
    "aligned": (lambda f: [f[0][:-1] + "1", *f[1:]], "not page aligned"),
    "number": (lambda f: [f[0], f[1], "x", f[3]], "invalid literal"),
    "fields": (lambda f: f[:3], "expected 4 fields"),
}


@settings(max_examples=150, deadline=None)
@given(
    rows=_ROWS,
    chunk=st.integers(1, 5),
    mutation=st.none() | st.tuples(st.sampled_from(sorted(_MUTATIONS)), st.integers(0, 99)),
)
def test_read_trace_agrees_with_the_rows_written(rows, chunk, mutation):
    # Few lines per chunk, so rows, blank lines and comments straddle chunk
    # boundaries; a quoted field sends its chunk through `csv` line by line.
    text = "# optrace trace v1\naddress,mode,pf_count,latency\n"
    lineno = 2
    linenos = []
    bad = mutation and rows and mutation[1] % len(rows)
    for k, (page, mode, pf, latency, end, before, quoted) in enumerate(rows):
        fields = [f"0x{page * PAGE_SIZE:x}", mode, str(pf), str(latency)]
        if mutation and rows and k == bad:
            fields = _MUTATIONS[mutation[0]][0](fields)
        if quoted:
            fields[0] = f'"{fields[0]}"'
        if before in (" ", "# note"):
            before += end  # a blank or comment line; never a bare LF, which would join a CR
        text += before + ",".join(fields) + end
        lineno += 1 + (before != "")
        linenos.append(lineno)
    text += "# layout_seed=5\n"
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traceio, "_CHUNK_LINES", chunk):
        path = Path(tmp) / "rows.trace"
        path.write_bytes(text.encode())
        if mutation and rows:
            with pytest.raises(FormatError, match=_MUTATIONS[mutation[0]][1]) as info:
                read_trace(path)
            assert info.value.line == linenos[bad]
            return
        back = read_trace(path)
    assert back.events == [StepEvent(row[0], row[1], row[2], row[3]) for row in rows]
    assert back.layout_seed == 5


@pytest.mark.parametrize(
    "row,message",
    [
        ("0x1001,Q,1,10", "address 0x1001 not page aligned"),
        ("0x1000,Q,x,10", "bad access mode 'Q'"),
        ("0x1000,R,9223372036854775808,x", "pf_count '9223372036854775808' does not fit"),
    ],
)
def test_read_trace_reports_the_leftmost_bad_field_of_a_row(tmp_path, row, message):
    path = tmp_path / "two.trace"
    path.write_text(f"# optrace trace v1\naddress,mode,pf_count,latency\n0x0,R,1,10\n{row}\n")
    with pytest.raises(FormatError, match=message) as info:
        read_trace(path)
    assert info.value.line == 4


def test_read_trace_rejects_modes_that_only_add_up_to_one_per_row(tmp_path):
    path = tmp_path / "modes.trace"
    path.write_text("# optrace trace v1\naddress,mode,pf_count,latency\n0x0,RW,1,10\n0x0,,1,10\n")
    with pytest.raises(FormatError, match="bad access mode 'RW'") as info:
        read_trace(path)
    assert info.value.line == 3


def test_negative_page_round_trips(tmp_path):
    trace = SideChannelTrace.from_events([StepEvent(-1, "R", 1, 10), StepEvent(2, "W", 0, 5)])
    path = tmp_path / "neg.trace"
    write_trace(path, trace)
    assert path.read_text().splitlines()[-2:] == ["-0x1000,R,1,10", "0x2000,W,0,5"]
    assert read_trace(path).events == trace.events


def test_read_trace_header_grammar(tmp_path):
    # CRLF endings, blank lines, a quoted field and meta after the rows.
    path = tmp_path / "crlf.trace"
    path.write_bytes(
        b"# optrace trace v1\r\naddress,mode,pf_count,latency\r\n"
        b'0x1000,R,1,10\r\n\r\n"0x2000",W,2,20\r\n# layout_seed=9\r\n'
    )
    back = read_trace(path)
    assert back.events == [StepEvent(1, "R", 1, 10), StepEvent(2, "W", 2, 20)]
    assert back.layout_seed == 9


def test_read_trace_quoted_field_never_spans_lines(tmp_path):
    path = tmp_path / "quote.trace"
    path.write_text(
        '# optrace trace v1\naddress,mode,pf_count,latency\n"0x1000,R,1,10\n0x2000,R,1,10\n'
    )
    with pytest.raises(FormatError, match="expected 4 fields") as info:
        read_trace(path)
    assert info.value.line == 3


def test_read_trace_rejects_non_integer_layout_seed(tmp_path):
    path = tmp_path / "seed.trace"
    path.write_text("# optrace trace v1\n# layout_seed=abc\naddress,mode,pf_count,latency\n")
    with pytest.raises(FormatError, match="layout_seed 'abc'"):
        read_trace(path)


@pytest.mark.parametrize(
    "nl,extra,line",
    [(b"\n", b"", 4), (b"\r\n", b"", 4), (b"\r", b"", 4), (b"\n", b"\x0c", 5)],
    ids=["lf", "crlf", "cr", "form-feed"],
)
def test_read_trace_reports_undecodable_bytes_on_their_line(tmp_path, nl, extra, line):
    path = tmp_path / "bytes.trace"
    path.write_bytes(
        b"# optrace trace v1" + nl + b"address,mode,pf_count,latency" + nl
        + b"0x1000,R,1,10" + nl + extra + b"0x2000,R,1,\xff\xfe" + nl
        + b"0x3000,R,1,10" + nl
    )
    with pytest.raises(FormatError, match="undecodable bytes") as info:
        read_trace(path)
    assert info.value.line == line


def test_read_trace_rejects_oversized_field(tmp_path):
    path = tmp_path / "wide.trace"
    path.write_text(
        "# optrace trace v1\naddress,mode,pf_count,latency\n0x1000,R,1,10\n"
        '"0x' + "0" * 140_000 + '1000",R,1,10\n'
    )
    with pytest.raises(FormatError, match="field larger than field limit") as info:
        read_trace(path)
    assert info.value.line == 4


@pytest.mark.parametrize(
    "reader,kind,columns,row",
    [
        (read_trace, "trace", "address,mode,pf_count,latency", "0x1000,R,1,10"),
        (read_truth, "truth", "boundary_index,label", "0,nop"),
        (read_predictions, "predictions", "segment_id,label,score,margin", "0,nop,1.0,0.0"),
    ],
    ids=["trace", "truth", "predictions"],
)
def test_csv_readers_share_header_checks(tmp_path, reader, kind, columns, row):
    path = tmp_path / "f.csv"
    path.write_text(f"# optrace segments v1\n{columns}\n{row}\n")
    with pytest.raises(FormatError, match=f"expected 'optrace {kind} v1'") as info:
        reader(path)
    assert info.value.line == 1

    path.write_text(f"# optrace {kind} v1\n# layout_seed=1\n\n{columns},extra\n{row}\n")
    with pytest.raises(FormatError, match="expected column header") as info:
        reader(path)
    assert info.value.line == 4

    fields = len(columns.split(","))
    path.write_text(f"# optrace {kind} v1\n{columns}\n{row}\n\n{row},9\n")
    with pytest.raises(FormatError, match=f"expected {fields} fields") as info:
        reader(path)
    assert info.value.line == 5


@pytest.mark.parametrize(
    "reader,kind,columns,row,bad,message",
    [
        (read_trace, "trace", "address,mode,pf_count,latency", "0x1000,R,1,10",
         "0x1000,R,1,x", "invalid literal"),
        (read_truth, "truth", "boundary_index,label", "0,nop", "x,nop", "invalid literal"),
        (read_predictions, "predictions", "segment_id,label,score,margin", "0,nop,1.0,0.0",
         "0,nop,1.0,low", "could not convert"),
    ],
    ids=["trace", "truth", "predictions"],
)
def test_csv_readers_report_the_first_bad_line(tmp_path, reader, kind, columns, row, bad, message):
    # A bad value on line 4 comes before a bad field count on line 5 in the same chunk.
    path = tmp_path / "f.csv"
    path.write_text(f"# optrace {kind} v1\n{columns}\n{row}\n{bad}\n{row},9\n")
    with pytest.raises(FormatError, match=message) as info:
        reader(path)
    assert info.value.line == 4


def test_write_segments_exports_annotated_rows(tmp_path):
    from optrace.preprocess import preprocess_trace

    layout, trace = small_trace(
        mnemonics=("i32.const", "i32.const", "i32.add", "drop")
    )
    _, _, segments = preprocess_trace(trace)
    path = tmp_path / "s.segments"
    write_segments(path, segments, config_hash="abc", layout_seed=7)
    lines = path.read_text().splitlines()
    assert lines[0] == "# optrace segments v1"
    assert "# layout_seed=7" in lines
    rows = [l for l in lines if not l.startswith("#") and not l.startswith("segment")]
    assert len(rows) == sum(len(seg) for seg in segments)
    ids = [int(r.split(",")[0]) for r in rows]
    assert sorted(set(ids)) == list(range(len(segments)))


# ----------------------------------------------------------------- truth


def test_truth_round_trip_preserves_null_labels(tmp_path):
    _, trace = small_trace(markers=True)
    path = tmp_path / "t.truth"
    write_truth(path, trace, config_hash="beef")
    truth, meta = read_truth(path)
    assert truth == list(trace.truth)
    assert any(label is None for _, label in truth)
    assert meta["config_hash"] == "beef"


def test_write_truth_requires_ground_truth(tmp_path):
    _, trace = small_trace(markers=False)
    bare = type(trace).from_events(events=trace.events, truth=None, layout_seed=None)
    with pytest.raises(ValueError, match="ground truth"):
        write_truth(tmp_path / "t.truth", bare)


# ------------------------------------------------------------ predictions


def test_predictions_round_trip(tmp_path):
    preds = [
        Prediction(segment_id=0, label="i32.add", score=0.25, margin=0.03125),
        Prediction(segment_id=1, label=None, score=1.0, margin=0.0),
    ]
    path = tmp_path / "p.predictions"
    write_predictions(path, preds, config_hash="c0ffee", layout_seed=5)
    rows, meta = read_predictions(path)
    assert rows == [(0, "i32.add", 0.25, 0.03125), (1, None, 1.0, 0.0)]
    assert meta["layout_seed"] == "5"


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 10**9),
            st.sampled_from([None, "i32.add", "br_if"]),
            st.floats(),
            st.floats(),
        ),
        max_size=12,
    ),
    chunk=st.integers(1, 5),
)
def test_truth_and_predictions_are_written_a_chunk_of_lines_at_a_time(rows, chunk):
    # Whatever the chunk size, the bytes are one formatted line per row.
    trace = SideChannelTrace([0], [ord("R")], [0], [0], tuple(r[:2] for r in rows), 4)
    preds = [Prediction(*r) for r in rows]
    truth_lines = "".join(f"{i},{'NULL' if l is None else l}\n" for i, l, _, _ in rows)
    pred_lines = "".join(
        f"{i},{'NULL' if l is None else l},{s:.6f},{m:.6f}\n" for i, l, s, m in rows
    )
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traceio, "_CHUNK_LINES", chunk):
        write_truth(Path(tmp) / "t", trace, config_hash="ab12")
        write_predictions(Path(tmp) / "p", preds, config_hash="ab12", layout_seed=4)
        truth_text = (Path(tmp) / "t").read_text()
        pred_text = (Path(tmp) / "p").read_text()
    head = "# layout_seed=4\n# config_hash=ab12\n"
    assert truth_text == f"# optrace truth v1\n{head}boundary_index,label\n{truth_lines}"
    want = f"# optrace predictions v1\n{head}segment_id,label,score,margin\n{pred_lines}"
    assert pred_text == want


def test_read_predictions_rejects_bad_score(tmp_path):
    path = tmp_path / "p.predictions"
    path.write_text(
        "# optrace predictions v1\nsegment_id,label,score,margin\n0,nop,high,0.0\n"
    )
    with pytest.raises(FormatError) as info:
        read_predictions(path)
    assert info.value.line == 3


# A truth or prediction row's values, and how it is written.
_LABELED_ROWS = st.lists(
    st.tuples(
        st.integers(-(2**70), 2**70),
        st.sampled_from(["NULL", "i32.add", "br_if", "a b", "x,y"]),
        st.floats(allow_nan=False),
        st.floats(allow_nan=False),
        st.sampled_from(["\n", "\r\n", "\r"]),  # line ending
        st.sampled_from(["", "\x0c", " ", "# note"]),  # a line break or a line before it
        st.booleans(),  # quote the label field
    ),
    max_size=14,
)
# Per kind: reader, column line, field count, and three ways to spoil a row.
_LABELED_KINDS = {
    "truth": (read_truth, "boundary_index,label", 2, [
        (lambda f: ["x", *f[1:]], "invalid literal"),
        (lambda f: f[:1], "expected 2 fields"),
        (lambda f: [*f, "9"], "expected 2 fields"),
    ]),
    "predictions": (read_predictions, "segment_id,label,score,margin", 4, [
        (lambda f: ["x", *f[1:]], "invalid literal"),
        (lambda f: f[:3], "expected 4 fields"),
        (lambda f: [*f[:2], "high", f[3]], "could not convert string to float"),
    ]),
}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(_LABELED_KINDS)),
    rows=_LABELED_ROWS,
    chunk=st.integers(1, 5),
    mutation=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 99)),
)
def test_read_truth_and_predictions_agree_with_the_rows_written(kind, rows, chunk, mutation):
    # As for traces: rows, blank lines and comments straddle chunk boundaries,
    # and a quoted label sends its chunk through `csv` line by line.
    reader, columns, width, mutations = _LABELED_KINDS[kind]
    text = f"# optrace {kind} v1\n# config_hash=ab12\n{columns}\n"
    lineno = 3
    linenos = []
    bad = mutation and rows and mutation[1] % len(rows)
    for k, (idx, label, score, margin, end, before, quoted) in enumerate(rows):
        fields = [str(idx), f'"{label}"' if quoted or "," in label else label]
        fields += [repr(score), repr(margin)][: width - 2]
        if mutation and rows and k == bad:
            fields = mutations[mutation[0]][0](fields)
        if before in (" ", "# note"):
            before += end  # a blank or comment line; never a bare LF, which would join a CR
        text += before + ",".join(fields) + end
        lineno += 1 + (before != "")
        linenos.append(lineno)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traceio, "_CHUNK_LINES", chunk):
        path = Path(tmp) / f"rows.{kind}"
        path.write_bytes(text.encode())
        if mutation and rows:
            with pytest.raises(FormatError, match=mutations[mutation[0]][1]) as info:
                reader(path)
            assert info.value.line == linenos[bad]
            return
        back, meta = reader(path)
    want = [
        (idx, None if label == "NULL" else label, score, margin)[:width]
        for idx, label, score, margin, *_ in rows
    ]
    assert back == want
    assert meta == {"config_hash": "ab12"}


# ------------------------------------------------------------ fingerprints


def make_db(noise=ZERO, mnemonics=("i32.const", "i32.const", "i32.add", "drop")):
    layout, trace = small_trace(markers=True, mnemonics=mnemonics)
    return build_fingerprint_db(
        trace,
        layout.marker_page,
        layout.optable_page,
        frozenset(layout.stack_pages),
        meta={"config_hash": "abc123", "profile_seed": "3"},
    )


def test_db_round_trip(tmp_path):
    db = make_db()
    path = tmp_path / "f.db"
    write_db(path, db)
    back = read_db(path)
    assert back.meta == db.meta
    assert len(back) == len(db)
    for got, want in zip(back.entries, db.entries):
        assert (got.label, got.modes, got.classes, got.pf) == (
            want.label,
            want.modes,
            want.classes,
            want.pf,
        )
        assert got.support == want.support
        for a, b in zip(got.latency, want.latency):
            assert a == pytest.approx(b, abs=1e-6)


def test_db_serialization_is_byte_stable(tmp_path):
    db = make_db()
    first = tmp_path / "a.db"
    second = tmp_path / "b.db"
    write_db(first, db)
    write_db(second, read_db(first))
    assert first.read_bytes() == second.read_bytes()


def test_db_null_label_round_trips(tmp_path):
    db = make_db(mnemonics=("i32.const", "call", "drop"))
    assert None in db.labels()
    path = tmp_path / "f.db"
    write_db(path, db)
    assert None in read_db(path).labels()


@pytest.mark.parametrize(
    "body,message",
    [
        ("entry nop support=1\nentry drop support=1\n", "before previous"),
        ("modes RE\n", "outside entry"),
        ("entry nop support=1\nmodes RE\nclasses OX\npf 1,2\nend\n", "missing field"),
        (
            "entry nop support=1\nmodes RE\nclasses OX\npf 1\nlatency 1.0\nend\n",
            "lengths disagree",
        ),
        ("wat 5\n", "unknown directive"),
        ("entry nop support=1\nmodes RE\n", "unterminated"),
        ("entry nop 1\n", "support="),
        ("entry nop support=many\n", "invalid literal"),
        ("entry nop support=1\nmodes R\nclasses O\npf 8,x\n", "invalid literal"),
        ("entry nop support=1\nlatency 1.0,fast\n", "could not convert"),
    ],
)
def test_read_db_rejects_malformed_entries(tmp_path, body, message):
    path = tmp_path / "bad.db"
    path.write_text("# optrace fingerprint-db v1\n" + body)
    with pytest.raises(FormatError, match=message):
        read_db(path)


def test_read_db_requires_header(tmp_path):
    path = tmp_path / "bad.db"
    path.write_text("entry nop support=1\n")
    with pytest.raises(FormatError) as info:
        read_db(path)
    assert info.value.line == 1


def test_db_empty_vectors_round_trip(tmp_path):
    db = FingerprintDb(
        entries=(
            Fingerprint(
                label="x", modes="", classes="", pf=(), latency=(), support=1
            ),
        ),
        meta={},
    )
    path = tmp_path / "e.db"
    write_db(path, db)
    back = read_db(path)
    assert back.entries[0].pf == ()
    assert back.entries[0].latency == ()


# ------------------------------------------------------------------ config


def test_default_config_is_copied():
    cfg = load_config(None)
    assert cfg == DEFAULT_CONFIG
    cfg["layout.stack_pages"] = 99
    assert DEFAULT_CONFIG["layout.stack_pages"] == 2


def test_parse_config_overrides_and_coerces():
    cfg = parse_config_text(
        """
        # comment
        noise.latency_jitter_sigma = 120
        layout.stack_pages = 4
        mitigation.shuffle_handlers = yes
        match.channels = mode,class
        """
    )
    assert cfg["noise.latency_jitter_sigma"] == 120.0
    assert isinstance(cfg["noise.latency_jitter_sigma"], float)
    assert cfg["layout.stack_pages"] == 4
    assert cfg["mitigation.shuffle_handlers"] is True
    assert cfg["match.channels"] == "mode,class"
    # Untouched keys keep their defaults.
    assert cfg["preprocess.window"] == DEFAULT_CONFIG["preprocess.window"]


@pytest.mark.parametrize(
    "text,message",
    [
        ("nonsense.key = 1", "unknown key"),
        ("layout.stack_pages = four", "expected an integer"),
        ("layout.stack_pages = 1.5", "expected an integer"),
        ("noise.latency_jitter_sigma = big", "expected a number"),
        ("mitigation.shuffle_handlers = maybe", "expected a boolean"),
        ("just words", "key = value"),
    ],
)
def test_parse_config_rejects_bad_input(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)


def test_boolean_spellings():
    for raw, want in [("true", True), ("1", True), ("ON", True), ("off", False), ("0", False), ("No", False)]:
        cfg = parse_config_text(f"mitigation.shuffle_handlers = {raw}")
        assert cfg["mitigation.shuffle_handlers"] is want


def test_write_config_round_trips_through_parser(tmp_path):
    cfg = load_config(None)
    cfg["noise.latency_jitter_sigma"] = 77.5
    cfg["mitigation.shuffle_handlers"] = True
    cfg["match.channels"] = "mode,latency"
    path = tmp_path / "run.config"
    write_config(path, cfg)
    assert load_config(path) == cfg


def test_config_hash_is_stable_and_sensitive():
    a = load_config(None)
    b = load_config(None)
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 12
    int(config_hash(a), 16)
    b["preprocess.window"] = 17
    assert config_hash(a) != config_hash(b)


DEFAULT_CONFIG_TEXT = """\
layout.bytecode_pages = 2
layout.linear_pages = 2
layout.span = 1048576
layout.stack_pages = 2
match.channels = mode,class,pf,latency
mitigation.nop_insertion_prob = 0.0
mitigation.shuffle_handlers = False
mitigation.variant_count = 1
noise.apic_quantum = 35
noise.ctx_switch_extra_steps_mean = 2258.0
noise.ctx_switch_rate = 0.0001953
noise.latency_jitter_sigma = 60.0
noise.multistep_prob = 3.55749949217762e-09
preprocess.coverage_target = 0.95
preprocess.min_rw_frac = 0.005
preprocess.window = 16
"""


def test_default_config_is_pinned(tmp_path):
    # Every artifact header carries this hash, and every synthesized trace
    # this text: a default that moves changes both.
    assert config_hash(load_config(None)) == "0a23cce4961a"
    path = tmp_path / "default.config"
    write_config(path, load_config(None))
    assert path.read_text() == DEFAULT_CONFIG_TEXT


def _readme_config_block() -> list[str]:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("## Configuration", 1)[1]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].strip() for line in block.splitlines()]


def _shown_as(default, shown: str) -> bool:
    """Whether README's `shown` is `default` at the precision it prints."""
    if isinstance(default, float):
        digits = shown.lower().split("e")[0].replace("-", "").replace(".", "").lstrip("0")
        return float(shown) == float(f"{default:.{max(len(digits), 1)}g}")
    return shown == str(default)


def test_readme_lists_every_config_key_with_its_default():
    rows = [line.partition(" = ") for line in _readme_config_block()]
    assert [key for key, _, _ in rows] == list(DEFAULT_CONFIG)
    for key, _, shown in rows:
        assert _shown_as(DEFAULT_CONFIG[key], shown), (key, shown)


def test_config_hash_ignores_key_order():
    a = dict(DEFAULT_CONFIG)
    b = dict(reversed(list(DEFAULT_CONFIG.items())))
    assert config_hash(a) == config_hash(b)
