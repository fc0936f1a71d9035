"""Serialization round-trips and format validation for every file kind."""

import ast
import math
import os
import re
import subprocess
import sys
import tempfile
from contextlib import suppress
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optrace import traceio
from optrace.machine import PAGE_SIZE, Labels, NoiseModel, SideChannelTrace, StepEvent
from optrace.matcher import Prediction, Predictions
from optrace.preprocess import Segments
from optrace.profiler import build_fingerprint_db
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
    write_config,
    write_db,
    write_predictions,
    write_segments,
    write_trace,
    write_truth,
)

from support import db_of, fp, labels_of, predictions_of, synth, trace_meta, trace_of

SMALL = ("i32.const", "call", "i32.add")


# ---------------------------------------------------------------- traces


def test_trace_round_trip(tmp_path):
    _, trace = synth(SMALL, seed=3)
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
    _, trace = synth(SMALL, seed=3)
    path = tmp_path / "t.trace"
    write_trace(path, trace)
    for line in path.read_text().splitlines():
        if line.startswith(("#", "address")):
            continue
        addr = int(line.split(",")[0], 16)
        assert addr % PAGE_SIZE == 0


def test_read_trace_rejects_wrong_format_kind(tmp_path):
    _, trace = synth(SMALL, seed=3, markers=True)
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
        st.sampled_from(["", "\x0c", " ", "# note"]),  # a form feed or a line before it
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
    block=st.integers(1, 70),
    mutation=st.none() | st.tuples(st.sampled_from(sorted(_MUTATIONS)), st.integers(0, 99)),
)
def test_read_trace_agrees_with_the_rows_written(rows, block, mutation):
    # Blocks of a few bytes, so cuts land inside CRLF pairs, after lone CRs
    # and inside header, comment and quoted lines; a quoted field sends its
    # block through `csv` line by line.
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
        lineno += 1 + (before not in ("", "\x0c"))  # a form feed starts no line
        linenos.append(lineno)
    text += "# layout_seed=5\n"
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traceio, "_BLOCK_BYTES", block):
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


# Rows in the writer's form: pages whose address has 1 to 15 hex digits,
# either sign, and pf and latency values of 1 to 18 digits, edges included.
_PAGES = st.sampled_from([0, -1, 2**48 - 1, 1 - 2**48]) | st.integers(1 - 2**48, 2**48 - 1)
_NUMBERS = st.sampled_from([0, 10**18 - 1, 1 - 10**18]) | st.integers(1 - 10**18, 10**18 - 1)
_FORM_ROWS = st.lists(st.tuples(_PAGES, st.sampled_from("RWE"), _NUMBERS, _NUMBERS), max_size=12)
# A value past that form and the column it goes in: addresses of 16 hex
# digits, numbers of 19 digits, to the ends of int64.  The CSV reader takes them.
_WIDE = st.sampled_from(
    [(0, page) for page in (2**48, -(2**48), 2**51 - 1, -(2**51))]
    + [(col, value) for col in (2, 3) for value in (10**18, -(10**18), 2**63 - 1, -(2**63))]
)
_COLUMN_DTYPES = [np.int64, np.uint8, np.int64, np.int64]


def _columns(trace: SideChannelTrace) -> list[np.ndarray]:
    return [trace.page, trace.mode, trace.pf, trace.latency]


def _read_as_csv(path, reader=read_trace):
    """`reader(path)` with the byte parser refusing every block, so `csv` splits all rows."""
    with mock.patch.object(traceio, "_parse", return_value=None):
        return reader(path)


def _bits(read) -> tuple:
    """What a reader gave: each column's dtype and bytes (-0.0 is not 0.0), then its label
    table and meta."""
    if isinstance(read, SideChannelTrace):
        return [(c.dtype, c.tobytes()) for c in _columns(read)], read.layout_seed
    items, meta = read
    floats = [getattr(items, name) for name in ("score", "margin") if hasattr(items, name)]
    columns = [items.rows, items.codes, *floats]
    return [(c.dtype, c.tobytes()) for c in columns], items.table, meta


def _assert_read_as_csv(path, reader=read_trace) -> None:
    """`reader(path)` gives _read_as_csv's columns, dtypes and meta, or its error and line."""
    try:
        want = _read_as_csv(path, reader)
    except FormatError as exc:
        with pytest.raises(FormatError) as info:
            reader(path)
        assert (str(info.value), info.value.line) == (str(exc), exc.line)
        return
    back = reader(path)
    if reader is read_trace:
        assert [column.dtype for column in _columns(back)] == _COLUMN_DTYPES
    assert _bits(back) == _bits(want)


def _csv_lines(path, reader=read_trace) -> list[set[int]]:
    """Read `path` with `reader`; the line numbers of each block that goes to the CSV fallback."""
    csv_columns, fallen = traceio._csv_columns, []

    def spy(linenos, lines, kinds):
        fallen.append(set(linenos))
        return csv_columns(linenos, lines, kinds)

    with mock.patch.object(traceio, "_csv_columns", spy):
        try:
            reader(path)
        except FormatError:
            pass
    return fallen


@settings(max_examples=300, deadline=None)
@given(
    rows=_FORM_ROWS,
    wide=st.none() | st.tuples(_WIDE, st.integers(0, 99)),
    block=st.integers(1, 70),
    mutation=st.none() | st.tuples(st.sampled_from(sorted(_MUTATIONS)), st.integers(0, 99)),
)
def test_read_trace_parses_the_writers_rows_as_the_csv_reader_does(rows, wide, block, mutation):
    # Blocks of a few bytes, so rows straddle blocks.  Only blocks holding a
    # row off the writer's form go to the CSV fallback, and every file gives
    # the CSV reader's columns or its FormatError, message and line alike.
    rows = list(map(list, rows))
    off = set()  # line numbers of the rows off the writer's form; rows start on line 4
    if wide and rows:
        (col, value), k = wide
        rows[k % len(rows)][col] = value
        off.add(4 + k % len(rows))
    fields = [[f"{page * PAGE_SIZE:#x}", mode, str(pf), str(lat)] for page, mode, pf, lat in rows]
    if mutation and rows:
        bad = mutation[1] % len(rows)
        fields[bad] = _MUTATIONS[mutation[0]][0](fields[bad])
        off.add(4 + bad)
    text = "# optrace trace v1\n# layout_seed=5\naddress,mode,pf_count,latency\n"
    text += "".join(",".join(row) + "\n" for row in fields)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traceio, "_BLOCK_BYTES", block):
        path = Path(tmp) / "rows.trace"
        path.write_bytes(text.encode())
        split = _csv_lines(path)
        assert all(lines & off for lines in split)
        assert (min(off) in set().union(*split)) if off else not split
        _assert_read_as_csv(path)
        if not off:
            assert read_trace(path).layout_seed == 5


_TAG, _COLUMNS = "# optrace trace v1\n", "address,mode,pf_count,latency\n"
_DB_TAG = "# optrace fingerprint-db v1\n"
_DB_COLUMNS = "entry,label,support,mode,class,pf,latency_sum\n"

# In-form edge fields.  Addresses of 1 to 15 hex digits: up to three 0s, after a page of up
# to 12 digits.
_EDGE_ROWS = [f"{address},R,1,10" for address in (
    "0x0", "0x00", "0x000", "-0x0", "0x0000", "-0x0000", "0x1000", "0x0001000", "-0x0001000",
    *(f"0x{'f' * (n - 3)}000" for n in range(4, 16)), f"-0x{'f' * 12}000",
    f"0x{'0' * 11}1000", f"0x1{'0' * 14}",
)] + [f"0x1000,W,{value},{value}" for value in (
    "0", "-0", "00", "007", "-007", "9" * 18, "-" + "9" * 18, "0" * 17 + "1", "1" + "0" * 17,
)]
# Their off-form neighbours.
_OFF_FORM_ROWS = [f"{address},R,1,10" for address in (
    "0X1000", "0xA000", "0x1001", "0x10", "0x1", f"0x{'0' * 12}1000", "0x", "-0x",
    f"0x{'f' * 16}000", "-0X0", "--0x0",
)] + [f"0x1000,W,{value},{value}" for value in (
    "1" + "0" * 18, "0" * 18 + "1", "-" + "0" * 18 + "7", "+5", "--5", "-", "",
)]


@pytest.mark.parametrize(
    "text,split",
    [
        (f"{_TAG}# layout_seed=4\n# note\n{_COLUMNS}-0x0,R,-0,007\n", False),
        (f"{_TAG}{_COLUMNS}0x1000,R,1a,10\n", True),
        (f"{_TAG}{_COLUMNS}0x1000,R,1,1f\n", True),
        (f"{_TAG}{_COLUMNS}0x1000,R,+1,10\n", True),
        (f"{_TAG}{_COLUMNS}0X1000,R,1,10\n", True),
        (f"{_TAG}{_COLUMNS}0x1A000,R,1,10\n", True),
        (f"{_TAG}{_COLUMNS}0x1_000,R,1,1_0\n", True),
        (f"{_TAG}{_COLUMNS}0x,R,1,10\n", True),
        (f"{_TAG}{_COLUMNS}0x1000,r,1,10\n", True),
        (f"{_TAG}{_COLUMNS}0x1000,RW,1,10\n", True),
        (f"{_TAG}{_COLUMNS}0x1000,R,1,10,0x2000,R,1,10\n", True),
        (f"{_TAG}{_COLUMNS}0x1000,R,1\n10\n", True),
        (f"{_TAG}{_COLUMNS}0x1000,R,1,-\n", True),
        (f"{_TAG}{_COLUMNS}0x1000,R,1,10 \n", False),
        (f"{_TAG}{_COLUMNS}0x1000,R,1,10\r\n", False),
        (f"{_TAG}{_COLUMNS}0x1000,R,1,10\x0c\n", False),
        (f"{_TAG}{_COLUMNS}0x1000,R,1,1\u0660\n", True),  # an Arabic-Indic zero, which int() reads
        (f"# optrace trace v1 \n{_COLUMNS}0x1000,R,1,10\n", False),
        (f"{_TAG}\n{_COLUMNS}0x1000,R,1,10\n", False),
        (f"{_TAG}# layout_seed=4\r\n{_COLUMNS}0x1000,R,1,10\n", False),
        (f"{_TAG}# a=1\x0cb=2\n{_COLUMNS}0x1000,R,1,10\n", False),  # `b=2` is in the comment
        (f"{_TAG}# a=1\x85b=2\n{_COLUMNS}0x1000,R,1,10\n", False),
        (f"{_TAG}address,mode,pf_count,latency \n0x1000,R,1,10\n", False),
        *((f"{_TAG}{_COLUMNS}0x2000,E,3,30\n{row}\n", False) for row in _EDGE_ROWS),
        *((f"{_TAG}{_COLUMNS}0x2000,E,3,30\n{row}\n", True) for row in _OFF_FORM_ROWS),
    ],
)
def test_files_near_the_writers_form_read_as_the_csv_reader_reads_them(tmp_path, text, split):
    # `split`: whether the block of rows goes to the CSV fallback.  Spaces
    # round a line, CRLF, a form feed and odd header lines are gone once the
    # block is split into lines, so its data lines are rows in the writer's
    # form again.  A form feed or U+0085 inside a comment line is part of
    # it, and makes it malformed before any row is read.
    path = tmp_path / "near.trace"
    path.write_bytes(text.encode())
    assert bool(_csv_lines(path)) == split
    _assert_read_as_csv(path)


@pytest.mark.parametrize("block", [1, 8, 64])
def test_a_block_holds_at_most_one_read_and_twice_the_longest_line(tmp_path, block):
    # The reader holds one block and the part line after it, never the file,
    # and reads each byte once.
    long_row = '"0x' + "0" * 10_000 + '1000",R,1,10\n'
    row = "0x3000,E,3,30\r\n"
    text = f"{_TAG}{_COLUMNS}0x2000,W,2,20\n{long_row}" + row * 1000
    path = tmp_path / "long.trace"
    path.write_bytes(text.encode())
    sizes = []
    blocks = traceio._Lines.blocks

    def spy(self):
        for data in blocks(self):
            sizes.append(len(data))
            yield data

    with mock.patch.object(traceio._Lines, "blocks", spy), mock.patch.object(
        traceio, "_BLOCK_BYTES", block
    ):
        back = read_trace(path)
    assert back.page.tolist() == [2, 1, *[3] * 1000]
    assert sum(sizes) == len(text)
    assert max(sizes) <= block + 2 * len(long_row)
    assert max(sizes[-5:]) <= block + len(row)  # the rows after the long one


@pytest.mark.parametrize(
    "reader,kind,columns,row",
    [
        (read_trace, "trace", "address,mode,pf_count,latency", "0x1000,R,1,10"),
        (read_truth, "truth", "boundary_index,label", "0,nop"),
        (read_predictions, "predictions", "segment_id,label,score,margin", "0,nop,1.0,0.0"),
        (read_db, "fingerprint-db", _DB_COLUMNS.strip(), "0,x,1,R,O,1,1"),
    ],
    ids=["trace", "truth", "predictions", "db"],
)
@pytest.mark.parametrize(
    "tail", ["", "\r\n# layout_seed=2\r\n", "\n\xff\n"], ids=["plain", "crlf", "bad"]
)
def test_every_reader_opens_its_file_once(tmp_path, reader, kind, columns, row, tail):
    # Also when a late line is off the writer's form or undecodable.
    path = tmp_path / "f"
    path.write_bytes(f"# optrace {kind} v1\n{columns}\n{row}{tail}\n".encode("latin-1"))
    with mock.patch.object(traceio, "open", wraps=open, create=True) as opened:
        try:
            reader(path)
        except FormatError as exc:
            assert tail == "\n\xff\n" and "undecodable bytes" in str(exc)
    assert opened.call_count == 1


@pytest.mark.parametrize("block", [1, 23, traceio._BLOCK_BYTES])
def test_a_written_trace_is_read_without_the_csv_reader(tmp_path, block):
    # A silent fallback to the CSV reader would keep every other test green.
    events = [StepEvent(-1, "R", 1, 10), StepEvent(0, "E", -3, 0), StepEvent(2**40, "W", 0, 5)]
    trace = trace_of([*synth(SMALL, seed=3)[1].events, *events], layout_seed=7)
    path = tmp_path / "t.trace"
    write_trace(path, trace, config_hash="cafe01234567")
    no_csv = mock.patch.object(traceio, "_csv_columns", side_effect=AssertionError)
    with no_csv, mock.patch.object(traceio, "_BLOCK_BYTES", block):
        back = read_trace(path)
    assert back.events == trace.events
    assert back.layout_seed == 7


def test_a_header_only_trace_gives_empty_columns_without_the_csv_reader(tmp_path):
    path = tmp_path / "empty.trace"
    write_trace(path, SideChannelTrace([], [], [], [], truth=None, layout_seed=3))
    with mock.patch.object(traceio, "_csv_columns", side_effect=AssertionError):
        back = read_trace(path)
    assert [column.dtype for column in _columns(back)] == _COLUMN_DTYPES
    assert [len(column) for column in _columns(back)] == [0, 0, 0, 0]
    assert back.layout_seed == 3


@pytest.mark.parametrize("block", [1, 7, traceio._BLOCK_BYTES])
def test_a_trace_without_a_final_newline_is_read_without_the_csv_reader(tmp_path, block):
    # The last row has no line break; once decoded it is in the writer's form.
    _, trace = synth(SMALL, seed=3)
    path = tmp_path / "t.trace"
    write_trace(path, trace)
    path.write_bytes(path.read_bytes().removesuffix(b"\n"))
    no_csv = mock.patch.object(traceio, "_csv_columns", side_effect=AssertionError)
    with no_csv, mock.patch.object(traceio, "_BLOCK_BYTES", block):
        back = read_trace(path)
    assert back.events == trace.events


def test_a_late_comment_is_decoded_in_its_block_alone(tmp_path):
    # A file in the writer's form up to a `#` line between two rows and a
    # `# layout_seed=1` line after the last: only the header's blocks and
    # those holding the two lines are split into lines, and no block goes to
    # the CSV fallback.
    _, trace = synth(("i32.const", "i32.const", "i32.add", "drop") * 10, seed=3)
    path = tmp_path / "late.trace"
    write_trace(path, trace)
    lines = path.read_text().splitlines(keepends=True)
    column_line = lines.index(_COLUMNS) + 1
    middle = column_line + len(trace) // 2
    lines.insert(middle, "# a note\n")
    lines.append("# layout_seed=1\n")
    path.write_text("".join(lines))
    comments = {middle + 1, len(lines)}
    decoded = []
    rows = traceio._Lines.rows

    def spy(self, block):
        first = self.last_line + 1
        decoded.append(set(range(first, first + len(block.splitlines()))))
        return rows(self, block)

    no_csv = mock.patch.object(traceio, "_csv_columns", side_effect=AssertionError)
    with no_csv, mock.patch.object(traceio._Lines, "rows", spy), mock.patch.object(
        traceio, "_BLOCK_BYTES", 64
    ):
        back = read_trace(path)
    assert all(min(block) <= column_line or block & comments for block in decoded)
    assert comments <= set().union(*decoded)
    assert len(decoded) <= 4 < len(path.read_bytes()) // 64 // 4
    want = _read_as_csv(path)
    assert all(map(np.array_equal, _columns(back), _columns(want)))
    assert back.layout_seed == want.layout_seed == 1
    assert back.events == trace.events


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
    trace = trace_of([StepEvent(-1, "R", 1, 10), StepEvent(2, "W", 0, 5)])
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
    "reader,kind,body,line",
    [
        (read_trace, "trace", "address,mode,pf_count,latency\n0x1000,R,1,1\x0c0\n", 3),
        (read_truth, "truth", "boundary_index,label\n0,a\x0cb\n", 3),
        (read_predictions, "predictions", "segment_id,label,score,margin\n0,a\x85b,1.0,0.0\n", 3),
        (read_db, "fingerprint-db", f"{_DB_COLUMNS}0,a\u2028b,1,R,O,1,1\n", 3),
        (read_truth, "truth", "# layout_seed=1\x0c2\nboundary_index,label\n", 2),
    ],
    ids=["trace", "truth", "predictions", "db", "meta"],
)
def test_a_line_break_inside_a_line_is_a_format_error_on_it(tmp_path, reader, kind, body, line):
    # Lines end only in LF, CRLF or CR, so a form feed or a Unicode line break
    # inside a row, directive or meta line makes it malformed, not two lines.
    path = tmp_path / "f"
    path.write_bytes(f"# optrace {kind} v1\n{body}".encode())
    with pytest.raises(FormatError, match="line break other than LF or CR") as info:
        reader(path)
    assert info.value.line == line


@pytest.mark.parametrize("block", [1, 5, 40, traceio._BLOCK_BYTES])
@pytest.mark.parametrize(
    "nl,extra,line",
    [(b"\n", b"", 4), (b"\r\n", b"", 4), (b"\r", b"", 4), (b"\n", b"\x0c", 4)],
    ids=["lf", "crlf", "cr", "form-feed"],
)
def test_read_trace_reports_undecodable_bytes_on_their_line(tmp_path, nl, extra, line, block):
    # Small blocks put the bad bytes in a later block than the header's.
    path = tmp_path / "bytes.trace"
    path.write_bytes(
        b"# optrace trace v1" + nl + b"address,mode,pf_count,latency" + nl
        + b"0x1000,R,1,10" + nl + extra + b"0x2000,R,1,\xff\xfe" + nl
        + b"0x3000,R,1,10" + nl
    )
    with pytest.raises(FormatError, match="undecodable bytes") as info:
        with mock.patch.object(traceio, "_BLOCK_BYTES", block):
            read_trace(path)
    assert info.value.line == line


@pytest.mark.parametrize("block", [1, 2, 3, 16, 41])
@pytest.mark.parametrize("bad", [None, "0x4000,Q,1,10"])
def test_a_cr_only_trace_reads_alike_in_any_block_size(tmp_path, block, bad):
    # No LF anywhere, so every cut falls after a CR that is not a block's last byte.
    head = ["# optrace trace v1", "address,mode,pf_count,latency", "0x1000,R,1,10", ""]
    rows = ["# layout_seed=6", "0x2000,W,2,20", *([bad] if bad else []), "0x3000,E,3,30"]
    path = tmp_path / "cr.trace"
    path.write_bytes("".join(line + "\r" for line in head + rows).encode())
    small = mock.patch.object(traceio, "_BLOCK_BYTES", block)
    if bad:
        with pytest.raises(FormatError, match="bad access mode 'Q'") as want:
            read_trace(path)
        assert want.value.line == 7
        with small, pytest.raises(FormatError) as info:
            read_trace(path)
        assert (str(info.value), info.value.line) == (str(want.value), 7)
    else:
        want = read_trace(path)
        assert want.page.tolist() == [1, 2, 3] and want.layout_seed == 6
        with small:
            back = read_trace(path)
        assert back.events == want.events and back.layout_seed == 6


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

    layout, trace = synth(("i32.const", "i32.const", "i32.add", "drop"), seed=3)
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


def segment_lines(segments: Segments) -> str:
    """The row-by-row segments writer: the byte oracle of the column writer."""
    events = segments.trace.events
    return "".join(
        f"{k},{ev.page * PAGE_SIZE:#x},{ev.mode},{ev.pf_count},{ev.latency}\n"
        for k, (start, end) in enumerate(zip(segments.starts.tolist(), segments.ends.tolist()))
        for ev in events[start:end]
    )


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5])
@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(-(2**51), 2**51 - 1),
            st.sampled_from("RWE"),
            st.integers(-(2**63), 2**63 - 1),
            st.integers(-(2**63), 2**63 - 1),
        ),
        max_size=12,
    ),
    bounds=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=6),
)
@example(rows=[(-1, "R", 0, -5), (0, "E", 1, 2)], bounds=[(0, 2), (1, 1), (2, 0), (0, 1)])
def test_write_segments_matches_the_row_by_row_oracle(chunk, rows, bounds):
    # Segments that skip rows, overlap, or hold none, with chunks cutting
    # through and between them.
    trace = trace_of([StepEvent(*row) for row in rows])
    starts = np.array([min(a, b, len(rows)) for a, b in bounds], np.int64)
    ends = np.array([min(max(a, b), len(rows)) for a, b in bounds], np.int64)
    segments = Segments(trace, np.zeros(len(rows), np.uint8), starts, ends)
    head = "# optrace segments v1\n# layout_seed=7\n# config_hash=abc\n"
    head += "segment_id,address,mode,pf_count,latency\n"
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traceio, "_CHUNK_LINES", chunk):
        path = Path(tmp) / "s"
        write_segments(path, segments, config_hash="abc", layout_seed=7)
        assert path.read_bytes() == (head + segment_lines(segments)).encode()


# ----------------------------------------------------------------- truth


def test_truth_round_trip_preserves_null_labels(tmp_path):
    _, trace = synth(SMALL, seed=3, markers=True)
    path = tmp_path / "t.truth"
    write_truth(path, trace, config_hash="beef")
    truth, meta = read_truth(path)
    assert truth == list(trace.truth)
    assert any(label is None for _, label in truth)
    assert meta["config_hash"] == "beef"


def test_read_truth_gives_back_the_columns_written(tmp_path):
    # Bursts move the labeled rows off a plain stride; call adds NULL labels.
    noise = NoiseModel(ctx_switch_rate=0.01, ctx_switch_extra_steps_mean=20.0, rng_seed=2)
    _, trace = synth(["call", "i32.const", "drop"] * 30, seed=3, noise=noise)
    path = tmp_path / "t.truth"
    write_truth(path, trace)
    truth, _ = read_truth(path)
    assert isinstance(truth, Labels) and truth.rows.dtype == truth.codes.dtype == np.int64
    assert np.array_equal(truth.rows, trace.truth.rows)
    assert truth.labels == trace.truth.labels
    assert None in truth.labels and len(set(np.diff(truth.rows).tolist())) > 2
    assert len(truth.table) == len(set(truth.table))  # each label text coded once


def test_write_truth_requires_ground_truth(tmp_path):
    _, trace = synth(SMALL, seed=3)
    bare = trace_of(events=trace.events, truth=None, layout_seed=None)
    with pytest.raises(ValueError, match="ground truth"):
        write_truth(tmp_path / "t.truth", bare)


def test_labels_that_are_not_tokens_are_quoted_and_read_back(tmp_path):
    # A comma, quotes, a trailing space in truth's last column, a non-ASCII label with a space.
    rows = list(enumerate(["a,b", 'say "hi"', "x ", "café au lait", "i32.add", None]))
    trace = SideChannelTrace([0], [ord("R")], [0], [0], labels_of(rows), 4)
    write_truth(tmp_path / "t", trace)
    assert (tmp_path / "t").read_text(encoding="utf-8").splitlines()[3:] == [
        '0,"a,b"', '1,"say ""hi"""', '2,"x "', '3,"café au lait"', "4,i32.add", "5,NULL",
    ]
    assert read_truth(tmp_path / "t")[0] == rows
    preds = predictions_of(Prediction(row, label, 1.0, -0.0) for row, label in rows)
    write_predictions(tmp_path / "p", preds)
    assert read_predictions(tmp_path / "p")[0] == list(preds)
    db = db_of(*(fp(label, "R", "O", (1,), (2.0,)) for _, label in rows))
    write_db(tmp_path / "d", db)
    assert read_db(tmp_path / "d") == db


_LABEL_WRITERS = {
    "truth": lambda path, rows: write_truth(
        path, SideChannelTrace([0], [ord("R")], [0], [0], labels_of(rows), 4)
    ),
    "predictions": lambda path, rows: write_predictions(
        path, predictions_of(Prediction(row, label, 1.0, 0.0) for row, label in rows)
    ),
    "fingerprint-db": lambda path, rows: write_db(
        path, db_of(*(fp(label, "R", "O", (1,), (2.0,)) for _, label in rows))
    ),
}


@pytest.mark.parametrize("label", ["a\nb", "a\x0cb", "a\u2028b"], ids=["lf", "ff", "ls"])
@pytest.mark.parametrize("kind", _LABEL_WRITERS)
def test_writers_refuse_a_label_with_a_line_break(tmp_path, kind, label):
    # Every reader reads a quoted field within one line, so no file can carry such a label.
    path = tmp_path / "f"
    with pytest.raises(ValueError, match=re.escape(f"label {label!r} holds a line break")):
        _LABEL_WRITERS[kind](path, [(0, "i32.add"), (1, label)])
    assert not path.exists()


# ------------------------------------------------------------ predictions


def prediction_lines(preds) -> str:
    """The row-by-row predictions writer: the byte oracle of the column writer."""
    return "".join(
        f"{p.segment_id},{'NULL' if p.label is None else p.label},{p.score:.6f},{p.margin:.6f}\n"
        for p in preds
    )


# Floats whose text a value-keyed dedup or a rounding shortcut would get
# wrong: both zeros, NaNs of either sign, and halves of the 6th decimal.
SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf]),
    st.integers(-(10**7), 10**7).map(lambda k: (k + 0.5) / 1e6),
    st.floats(),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 2**62), st.sampled_from([None, "i32.add", "br_if"]), SCORES, SCORES),
        max_size=30,
    ),
    chunk=st.integers(1, 8),
)
@example(rows=[], chunk=1)
@example(rows=[(0, None, 0.0, -0.0), (1, "i32.add", -0.0, 0.0), (2, None, math.nan, -math.nan)], chunk=3)
def test_column_writer_matches_the_row_by_row_oracle(rows, chunk):
    # The list is stacked into columns first; a reversed view of those
    # columns has negative strides.
    preds = [Prediction(*r) for r in rows]
    head = "# optrace predictions v1\n# layout_seed=4\nsegment_id,label,score,margin\n"
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traceio, "_CHUNK_LINES", chunk):
        path = Path(tmp) / "p"
        stacked = predictions_of(preds)
        for written, want in ((stacked, preds), (stacked[::-1], preds[::-1])):
            write_predictions(path, written, layout_seed=4)
            assert path.read_bytes() == (head + prediction_lines(want)).encode()


def test_predictions_round_trip(tmp_path):
    preds = [
        Prediction(segment_id=0, label="i32.add", score=0.25, margin=0.03125),
        Prediction(segment_id=1, label=None, score=1.0, margin=0.0),
    ]
    path = tmp_path / "p.predictions"
    write_predictions(path, predictions_of(preds), config_hash="c0ffee", layout_seed=5)
    back, meta = read_predictions(path)
    assert isinstance(back, Predictions)
    assert back == [Prediction(0, "i32.add", 0.25, 0.03125), Prediction(1, None, 1.0, 0.0)]
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
    trace = SideChannelTrace([0], [ord("R")], [0], [0], labels_of(r[:2] for r in rows), 4)
    preds = [Prediction(*r) for r in rows]
    truth_lines = "".join(f"{i},{'NULL' if l is None else l}\n" for i, l, _, _ in rows)
    pred_lines = prediction_lines(preds)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traceio, "_CHUNK_LINES", chunk):
        write_truth(Path(tmp) / "t", trace, config_hash="ab12")
        write_predictions(Path(tmp) / "p", predictions_of(preds), config_hash="ab12", layout_seed=4)
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
        st.sampled_from(["", "\x0c", " ", "# note"]),  # a form feed or a line before it
        st.booleans(),  # quote the label field
    ),
    max_size=14,
)
# Per kind: reader, column line, field count, the maker of the item a row
# reads back as from its values, and three ways to spoil a row.
_LABELED_KINDS = {
    "truth": (read_truth, "boundary_index,label", 2, lambda *row: row, [
        (lambda f: ["x", *f[1:]], "invalid literal"),
        (lambda f: f[:1], "expected 2 fields"),
        (lambda f: [*f, "9"], "expected 2 fields"),
    ]),
    "predictions": (read_predictions, "segment_id,label,score,margin", 4, Prediction, [
        (lambda f: ["x", *f[1:]], "invalid literal"),
        (lambda f: f[:3], "expected 4 fields"),
        (lambda f: [*f[:2], "high", f[3]], "could not convert string to float"),
    ]),
}


# Rows at both ends of int64 and one past each; the second spoils the file.
_INT64_ENDS = [(v, "br_if", 0.5, 0.0, "\n", "", False) for v in (2**63 - 1, -(2**63))]
_PAST_INT64 = [_INT64_ENDS[0], (2**63, "i32.add", 0.0, 1.0, "\r\n", "", True), _INT64_ENDS[1]]


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(_LABELED_KINDS)),
    rows=_LABELED_ROWS,
    block=st.integers(1, 70),
    mutation=st.none() | st.tuples(st.integers(0, 2), st.integers(0, 99)),
)
@example(kind="truth", rows=_INT64_ENDS, block=70, mutation=None)
@example(kind="predictions", rows=_INT64_ENDS, block=70, mutation=None)
@example(kind="truth", rows=_PAST_INT64, block=70, mutation=None)
@example(kind="predictions", rows=[*_PAST_INT64[:1], (-(2**63) - 1, *_PAST_INT64[1][1:])],
         block=70, mutation=(2, 1))
def test_read_truth_and_predictions_agree_with_the_rows_written(kind, rows, block, mutation):
    # As for traces: rows, blank lines and comments straddle block boundaries,
    # and a quoted label sends its block through `csv` line by line.  The
    # first column is int64: a value outside it spoils its row, unless the
    # row has a bad field count, which is found first.
    reader, columns, width, item, mutations = _LABELED_KINDS[kind]
    text = f"# optrace {kind} v1\n# config_hash=ab12\n{columns}\n"
    lineno = 3
    errors = []  # (line, message) of each spoiled row
    bad = mutation and rows and mutation[1] % len(rows)
    for k, (idx, label, score, margin, end, before, quoted) in enumerate(rows):
        fields = [str(idx), f'"{label}"' if quoted or "," in label else label]
        fields += [repr(score), repr(margin)][: width - 2]
        message = ""
        if mutation and rows and k == bad:
            fields, message = mutations[mutation[0]][0](fields), mutations[mutation[0]][1]
        if fields[0] == str(idx) and not -(2**63) <= idx < 2**63 and "fields" not in message:
            message = f"{columns.split(',')[0]} '{idx}' does not fit in int64"
        if before in (" ", "# note"):
            before += end  # a blank or comment line; never a bare LF, which would join a CR
        text += before + ",".join(fields) + end
        lineno += 1 + (before not in ("", "\x0c"))  # a form feed starts no line
        if message:
            errors.append((lineno, message))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traceio, "_BLOCK_BYTES", block):
        path = Path(tmp) / f"rows.{kind}"
        path.write_bytes(text.encode())
        if errors:
            with pytest.raises(FormatError, match=errors[0][1]) as info:
                reader(path)
            assert info.value.line == errors[0][0]
            return
        back, meta = reader(path)
    want = [
        item(*(idx, None if label == "NULL" else label, score, margin)[:width])
        for idx, label, score, margin, *_ in rows
    ]
    assert list(back) == want
    assert meta == {"config_hash": "ab12"}


# Labels in the writer's form, NULL and a non-ASCII one among them, and off
# it: a space, a quote, a form feed.  Six-decimal values by mantissa, both
# zeros and 2**53 - 1, 2**53 and 2**53 + 1 among them; one of 17 digits has
# a whole part of 11 digits.
_FORM_LABELS = st.sampled_from(["NULL", "i32.add", "br_if", "café", "", "a b", 'a"b', "a\x0cb"])
_MANTISSAS = st.sampled_from([0, 2**53 - 1, 2**53, 2**53 + 1, 10**16]) | st.integers(0, 2**54)
_FORM_LABELED_ROWS = st.lists(
    st.tuples(_NUMBERS, _FORM_LABELS, *[_MANTISSAS, st.booleans()] * 2), max_size=12
)


def _six_decimals(mantissa: int, negative: bool) -> str:
    return f"{'-' * negative}{mantissa // 10**6}.{mantissa % 10**6:06d}"


def _in_writers_form(fields: list[str], width: int) -> bool:
    """Whether a truth (`width` 2) or predictions (4) row of `fields` is in the writer's form."""
    label = fields[1] if len(fields) > 1 else ""
    floats = fields[2:]
    return (
        len(fields) == width
        and re.fullmatch(r"-?[0-9]{1,18}", fields[0]) is not None
        and label.isprintable() and not set(' ",') & set(label)
        and all(re.fullmatch(r"-?[0-9]{1,10}\.[0-9]{6}", f) for f in floats)
        and all(int(f.lstrip("-").replace(".", "")) < 2**53 for f in floats)
    )


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(_LABELED_KINDS)),
    rows=_FORM_LABELED_ROWS,
    block=st.integers(1, 70),
    mutation=st.none() | st.tuples(st.integers(0, 6), st.integers(0, 99)),
)
@example(kind="predictions", rows=[(1, "NULL", 0, True, 2**53 - 1, False)], block=70, mutation=None)
@example(kind="predictions", rows=[(1, "café", 2**53, False, 2**53 + 1, True)], block=70,
         mutation=None)
def test_read_truth_and_predictions_parse_the_writers_rows_as_the_csv_reader_does(
    kind, rows, block, mutation
):
    # As for traces: only blocks holding a row off the writer's form go to the
    # CSV fallback, and every file gives the CSV reader's columns, codes, label
    # table and meta, bit for bit, or its FormatError, message and line alike.
    # A mutation is one of `_MUTATIONS` that applies to the row, or one of the
    # kind's own.
    reader, columns, width, _, spoilers = _LABELED_KINDS[kind]
    mutations = [change for change, _ in [*_MUTATIONS.values(), *spoilers]]
    fields = [
        [str(idx), label, _six_decimals(score, neg), _six_decimals(margin, neg_margin)][:width]
        for idx, label, score, neg, margin, neg_margin in rows
    ]
    if mutation and rows:
        bad = mutation[1] % len(rows)
        with suppress(IndexError):  # a trace mutation that does not apply to the row
            fields[bad] = mutations[mutation[0]](fields[bad])
    off = {4 + k for k, row in enumerate(fields) if not _in_writers_form(row, width)}
    text = f"# optrace {kind} v1\n# layout_seed=5\n{columns}\n"
    text += "".join(",".join(row) + "\n" for row in fields)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(traceio, "_BLOCK_BYTES", block):
        path = Path(tmp) / f"rows.{kind}"
        path.write_bytes(text.encode())
        split = _csv_lines(path, reader)
        assert all(lines & off for lines in split)
        assert (min(off) in set().union(*split)) if off else not split
        _assert_read_as_csv(path, reader)
        if not off:
            back, meta = reader(path)
            assert meta == {"layout_seed": "5"}
            assert back.labels == [None if row[1] == "NULL" else row[1] for row in fields]
            for k, column in enumerate(("score", "margin")[: width - 2]):
                assert getattr(back, column).tolist() == [float(row[2 + k]) for row in fields]


@pytest.mark.parametrize("block", [1, 8, 64])
def test_a_comment_holding_a_comma_adds_no_label(tmp_path, block):
    # A block holding `# note,b` splits into fields like a row of two; its
    # "label" must not reach the label table before the row is refused.
    path = tmp_path / "t.truth"
    path.write_bytes(b"# optrace truth v1\nboundary_index,label\n0,a\n# note,b\n1,c\n")
    with mock.patch.object(traceio, "_BLOCK_BYTES", block):
        truth, _ = read_truth(path)
        _assert_read_as_csv(path, read_truth)
    assert truth.table == ["a", "c"]


@pytest.mark.parametrize("block", [1, 23, traceio._BLOCK_BYTES])
def test_a_written_truth_is_read_without_the_csv_reader(tmp_path, block):
    # A silent fallback to the CSV reader would keep every other test green.
    pairs = [(1, "i32.const"), (4, None), (9, "café"), (10**18 - 2, "br_if"), (10**18 - 1, None)]
    trace = SideChannelTrace([0], [ord("R")], [0], [0], labels_of(pairs * 300), 4)
    path = tmp_path / "t.truth"
    write_truth(path, trace, config_hash="ab12")
    no_csv = mock.patch.object(traceio, "_csv_columns", side_effect=AssertionError)
    with no_csv, mock.patch.object(traceio, "_BLOCK_BYTES", block):
        back, meta = read_truth(path)
    assert np.array_equal(back.rows, trace.truth.rows)
    assert back.labels == trace.truth.labels
    assert meta == {"layout_seed": "4", "config_hash": "ab12"}


@pytest.mark.parametrize("block", [1, 23, traceio._BLOCK_BYTES])
def test_a_written_predictions_is_read_without_the_csv_reader(tmp_path, block):
    # Scores of both signs and zeros, and near the largest whole part of the
    # writer's form; each reads back as float() of its six decimals.
    rows = [
        Prediction(0, "i32.add", 0.25, -0.0),
        Prediction(1, None, 1.0, 0.0),
        Prediction(2, "café", -1e-9, 0.1234565),
        Prediction(3, "br_if", 9007199254.5, -9007199253.25),
    ]
    preds = predictions_of(rows * 300)
    path = tmp_path / "p.predictions"
    write_predictions(path, preds, config_hash="ab12", layout_seed=4)
    no_csv = mock.patch.object(traceio, "_csv_columns", side_effect=AssertionError)
    with no_csv, mock.patch.object(traceio, "_BLOCK_BYTES", block):
        back, meta = read_predictions(path)
    assert np.array_equal(back.rows, preds.rows)
    assert back.labels == preds.labels
    for column in ("score", "margin"):
        want = np.array([float(f"{v:.6f}") for v in getattr(preds, column).tolist()])
        assert getattr(back, column).tobytes() == want.tobytes()
    assert math.copysign(1, back.score[2]) == -1  # -0.000000 reads as -0.0
    assert meta == {"layout_seed": "4", "config_hash": "ab12"}


# Read a truth file and write predictions, as a child process does it.
_CHILD = """
import locale, sys
import numpy as np
from optrace.matcher import Predictions
from optrace.traceio import read_truth, write_predictions
truth, meta = read_truth(sys.argv[1])
table = ["caf\\u00e9", None]
write_predictions(sys.argv[2], Predictions(
    np.array([0, 1]), np.array([0, 1]), table, np.array([0.5, 1.0]), np.array([0.25, 0.0])
), layout_seed=1)
print(ascii([locale.getpreferredencoding(False), truth.labels, meta]))
"""


def test_files_mean_the_same_in_an_ascii_locale(tmp_path):
    # The files are UTF-8 whatever the reader's locale.  The locales here are
    # C, C.utf8 and POSIX, so the ASCII `C` locale, with Python's UTF-8 mode
    # and locale coercion off, is the one non-UTF-8 locale to run a child in.
    truth = tmp_path / "t.truth"
    truth.write_bytes("# optrace truth v1\n# note café\nboundary_index,label\n0,nop\n".encode())
    here = tmp_path / "here.predictions"
    table = ["café", None]
    write_predictions(here, Predictions(
        np.array([0, 1]), np.array([0, 1]), table, np.array([0.5, 1.0]), np.array([0.25, 0.0])
    ), layout_seed=1)
    src = str(Path(traceio.__file__).resolve().parents[1])
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, truth, tmp_path / "there.predictions"],
        env=env, capture_output=True, text=True,
    )
    assert child.returncode == 0, child.stderr
    encoding, labels, meta = ast.literal_eval(child.stdout)
    assert encoding != "UTF-8"
    truth_here, meta_here = read_truth(truth)
    assert (labels, meta) == (truth_here.labels, meta_here) == (["nop"], {})
    assert (tmp_path / "there.predictions").read_bytes() == here.read_bytes()
    assert "café".encode() in here.read_bytes()


# ------------------------------------------------------------ fingerprints


def make_db(mnemonics=("i32.const", "i32.const", "i32.add", "drop")):
    layout, trace = synth(mnemonics, seed=3, markers=True)
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
    assert read_db(path) == db


@pytest.mark.parametrize(
    "name", ["rows", "codes", "table", "support", "mode", "classes", "pf", "latency_sum", "meta"]
)
def test_db_equality_sees_one_changed_value(name):
    # Every read-back test rests on FingerprintDb equality.
    def make():
        return db_of(fp("x", "RE", "OX", (8, 5), (10, 20), 3), fp(None, "W", "S", (0,), (-2,), 2),
                     meta={"profile_seed": "3"})

    db = make()
    rows, codes, table = db.entries.rows, db.entries.codes, db.entries.table
    entries = {
        "rows": Labels(rows - [0, 1], codes, table),
        "codes": Labels(rows, codes[::-1], table),
        "table": Labels(rows, codes, ["y", None]),
    }
    if name in entries:
        changed = replace(db, entries=entries[name])
    elif name == "meta":
        changed = replace(db, meta={"profile_seed": "4"})
    else:
        column = getattr(db, name).copy()
        column[-1] += 1
        changed = replace(db, **{name: column})
    assert make() == db
    assert changed != db and db != changed


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


def test_db_rows_are_entry_positions_with_integer_latency_sums(tmp_path):
    db = db_of(
        fp("x", "RE", "OX", (8, -5), (5549.0, 1 / 3), 3), fp(None, "W", "S", (0,), (-2.5,), 2),
        meta={"profile_seed": "3"},
    )
    path = tmp_path / "f.db"
    write_db(path, db)
    assert path.read_text().splitlines()[1:] == [
        "# profile_seed=3", _DB_COLUMNS.strip(),
        "0,x,3,R,O,8,16647", "0,x,3,E,X,-5,1", "1,NULL,2,W,S,0,-5",
    ]
    assert read_db(path) == db


@settings(max_examples=300, deadline=None)
@given(st.integers(-(2**50) + 1, 2**50 - 1), st.integers(1, 10**6))
@example(2**50 - 1, 716)
@example(-(2**50) + 1, 999_999)
def test_every_latency_sum_below_2_to_the_50_reads_back_as_written(total, support):
    # The DB packed from the mean total / support holds the sum total, which the file carries.
    db = db_of(fp("x", "R", "O", (8,), (np.int64(total) / support,), support))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.db"
        write_db(path, db)
        assert path.read_text().splitlines()[-1] == f"0,x,{support},R,O,8,{total}"
        assert read_db(path) == db


@pytest.mark.parametrize(
    "entry,message",
    [
        (fp("x", "", "", (), ()), "entry 0 has no rows"),
        (fp("x", "R", "O", (8,), (2.0**50,)), "entry 0 is not a sum"),
        (fp("x", "R", "O", (8,), (-(2.0**50),)), "entry 0 is not a sum"),
    ],
    ids=["empty-entry", "2-to-the-50", "minus-2-to-the-50"],
)
def test_write_db_refuses_an_entry_the_file_cannot_carry_exactly(tmp_path, entry, message):
    path = tmp_path / "f.db"
    with pytest.raises(ValueError, match=message):
        write_db(path, db_of(entry))
    assert not path.exists()


@pytest.mark.parametrize(
    "rows,line,message",
    [
        ("0,nop,1,R,O,8,10\n2,nop,1,R,O,8,10\n", 4, "must start at 0 and step by 0 or 1"),
        ("1,nop,1,R,O,8,10\n", 3, "entry numbers must start at 0"),
        ("-1,nop,1,R,O,8,10\n", 3, "entry numbers must start at 0"),
        ("0,nop,1,R,O,8,10\n1,nop,1,R,O,8,10\n0,nop,1,R,O,8,10\n", 5, "step by 0 or 1"),
        ("0,nop,1,R,O,8,10\n0,drop,1,R,O,8,10\n", 4, "label and support must not change"),
        ("0,nop,1,R,O,8,10\n0,nop,2,R,O,8,10\n", 4, "label and support must not change"),
        ("0,nop,1,R,O,8,10\n1,nop,0,R,O,8,10\n", 4, "support must be at least 1"),
        (f"0,nop,1,R,O,8,{2**50}\n", 3, r"latency_sum must be below 2\*\*50 in magnitude"),
        (f"0,nop,1,R,O,8,-{2**50}\n", 3, r"latency_sum must be below 2\*\*50"),
        (f"0,nop,1,R,O,8,10\n0,nop,1,R,O,8,-{2**63}\n", 4, r"latency_sum must be below 2\*\*50"),
        ("0,nop,1,R,O,8\n", 3, "expected 7 fields"),
        ("0,nop,many,R,O,8,10\n", 3, "invalid literal"),
        ("0,nop,1,R,O,x,10\n", 3, "invalid literal"),
        ("0,nop,1,R,O,1.5,10\n", 3, "invalid literal"),
        ("0,nop,1,R,O,8,fast\n", 3, "invalid literal"),
        ("0,nop,1,R,O,8,inf\n", 3, "invalid literal"),
        ("0,nop,1,R,O,8,10.0\n", 3, "invalid literal"),
        (f"0,nop,1,R,O,1{'0' * 400},10\n", 3, "pf '10+' does not fit in int64"),
        (f"0,nop,1,R,O,{10**20},10\n", 3, f"pf '{10**20}' does not fit in int64"),
        (f"0,nop,1,R,O,8,{2**63}\n", 3, f"latency_sum '{2**63}' does not fit in int64"),
        ("0,nop,1,R,O,8,10\n0,nop,1,Q,O,8,10\n", 4, "bad access mode 'Q'"),
        ("0,nop,1,R\u00e9,O,8,10\n", 3, "bad access mode 'R\u00e9'"),
        ("0,nop,1,\u00e9,O,8,10\n", 3, "bad access mode '\u00e9'"),
        ("0,nop,1,R,Z,8,10\n", 3, "bad page class 'Z'"),
        ("0,nop,1,R,,8,10\n", 3, "bad page class ''"),
    ],
)
def test_read_db_rejects_malformed_rows_on_their_line(tmp_path, rows, line, message):
    # Modes and classes are packed by the matcher as ASCII codes of R/W/E and O/S/X; a trace's
    # pf_count and latency are int64, and so are an entry's pf values and latency sums.
    path = tmp_path / "bad.db"
    path.write_text(f"{_DB_TAG}{_DB_COLUMNS}{rows}")
    with pytest.raises(FormatError, match=message) as info:
        read_db(path)
    assert info.value.line == line


def test_read_db_refuses_the_directive_format_on_its_first_entry_line(tmp_path):
    path = tmp_path / "old.db"
    path.write_text(f"{_DB_TAG}# profile_seed=3\nentry nop support=1\nmodes R\nclasses O\n"
                    "pf 8\nlatency 10.000000\nend\n")
    with pytest.raises(FormatError, match="expected column header entry,label,") as info:
        read_db(path)
    assert info.value.line == 3


def test_read_db_requires_header(tmp_path):
    path = tmp_path / "bad.db"
    path.write_text(f"{_DB_COLUMNS}0,nop,1,R,O,8,10\n")
    with pytest.raises(FormatError) as info:
        read_db(path)
    assert info.value.line == 1


@pytest.mark.parametrize("nl", ["\r\n", "\r"], ids=["crlf", "cr"])
@pytest.mark.parametrize("block", [1, 64, traceio._BLOCK_BYTES])
def test_crlf_and_cr_files_go_to_the_byte_parser(tmp_path, nl, block):
    # Only the blocks that hold the header lines are split into lines.
    _, trace = synth(("i32.const", "i32.const", "i32.add", "drop") * 10, seed=3)
    trace_path, db_path = tmp_path / "t.trace", tmp_path / "f.db"
    write_trace(trace_path, trace)
    write_db(db_path, make_db())
    for path in (trace_path, db_path):
        path.write_bytes(path.read_bytes().replace(b"\n", nl.encode()))
    split, rows = [], traceio._Lines.rows

    def spy(self, data):
        split.append(self.last_line + 1)
        return rows(self, data)

    no_csv = mock.patch.object(traceio, "_csv_columns", side_effect=AssertionError)
    with no_csv, mock.patch.object(traceio._Lines, "rows", spy), mock.patch.object(
        traceio, "_BLOCK_BYTES", block
    ):
        assert read_trace(trace_path).events == trace.events
        assert max(split) <= 3
        split.clear()
        assert read_db(db_path) == make_db()
        assert max(split) <= 5  # the tag, two meta lines and the column line


# ---------------------------------------------------------- every CSV kind


# The values of each column kind: pages whose addresses fit in int64, int64 integers (row ids
# too), floats of six decimals with a mantissa below 2**53 (-0.0 among them), and letters by
# column name.
_KIND_VALUES = {
    traceio._ADDRESS: st.integers(-(2**51), 2**51 - 1),
    traceio._DECIMAL: st.integers(-(2**63), 2**63 - 1),
    traceio._ROW_ID: st.integers(-(2**63), 2**63 - 1),
    traceio._SIX_DECIMALS: st.one_of(
        st.just(-0.0), st.integers(-(2**53) + 1, 2**53 - 1).map(lambda m: m / 1e6)
    ),
}
_LETTERS = {"mode": b"RWE", "class": b"OSX"}
# Labels: NULL, tokens, and texts that need quoting (no line breaks, which no row can hold).
_LABELS = st.one_of(
    st.none(),
    st.sampled_from(["i32.add", "café", "", "a,b", 'say "hi"', "x ", " y", "\u3000"]),
    st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=5),
).filter(lambda label: label != "NULL")


@pytest.mark.parametrize("kind", ["trace", "truth", "predictions", "fingerprint-db"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_csv_kind_reads_back_the_columns_table_and_meta_it_writes(kind, data):
    n, kinds = data.draw(st.integers(0, 10)), traceio._KINDS[kind]
    labels = data.draw(st.lists(_LABELS, min_size=n, max_size=n)) if "label" in kinds else []
    table = list(dict.fromkeys(labels))  # in order of appearance, as the reader codes them
    columns = []
    for name, column in kinds.items():
        if column is traceio._LABEL:
            values = [table.index(label) for label in labels]
        else:
            each = st.sampled_from(_LETTERS[name]) if name in _LETTERS else _KIND_VALUES[column]
            values = data.draw(st.lists(each, min_size=n, max_size=n))
        columns.append(np.array(values, column.dtype))
    meta = data.draw(st.dictionaries(st.from_regex(r"[a-z_]{1,8}", fullmatch=True),
                                     st.from_regex(r"[a-z0-9=,.]{1,8}", fullmatch=True)))
    block = data.draw(st.sampled_from([7, 64, traceio._BLOCK_BYTES]))
    chunk = data.draw(st.integers(1, 4))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        traceio, "_BLOCK_BYTES", block
    ), mock.patch.object(traceio, "_CHUNK_LINES", chunk):
        path = Path(tmp) / kind
        traceio._write_table(path, kind, meta, columns, table)
        back, back_table, back_meta = traceio._read_table(path, kind)
    assert [(c.dtype, c.tobytes()) for c in back] == [(c.dtype, c.tobytes()) for c in columns]
    assert back_table == table and back_meta == meta


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


@pytest.mark.parametrize(
    "text,message",
    [
        ("preprocess.window = -40\nnoise.ctx_switch_rate = 2", "noise: ctx_switch_rate"),
        ("mitigation.variant_count = 0\nlayout.span = 10", "layout: layout needs"),
        ("match.channels = bogus\npreprocess.coverage_target = 5", "preprocess: coverage_target"),
        ("match.channels = ,", "match: empty channel list"),
    ],
)
def test_the_first_bad_section_in_table_order_is_reported(text, message):
    # Sections are checked in the order noise, layout, mitigation, preprocess, match,
    # whatever the order of the lines.
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
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


def test_config_files_are_utf8_whose_lines_end_in_lf_crlf_or_cr(tmp_path):
    path = tmp_path / "c.config"
    path.write_bytes("# café\r\nlayout.stack_pages = 4\rlayout.span = 8192\n".encode())
    cfg = load_config(path)
    assert (cfg["layout.stack_pages"], cfg["layout.span"]) == (4, 8192)
    path.write_bytes(b"layout.stack_pages = 4\x0clayout.span = 8192\n")  # one line
    with pytest.raises(ConfigError, match=r"^layout.stack_pages: expected an integer"):
        load_config(path)
    path.write_bytes(b"layout.stack_pages = 4\n# caf\xe9\n")
    with pytest.raises(ConfigError, match=r"^line 2: undecodable bytes"):
        load_config(path)
    cfg["match.channels"] = "café"
    write_config(path, cfg)
    assert b"match.channels = caf\xc3\xa9\n" in path.read_bytes()
    with pytest.raises(ConfigError, match=r"^match: unknown channel 'café'"):  # read as UTF-8
        load_config(path)


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
