"""File formats: traces, truth labels, predictions, fingerprint DBs, config.

Every format is line-oriented text with `#` comment headers.  The first
line always names the format and version so files cannot be fed to the
wrong reader.  Addresses are page-aligned byte addresses in lowercase hex;
the page number is address / 4096.
"""

import csv
import hashlib
import locale
from contextlib import suppress
from dataclasses import fields
from inspect import signature
from itertools import repeat
from math import isfinite
from pathlib import Path

import numpy as np

from .machine import EXEC, PAGE_SIZE, READ, WRITE, Labels, LayoutConfig, MitigationConfig
from .machine import NoiseModel, SideChannelTrace
from .matcher import Channel, Predictions
from .preprocess import OPTABLE_CLASS, OTHER_CLASS, STACK_CLASS, Segments, preprocess_trace
from .profiler import Fingerprint, FingerprintDb

__all__ = [
    "FormatError",
    "ConfigError",
    "DEFAULT_CONFIG",
    "write_trace",
    "read_trace",
    "write_segments",
    "write_truth",
    "read_truth",
    "write_predictions",
    "read_predictions",
    "write_db",
    "read_db",
    "load_config",
    "parse_config_text",
    "write_config",
    "config_hash",
]

_NULL_LABEL = "NULL"

# Lines formatted per write by the writers: large enough to amortize the
# per-write calls, small enough that one write's temporary strings stay a
# few MB.
_CHUNK_LINES = 1 << 14

# Bytes read per block by every reader: a block's temporary arrays and lines
# stay a few MB (2^22 bytes took 20 MB more peak RSS to read 829k trace rows,
# and no less time).
_BLOCK_BYTES = 1 << 18

# Access-mode and page-class letters; a DB entry's `modes` and `classes` lines hold only these.
_MODES = frozenset(map(chr, (READ, WRITE, EXEC)))
_CLASSES = frozenset(map(chr, (OPTABLE_CLASS, STACK_CLASS, OTHER_CLASS)))
_DB_LETTERS = {"modes": ("mode", _MODES), "classes": ("class", _CLASSES)}


class FormatError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__(msg if line is None else f"line {line}: {msg}")


class ConfigError(ValueError):
    pass


_TRACE_COLUMNS = ("address", "mode", "pf_count", "latency")
_TRUTH_COLUMNS = ("boundary_index", "label")
_PREDICTION_COLUMNS = ("segment_id", "label", "score", "margin")


def _write_table(path, kind: str, meta: dict[str, object], columns, count: int, text) -> None:
    """Write a file of `count` rows: its header, then `text(chunk)` per slice of _CHUNK_LINES rows.

    The header is the tag line, one `# key=value` line per meta value that
    is not None, and the column line if `columns` is not empty.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"# optrace {kind} v1\n")
        for key, value in meta.items():
            if value is not None:
                fh.write(f"# {key}={value}\n")
        if columns:
            fh.write(",".join(columns) + "\n")
        for start in range(0, count, _CHUNK_LINES):
            fh.write(text(slice(start, start + _CHUNK_LINES)))


def decode_text(data: bytes, lines_before: int = 0) -> str:
    """`data` decoded as open() decodes text; a byte it rejects is a FormatError on its line,
    counted by `str.splitlines` after `lines_before` lines."""
    encoding = locale.getpreferredencoding(False)
    try:
        return data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = lines_before + len((data[: exc.start].decode(encoding) + "x").splitlines())
        raise FormatError(f"undecodable bytes ({exc.reason})", line) from None


class _Lines:
    """The lines of one optrace file, read in binary a block at a time.

    `blocks()` reads _BLOCK_BYTES at a time (at most 4 KiB for the first
    block, which is always decoded; as much as it holds of a longer line)
    and yields each block cut after its last LF or its last CR that cannot
    start a CRLF, whichever is later.  So a block holds whole lines, and
    at most _BLOCK_BYTES plus twice the longest line.
    `decode(block)` gives the data lines of the block just yielded: line 1
    must be `# optrace <kind> v1` (any kind when `kind` is None),
    `# key=value` lines go into `meta` wherever they appear, other comments
    and blank lines are skipped.  Lines are split with `str.splitlines`, so
    a form feed or another Unicode line break also starts a new numbered
    line, and bytes the text codec rejects raise a FormatError on the line
    that holds them.  The first block must be decoded; a caller that takes
    a later block without decoding it adds its lines to `last_line`.
    Iterating yields `(lineno, stripped_line)` for every data line.
    Afterwards `tag` holds line 1 without its `# ` and `last_line` is the
    number of the last line.
    """

    def __init__(self, path, kind: str | None):
        self.path, self.kind = path, kind
        self.meta: dict[str, str] = {}
        self.tag = ""
        self.last_line = 0

    def __iter__(self):
        for block in self.blocks():
            yield from zip(*self.decode(block))

    def blocks(self):
        with open(self.path, "rb") as fh:
            rest = b""
            size = min(_BLOCK_BYTES, 1 << 12)
            while data := fh.read(max(size, len(rest))):  # so a long line takes few reads
                buf = rest + data
                cut = max(buf.rfind(b"\n"), buf.rfind(b"\r", 0, -1)) + 1
                rest, size = buf[cut:], _BLOCK_BYTES
                if cut:
                    yield buf[:cut]
            if rest:
                yield rest  # a last line without a line break
        if not self.last_line:
            self._check_tag("")

    def decode(self, block: bytes):
        """`(linenos, stripped)` of the data lines of `block`, the block just yielded."""
        lines = decode_text(block, self.last_line).splitlines()
        first = self.last_line + 1
        self.last_line += len(lines)
        if first == 1:
            self._check_tag(lines[0])
            return self._data(lines[1:], 2)
        return self._data(lines, first)

    def _check_tag(self, first: str) -> None:
        if not first.startswith("# optrace "):
            raise FormatError("missing '# optrace <kind> <version>' header", 1)
        self.tag = first[2:].strip()
        want = f"optrace {self.kind} v1"
        if self.kind is not None and self.tag != want:
            raise FormatError(f"expected '{want}', found '{self.tag}'", 1)

    def _data(self, lines: list[str], first: int):
        """`(linenos, stripped)` of the data lines among `lines`, numbered from `first`."""
        stripped = list(map(str.strip, lines))
        if "" not in stripped and "\n#" not in "\n" + "\n".join(stripped):
            return range(first, first + len(stripped)), stripped
        linenos, data = [], []
        for lineno, line in enumerate(stripped, start=first):
            if not line:
                continue
            if line.startswith("#"):
                _comment(self.meta, line)
                continue
            linenos.append(lineno)
            data.append(line)
        return linenos, data


def _comment(meta: dict[str, str], line: str) -> None:
    """Record a `# key=value` line in `meta`; any other comment line says nothing."""
    body = line.lstrip("#").strip()
    if "=" in body:
        key, _, value = body.partition("=")
        meta[key.strip()] = value.strip()


def _check_columns(lineno: int | None, line: str, columns: tuple[str, ...]) -> None:
    try:
        found = tuple(next(csv.reader((line,))))
    except csv.Error as exc:
        raise FormatError(str(exc), lineno) from None
    if found != columns:
        raise FormatError(f"expected column header {','.join(columns)}", lineno)


def _fields(lines: list[str], width: int) -> list[str] | None:
    """The fields of `lines`, row after row in one flat list, by a plain split: only if no
    line holds a quote or is over `csv.field_size_limit()` and every line has `width - 1`
    commas; else None."""
    text = ",".join(lines)
    plain = (
        '"' not in text
        and max(map(len, lines)) <= csv.field_size_limit()
        and set(map(str.count, lines, repeat(","))) == {width - 1}
    )
    return text.split(",") if plain else None


def _csv_columns(linenos, lines: list[str], columns, converters) -> list:
    """The columns of `lines`, read with `csv` a line at a time (a quoted field never spans
    lines); a FormatError names the first bad line and, within it, the leftmost bad field."""
    width = len(columns)
    fields: list[str] = []
    for lineno, line in zip(linenos, lines):
        try:
            row = next(csv.reader((line,)))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise FormatError(str(exc), lineno) from None
        if len(row) != width:
            raise FormatError(f"expected {width} fields", lineno)
        for name, convert, text in zip(columns, converters, row):
            try:
                _convert(convert, [text], lineno)
            except OverflowError:
                raise FormatError(f"{name} {text!r} does not fit in int64", lineno) from None
        fields += row
    return [convert(fields[k::width]) for k, convert in enumerate(converters)]


def _table(lines: _Lines, columns: tuple[str, ...], converters, raw=None):
    """Yield a table of no rows, whose columns set the types of the columns concatenated,
    then check the column header line and yield the rows of each block as columns.

    `raw`, if given, converts the bytes of whole rows, each ending in LF, to
    columns, or returns None when a row is off its form.  A block after the
    column line that `raw` takes is never decoded.  Any other block is
    decoded and its data lines, joined, go to `raw` once more; if it still
    refuses them they are split into fields.  `converters` holds one
    function per column that converts a list of fields into the column or
    raises a ValueError naming a problem (an OverflowError for a value off
    int64).  A block that does not split, or whose fields a converter
    refuses, is read once more by `_csv_columns`, which reports its first bad line.
    """
    width = len(columns)
    header = None
    yield [convert([]) for convert in converters]
    for block in lines.blocks():
        if header is not None and raw and (table := raw(block)) is not None:
            lines.last_line += len(table[0])  # one row per line
            yield table
            continue
        linenos, chunk = lines.decode(block)
        if header is None and chunk:
            header = chunk[0]
            _check_columns(linenos[0], header, columns)
            linenos, chunk = linenos[1:], chunk[1:]
        if not chunk:
            continue
        table = raw(("\n".join(chunk) + "\n").encode()) if raw else None
        if table is None and (fields := _fields(chunk, width)) is not None:
            with suppress(ValueError, OverflowError):
                table = [convert(fields[k::width]) for k, convert in enumerate(converters)]
        yield _csv_columns(linenos, chunk, columns, converters) if table is None else table
    if header is None:
        _check_columns(None, "", columns)


def _label(text: str) -> str | None:
    return None if text == _NULL_LABEL else text


def _convert(convert, text: str, lineno: int):
    """`convert(text)`, with its ValueError raised as a FormatError on `lineno`."""
    try:
        return convert(text)
    except ValueError as exc:
        raise FormatError(str(exc), lineno) from None


# ---------------------------------------------------------------- traces


def _formatted(values: np.ndarray, fmt=str) -> list[str]:
    """`fmt(value)` of every value, each distinct bit pattern (-0.0 is not 0.0) formatted once."""
    distinct, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    formatted = map(fmt, distinct.view(values.dtype).tolist())
    return np.array(list(formatted), dtype=object)[inverse].tolist()


def _joined(columns) -> str:
    """Lines of the formatted fields in `columns` (not empty), one line per row."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def _trace_fields(trace: SideChannelTrace, rows) -> list:
    """The formatted address, mode, pf and latency fields of `rows`, a column each."""
    return [
        _formatted(trace.page[rows], lambda page: f"{page * PAGE_SIZE:#x}"),
        trace.mode[rows].tobytes().decode("ascii"),
        _formatted(trace.pf[rows]),
        _formatted(trace.latency[rows]),
    ]


def write_trace(path, trace: SideChannelTrace, config_hash: str | None = None) -> None:
    meta = {"layout_seed": trace.layout_seed, "config_hash": config_hash}
    _write_table(path, "trace", meta, _TRACE_COLUMNS, len(trace),
                 lambda rows: _joined(_trace_fields(trace, rows)))


def _mapped(convert, dtype):
    """A column converter: `convert` mapped over the fields, into an array of `dtype`."""
    return lambda texts: np.array(list(map(convert, texts)), dtype)


def _address(text: str) -> int:
    addr = int(text, 16)
    if addr % PAGE_SIZE:
        raise ValueError(f"address {addr:#x} not page aligned")
    return addr


def _mode(text: str) -> int:
    if text not in _MODES:
        raise ValueError(f"bad access mode {text!r}")
    return ord(text)


_INT64, _FLOAT64 = _mapped(int, np.int64), _mapped(float, np.float64)
_TRACE_CONVERTERS = (_mapped(_address, np.int64), _mapped(_mode, np.uint8), _INT64, _INT64)


# The writer's form of a trace row: `-?0x[0-9a-f]{1,15},[RWE],-?[0-9]{1,18},-?[0-9]{1,18}\n`.
# With at most 15 hex or 18 decimal digits no value can leave int64.
_MOST_DIGITS = {16: 15, 10: 18}
_ROW_SEPARATORS = np.frombuffer(b",,,\n", np.uint8)
_DIGIT = np.full(256, 255, np.uint8)  # value of each byte as a digit; 255 for no digit
_DIGIT[np.frombuffer(b"0123456789abcdef", np.uint8)] = np.arange(16)
_IS_MODE = np.zeros(256, bool)
_IS_MODE[[READ, WRITE, EXEC]] = True


def _numbers(a: np.ndarray, digit: np.ndarray, start, end, base: int, prefix: bytes):
    """Values of the fields `a[start:end]`, each `-?<prefix><digits>`, or None.

    A field has 1 to _MOST_DIGITS[base] digits, taken into int64 one
    right-aligned digit position at a time.
    """
    neg = a[start] == ord("-")
    start = start + neg
    for k, byte in enumerate(prefix):
        if (a[start + k] != byte).any():
            return None
    count = end - start - len(prefix)
    if len(count) and (count.min() < 1 or count.max() > _MOST_DIGITS[base]):
        return None
    value = np.zeros(len(count), np.int64)
    for k in range(count.max(initial=0)):
        live = k < count
        d = np.where(live, digit.take(end - 1 - k, mode="clip"), 0)
        if (d >= base).any():
            return None
        value += d * np.int64(base**k)
    return np.where(neg, -value, value)


def _trace_block(buf):
    """Address, mode, pf and latency columns of `buf`'s rows; None if one is off the writer's form.

    Every row must match the writer's form, ending in LF, and hold a
    page-aligned address.
    """
    if buf[-1:] != b"\n":
        return None
    a = np.frombuffer(buf, np.uint8)
    sep = np.flatnonzero((a == ord(",")) | (a == ord("\n")))
    if len(sep) % 4:
        return None
    sep = sep.reshape(-1, 4)
    if (a[sep] != _ROW_SEPARATORS).any():
        return None
    at = sep[:, 0] + 1
    mode = a[at]
    if (sep[:, 1] != at + 1).any() or not _IS_MODE[mode].all():
        return None
    starts = np.roll(sep[:, 3] + 1, 1)
    starts[:1] = 0
    digit = _DIGIT[a]
    addr = _numbers(a, digit, starts, sep[:, 0], 16, b"0x")
    pf = _numbers(a, digit, sep[:, 1] + 1, sep[:, 2], 10, b"")
    latency = _numbers(a, digit, sep[:, 2] + 1, sep[:, 3], 10, b"")
    if addr is None or pf is None or latency is None or (addr % PAGE_SIZE).any():
        return None
    return addr, mode, pf, latency


def read_trace(path) -> SideChannelTrace:
    """Read a trace file into columns.

    Blocks of rows in the writer's form are parsed as bytes; any other
    block's rows go through the CSV reader, which reports the first bad line.
    """
    lines = _Lines(path, "trace")
    tables = _table(lines, _TRACE_COLUMNS, _TRACE_CONVERTERS, _trace_block)
    page, mode, pf, latency = map(np.concatenate, zip(*tables))
    page //= PAGE_SIZE
    seed = lines.meta.get("layout_seed")
    with suppress(ValueError):
        if seed is None or int(seed) >= 0:
            layout_seed = None if seed is None else int(seed)
            return SideChannelTrace(page, mode, pf, latency, truth=None, layout_seed=layout_seed)
    raise FormatError(f"layout_seed {seed!r} is not a non-negative integer")


def write_segments(
    path,
    segments: Segments,
    config_hash: str | None = None,
    layout_seed: int | None = None,
) -> None:
    """Trace rows annotated with the segment each event landed in."""
    lengths = segments.lengths
    ids = np.repeat(np.arange(len(segments)), lengths)
    offsets = np.cumsum(lengths) - lengths
    rows = np.arange(len(ids)) + np.repeat(segments.starts - offsets, lengths)

    def text(chunk: slice) -> str:
        return _joined([map(str, ids[chunk].tolist()), *_trace_fields(segments.trace, rows[chunk])])

    meta = {"layout_seed": layout_seed, "config_hash": config_hash}
    _write_table(path, "segments", meta, ("segment_id", *_TRACE_COLUMNS), len(rows), text)


def trace_meta(path) -> dict[str, str]:
    """Header key=value pairs of any trace-family file, without the rows."""
    lines = _Lines(path, None)
    for _ in lines:
        pass
    return {**lines.meta, "format": lines.tag}


# ----------------------------------------------------------- truth labels


def _write_labels(path, kind: str, columns, labels: Labels, layout_seed, config_hash, *floats):
    """Write one row per label: its row, its label (NULL for None), then its value in each
    column of `floats`, to six decimals."""
    table = [_NULL_LABEL if label is None else label for label in labels.table]
    texts = Labels(labels.rows, labels.codes, table).labels

    def text(chunk: slice) -> str:
        values = (_formatted(column[chunk], "{:.6f}".format) for column in floats)
        return _joined([map(str, labels.rows[chunk].tolist()), texts[chunk], *values])

    meta = {"layout_seed": layout_seed, "config_hash": config_hash}
    _write_table(path, kind, meta, columns, len(labels), text)


def _read_labels(path, make, kind: str, columns):
    """`make(rows, codes, table, *floats)` of a truth or predictions file's int64 column, label
    column and float64 columns, and the header meta.  Each distinct label text is read once."""
    lines, index = _Lines(path, kind), {}

    def coded(texts: list[str]) -> np.ndarray:
        return np.array([index.setdefault(text, len(index)) for text in texts], np.int64)

    tables = _table(lines, columns, (_INT64, coded, *[_FLOAT64] * (len(columns) - 2)))
    rows, codes, *floats = map(np.concatenate, zip(*tables))
    return make(rows, codes, [_label(text) for text in index], *floats), lines.meta


def write_truth(path, trace: SideChannelTrace, config_hash: str | None = None) -> None:
    if trace.truth is None:
        raise ValueError("trace carries no ground truth")
    _write_labels(path, "truth", _TRUTH_COLUMNS, trace.truth, trace.layout_seed, config_hash)


def read_truth(path) -> tuple[Labels, dict[str, str]]:
    return _read_labels(path, Labels, "truth", _TRUTH_COLUMNS)


# ----------------------------------------------------------- predictions


def write_predictions(
    path, predictions: Predictions, config_hash: str | None = None, layout_seed: int | None = None
) -> None:
    _write_labels(path, "predictions", _PREDICTION_COLUMNS, predictions, layout_seed, config_hash,
                  predictions.score, predictions.margin)


def read_predictions(path) -> tuple[Predictions, dict[str, str]]:
    return _read_labels(path, Predictions, "predictions", _PREDICTION_COLUMNS)


# --------------------------------------------------------- fingerprint DB


def write_db(path, db: FingerprintDb) -> None:
    def text(chunk: slice) -> str:
        return "".join(
            f"entry {_NULL_LABEL if fp.label is None else fp.label} support={fp.support}\n"
            f"modes {fp.modes}\nclasses {fp.classes}\npf {','.join(map(str, fp.pf))}\n"
            f"latency {','.join(f'{v:.6f}' for v in fp.latency)}\nend\n"
            for fp in db.entries[chunk]
        )

    meta = {key: db.meta[key] for key in sorted(db.meta)}
    _write_table(path, "fingerprint-db", meta, (), len(db.entries), text)


def read_db(path) -> FingerprintDb:
    lines = _Lines(path, "fingerprint-db")
    entries: list[Fingerprint] = []
    current: dict[str, object] | None = None
    for lineno, line in lines:
        word, _, rest = line.partition(" ")
        if word == "entry":
            if current is not None:
                raise FormatError("entry before previous 'end'", lineno)
            name, _, support_part = rest.partition(" ")
            if not support_part.startswith("support="):
                raise FormatError("entry line needs 'support=<n>'", lineno)
            support = _convert(int, support_part.removeprefix("support="), lineno)
            if support < 1:
                raise FormatError(f"support must be at least 1, got {support}", lineno)
            current = {"label": _label(name), "support": support}
            continue
        if word not in ("modes", "classes", "pf", "latency", "end"):
            raise FormatError(f"unknown directive {word!r}", lineno)
        if current is None:
            raise FormatError(f"'{word}' outside entry", lineno)
        if word in _DB_LETTERS:
            noun, letters = _DB_LETTERS[word]
            current[word] = rest.strip()
            if bad := [c for c in current[word] if c not in letters]:
                raise FormatError(f"bad {noun} letter {bad[0]!r}", lineno)
        elif word in ("pf", "latency"):
            convert = int if word == "pf" else float
            values = rest.split(",") if rest else ()
            current[word] = tuple(_convert(convert, v, lineno) for v in values)
            # A trace's pf and latency columns are int64, so a DB mean of them is in its range.
            if word == "latency" and (bad := [v for v in current[word] if not isfinite(v)]):
                raise FormatError(f"non-finite latency value {bad[0]!r}", lineno)
            if bad := [v for v in current[word] if not -(2**63) <= v < 2**63]:
                raise FormatError(f"{word} value {bad[0]} does not fit in int64", lineno)
        else:  # end
            try:
                fp = Fingerprint(**{f.name: current[f.name] for f in fields(Fingerprint)})
            except KeyError as exc:
                raise FormatError(f"entry missing field {exc}", lineno) from None
            if not (len(fp.modes) == len(fp.classes) == len(fp.pf) == len(fp.latency)):
                raise FormatError("channel lengths disagree", lineno)
            entries.append(fp)
            current = None
    if current is not None:
        raise FormatError("unterminated entry", lines.last_line)
    return FingerprintDb(entries=tuple(entries), meta=lines.meta)


# ----------------------------------------------------------------- config

def _field_defaults(section: str, cls, skip=()) -> dict[str, object]:
    return {
        f"{section}.{f.name}": f.default for f in fields(cls) if f.name not in skip
    }


# One flat namespace of dotted keys; values are coerced to the default's type.
# Each section is stated once, by the code that takes it: the fields of the
# noise, layout and mitigation settings (the noise seed comes from --seed),
# preprocess_trace's keyword arguments, and every matcher channel.
DEFAULT_CONFIG: dict[str, object] = {
    **_field_defaults("noise", NoiseModel, skip={"rng_seed"}),
    **_field_defaults("layout", LayoutConfig),
    **_field_defaults("mitigation", MitigationConfig),
    **{
        f"preprocess.{p.name}": p.default
        for p in signature(preprocess_trace).parameters.values()
        if p.default is not p.empty
    },
    "match.channels": ",".join(c.value for c in Channel),
}


def _coerce(key: str, raw: str, default) -> object:
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    for kind, name in ((int, "an integer"), (float, "a number")):
        if isinstance(default, kind):
            try:
                return kind(raw)
            except ValueError:
                raise ConfigError(f"{key}: expected {name}, got {raw!r}") from None
    return raw


def parse_config_text(text: str) -> dict[str, object]:
    config = dict(DEFAULT_CONFIG)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in DEFAULT_CONFIG:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        config[key] = _coerce(key, value, DEFAULT_CONFIG[key])
    return config


def load_config(path=None) -> dict[str, object]:
    if path is None:
        return dict(DEFAULT_CONFIG)
    return parse_config_text(Path(path).read_text())


def write_config(path, config: dict[str, object]) -> None:
    with open(path, "w") as fh:
        for key in sorted(config):
            fh.write(f"{key} = {config[key]}\n")


def config_hash(config: dict[str, object]) -> str:
    """Short digest identifying a configuration, for replay checks."""
    canon = "\n".join(f"{k}={config[k]!r}" for k in sorted(config))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
