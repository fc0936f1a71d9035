"""File formats: traces, truth labels, predictions, fingerprint DBs, config.

Every format is UTF-8 text whose lines end in LF, CRLF or CR, with `#`
comment headers.  The first line always names the format and version so
files cannot be fed to the wrong reader.  Addresses are page-aligned byte
addresses in lowercase hex; the page number is address / 4096.
"""

import csv
import hashlib
from collections import namedtuple
from contextlib import suppress
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from .machine import EXEC, PAGE_SIZE, READ, WRITE, Labels, LayoutConfig, MitigationConfig
from .machine import NoiseModel, SideChannelTrace
from .matcher import Channel, Predictions
from .preprocess import OPTABLE_CLASS, OTHER_CLASS, STACK_CLASS, PreprocessConfig, Segments
from .profiler import FingerprintDb

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
    "config_record",
    "parse_channels",
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


class FormatError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__(msg if line is None else f"line {line}: {msg}")


class ConfigError(ValueError):
    pass


def decode_text(data: bytes, line: int = 1) -> str:
    """`data`, whose first line is line `line` of its file, decoded as UTF-8; a byte it rejects
    is a FormatError on its line, lines counted by `bytes.splitlines`."""
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        line += len((data[: exc.start] + b"x").splitlines()) - 1
        raise FormatError(f"undecodable bytes ({exc.reason})", line) from None


def _text(line: bytes, lineno: int) -> str:
    """Line `lineno`, `line`, decoded and stripped; a line break `str.splitlines` finds inside
    it, such as a form feed, is a FormatError, so no line reads as two."""
    text = decode_text(line, lineno).strip()
    if len(text.splitlines()) > 1:
        raise FormatError("line break other than LF or CR inside the line", lineno)
    return text


class _Lines:
    """The lines of one optrace file, read in binary a block at a time.

    `blocks()` reads _BLOCK_BYTES at a time (at most 4 KiB for the first
    block; as much as it holds of a longer line) and yields each block cut
    after its last LF or its last CR that cannot start a CRLF, whichever is
    later: whole lines, at most _BLOCK_BYTES plus twice the longest line.
    `rows(block)` gives the data lines of the block just yielded, split by
    `bytes.splitlines` and stripped of ASCII whitespace: line 1 must be
    `# optrace <kind> v1`, `# key=value` lines go into `meta` wherever they
    appear, other `#` lines and blank lines are skipped.  The first block
    must go to `rows`; a caller that takes a later block without it adds
    its lines to `last_line`.
    """

    def __init__(self, path, kind: str):
        self.path, self.kind = path, kind
        self.meta: dict[str, str] = {}
        self.last_line = 0

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
            if rest or not self.last_line:
                yield rest  # a last line without a line break; b"" for an empty file

    def rows(self, block: bytes):
        """`(linenos, rows)` of the data lines of `block`, the block just yielded."""
        lines = block.splitlines()
        first = self.last_line + 1
        self.last_line += len(lines)
        if first == 1:  # the tag line, a `#` line
            tag, want = lines[0] if lines else b"", f"optrace {self.kind} v1"
            if not tag.startswith(b"# optrace "):
                raise FormatError("missing '# optrace <kind> <version>' header", 1)
            if (found := _text(tag[2:], 1)) != want:
                raise FormatError(f"expected '{want}', found '{found}'", 1)
        lines = list(map(bytes.strip, lines))
        if b"" not in lines and b"\n#" not in b"\n" + b"\n".join(lines):
            return range(first, first + len(lines)), lines
        linenos, rows = [], []
        for lineno, line in enumerate(lines, start=first):
            if line.startswith(b"#"):  # a `# key=value` line or a comment
                key, equals, value = _text(line, lineno).lstrip("#").partition("=")
                if equals:
                    self.meta[key.strip()] = value.strip()
            elif line:
                linenos.append(lineno)
                rows.append(line)
        return linenos, rows


def _check_columns(lineno: int | None, line: str, columns: tuple[str, ...]) -> None:
    try:
        found = tuple(next(csv.reader((line,))))
    except csv.Error as exc:
        raise FormatError(str(exc), lineno) from None
    if found != columns:
        raise FormatError(f"expected column header {','.join(columns)}", lineno)


# The writer's form of each column kind, which `_parse` reads from bytes: an
# address `-?0x[0-9a-f]{1,15}`, page aligned; a decimal `-?[0-9]{1,18}`; a letter
# `[RWE]` or `[OSX]`; a label token of printable UTF-8 without a space, quote or
# comma; a six-decimal float `-?[0-9]{1,10}\.[0-9]{6}` whose mantissa (its digits
# as one integer) is below 2**53.  So no integer leaves int64, and a mantissa
# and 10**6 are exact doubles: their one rounded quotient is float(field).
_DIGIT = np.full(256, 255, np.uint8)  # value of each byte as a digit; 255 for no digit
_DIGIT[np.frombuffer(b"0123456789abcdef", np.uint8)] = np.arange(16)


def _digits(digit: np.ndarray, start, end, base: int, most: int):
    """Values of the fields `digit[start:end]`, each of 1 to `most` digits in `base`, or None."""
    count = end - start
    if count.min() < 1 or count.max() > most:
        return None
    value = np.zeros(len(count), np.int64)
    for k in range(count.max()):
        d = np.where(k < count, digit.take(end - 1 - k, mode="clip"), 0)
        if (d >= base).any():
            return None
        value += d * np.int64(base**k)
    return value


def _hex_address(a, digit, start, end):
    neg = a[start] == ord("-")
    if (a[start + neg] != ord("0")).any() or (a[start + neg + 1] != ord("x")).any():
        return None
    value = _digits(digit, start + neg + 2, end, 16, 15)
    if value is None or (value % PAGE_SIZE).any():
        return None
    return np.where(neg, -value, value) // PAGE_SIZE


def _decimal(a, digit, start, end):
    neg = a[start] == ord("-")
    value = _digits(digit, start + neg, end, 10, 18)
    return None if value is None else np.where(neg, -value, value)


def _six_decimals(a, digit, start, end):
    neg = a[start] == ord("-")
    whole = _digits(digit, start + neg, end - 7, 10, 10)
    fraction = _digits(digit, end - 6, end, 10, 6)
    if whole is None or fraction is None or (a[end - 7] != ord(".")).any():
        return None
    mantissa = whole * 10**6 + fraction
    return None if (mantissa >= 2**53).any() else np.where(neg, -1.0, 1.0) * (mantissa / 1e6)


def _tokens(code, a, digit, start, end):
    """`code` of each field `a[start:end]`, decoded; None unless every one is a label token."""
    buf = a.tobytes()
    with suppress(ValueError):  # an undecodable field, or a label with a line break
        texts = [buf[s:e].decode() for s, e in zip(start.tolist(), end.tolist())]
        if all(_label_text(text) == text for text in set(texts)):
            return np.array(list(map(code, texts)), np.int64)
    return None


def _parse(buf: bytes, kinds):
    """The columns of `buf`'s rows, each ending in LF, of one field per column kind in `kinds`,
    each read by its `parse`; None if a field is off the writer's form of its kind."""
    a = np.frombuffer(buf, np.uint8)
    sep = np.flatnonzero((a == ord(",")) | (a == ord("\n")))
    row = np.frombuffer(b"," * (len(kinds) - 1) + b"\n", np.uint8)  # a row's separators
    if buf[-1:] != b"\n" or len(sep) % len(kinds) or (a[sep].reshape(-1, len(row)) != row).any():
        return None
    sep, start = sep.reshape(-1, len(kinds)), np.zeros(len(sep), sep.dtype)
    np.add(sep.ravel()[:-1], 1, out=start[1:])  # a field starts after the separator before it
    start = start.reshape(sep.shape)
    digit, columns = _DIGIT.take(a), []
    for k, kind in enumerate(kinds.values()):  # left to right: no label is coded off a row
        columns.append(kind.parse(a, digit, start[:, k], sep[:, k]))
        if columns[-1] is None:
            return None
    return columns


def _csv_columns(linenos, lines: list[bytes], kinds) -> list:
    """The columns of `lines`, each read by `_text` and `csv` a line at a time (a quoted field
    never spans lines) and each field by its kind's `convert`; a FormatError names the first
    bad line and, within it, the leftmost bad field."""
    values = [[] for _ in kinds]
    for lineno, line in zip(linenos, lines):
        try:
            row = next(csv.reader((_text(line, lineno),)))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise FormatError(str(exc), lineno) from None
        if len(row) != len(kinds):
            raise FormatError(f"expected {len(kinds)} fields", lineno)
        for column, (name, kind), text in zip(values, kinds.items(), row):
            try:
                column.append(kind.convert(text))
            except OverflowError:
                raise FormatError(f"{name} {text!r} does not fit in int64", lineno) from None
            except ValueError as exc:
                raise FormatError(str(exc), lineno) from None
    return [np.array(column, kind.dtype) for column, kind in zip(values, kinds.values())]


def _table(lines: _Lines, kinds: dict):
    """Yield a table of no rows, whose columns set the types of the columns concatenated,
    then check the column header line and yield the rows of each block as columns.

    `kinds` maps each column's name to its kind.  A block after the column line that `_parse`
    takes once its CRLF and CR line ends are made LF is read as it is; the data lines of any
    other go to `_parse` once more, then to `_csv_columns`, which reports the first bad line.
    """
    header = None
    yield [np.empty(0, kind.dtype) for kind in kinds.values()]
    for block in lines.blocks():
        lf = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in block else block
        if header is not None and (table := _parse(lf, kinds)) is not None:
            lines.last_line += len(table[0])  # one row per line
            yield table
            continue
        linenos, rows = lines.rows(block)
        if header is None and rows:
            header = _text(rows[0], linenos[0])
            _check_columns(linenos[0], header, tuple(kinds))
            linenos, rows = linenos[1:], rows[1:]
        if rows:
            yield _parse(b"\n".join(rows) + b"\n", kinds) or _csv_columns(linenos, rows, kinds)
    if header is None:
        _check_columns(None, "", tuple(kinds))


def _data_line(path, kind: str, row: int) -> int:
    """The line number of data row `row` of a CSV file, row 0 following the column line."""
    lines = _Lines(path, kind)
    return [n for block in lines.blocks() for n in lines.rows(block)[0]][row + 1]


# A column kind: `parse` reads a column of fields in the writer's form from bytes for `_parse`;
# `convert` reads one CSV field into a value of `dtype`, or raises a ValueError naming the
# problem (an OverflowError for a value off int64); `text` gives a column's written fields.
_Kind = namedtuple("_Kind", "parse convert dtype text")


def _integer(text: str, base: int = 10, page: bool = False) -> int:
    """`text` as an int64 integer in `base`; if `page`, a page-aligned address as its page."""
    value = int(text, base)
    if page and value % PAGE_SIZE:
        raise ValueError(f"address {value:#x} not page aligned")
    if not -(2**63) <= value < 2**63:
        raise OverflowError
    return value // PAGE_SIZE if page else value


def _letter(noun: str, letters: bytes) -> _Kind:
    """The column kind of a one-letter field of `letters`, read as its ASCII code."""
    is_letter = np.zeros(256, bool)
    is_letter[list(letters)] = True

    def parse(a, digit, start, end):
        return a[start] if (end == start + 1).all() and is_letter[a[start]].all() else None

    def convert(text: str) -> int:
        if len(text) != 1 or text not in letters.decode():
            raise ValueError(f"bad {noun} {text!r}")
        return ord(text)

    return _Kind(parse, convert, np.uint8, lambda values: values.tobytes().decode("ascii"))


def _label_text(label: str | None) -> str:
    """A label as written: NULL for None, a label token as it is, and any other label quoted as
    `csv` quotes it, its quotes doubled.  A label with a line break is a ValueError, since every
    reader reads a quoted field within one line."""
    if label is None:
        return _NULL_LABEL
    if label.isprintable() and not any(c in label for c in ' ",'):  # a label token
        return label
    if len((label + ".").splitlines()) > 1:
        raise ValueError(f"label {label!r} holds a line break")
    return '"' + label.replace('"', '""') + '"'


def _formatted(values: np.ndarray, fmt) -> list[str]:
    """`fmt(value)` of every value, each distinct bit pattern (-0.0 is not 0.0) formatted once."""
    distinct, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    formatted = map(fmt, distinct.view(values.dtype).tolist())
    return np.array(list(formatted), dtype=object)[inverse].tolist()


_DECIMAL = _Kind(_decimal, _integer, np.int64, partial(_formatted, fmt=str))
# A decimal column whose values never repeat, so formatting each distinct one once saves nothing.
_ROW_ID = _DECIMAL._replace(text=lambda values: list(map(str, values.tolist())))
_SIX_DECIMALS = _Kind(_six_decimals, float, np.float64, partial(_formatted, fmt="{:.6f}".format))
_ADDRESS = _Kind(_hex_address, partial(_integer, base=16, page=True), np.int64,
                 partial(_formatted, fmt=lambda page: f"{page * PAGE_SIZE:#x}"))
_MODE = _letter("access mode", bytes((READ, WRITE, EXEC)))
# A label column holds int64 codes into a table of labels: `_write_table` writes each code's
# `_label_text`, and `_read_table` gives each read a `parse` and a `convert` that code texts.
_LABEL = _Kind(None, None, np.int64, None)
_TRACE = {"address": _ADDRESS, "mode": _MODE, "pf_count": _DECIMAL, "latency": _DECIMAL}

# Each CSV file kind: the names of its columns, in order, and their kinds.
_KINDS = {
    "trace": _TRACE,
    "segments": {"segment_id": _DECIMAL, **_TRACE},
    "truth": {"boundary_index": _ROW_ID, "label": _LABEL},
    "predictions": {
        "segment_id": _ROW_ID, "label": _LABEL, "score": _SIX_DECIMALS, "margin": _SIX_DECIMALS,
    },
    "fingerprint-db": {
        "entry": _DECIMAL, "label": _LABEL, "support": _DECIMAL, "mode": _MODE,
        "class": _letter("page class", bytes((OPTABLE_CLASS, STACK_CLASS, OTHER_CLASS))),
        "pf": _DECIMAL, "latency_sum": _DECIMAL,
    },
}


def _write_table(path, kind: str, meta: dict[str, object], columns, table=()) -> None:
    """Write `columns`, one per column of `kind` (a label column's codes index `table`), a row
    per line after the header: the tag line, one `# key=value` line per meta value that is not
    None, and the column line."""
    kinds = _KINDS[kind]
    label = partial(_formatted, fmt=list(map(_label_text, table)).__getitem__)
    texts = [label if k is _LABEL else k.text for k in kinds.values()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# optrace {kind} v1\n")
        fh.writelines(f"# {key}={value}\n" for key, value in meta.items() if value is not None)
        fh.write(",".join(kinds) + "\n")
        for start in range(0, len(columns[0]), _CHUNK_LINES):
            rows = slice(start, start + _CHUNK_LINES)
            fields = [text(column[rows]) for column, text in zip(columns, texts)]
            fh.write("\n".join(map(",".join, zip(*fields, strict=True))) + "\n")


def _read_table(path, kind: str):
    """The columns of a CSV file of `kind`, its label column read as codes into a table of the
    label texts in order of appearance (None for NULL); then that table and the meta."""
    lines, index = _Lines(path, kind), {}

    def code(text: str) -> int:
        return index.setdefault(text, len(index))

    label = _LABEL._replace(parse=partial(_tokens, code), convert=code)
    kinds = {name: label if k is _LABEL else k for name, k in _KINDS[kind].items()}
    columns = list(map(np.concatenate, zip(*_table(lines, kinds))))
    return columns, [None if text == _NULL_LABEL else text for text in index], lines.meta


# ---------------------------------------------------------------- traces


def write_trace(path, trace: SideChannelTrace, config_hash: str | None = None) -> None:
    meta = {"layout_seed": trace.layout_seed, "config_hash": config_hash}
    _write_table(path, "trace", meta, [trace.page, trace.mode, trace.pf, trace.latency])


def read_trace(path) -> SideChannelTrace:
    """Read a trace file into columns: blocks of rows in the writer's form are parsed as bytes,
    and any other block's rows go through the CSV reader, which reports the first bad line."""
    (page, mode, pf, latency), _, meta = _read_table(path, "trace")
    seed = meta.get("layout_seed")
    with suppress(ValueError):
        if seed is None or int(seed) >= 0:
            layout_seed = None if seed is None else int(seed)
            return SideChannelTrace(page, mode, pf, latency, truth=None, layout_seed=layout_seed)
    raise FormatError(f"layout_seed {seed!r} is not a non-negative integer")


def write_segments(path, segments: Segments, config_hash: str | None = None,
                   layout_seed: int | None = None) -> None:
    """Trace rows annotated with the segment each event landed in."""
    trace, rows = segments.trace, segments.rows
    ids = np.repeat(np.arange(len(segments)), segments.lengths)
    columns = [ids, *(column[rows] for column in (trace.page, trace.mode, trace.pf, trace.latency))]
    meta = {"layout_seed": layout_seed, "config_hash": config_hash}
    _write_table(path, "segments", meta, columns)


# -------------------------------------------------- truth labels and predictions


def write_truth(path, trace: SideChannelTrace, config_hash: str | None = None) -> None:
    if trace.truth is None:
        raise ValueError("trace carries no ground truth")
    meta = {"layout_seed": trace.layout_seed, "config_hash": config_hash}
    _write_table(path, "truth", meta, [trace.truth.rows, trace.truth.codes], trace.truth.table)


def read_truth(path) -> tuple[Labels, dict[str, str]]:
    (rows, codes), table, meta = _read_table(path, "truth")
    return Labels(rows, codes, table), meta


def write_predictions(path, predictions: Predictions, config_hash: str | None = None,
                      layout_seed: int | None = None) -> None:
    p, meta = predictions, {"layout_seed": layout_seed, "config_hash": config_hash}
    _write_table(path, "predictions", meta, [p.rows, p.codes, p.score, p.margin], p.table)


def read_predictions(path) -> tuple[Predictions, dict[str, str]]:
    (rows, codes, score, margin), table, meta = _read_table(path, "predictions")
    return Predictions(rows, codes, table, score, margin), meta


# --------------------------------------------------------- fingerprint DB


def write_db(path, db: FingerprintDb) -> None:
    """One row per entry position.  Each `latency_sum` must be below 2**50 in magnitude, as
    `read_db` requires."""
    if 0 in (lengths := db.lengths):
        raise ValueError(f"fingerprint-db entry {np.argmax(lengths == 0)} has no rows")
    entry, sums = np.repeat(np.arange(len(lengths)), lengths), db.latency_sum
    if (bad := (sums <= -(2**50)) | (sums >= 2**50)).any():
        raise ValueError(f"a latency of fingerprint-db entry {entry[np.argmax(bad)]} is not a "
                         "sum below 2**50")
    columns = [entry, db.entries.codes[entry], db.support[entry], db.mode, db.classes, db.pf, sums]
    _write_table(path, "fingerprint-db", dict(sorted(db.meta.items())), columns, db.entries.table)


def read_db(path) -> FingerprintDb:
    """The columns of a fingerprint DB file, whose entries are the runs of rows of one `entry`
    number, which starts at 0 and steps by 0 or 1."""
    columns, table, meta = _read_table(path, "fingerprint-db")
    entry, codes, support, mode, classes, pf, sums = columns
    new = np.diff(entry, prepend=-1) != 0
    new[:1] = True  # the first row starts entry 0
    starts, number = np.flatnonzero(new), np.cumsum(new) - 1  # each row's entry, if well numbered
    for problem, bad in (
        ("entry numbers must start at 0 and step by 0 or 1", entry != number),
        ("label and support must not change within an entry",
         (codes != codes[starts[number]]) | (support != support[starts[number]])),
        ("support must be at least 1", support < 1),
        ("latency_sum must be below 2**50 in magnitude", (sums <= -(2**50)) | (sums >= 2**50)),
    ):
        if bad.any():
            raise FormatError(problem, _data_line(path, "fingerprint-db", int(np.argmax(bad))))
    entries = Labels(starts, codes[starts], table)
    return FingerprintDb(entries, support[starts], mode, classes, pf, sums, meta)


# ----------------------------------------------------------------- config

# Each settings section and the record whose fields are its keys (all but the noise seed,
# which comes from --seed), in the order `parse_config_text` checks them.
_SECTIONS = {
    "noise": NoiseModel, "layout": LayoutConfig, "mitigation": MitigationConfig,
    "preprocess": PreprocessConfig,
}

# One flat namespace of dotted keys; values are coerced to the default's type.
# Each section's defaults are its record's, and `match.channels` lists every
# matcher channel.
DEFAULT_CONFIG: dict[str, object] = {
    **{
        f"{section}.{f.name}": f.default
        for section, cls in _SECTIONS.items() for f in fields(cls) if f.name != "rng_seed"
    },
    "match.channels": ",".join(c.value for c in Channel),
}


def _in_section(section: str, build, *args, **kwargs):
    """`build(*args, **kwargs)`; a ValueError it raises is a ConfigError naming `section`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def config_record(cfg, section: str, **extra):
    """The record of `section` built from its `section.*` settings in `cfg` and `extra`."""
    prefix = section + "."
    keys = {key[len(prefix):]: value for key, value in cfg.items() if key.startswith(prefix)}
    return _in_section(section, _SECTIONS[section], **keys, **extra)


def parse_channels(spec: str) -> frozenset[Channel]:
    """The channels of a comma list, as `match.channels` and `--channels` give them."""
    names = [part.strip() for part in spec.split(",") if part.strip()]
    if not names:
        raise ConfigError("empty channel list")
    known = {c.value: c for c in Channel}
    try:
        return frozenset(known[name] for name in names)
    except KeyError as exc:
        raise ConfigError(f"unknown channel {exc.args[0]!r}; choose from {sorted(known)}") from None


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
    """The settings of `text`, whose lines end in LF, CRLF or CR, over the defaults; every
    section is built into its record and `match.channels` parsed, so a bad value in any of
    them is a ConfigError, the first section's in `_SECTIONS` order, then `match`'s."""
    config = dict(DEFAULT_CONFIG)
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), 1):
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
    for section in _SECTIONS:
        config_record(config, section)
    _in_section("match", parse_channels, config["match.channels"])
    return config


def load_config(path=None) -> dict[str, object]:
    if path is None:
        return dict(DEFAULT_CONFIG)
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror}") from None
    try:
        return parse_config_text(decode_text(data))
    except FormatError as exc:  # an undecodable byte
        raise ConfigError(str(exc)) from None


def write_config(path, config: dict[str, object]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key in sorted(config):
            fh.write(f"{key} = {config[key]}\n")


def config_hash(config: dict[str, object]) -> str:
    """Short digest identifying a configuration, for replay checks."""
    canon = "\n".join(f"{k}={config[k]!r}" for k in sorted(config))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
