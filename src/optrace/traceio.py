"""File formats: traces, truth labels, predictions, fingerprint DBs, config.

Every format is line-oriented text with `#` comment headers.  The first
line always names the format and version so files cannot be fed to the
wrong reader.  Addresses are page-aligned byte addresses in lowercase hex;
the page number is address / 4096.
"""

import csv
import hashlib
from dataclasses import fields
from inspect import signature
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .machine import PAGE_SIZE, LayoutConfig, MitigationConfig, NoiseModel, SideChannelTrace
from .matcher import Channel
from .preprocess import Segments, preprocess_trace
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

# File lines read, and CSV rows parsed or trace rows formatted, per bulk
# step: large enough to amortize the per-step calls, small enough that one
# step's temporary strings stay a few MB (2^16 lines took 10 MB more peak
# RSS to read 829k trace rows, and no less time).
_CHUNK_LINES = 1 << 14

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
_MODES = frozenset("RWE")


class FormatError(ValueError):
    def __init__(self, msg: str, line: int | None = None):
        self.line = line
        super().__init__(msg if line is None else f"line {line}: {msg}")


class ConfigError(ValueError):
    pass


_TRACE_COLUMNS = ("address", "mode", "pf_count", "latency")
_TRUTH_COLUMNS = ("boundary_index", "label")
_PREDICTION_COLUMNS = ("segment_id", "label", "score", "margin")


def _write_header(fh, kind: str, meta: dict[str, object], columns: tuple[str, ...] = ()) -> None:
    """Tag line, one `# key=value` line per meta value that is not None, column line."""
    fh.write(f"# optrace {kind} v1\n")
    for key, value in meta.items():
        if value is not None:
            fh.write(f"# {key}={value}\n")
    if columns:
        fh.write(",".join(columns) + "\n")


def _write_lines(fh, lines) -> None:
    """Write `lines`, each ending in a newline, _CHUNK_LINES of them per write."""
    lines = iter(lines)
    for text in iter(lambda: "".join(islice(lines, _CHUNK_LINES)), ""):
        fh.write(text)


def _undecodable_line(path, encoding: str) -> int | None:
    """Number of the first line of `path` holding bytes `encoding` rejects."""
    done = 0
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                done += len(raw.decode(encoding).splitlines())
            except UnicodeDecodeError as exc:
                head = raw[: exc.start].decode(encoding)
                return done + len((head + "x").splitlines())
    return None


class _Lines:
    """The data lines of one optrace file, read as a stream.

    Iterating checks that line 1 is `# optrace <kind> v1` (any kind when
    `kind` is None), collects `# key=value` lines into `meta` wherever they
    appear, skips other comments and blank lines, and yields
    `(lineno, stripped_line)` for the rest; `chunks()` yields the same lines
    a chunk of file lines at a time.  Lines are split with
    `str.splitlines`, so a form feed or another Unicode line break also
    starts a new numbered line.  Bytes the text codec rejects raise a
    FormatError on the line that holds them.  Afterwards `tag` holds line 1
    without its `# ` and `last_line` is the number of the last line.
    """

    def __init__(self, path, kind: str | None):
        self.path, self.kind = path, kind
        self.meta: dict[str, str] = {}
        self.tag = ""
        self.last_line = 0

    def __iter__(self):
        for linenos, lines in self.chunks():
            yield from zip(linenos, lines)

    def chunks(self):
        """Yield `(linenos, lines)`: the data lines of up to _CHUNK_LINES file lines."""
        with open(self.path) as fh:
            try:
                lineno = 0
                for raw in iter(lambda: list(islice(fh, _CHUNK_LINES)), []):
                    lines = "".join(raw).splitlines()
                    if not lineno:
                        self._check_tag(lines[0])
                        yield self._data(lines[1:], 2)
                    else:
                        yield self._data(lines, lineno + 1)
                    lineno += len(lines)
                if not lineno:
                    self._check_tag("")
            except UnicodeDecodeError as exc:
                # The codec decodes whole chunks, so the line is found again.
                bad = _undecodable_line(self.path, fh.encoding)
                raise FormatError(f"undecodable bytes ({exc.reason})", bad) from None
        self.last_line = lineno

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
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    self.meta[key.strip()] = value.strip()
                continue
            linenos.append(lineno)
            data.append(line)
        return linenos, data


def _check_columns(lineno: int | None, line: str, columns: tuple[str, ...]) -> None:
    try:
        found = tuple(next(csv.reader((line,))))
    except csv.Error as exc:
        raise FormatError(str(exc), lineno) from None
    if found != columns:
        raise FormatError(f"expected column header {','.join(columns)}", lineno)


def _fields(linenos, lines: list[str], width: int) -> tuple[list[str], FormatError | None]:
    """The fields of `lines`, row after row, in one flat list, and the error of a bad line.

    A chunk with no quote, no line over `csv.field_size_limit()` and
    `width - 1` commas on every line is split in one go.  Any other is read
    with `csv` a line at a time, so a quoted field never spans lines; its
    fields stop before the first line with a bad field count or size.
    """
    text = ",".join(lines)
    if (
        '"' not in text
        and max(map(len, lines)) <= csv.field_size_limit()
        and set(map(str.count, lines, repeat(","))) == {width - 1}
    ):
        return text.split(","), None
    fields: list[str] = []
    for lineno, line in zip(linenos, lines):
        try:
            row = next(csv.reader((line,)))
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            return fields, FormatError(str(exc), lineno)
        if len(row) != width:
            return fields, FormatError(f"expected {width} fields", lineno)
        fields += row
    return fields, None


def _raise_bad_row(linenos, fields: list[str], converters) -> None:
    """Raise a FormatError for the first row with a bad field, naming its leftmost bad field."""
    width = len(converters)
    for lineno, start in zip(linenos, range(0, len(fields), width)):
        for convert, text in zip(converters, fields[start : start + width]):
            try:
                convert(text)
            except ValueError as exc:
                raise FormatError(str(exc), lineno) from None


def _table(lines: _Lines, columns: tuple[str, ...], converters, bulk=None):
    """Check the column header line, then yield the rows of each chunk, converted in bulk.

    `converters` holds one function per column that converts a field or
    raises a ValueError naming its problem.  A chunk's rows are
    `bulk(fields)`, or without `bulk` a list of tuples of converted fields,
    each converter mapped over its column.  If that fails, the converters
    run row by row to report the first bad row.
    """
    width = len(columns)
    header = None
    for linenos, chunk in lines.chunks():
        if header is None and chunk:
            header = chunk[0]
            _check_columns(linenos[0], header, columns)
            linenos, chunk = linenos[1:], chunk[1:]
        if chunk:
            fields, error = _fields(linenos, chunk, width)
            try:
                if bulk:
                    rows = bulk(fields)
                else:
                    rows = list(zip(*(map(f, fields[k::width]) for k, f in enumerate(converters))))
            except (ValueError, OverflowError):  # OverflowError: outside int64
                _raise_bad_row(linenos, fields, converters)
                raise
            if error:  # a line after every converted row
                raise error
            yield rows
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


def _rows_text(trace: SideChannelTrace, rows, ids=None) -> str:
    """Trace file lines of `rows` (not empty), each led by its id if given."""
    pages, inverse = np.unique(trace.page[rows], return_inverse=True)
    hexes = np.array([f"{p * PAGE_SIZE:#x}" for p in pages.tolist()], dtype=object)
    columns = [
        hexes[inverse].tolist(),
        trace.mode[rows].tobytes().decode("ascii"),
        map(str, trace.pf[rows].tolist()),
        map(str, trace.latency[rows].tolist()),
    ]
    if ids is not None:
        columns.insert(0, map(str, ids.tolist()))
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def write_trace(path, trace: SideChannelTrace, config_hash: str | None = None) -> None:
    with open(path, "w", newline="") as fh:
        meta = {"layout_seed": trace.layout_seed, "config_hash": config_hash}
        _write_header(fh, "trace", meta, _TRACE_COLUMNS)
        for start in range(0, len(trace), _CHUNK_LINES):
            fh.write(_rows_text(trace, slice(start, start + _CHUNK_LINES)))


def _ints(strings: list[str], base: int) -> np.ndarray:
    """`int(s, base)` of every string, as int64; each distinct string is parsed once."""
    values = {text: int(text, base) for text in set(strings)}
    return np.fromiter(map(values.__getitem__, strings), np.int64, len(strings))


def _int64(name: str, text: str, base: int = 10) -> int:
    value = int(text, base)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ValueError(f"{name} {text!r} does not fit in int64")
    return value


def _address(text: str) -> int:
    addr = _int64("address", text, 16)
    if addr % PAGE_SIZE:
        raise ValueError(f"address {addr:#x} not page aligned")
    return addr


def _mode(text: str) -> str:
    if text not in _MODES:
        raise ValueError(f"bad access mode {text!r}")
    return text


_TRACE_CONVERTERS = (
    _address, _mode, lambda text: _int64("pf_count", text), lambda text: _int64("latency", text)
)


def _trace_columns(fields: list[str]):
    """Page, mode, pf and latency columns of a chunk's trace rows."""
    addr = _ints(fields[0::4], 16)
    modes = fields[1::4]
    if not _MODES.issuperset(modes) or (addr % PAGE_SIZE).any():
        raise ValueError("bad mode or address")
    mode = np.frombuffer("".join(modes).encode("ascii"), np.uint8)
    return addr // PAGE_SIZE, mode, _ints(fields[2::4], 10), _ints(fields[3::4], 10)


def read_trace(path) -> SideChannelTrace:
    """Read a trace file into columns, _CHUNK_LINES lines at a time."""
    lines = _Lines(path, "trace")
    parts = [_trace_columns([]), *_table(lines, _TRACE_COLUMNS, _TRACE_CONVERTERS, _trace_columns)]
    page, mode, pf, latency = (np.concatenate(column) for column in zip(*parts))
    seed = lines.meta.get("layout_seed")
    try:
        layout_seed = int(seed) if seed is not None else None
    except ValueError:
        raise FormatError(f"layout_seed {seed!r} is not an integer") from None
    return SideChannelTrace(page, mode, pf, latency, truth=None, layout_seed=layout_seed)


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
    with open(path, "w", newline="") as fh:
        meta = {"layout_seed": layout_seed, "config_hash": config_hash}
        _write_header(fh, "segments", meta, ("segment_id", *_TRACE_COLUMNS))
        for start in range(0, len(rows), _CHUNK_LINES):
            chunk = slice(start, start + _CHUNK_LINES)
            fh.write(_rows_text(segments.trace, rows[chunk], ids[chunk]))


def trace_meta(path) -> dict[str, str]:
    """Header key=value pairs of any trace-family file, without the rows."""
    lines = _Lines(path, None)
    for _ in lines:
        pass
    return {**lines.meta, "format": lines.tag}


# ----------------------------------------------------------- truth labels


def write_truth(path, trace: SideChannelTrace, config_hash: str | None = None) -> None:
    if trace.truth is None:
        raise ValueError("trace carries no ground truth")
    with open(path, "w", newline="") as fh:
        meta = {"layout_seed": trace.layout_seed, "config_hash": config_hash}
        _write_header(fh, "truth", meta, _TRUTH_COLUMNS)
        _write_lines(fh, (
            f"{idx},{_NULL_LABEL if label is None else label}\n" for idx, label in trace.truth
        ))


def read_truth(path) -> tuple[list[tuple[int, str | None]], dict[str, str]]:
    lines = _Lines(path, "truth")
    return list(chain.from_iterable(_table(lines, _TRUTH_COLUMNS, (int, _label)))), lines.meta


# ----------------------------------------------------------- predictions


def write_predictions(
    path, predictions, config_hash: str | None = None, layout_seed: int | None = None
) -> None:
    with open(path, "w", newline="") as fh:
        meta = {"layout_seed": layout_seed, "config_hash": config_hash}
        _write_header(fh, "predictions", meta, _PREDICTION_COLUMNS)
        _write_lines(fh, (
            f"{p.segment_id},{_NULL_LABEL if p.label is None else p.label},"
            f"{p.score:.6f},{p.margin:.6f}\n"
            for p in predictions
        ))


def read_predictions(path) -> tuple[list[tuple[int, str | None, float, float]], dict[str, str]]:
    lines = _Lines(path, "predictions")
    rows = _table(lines, _PREDICTION_COLUMNS, (int, _label, float, float))
    return list(chain.from_iterable(rows)), lines.meta


# --------------------------------------------------------- fingerprint DB


def write_db(path, db: FingerprintDb) -> None:
    with open(path, "w", newline="") as fh:
        _write_header(fh, "fingerprint-db", {key: db.meta[key] for key in sorted(db.meta)})
        for fp in db.entries:
            label = _NULL_LABEL if fp.label is None else fp.label
            fh.write(f"entry {label} support={fp.support}\n")
            fh.write(f"modes {fp.modes}\n")
            fh.write(f"classes {fp.classes}\n")
            fh.write(f"pf {','.join(str(v) for v in fp.pf)}\n")
            fh.write(f"latency {','.join(f'{v:.6f}' for v in fp.latency)}\n")
            fh.write("end\n")


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
            current = {
                "label": None if name == _NULL_LABEL else name,
                "support": _convert(int, support_part.removeprefix("support="), lineno),
            }
        elif word in ("modes", "classes"):
            if current is None:
                raise FormatError(f"'{word}' outside entry", lineno)
            current[word] = rest.strip()
        elif word in ("pf", "latency"):
            if current is None:
                raise FormatError(f"'{word}' outside entry", lineno)
            convert = int if word == "pf" else float
            values = rest.split(",") if rest else ()
            current[word] = tuple(_convert(convert, v, lineno) for v in values)
        elif word == "end":
            if current is None:
                raise FormatError("'end' outside entry", lineno)
            try:
                fp = Fingerprint(
                    label=current["label"],
                    modes=current["modes"],
                    classes=current["classes"],
                    pf=current["pf"],
                    latency=current["latency"],
                    support=current["support"],
                )
            except KeyError as exc:
                raise FormatError(f"entry missing field {exc}", lineno) from None
            if not (len(fp.modes) == len(fp.classes) == len(fp.pf) == len(fp.latency)):
                raise FormatError("channel lengths disagree", lineno)
            entries.append(fp)
            current = None
        else:
            raise FormatError(f"unknown directive {word!r}", lineno)
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
    if isinstance(default, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if isinstance(default, float):
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
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
