"""Match recovered trace segments against a fingerprint database.

Each fingerprint channel is scored independently and the per-channel scores
multiply, so one disagreeing channel is enough to sink a candidate.
Symbolic channels (access mode, page class) score by Hamming agreement;
numeric channels (fault counts, latency) score by correlation, which
tolerates the additive jitter and quantization the timer applies.
"""

from dataclasses import dataclass
from enum import Enum
import numpy as np

from .machine import Labels
from .preprocess import Segments
from .profiler import FingerprintDb

__all__ = [
    "Channel",
    "DEFAULT_CHANNELS",
    "MatchError",
    "Prediction",
    "Predictions",
    "pearson",
    "score_discrete",
    "CompiledDb",
    "match_trace",
]


class Channel(Enum):
    MODE = "mode"
    CLASS = "class"
    PF = "pf"
    LATENCY = "latency"


DEFAULT_CHANNELS = frozenset(Channel)


class MatchError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class Prediction:
    segment_id: int
    label: str | None
    score: float
    margin: float


class Predictions(Labels):
    """Labels of segments, with scores: prediction i labels segment rows[i] as table[codes[i]],
    with score[i] and margin[i].  Items are Prediction objects; a slice, mask or index array
    gives a Predictions sharing the table.  An assigned Prediction adds its label if new."""

    def __init__(self, rows, codes, table: list, score, margin):
        super().__init__(rows, codes, table)
        self.score, self.margin = score, margin

    def __iter__(self):
        columns = self.rows.tolist(), self.labels, self.score.tolist(), self.margin.tolist()
        return map(Prediction, *columns)

    def __setitem__(self, i, p: Prediction) -> None:
        if p.label not in self.table:
            self.table.append(p.label)
        self.rows[i], self.codes[i] = p.segment_id, self.table.index(p.label)
        self.score[i], self.margin[i] = p.score, p.margin

    def _take(self, i) -> "Predictions":
        return Predictions(self.rows[i], self.codes[i], self.table, self.score[i], self.margin[i])


def _correlation(n, sx, sxx, sy, syy, sxy):
    """Correlation r of n pairs from their sums, with each side's variance term.

    Sums should be of values shifted to start at 0: the raw-sum form cancels
    catastrophically once values are large next to their spread, and a
    constant side then gives variance exactly 0.
    """
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    with np.errstate(invalid="ignore", divide="ignore"):
        r = (n * sxy - sx * sy) / np.sqrt(vx * vy)
    return r, vx, vy


def pearson(x, y) -> float:
    """Sample correlation; requires equal lengths and variance on both sides."""
    n = len(x)
    if n != len(y):
        raise ValueError("length mismatch")
    if n < 2:
        raise ValueError("need at least 2 points")
    x, y = np.asarray(x, np.float64), np.asarray(y, np.float64)
    x, y = x - x[0], y - y[0]
    r, vx, vy = _correlation(n, x.sum(), x @ x, y.sum(), y @ y, x @ y)
    if vx <= 0.0 or vy <= 0.0:
        raise ValueError("correlation undefined for constant input")
    return float(r)


def score_discrete(a, b) -> float:
    """1 / (1 + Hamming distance), counting length difference as mismatches."""
    m = min(len(a), len(b))
    mism = sum(1 for i in range(m) if a[i] != b[i])
    return 1.0 / (1.0 + mism + abs(len(a) - len(b)))


# Most S*E*W elements (segments x entries x width) scored in one block:
# large enough to amortize per-block NumPy calls, small enough that the
# block's temporaries stay in cache and add little to peak RSS.
BLOCK_ELEMENTS = 1 << 18

_NUMERIC = (Channel.PF, Channel.LATENCY)


def _gather(column: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """(S, width) array whose row k is column[starts[k] : starts[k] + width]."""
    return column[starts[:, None] + np.arange(width)]


def _distinct(*columns: np.ndarray):
    """First row and slot of each distinct key, a row's key being its row of every column."""
    key = np.concatenate([c.reshape(len(c), -1).view(np.uint8) for c in columns], axis=1)
    keys = key.view(np.dtype((np.void, key.shape[1]))).ravel()
    _, first, slot = np.unique(keys, return_index=True, return_inverse=True)
    return first, slot


def _ragged(count: np.ndarray):
    """Key and position of each pair, key k having count[k] pairs, key by key."""
    key = np.repeat(np.arange(len(count)), count)
    return key, np.arange(len(key)) - np.repeat(np.cumsum(count) - count, count)


def _discrete_scores(ent, entry, seg, cut_mask, lendiff) -> np.ndarray:
    """score_discrete of each pair p, seg[p] against the row entry[p] of `ent`."""
    mism = ((ent[entry, : seg.shape[1]] != seg) & cut_mask[entry]).sum(axis=1)
    return 1.0 / (1.0 + mism + lendiff)


class CompiledDb:
    """The fingerprint entries packed into padded arrays for bulk scoring.

    A segment scores against an entry as the product of its channel scores.
    Mode and class score as score_discrete.  pf and latency score as their
    correlation over the common prefix, clipped to [0, 1] and scaled by the
    shorter length over the longer.  Constant prefixes make correlation
    undefined, so two agree fully or not at all, and one against a varying
    prefix scores as score_discrete; an empty vector scores 1.0 against an
    empty one and 0.0 otherwise.  Ties are broken in favor of higher
    support, then lexicographic label (unlabeled entries last), then
    database order.  Every channel score lies in [0, 1], and d * l <= d
    holds in floating point for such l, so an entry scores at most its
    discrete score d, the product of its mode, class and pf scores: one
    whose d is below a segment's runner-up cannot change its label, score
    or margin, and its latency is not scored.
    """

    def __init__(self, db: FingerprintDb, channels: frozenset[Channel] = DEFAULT_CHANNELS):
        if not len(db.entries):
            raise MatchError("empty fingerprint database")
        self.lens = db.lengths
        self.width = int(self.lens.max())
        entry = np.repeat(np.arange(len(self.lens)), self.lens)
        at = entry, np.arange(len(entry)) - db.entries.rows[entry]  # each DB row's place
        values = db.mode, db.classes, db.pf.astype(np.float64), db.latency_sum / db.support[entry]
        # Padded (E, width) array of each scored channel, in Channel order, the order channel
        # scores multiply in.
        self.entry = {}
        for channel, column in zip(Channel, values):
            if channel in channels:
                self.entry[channel] = np.zeros((len(self.lens), self.width), column.dtype)
                self.entry[channel][at] = column
        keys = [(label is None, label or "") for label in db.entries.table]
        label_rank = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        by_label = np.array([label_rank[key] for key in keys], np.int64)[db.entries.codes]
        self.rank = np.argsort(np.lexsort((by_label, -db.support)))

    def _entry_side(self, cut: int):
        """Entry-side terms shared by every segment of `cut` scored rows.

        Each entry's common prefix m with such a segment, the prefix mask,
        and per numeric channel the masked entries less their first value,
        with their sums sy and syy.
        """
        m = np.minimum(self.lens, cut)
        mask = np.arange(self.width)[None, :] < m[:, None]
        sums = {}
        for channel in _NUMERIC:
            if channel in self.entry:
                ent = self.entry[channel]
                masked = (ent - ent[:, :1]) * mask
                sums[channel] = (masked, masked.sum(axis=1), (masked * masked).sum(axis=1))
        return m, mask[:, :cut], sums

    def score_blocks(self, segments: Segments):
        """Yield `(rows, slot, key, entry, score)`: segment rows[k] is key slot[k] of the
        block, and key key[p] scores score[p] against entry entry[p], key by key.

        Segments are grouped by cut = min(length, width), the number of rows
        the scorer reads, and each group's channels are gathered once.  Each
        distinct discrete key (length, mode, class and pf rows) scores d
        against every entry once.  Each distinct full key among them then
        scores latency against its two entries of highest d, and against each
        entry whose d reaches s2, the lower of those two scores: its best and
        runner-up are among these pairs, ties included.  A pair scores d times
        latency, the float operations of scoring its channels in turn.
        Blocks hold at most BLOCK_ELEMENTS pair-position elements.
        """
        if not len(segments):
            return
        columns = {
            Channel.MODE: segments.trace.mode,
            Channel.CLASS: segments.classes,
            Channel.PF: segments.trace.pf,
            Channel.LATENCY: segments.trace.latency,
        }
        lengths = segments.lengths
        cuts = np.minimum(lengths, self.width)
        order = np.argsort(cuts, kind="stable")
        E = len(self.lens)
        per_block = max(1, BLOCK_ELEMENTS // max(1, E * self.width))
        for rows in np.split(order, np.flatnonzero(np.diff(cuts[order])) + 1):
            cut = int(cuts[rows[0]])
            L = lengths[rows]
            x = {ch: _gather(columns[ch], segments.starts[rows], cut) for ch in self.entry}
            side = self._entry_side(cut)
            discrete = {ch: v for ch, v in x.items() if ch is not Channel.LATENCY}
            latency = {ch: v for ch, v in x.items() if ch is Channel.LATENCY}
            keys, slot = _distinct(L, *x.values())
            dfirst, dslot = _distinct(L[keys], *(v[keys] for v in discrete.values()))
            dblocks = np.split(keys[dfirst], range(per_block, len(dfirst), per_block))
            grid = [self._score_pairs(discrete, L, b, *_ragged(np.full(len(b), E)), side)
                    for b in dblocks]
            d = np.concatenate(grid).reshape(len(dfirst), E)
            by_d = np.argsort(-d, axis=1, kind="stable")  # each discrete key's entries
            for start in range(0, len(keys), per_block):
                block = slice(start, start + per_block)
                kd, lat = dslot[block], (latency, L, keys[block])
                key, pos = _ragged(np.full(len(kd), min(2, E)))
                entry = by_d[kd[key], pos]
                first = d[kd[key], entry] * self._score_pairs(*lat, key, entry, side)
                s2 = first.reshape(len(kd), -1).min(axis=1)
                # The entries of each key's discrete key with d >= s2: by_d's first `count`.
                count = (d[kd] >= s2[:, None]).sum(axis=1)
                key, pos = _ragged(count)
                entry = by_d[kd[key], pos]
                score, more = d[kd[key], entry], pos >= 2
                score[~more] = first
                score[more] *= self._score_pairs(*lat, key[more], entry[more], side)
                inside = (slot >= start) & (slot < start + per_block)
                yield rows[inside], slot[inside] - start, key, entry, score

    def _score_pairs(self, x: dict[Channel, np.ndarray], L: np.ndarray, rows, key, entry, side):
        """Per pair p, the product of the scores of row rows[key[p]] of each channel in `x`,
        of length L[rows[key[p]]], against entry entry[p]."""
        _, cut_mask, sums = side
        L = L[rows]
        lendiff = np.abs(self.lens[entry] - L[key])
        scores = np.ones(len(key))
        for channel, values in x.items():
            if channel in sums:
                scores *= self._numeric_scores(channel, values[rows], L, key, entry, lendiff, side)
            else:
                ent = self.entry[channel]
                scores *= _discrete_scores(ent, entry, values[rows[key]], cut_mask, lendiff)
        return scores

    def _numeric_scores(self, channel: Channel, x, L, key, entry, lendiff, side) -> np.ndarray:
        x = x.astype(np.float64)
        S, cut = x.shape
        if cut == 0:
            # An empty vector: 1.0 against an empty one, else 0.0.
            return (lendiff == 0).astype(np.float64)
        ent = self.entry[channel]
        m, cut_mask, sums = side
        masked, sy, syy = sums[channel]
        m = m[entry]
        # Both sides are shifted to start at 0, as _correlation needs.  x
        # holds integers, so its prefix sums and squares are exact in float64
        # whatever the summation order, while n * sum(x * x) < 2**53.
        xs = x - x[:, :1]
        csum = np.zeros((S, cut + 1))
        np.cumsum(xs, axis=1, out=csum[:, 1:])
        sx = csum[key, m]
        np.cumsum(xs * xs, axis=1, out=csum[:, 1:])
        sxx = csum[key, m]
        # pf entries are integers, so their cross sums are exact in any
        # order.  Latency entries are float means, so the summation order
        # sets the last bits of sxy and can flip a near tie: sum the masked
        # product along the full padded width, one contiguous row per pair,
        # which keeps the labels of earlier releases.
        xw = np.zeros((S, self.width))
        xw[:, :cut] = xs
        sxy = (xw[key] * masked[entry]).sum(axis=1)
        r, vx, vy = _correlation(m.astype(np.float64), sx, sxx, sy[entry], syy[entry], sxy)
        corr_score = np.clip(r, 0.0, 1.0) * (m / np.maximum(self.lens[entry], L[key]))
        # Two constants agree fully or not at all; an empty entry agrees
        # with no segment, which here is never empty.
        agree = (ent[entry, 0] == x[key, 0]) & (m > 0)
        out = np.where((vx <= 0.0) & (vy <= 0.0), np.where(agree, 1.0, 0.0), corr_score)
        one = np.flatnonzero((vx <= 0.0) ^ (vy <= 0.0))
        if len(one):
            out[one] = _discrete_scores(ent, entry[one], x[key[one]], cut_mask, lendiff[one])
        return out

    def pick(self, key, entry, score):
        """Per key of pairs that come key by key: winning entry, its score, margin to runner-up."""
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        top = np.maximum.reduceat(score, starts)
        tied_rank = np.where(score == top[key], self.rank[entry], len(self.rank))
        win = tied_rank == np.minimum.reduceat(tied_rank, starts)[key]
        # Scores are >= 0, so a lone pair's runner-up scores 0.
        second = np.maximum.reduceat(np.where(win, 0.0, score), starts)
        return entry[win], top, top - second


def match_trace(
    segments: Segments, db: FingerprintDb, channels: frozenset[Channel] = DEFAULT_CHANNELS
) -> Predictions:
    compiled = CompiledDb(db, channels)
    n = len(segments)
    best, top, margin = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    for rows, slot, key, entry, score in compiled.score_blocks(segments):
        b, t, g = compiled.pick(key, entry, score)
        best[rows], top[rows], margin[rows] = b[slot], t[slot], g[slot]
    return Predictions(np.arange(n), best, db.entries.labels, top, margin)
