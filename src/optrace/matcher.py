"""Match recovered trace segments against a fingerprint database.

Each fingerprint channel is scored independently and the per-channel scores
multiply, so one disagreeing channel is enough to sink a candidate.
Symbolic channels (access mode, page class) score by Hamming agreement;
numeric channels (fault counts, latency) score by correlation, which
tolerates the additive jitter and quantization the timer applies.
"""

from dataclasses import dataclass
from enum import Enum
from math import sqrt

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


def pearson(x, y) -> float:
    """Sample correlation; requires equal lengths and variance on both sides."""
    n = len(x)
    if n != len(y):
        raise ValueError("length mismatch")
    if n < 2:
        raise ValueError("need at least 2 points")
    sx = sy = sxx = syy = sxy = 0.0
    for a, b in zip(x, y):
        sx += a
        sy += b
        sxx += a * a
        syy += b * b
        sxy += a * b
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    if vx <= 0.0 or vy <= 0.0:
        raise ValueError("correlation undefined for constant input")
    return (n * sxy - sx * sy) / sqrt(vx * vy)


def score_discrete(a, b) -> float:
    """1 / (1 + Hamming distance), counting length difference as mismatches."""
    m = min(len(a), len(b))
    mism = sum(1 for i in range(m) if a[i] != b[i])
    return 1.0 / (1.0 + mism + abs(len(a) - len(b)))


# Most S*E*W elements (segments x entries x width) scored in one block:
# large enough to amortize per-block NumPy calls, small enough that the
# block's temporaries stay in cache and add little to peak RSS.
BLOCK_ELEMENTS = 1 << 18

# Each channel's Fingerprint attribute and padded dtype; channel scores
# multiply in this order.
_CHANNELS = {
    Channel.MODE: ("modes", np.uint8),
    Channel.CLASS: ("classes", np.uint8),
    Channel.PF: ("pf", np.float64),
    Channel.LATENCY: ("latency", np.float64),
}
_NUMERIC = (Channel.PF, Channel.LATENCY)


def _pad(rows, width: int, dtype) -> np.ndarray:
    """(len(rows), width) array of `rows`, strings as ASCII codes, zero-padded."""
    out = np.zeros((len(rows), width), dtype=dtype)
    for i, row in enumerate(rows):
        out[i, : len(row)] = list(row.encode("ascii")) if isinstance(row, str) else row
    return out


def _gather(column: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """(S, width) array whose row k is column[starts[k] : starts[k] + width]."""
    return column[starts[:, None] + np.arange(width)]


def _distinct(*columns: np.ndarray):
    """First row and slot of each distinct key, a row's key being its row of every column."""
    key = np.concatenate([c.reshape(len(c), -1).view(np.uint8) for c in columns], axis=1)
    keys = key.view(np.dtype((np.void, key.shape[1]))).ravel()
    _, first, slot = np.unique(keys, return_index=True, return_inverse=True)
    return first, slot


def _discrete_scores(ent, seg, cut_mask, lendiff) -> np.ndarray:
    """(S, E) score_discrete: mismatches inside each pair's common prefix."""
    cut = seg.shape[1]
    mism = ((ent[None, :, :cut] != seg[:, None, :]) & cut_mask[None]).sum(axis=2)
    return 1.0 / (1.0 + mism + lendiff)


class CompiledDb:
    """Fingerprint entries packed into padded arrays for bulk scoring.

    A segment scores against an entry as the product of its channel scores.
    Mode and class score as score_discrete.  pf and latency score as their
    correlation over the common prefix, clipped at 0 and scaled by the
    shorter length over the longer.  Constant prefixes make correlation
    undefined, so two agree fully or not at all, and one against a varying
    prefix scores as score_discrete; an empty vector scores 1.0 against an
    empty one and 0.0 otherwise.  Ties are broken in favor of higher
    support, then lexicographic label (unlabeled entries last), then
    database order.
    """

    def __init__(self, db: FingerprintDb, channels: frozenset[Channel] = DEFAULT_CHANNELS):
        if not db.entries:
            raise MatchError("empty fingerprint database")
        self.entries = db.entries
        self.lens = np.array([len(fp) for fp in db.entries], dtype=np.int64)
        self.width = int(self.lens.max())
        # Padded (E, width) array of each scored channel, in _CHANNELS order.
        self.entry = {
            channel: _pad([getattr(fp, attr) for fp in db.entries], self.width, dtype)
            for channel, (attr, dtype) in _CHANNELS.items()
            if channel in channels
        }
        tie_key = [(-fp.support, fp.label is None, fp.label or "") for fp in db.entries]
        order = sorted(range(len(tie_key)), key=lambda i: (tie_key[i], i))
        self.rank = np.empty(len(order), dtype=np.int64)
        self.rank[order] = np.arange(len(order))

    def _entry_side(self, cut: int):
        """Entry-side terms shared by every segment of `cut` scored rows.

        Each entry's common prefix m with such a segment, the prefix mask,
        and per numeric channel the masked entries, their sums sy and
        variance vy.
        """
        m = np.minimum(self.lens, cut)
        n = m.astype(np.float64)
        mask = np.arange(self.width)[None, :] < m[:, None]
        sums = {}
        for channel in _NUMERIC:
            if channel in self.entry:
                ent = self.entry[channel]
                masked = ent * mask
                sy = masked.sum(axis=1)
                syy = (ent * ent * mask).sum(axis=1)
                sums[channel] = (masked, sy, n * syy - sy * sy)
        return m, mask[:, :cut], sums

    def score_blocks(self, segments: Segments):
        """Yield `(rows, slot, scores)`: segment rows[k] scores as scores[slot[k]].

        Segments are grouped by cut = min(length, width), the number of rows
        the scorer reads, and each group's channels are gathered once.  Each
        distinct full key (length and every scored channel's rows) scores its
        latency once, and each distinct discrete key among them (length, mode,
        class and pf rows) its other channels once, in blocks of at most
        BLOCK_ELEMENTS segment-entry-position elements.  A full key scores as
        the product of the two, the float operations of scoring its channels
        in turn.
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
        per_block = max(1, BLOCK_ELEMENTS // max(1, len(self.entries) * self.width))
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
            dscores = np.concatenate([self._score_block(discrete, L, b, side) for b in dblocks])
            for start in range(0, len(keys), per_block):
                block = slice(start, start + per_block)
                lscores = self._score_block(latency, L, keys[block], side)
                scores = dscores[dslot[block]] * lscores
                inside = (slot >= start) & (slot < start + per_block)
                yield rows[inside], slot[inside] - start, scores

    def _score_block(self, x: dict[Channel, np.ndarray], L: np.ndarray, keys, side) -> np.ndarray:
        """(len(keys), E) product of the scores of rows `keys` of each channel in `x`."""
        _, cut_mask, sums = side
        L = L[keys]
        lendiff = np.abs(self.lens - L[:, None])
        scores = np.ones((len(L), len(self.entries)), dtype=np.float64)
        for channel, values in x.items():
            if channel in sums:
                scores *= self._numeric_scores(channel, values[keys], L, lendiff, side)
            else:
                scores *= _discrete_scores(self.entry[channel], values[keys], cut_mask, lendiff)
        return scores

    def _numeric_scores(self, channel: Channel, x, L, lendiff, side) -> np.ndarray:
        x = x.astype(np.float64)
        S, cut = x.shape
        if cut == 0:
            # An empty vector: 1.0 against an empty one, else 0.0.
            return (lendiff == 0).astype(np.float64)
        ent = self.entry[channel]
        m, cut_mask, sums = side
        masked, sy, vy = sums[channel]
        # x holds integers, so prefix sums and squares are exact in float64
        # whatever the summation order.
        csum = np.zeros((S, cut + 1))
        np.cumsum(x, axis=1, out=csum[:, 1:])
        sx = csum[:, m]
        np.cumsum(x * x, axis=1, out=csum[:, 1:])
        sxx = csum[:, m]
        # pf entries are integers, so their cross sums are exact in any
        # order.  Latency entries are float means, so the summation order
        # sets the last bits of sxy and can flip a near tie: sum the masked
        # product along the full padded width, one contiguous row per pair,
        # which keeps the labels of earlier releases.
        xw = np.zeros((S, self.width))
        xw[:, :cut] = x
        sxy = (xw[:, None, :] * masked[None]).sum(axis=2)
        n = m.astype(np.float64)
        vx = n * sxx - sx * sx
        cov = n * sxy - sx * sy
        x_const = vx <= 0.0
        y_const = vy <= 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            r = cov / np.sqrt(vx * vy)
        r = np.clip(r, 0.0, None)
        corr_score = r * (m / np.maximum(self.lens, L[:, None]))
        # Two constants agree fully or not at all; an empty entry agrees
        # with no segment, which here is never empty.
        agree = (ent[None, :, 0] == x[:, :1]) & (m > 0)
        both = x_const & y_const
        one = x_const ^ y_const
        out = np.where(both, np.where(agree, 1.0, 0.0), corr_score)
        if one.any():
            fallback = _discrete_scores(ent, x, cut_mask, lendiff)
            out = np.where(one, fallback, out)
        return out

    def pick(self, scores: np.ndarray):
        """Per row of `scores`: winning entry, its score, margin to runner-up."""
        top = scores.max(axis=1)
        tied_rank = np.where(scores == top[:, None], self.rank, len(self.rank))
        best = tied_rank.argmin(axis=1)
        if scores.shape[1] > 1:
            second = np.partition(scores, -2, axis=1)[:, -2]
        else:
            second = np.zeros(len(scores))
        return best, top, top - second


def match_trace(
    segments: Segments, db: FingerprintDb, channels: frozenset[Channel] = DEFAULT_CHANNELS
) -> Predictions:
    compiled = CompiledDb(db, channels)
    n = len(segments)
    best, top, margin = np.empty(n, dtype=np.int64), np.empty(n), np.empty(n)
    for rows, slot, scores in compiled.score_blocks(segments):
        b, t, g = compiled.pick(scores)
        best[rows], top[rows], margin[rows] = b[slot], t[slot], g[slot]
    return Predictions(np.arange(n), best, [fp.label for fp in db.entries], top, margin)
