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
    constant side then gives variance exactly 0.  r is sign(cov) * sqrt(cov² /
    (vx * vy)): exactly equal r² of integer terms below 2**53 give one float,
    but no exact fallback yet decides ties of larger terms (latency's vx * vy
    passes 10**18 under default noise) or of products of channel scores.
    """
    vx = n * sxx - sx * sx
    vy = n * syy - sy * sy
    cov = n * sxy - sx * sy
    with np.errstate(invalid="ignore", divide="ignore"):
        r = np.sign(cov) * np.sqrt(cov * cov / (vx * vy))
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


# Most elements a scoring step holds.  A block holds at most BLOCK_ELEMENTS // E
# segments (E entries), so its discrete-score grid holds at most BLOCK_ELEMENTS
# scores; a pair step scores at most BLOCK_ELEMENTS // cut pairs of cut rows.
# Large enough to amortize per-step NumPy calls, small enough that temporaries
# stay in cache and add little to peak RSS at any trace length.
BLOCK_ELEMENTS = 1 << 18


def _multipliers(n: int) -> np.ndarray:
    """The odd multiplier of each of n key words in a key's hash: splitmix64 of its position."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return (z ^ (z >> np.uint64(31))) | np.uint64(1)


def _distinct(*columns: np.ndarray):
    """First row and slot of each distinct key, a row's key being its row of every column.

    Hash, then verify.  A key's bytes, zero-padded to 8-byte words, each word xored with its
    high half shifted down (one-to-one, so a value packed into a word's high bytes moves its
    low bits too), hash to the sum of each word times its odd multiplier, mod 2**64: keys
    that differ in one word never share a hash.  If a row differs from the first row of its
    hash, the keys are deduplicated exactly, by `np.unique` on their bytes.
    """
    parts = [c.reshape(len(c), -1).view(np.uint8) for c in columns]
    pad = -sum(part.shape[1] for part in parts) % 8
    words = np.concatenate([*parts, np.zeros((len(parts[0]), pad), np.uint8)], axis=1)
    words = words.view(np.uint64)
    words ^= words >> np.uint64(32)
    hashes = words @ _multipliers(words.shape[1])
    _, first, slot = np.unique(hashes, return_index=True, return_inverse=True)
    if (words[first[slot]] != words).any():  # two keys share a hash
        keys = words.view(np.dtype((np.void, 8 * words.shape[1]))).ravel()
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
    empty one and 0.0 otherwise.  Latency is held as each entry's latency_sum
    row, which correlates as its mean does, and a constant row agrees with a
    segment's value times support: both numeric channels hold integers, their
    sums exact in any order while n * Σx² and n * Σy² of the shifted values
    stay below 2**53.  Ties are broken in favor of higher support, then
    lexicographic label (unlabeled entries last), then database order.  Every
    channel score lies in [0, 1], and d * l <= d holds in floating point for
    such l, so an entry scores at most its discrete score d, the product of
    its mode, class and pf scores: one whose d is below a segment's runner-up
    cannot change its label, score or margin, and its latency is not scored.
    Memory is bounded at any trace length: a block holds at most
    BLOCK_ELEMENTS // E segments (E entries), a pair step BLOCK_ELEMENTS // cut pairs.
    """

    def __init__(self, db: FingerprintDb, channels: frozenset[Channel] = DEFAULT_CHANNELS):
        if not len(db.entries):
            raise MatchError("empty fingerprint database")
        self.lens = db.lengths
        self.width = int(self.lens.max())
        entry = np.repeat(np.arange(len(self.lens)), self.lens)
        at = entry, np.arange(len(entry)) - db.entries.rows[entry]  # each DB row's place
        values = db.mode, db.classes, db.pf.astype(np.float64), db.latency_sum.astype(np.float64)
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
        # Per numeric channel, each entry's factor from a segment value to the row it matches.
        self.scale = {Channel.PF: np.ones_like(db.support), Channel.LATENCY: db.support}

    def _entry_side(self, cut: int):
        """Entry-side terms shared by every segment of `cut` scored rows.

        Each entry's common prefix m with such a segment, the prefix mask,
        and per numeric channel the masked entries less their first value,
        with their sums sy and syy.
        """
        m = np.minimum(self.lens, cut)
        mask = np.arange(cut)[None, :] < m[:, None]
        sums = {}
        for channel in self.scale.keys() & self.entry.keys():  # the numeric channels scored
            ent = self.entry[channel][:, :cut]
            masked = (ent - ent[:, :1]) * mask
            sums[channel] = (masked, masked.sum(axis=1), (masked * masked).sum(axis=1))
        return m, mask, sums

    def score_blocks(self, segments: Segments):
        """Yield `(rows, slot, key, entry, score)`: segment rows[k] is key slot[k] of the
        block, and key key[p] scores score[p] against entry entry[p], key by key.

        Segments are grouped by cut = min(length, width), the number of rows
        the scorer reads, and a block is a run of at most BLOCK_ELEMENTS // E
        segments of one cut (E entries), whose channels are gathered once.  In
        a block each distinct discrete key (length, mode, class and pf rows)
        scores d against every entry once, a grid of at most BLOCK_ELEMENTS
        scores.  Each distinct full key then scores latency against its two
        entries of highest d, and against each entry whose d reaches s2, the
        lower of those two scores: its best and runner-up are among these
        pairs, ties included.  A pair scores d times latency, the float
        operations of scoring its channels in turn.
        """
        if not len(segments):
            return
        trace = segments.trace
        columns = dict(zip(Channel, (trace.mode, segments.classes, trace.pf, trace.latency)))
        lengths = segments.lengths
        cuts = np.minimum(lengths, self.width)
        order = np.argsort(cuts, kind="stable")
        E = len(self.lens)
        size = max(1, BLOCK_ELEMENTS // E)
        edges = np.flatnonzero(np.diff(cuts[order])) + 1  # where one cut ends
        for rows in np.split(order, np.union1d(edges, np.arange(size, len(order), size))):
            cut, L = int(cuts[rows[0]]), lengths[rows]
            at = segments.starts[rows][:, None] + np.arange(cut)  # each block row's trace rows
            x = {ch: columns[ch][at] for ch in self.entry}
            side = self._entry_side(cut)
            discrete = {ch: v for ch, v in x.items() if ch is not Channel.LATENCY}
            keys, slot = _distinct(L, *x.values())
            dfirst, kd = _distinct(L[keys], *(v[keys] for v in discrete.values()))
            grid = _ragged(np.full(len(dfirst), E))
            d = self._score_pairs(discrete, L, keys[dfirst], *grid, side).reshape(len(dfirst), E)
            by_d = np.argsort(-d, axis=1, kind="stable")  # each discrete key's entries
            lat = {ch: v for ch, v in x.items() if ch is Channel.LATENCY}, L, keys
            key, pos = _ragged(np.full(len(keys), min(2, E)))
            entry = by_d[kd[key], pos]
            first = d[kd[key], entry] * self._score_pairs(*lat, key, entry, side)
            s2 = first.reshape(len(keys), -1).min(axis=1)
            # The entries of each key's discrete key with d >= s2: the first that many of by_d.
            key, pos = _ragged((d[kd] >= s2[:, None]).sum(axis=1))
            entry = by_d[kd[key], pos]
            score, more = d[kd[key], entry], pos >= 2
            score[~more] = first
            score[more] *= self._score_pairs(*lat, key[more], entry[more], side)
            yield rows, slot, key, entry, score

    def _score_pairs(self, x: dict[Channel, np.ndarray], L: np.ndarray, rows, key, entry, side):
        """Per pair p, the product of the scores of row rows[key[p]] of each channel in `x`,
        of length L[rows[key[p]]], against entry entry[p].  Pairs come key by key and score in
        steps of at most max(1, BLOCK_ELEMENTS // cut) pairs, each on the rows of its keys."""
        _, cut_mask, sums = side
        step = max(1, BLOCK_ELEMENTS // max(1, cut_mask.shape[1]))
        scores = np.ones(len(key))
        for lo in range(0, len(key), step):
            p = slice(lo, lo + step)
            r = rows[key[lo] : key[p][-1] + 1]  # the rows of this step's keys
            k, e, n = key[p] - key[lo], entry[p], L[r]
            lendiff = np.abs(self.lens[e] - n[k])
            for channel, values in x.items():
                if channel in sums:
                    scores[p] *= self._numeric_scores(channel, values[r], n, k, e, lendiff, side)
                else:
                    ent = self.entry[channel]
                    scores[p] *= _discrete_scores(ent, e, values[r[k]], cut_mask, lendiff)
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
        m, scale = m[entry], self.scale[channel][entry]
        # Both sides are shifted to start at 0, as _correlation needs, and
        # hold integers, so every sum below is exact in any order.
        xs = x - x[:, :1]
        csum = np.zeros((S, cut + 1))
        np.cumsum(xs, axis=1, out=csum[:, 1:])
        sx = csum[key, m]
        np.cumsum(xs * xs, axis=1, out=csum[:, 1:])
        sxx = csum[key, m]
        sxy = (xs[key] * masked[entry]).sum(axis=1)
        r, vx, vy = _correlation(m.astype(np.float64), sx, sxx, sy[entry], syy[entry], sxy)
        corr_score = np.clip(r, 0.0, 1.0) * (m / np.maximum(self.lens[entry], L[key]))
        # Two constants agree fully or not at all; an empty entry agrees
        # with no segment, which here is never empty.
        agree = (ent[entry, 0] == x[key, 0] * scale) & (m > 0)
        out = np.where((vx <= 0.0) & (vy <= 0.0), np.where(agree, 1.0, 0.0), corr_score)
        one = np.flatnonzero((vx <= 0.0) ^ (vy <= 0.0))
        if len(one):
            x_one = x[key[one]] * scale[one, None]
            out[one] = _discrete_scores(ent, entry[one], x_one, cut_mask, lendiff[one])
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
