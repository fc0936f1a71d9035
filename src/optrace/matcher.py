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

from .preprocess import Segment, Segments, as_segments
from .profiler import Fingerprint, FingerprintDb

__all__ = [
    "Channel",
    "DEFAULT_CHANNELS",
    "MatchError",
    "Prediction",
    "pearson",
    "score_discrete",
    "score_numeric",
    "score_segment",
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


@dataclass(frozen=True)
class Prediction:
    segment_id: int
    label: str | None
    score: float
    margin: float


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


def score_numeric(a, b) -> float:
    """Correlation over the common prefix, scaled by the length ratio.

    Constant vectors make correlation undefined, so they get their own
    rules: two constants agree fully or not at all; a constant against a
    varying vector falls back to Hamming-style counting.
    """
    if not a or not b:
        return 1.0 if len(a) == len(b) else 0.0
    m = min(len(a), len(b))
    ax, bx = a[:m], b[:m]
    a_const = all(v == ax[0] for v in ax)
    b_const = all(v == bx[0] for v in bx)
    if a_const and b_const:
        return 1.0 if ax[0] == bx[0] else 0.0
    if a_const or b_const:
        mism = sum(1 for p, q in zip(ax, bx) if p != q)
        return 1.0 / (1.0 + mism + abs(len(a) - len(b)))
    r = max(pearson(ax, bx), 0.0)
    return r * (m / max(len(a), len(b)))


def score_segment(
    segment: Segment, fp: Fingerprint, channels: frozenset[Channel] = DEFAULT_CHANNELS
) -> float:
    score = 1.0
    if Channel.MODE in channels:
        score *= score_discrete(segment.modes, fp.modes)
    if Channel.CLASS in channels:
        score *= score_discrete(segment.classes, fp.classes)
    if Channel.PF in channels:
        score *= score_numeric(segment.pf, fp.pf)
    if Channel.LATENCY in channels:
        score *= score_numeric(segment.latency, fp.latency)
    return score


# Most S*E*W elements (segments x entries x width) scored in one block:
# large enough to amortize per-block NumPy calls, small enough that the
# block's temporaries stay in cache and add little to peak RSS.
BLOCK_ELEMENTS = 1 << 18


def _pad_str(s: str, width: int) -> np.ndarray:
    out = np.zeros(width, dtype=np.uint8)
    raw = s.encode("ascii")
    out[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    return out


def _pad_num(values, width: int, dtype) -> np.ndarray:
    out = np.zeros(width, dtype=dtype)
    out[: len(values)] = values
    return out


def _gather(column: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """(S, width) array whose row k is column[starts[k] : starts[k] + width]."""
    return column[starts[:, None] + np.arange(width)]


def _length_groups(lengths: np.ndarray):
    """Yield `(L, rows)` per distinct length L, rows in ascending order."""
    order = np.argsort(lengths, kind="stable")
    if not len(order):
        return
    for rows in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        yield int(lengths[rows[0]]), rows


def _discrete_scores(mism, lendiff):
    return 1.0 / (1.0 + mism + lendiff)


def _mismatches(ent, seg, cut_mask) -> np.ndarray:
    """(S, E) count of differing positions inside each pair's common prefix."""
    cut = seg.shape[1]
    return ((ent[None, :, :cut] != seg[:, None, :]) & cut_mask[None]).sum(axis=2)


# Channel and the Segment/Fingerprint attribute holding it; channel scores
# multiply in this order.
_DISCRETE = ((Channel.MODE, "modes"), (Channel.CLASS, "classes"))
_NUMERIC = ((Channel.PF, "pf"), (Channel.LATENCY, "latency"))


class _LengthGroup:
    """What scoring segments of one length L against every entry shares."""

    def __init__(self, db: "CompiledDb", L: int):
        self.cut = min(L, db.width)  # segment positions any entry can see
        self.m = np.minimum(db.lens, L)
        self.n = self.m.astype(np.float64)
        self.maxlen = np.maximum(db.lens, L)
        self.lendiff = np.abs(db.lens - L)
        # score_numeric on an empty vector: 1.0 against an empty one, else 0.0.
        self.empty = (db.lens == 0) | (L == 0)
        self.empty_score = (db.lens == L).astype(np.float64)
        mask = np.arange(db.width)[None, :] < self.m[:, None]
        self.cut_mask = mask[:, : self.cut]
        # Per numeric channel: masked entries, their sums sy and variance vy.
        self.entry_side = {}
        for attr, ent in db.numeric.items():
            masked = ent * mask
            sy = masked.sum(axis=1)
            syy = (ent * ent * mask).sum(axis=1)
            self.entry_side[attr] = (masked, sy, self.n * syy - sy * sy)


class CompiledDb:
    """Fingerprint entries packed into padded arrays for bulk scoring.

    Produces the same scores as score_segment, many segments at a time;
    ties broken in favor of higher support, then lexicographic label
    (unlabeled entries last), then database order.
    """

    def __init__(self, db: FingerprintDb, channels: frozenset[Channel] = DEFAULT_CHANNELS):
        if not db.entries:
            raise MatchError("empty fingerprint database")
        self.entries = db.entries
        self.lens = np.array([len(fp) for fp in db.entries], dtype=np.int64)
        self.width = int(self.lens.max())
        # Padded (E, width) arrays of the scored channels, keyed by attribute.
        self.discrete = {
            attr: np.stack([_pad_str(getattr(fp, attr), self.width) for fp in db.entries])
            for channel, attr in _DISCRETE
            if channel in channels
        }
        self.numeric = {
            attr: np.stack(
                [_pad_num(getattr(fp, attr), self.width, np.float64) for fp in db.entries]
            )
            for channel, attr in _NUMERIC
            if channel in channels
        }
        tie_key = [(-fp.support, fp.label is None, fp.label or "") for fp in db.entries]
        order = sorted(range(len(tie_key)), key=lambda i: (tie_key[i], i))
        self.rank = np.empty(len(order), dtype=np.int64)
        self.rank[order] = np.arange(len(order))

    def _columns(self, segs: Segments) -> dict[str, np.ndarray]:
        """The scored channels' columns of `segs`, keyed by attribute."""
        columns = {
            "modes": segs.trace.mode,
            "classes": segs.classes,
            "pf": segs.trace.pf,
            "latency": segs.trace.latency,
        }
        return {attr: columns[attr] for attr in (*self.discrete, *self.numeric)}

    def _distinct(self, segs: Segments) -> tuple[Segments, np.ndarray]:
        """Collapse segments that score alike: `(representatives, slot)`.

        Two segments score alike when they have the same length and agree
        on every scored channel over their first `width` rows, which is all
        the scorer reads.  Segment i scores as `representatives[slot[i]]`.
        """
        columns = self._columns(segs).values()
        slot = np.empty(len(segs), dtype=np.int64)
        firsts = []
        count = 0
        for L, rows in _length_groups(segs.lengths):
            cut = min(L, self.width)
            parts = [_gather(col, segs.starts[rows], cut).view(np.uint8) for col in columns]
            key = np.concatenate([np.empty((len(rows), 0), np.uint8), *parts], axis=1)
            if key.shape[1]:
                _, first, inverse = np.unique(
                    key.view(np.dtype((np.void, key.shape[1]))).ravel(),
                    return_index=True,
                    return_inverse=True,
                )
            else:
                first, inverse = np.zeros(1, dtype=np.int64), np.zeros(len(rows), np.int64)
            slot[rows] = count + inverse
            firsts.append(rows[first])
            count += len(first)
        return segs[np.concatenate([np.empty(0, np.int64), *firsts])], slot

    def score_blocks(self, segments: Segments | list[Segment]):
        """Yield `(rows, scores)`: `scores[k]` scores `segments[rows[k]]`.

        Segments are grouped by length and scored in blocks of at most
        BLOCK_ELEMENTS segment-entry-position elements, gathered from the
        segments' columns.
        """
        segs = as_segments(segments)
        columns = self._columns(segs)
        per_block = max(1, BLOCK_ELEMENTS // max(1, len(self.entries) * self.width))
        for L, rows in _length_groups(segs.lengths):
            group = _LengthGroup(self, L)
            for start in range(0, len(rows), per_block):
                block = rows[start : start + per_block]
                starts = segs.starts[block]
                x = {attr: _gather(col, starts, group.cut) for attr, col in columns.items()}
                yield block, self._score_block(x, len(block), group)

    def _score_block(self, x: dict[str, np.ndarray], S: int, g: _LengthGroup) -> np.ndarray:
        scores = np.ones((S, len(self.entries)), dtype=np.float64)
        for attr, ent in self.discrete.items():
            scores *= _discrete_scores(_mismatches(ent, x[attr], g.cut_mask), g.lendiff)
        for attr in self.numeric:
            scores *= self._numeric_scores(attr, x[attr].astype(np.float64), g)
        return scores

    def _numeric_scores(self, attr: str, x, g: _LengthGroup) -> np.ndarray:
        ent = self.numeric[attr]
        masked, sy, vy = g.entry_side[attr]
        S = len(x)
        # x holds integers, so prefix sums, squares and the pf cross sum
        # are exact in float64 whatever the summation order.
        csum = np.zeros((S, g.cut + 1))
        np.cumsum(x, axis=1, out=csum[:, 1:])
        sx = csum[:, g.m]
        np.cumsum(x * x, axis=1, out=csum[:, 1:])
        sxx = csum[:, g.m]
        if attr == "pf":
            sxy = x @ masked[:, : g.cut].T
        else:
            # Latency entries are float means, so the summation order sets
            # the last bits of sxy and can flip a near tie: sum the masked
            # product along the full padded width, one contiguous row per
            # pair, which keeps the labels of earlier releases.
            xw = np.zeros((S, self.width))
            xw[:, : g.cut] = x
            sxy = (xw[:, None, :] * masked[None]).sum(axis=2)
        n = g.n
        vx = n * sxx - sx * sx
        cov = n * sxy - sx * sy
        x_const = vx <= 0.0
        y_const = vy <= 0.0
        with np.errstate(invalid="ignore", divide="ignore"):
            r = cov / np.sqrt(vx * vy)
        r = np.clip(r, 0.0, None)
        corr_score = r * (g.m / np.maximum(g.maxlen, 1))  # 0 only for empty vs empty
        first = x[:, :1] if g.cut else np.zeros((S, 1))
        first_eq = ent[None, :, 0] == first
        both = x_const & y_const
        one = x_const ^ y_const
        out = np.where(both, np.where(first_eq, 1.0, 0.0), corr_score)
        if one.any():
            fallback = _discrete_scores(_mismatches(ent, x, g.cut_mask), g.lendiff)
            out = np.where(one, fallback, out)
        return np.where(g.empty, g.empty_score, out)

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
    segments: Segments | list[Segment],
    db: FingerprintDb,
    channels: frozenset[Channel] = DEFAULT_CHANNELS,
) -> list[Prediction]:
    compiled = CompiledDb(db, channels)
    # Segments that score alike are scored once.
    unique, slot = compiled._distinct(as_segments(segments))
    best = np.empty(len(unique), dtype=np.int64)
    top = np.empty(len(unique))
    margin = np.empty(len(unique))
    for rows, scores in compiled.score_blocks(unique):
        best[rows], top[rows], margin[rows] = compiled.pick(scores)
    labels = [fp.label for fp in compiled.entries]
    return list(map(
        Prediction,
        range(len(slot)),
        [labels[b] for b in best[slot].tolist()],
        top[slot].tolist(),
        margin[slot].tolist(),
    ))
