"""Segment-vs-fingerprint scoring: channel scores, tie-breaks, bulk scorer."""

import itertools
import random
import statistics
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optrace import matcher
from optrace.bytecode import execute
from optrace.cli import PROFILE_SEED_OFFSET
from optrace.machine import SideChannelTrace
from optrace.matcher import (
    Channel,
    CompiledDb,
    MatchError,
    Prediction,
    Predictions,
    match_trace,
    pearson,
    score_discrete,
)
from optrace.preprocess import Segments
from optrace.profiler import build_fingerprint_db
from optrace.workloads import reference_module

from support import (
    db_of,
    entries_of,
    fp,
    noise_model,
    predictions_of,
    profile_db,
    score_numeric,
    score_segment,
    seg,
    segments_of,
    synth,
    victim,
)


# ---------------------------------------------------------------- pearson


def test_pearson_matches_stdlib_on_random_vectors():
    rng = random.Random(1234)
    for _ in range(200):
        n = rng.randint(2, 12)
        x = [rng.uniform(-50, 50) for _ in range(n)]
        y = [rng.uniform(-50, 50) for _ in range(n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert pearson(x, y) == pytest.approx(
            statistics.correlation(x, y), rel=1e-9, abs=1e-12
        )


def test_pearson_endpoints():
    assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)


def test_pearson_rejects_bad_input():
    with pytest.raises(ValueError, match="length"):
        pearson([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="2 points"):
        pearson([1], [2])
    with pytest.raises(ValueError, match="constant"):
        pearson([5, 5, 5], [1, 2, 3])


@pytest.mark.parametrize("offset", [10**8, 10**9, 10**10])
@pytest.mark.parametrize("form", [tuple, lambda v: np.array(v, np.int64)])
def test_pearson_ignores_large_offsets(offset, form):
    # Raw sums of values this large cancel to noise; the correlation must not.
    x = form((offset, offset + 35, offset + 70, offset + 35))
    assert pearson(x, form((1, 2, 3, 2))) == pytest.approx(1.0)


# --------------------------------------------------------- channel scores


def brute_discrete(a, b):
    m = min(len(a), len(b))
    mismatches = sum(a[i] != b[i] for i in range(m))
    return 1.0 / (1.0 + mismatches + abs(len(a) - len(b)))


def test_score_discrete_exhaustive_small_strings():
    alphabet = "RWE"
    strings = [""]
    for length in (1, 2, 3):
        pool = [""]
        for _ in range(length):
            pool = [s + c for s in pool for c in alphabet]
        strings.extend(pool)
    for a in strings:
        for b in strings:
            assert score_discrete(a, b) == pytest.approx(brute_discrete(a, b))


def test_score_discrete_examples():
    assert score_discrete("REE", "REEWR") == pytest.approx(1.0 / 3.0)
    assert score_discrete("", "") == 1.0
    assert score_discrete("RRR", "RRR") == 1.0
    assert score_discrete((8, 5, 5), (8, 5, 9)) == pytest.approx(0.5)


def test_score_numeric_prefix_correlation_scaled_by_length():
    a = tuple(range(1, 9))
    b = tuple(range(1, 7))
    # Perfect correlation over the 6-long prefix, scaled by 6/8.
    assert score_numeric(a, b) == pytest.approx(0.75)


def test_score_numeric_constant_rules():
    assert score_numeric((5, 5, 5), (5, 5)) == 1.0
    assert score_numeric((5, 5), (6, 6)) == 0.0
    assert score_numeric((5, 5, 5), (1, 2, 3)) == pytest.approx(0.25)
    assert score_numeric((1, 2, 3), (5, 5, 5, 5)) == pytest.approx(1.0 / 5.0)


def test_score_numeric_empty_vectors():
    assert score_numeric((), ()) == 1.0
    assert score_numeric((), (1,)) == 0.0


def test_score_numeric_clips_negative_correlation():
    assert score_numeric((1, 2, 3), (3, 2, 1)) == 0.0


def test_score_numeric_ignores_affine_latency_shifts():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(3, 8)
        a = [rng.randint(5000, 6000) for _ in range(n)]
        b = [rng.randint(5000, 6000) for _ in range(n)]
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        scaled = [3 * v + 17 for v in b]
        assert score_numeric(a, b) == pytest.approx(score_numeric(a, scaled))


def test_identical_segment_scores_one_on_every_channel():
    s = seg("REWR", "OXSX", (8, 5, 9, 8), (5548, 5309, 5409, 5540))
    twin = fp("x", s.modes, s.classes, s.pf, s.latency)
    assert score_segment(s, twin) == pytest.approx(1.0)
    for channel in Channel:
        assert score_segment(s, twin, frozenset({channel})) == pytest.approx(1.0)


# ------------------------------------------------- compiled db equivalence

LABELS = st.sampled_from(["i32.add", "i32.sub", "call", None])
MODE_CH = st.sampled_from("RWE")
CLASS_CH = st.sampled_from("OSX")


@st.composite
def channel_vectors(draw, min_len=1, max_len=4):
    n = draw(st.integers(min_value=min_len, max_value=max_len))
    modes = "".join(draw(st.lists(MODE_CH, min_size=n, max_size=n)))
    classes = "".join(draw(st.lists(CLASS_CH, min_size=n, max_size=n)))
    pf = tuple(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    latency = tuple(
        draw(st.lists(st.integers(5000, 5010), min_size=n, max_size=n))
    )
    return modes, classes, pf, latency


@st.composite
def fingerprints(draw):
    modes, classes, pf, latency = draw(channel_vectors())
    return fp(
        draw(LABELS),
        modes,
        classes,
        pf,
        latency,
        support=draw(st.integers(1, 3)),
    )


@st.composite
def segments(draw, min_len=1, max_len=4):
    return seg(*draw(channel_vectors(min_len, max_len)))


CHANNEL_SETS = st.sets(
    st.sampled_from(list(Channel)), min_size=1, max_size=4
).map(frozenset)


def scored_pairs(compiled, segs):
    """For each of `segs`, its exactly scored entries as {entry: score}, from the blocks."""
    out = [None] * len(segs)
    for rows, slot, key, entry, score in compiled.score_blocks(segments_of(segs)):
        for row, k in zip(rows.tolist(), slot.tolist()):
            out[row] = dict(zip(entry[key == k].tolist(), score[key == k].tolist()))
    return out


def assert_pairs_match_scalar_oracle(compiled, segs, fps, channels):
    """Each exactly scored pair scores as score_segment; each other pair's bound, its
    discrete score, is at least its score and below the segment's runner-up."""
    discrete = channels - {Channel.LATENCY}
    for segment, pairs in zip(segs, scored_pairs(compiled, segs)):
        scalar = [score_segment(segment, entry, channels) for entry in fps]
        runner_up = sorted(scalar)[-2] if len(fps) > 1 else 0.0
        for i, entry in enumerate(fps):
            if i in pairs:
                assert pairs[i] == pytest.approx(scalar[i], rel=1e-9, abs=1e-12)
                assert 0.0 <= pairs[i] <= 1.0 + 1e-12
            else:
                bound = score_segment(segment, entry, discrete)
                assert scalar[i] <= bound < runner_up


def tie_break(fps, tied):
    return min(
        tied,
        key=lambda i: (-fps[i].support, fps[i].label is None, fps[i].label or "", i),
    )


@settings(max_examples=300, deadline=None)
@given(
    fps=st.lists(fingerprints(), min_size=1, max_size=8),
    segment=segments(),
    channels=CHANNEL_SETS,
)
def test_compiled_scores_match_scalar_scoring(fps, segment, channels):
    assert_pairs_match_scalar_oracle(CompiledDb(db_of(*fps), channels), [segment], fps, channels)


@settings(max_examples=200, deadline=None)
@given(
    fps=st.lists(fingerprints(), min_size=1, max_size=8),
    segment=segments(),
    channels=CHANNEL_SETS,
)
def test_best_applies_the_documented_tie_break(fps, segment, channels):
    compiled = CompiledDb(db_of(*fps), channels)
    ((_, _, key, entry, scores),) = compiled.score_blocks(segments_of([segment]))
    (idx,), (top,), (margin,) = compiled.pick(key, entry, scores)
    assert top == float(scores.max())
    tied = [i for i, s in zip(entry.tolist(), scores) if s == scores.max()]
    assert idx == tie_break(fps, tied)
    ranked = sorted(scores, reverse=True)
    second = ranked[1] if len(ranked) > 1 else 0.0
    assert margin == top - second
    # The runner-up among the scored pairs is the runner-up among all entries.
    scalar = sorted(score_segment(segment, e, channels) for e in fps)
    assert second == pytest.approx(scalar[-2] if len(fps) > 1 else 0.0, rel=1e-9, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    fps=st.lists(fingerprints(), min_size=1, max_size=6),
    segment=segments(),
)
def test_adding_channels_never_raises_a_score(fps, segment):
    (full,) = scored_pairs(CompiledDb(db_of(*fps), frozenset(Channel)), [segment])
    (partial,) = scored_pairs(CompiledDb(db_of(*fps), frozenset({Channel.MODE})), [segment])
    assert all(full[i] <= partial[i] + 1e-12 for i in full.keys() & partial.keys())
    assert max(full.values()) <= max(partial.values()) + 1e-12


def vectors_of(segment):
    return segment.modes, segment.classes, segment.pf, segment.latency


def assert_matches_scalar_oracle(preds, segs, fps, channels):
    """Each prediction against score_segment over every entry."""
    assert [p.segment_id for p in preds] == list(range(len(segs)))
    for pred, segment in zip(preds, segs):
        scalar = [score_segment(segment, entry, channels) for entry in fps]
        top = max(scalar)
        assert pred.score == pytest.approx(top, rel=1e-9, abs=1e-12)
        want = tie_break(fps, [i for i, s in enumerate(scalar) if s == top])
        assert pred.label == fps[want].label
        ranked = sorted(scalar, reverse=True)
        second = ranked[1] if len(ranked) > 1 else 0.0
        assert pred.margin == pytest.approx(top - second, rel=1e-9, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    fps=st.lists(fingerprints(), min_size=1, max_size=8),
    short=st.lists(segments(), min_size=1, max_size=10),
    long=st.lists(segments(min_len=5, max_len=8), min_size=1, max_size=6),
    repeats=st.lists(st.integers(0, 1000), max_size=8),
    twins=st.lists(
        st.tuples(st.integers(0, 1000), st.integers(0, 3), channel_vectors(8, 8)),
        max_size=4,
    ),
    per_block=st.integers(1, 3),
    channels=CHANNEL_SETS,
)
def test_match_trace_batches_agree_with_scalar_oracle(
    fps, short, long, repeats, twins, per_block, channels
):
    # Mixed lengths, some past the widest entry (width <= 4), exact
    # repeats, and twins that differ from a segment in one channel only;
    # blocks of at most `per_block` segments, so that a length group with
    # more distinct segments than that spans several blocks.
    segs = short + long
    for r, channel, fresh in twins:
        vectors = list(vectors_of(segs[r % len(segs)]))
        vectors[channel] = fresh[channel][: len(vectors[0])]
        segs.append(seg(*vectors))
    segs += [segs[r % len(segs)] for r in repeats]
    random.Random(len(segs)).shuffle(segs)
    width = max(len(entry) for entry in fps)
    budget = per_block * len(fps) * width
    with mock.patch.object(matcher, "BLOCK_ELEMENTS", budget):
        preds = match_trace(segments_of(segs), db_of(*fps), channels)
    assert_matches_scalar_oracle(preds, segs, fps, channels)


def test_match_trace_spans_blocks_at_the_default_budget():
    rng = random.Random(11)

    def vectors(n):
        return (
            "".join(rng.choice("RWE") for _ in range(n)),
            "".join(rng.choice("OSX") for _ in range(n)),
            [rng.randint(0, 3) for _ in range(n)],
            [rng.randint(5000, 5030) for _ in range(n)],
        )

    width = 48
    fps = [
        fp(f"op{i % 30}", *vectors(rng.randint(1, width)), support=rng.randint(1, 3))
        for i in range(40)
    ]
    fps.append(fps[3])  # an exact tie with an earlier entry
    per_block = matcher.BLOCK_ELEMENTS // (len(fps) * width)
    distinct = [seg(*vectors(width)) for _ in range(per_block + 20)]
    distinct += [seg(*vectors(rng.randint(width + 1, 3 * width))) for _ in range(30)]
    distinct += [seg(fps[7].modes, fps[7].classes, fps[7].pf, fps[7].latency)]
    segs = distinct + [rng.choice(distinct) for _ in range(50)]
    rng.shuffle(segs)
    channels = frozenset(Channel)
    blocks = list(CompiledDb(db_of(*fps), channels).score_blocks(segments_of(segs)))
    assert any(key[-1] + 1 == per_block for _, _, key, _, _ in blocks)
    preds = match_trace(segments_of(segs), db_of(*fps), channels)
    assert_matches_scalar_oracle(preds, segs, fps, channels)


def test_exactly_equal_correlations_tie_to_the_tie_break():
    # Both pf prefixes correlate with the segment's at exactly 0.5, so the
    # two entries tie at 0.1875 and higher support wins.
    add = fp("i32.add", "RRRR", "OOOO", (1, 0, 1, 0), (5000,) * 4)
    sub = fp("i32.sub", "RRRR", "OOOO", (8, 8, 1, 0), (5000,) * 4, support=2)
    s = seg("RRR", "OOO", (3, 0, 0), (5000,) * 3)
    channels = frozenset({Channel.MODE, Channel.PF})
    assert score_segment(s, add, channels) == score_segment(s, sub, channels) == 0.1875
    preds = match_trace(segments_of([s]), db_of(add, sub), channels)
    assert list(preds) == [Prediction(0, "i32.sub", 0.1875, 0.0)]
    assert_matches_scalar_oracle(preds, [s], [add, sub], channels)


@st.composite
def latency_families(draw):
    """Entries in families that share one discrete fingerprint and differ in latency only,
    drawn from a few vectors, so that discrete scores and totals tie exactly; and segments
    on the same fingerprints, with latencies from the same vectors."""
    n = draw(st.integers(1, 4))
    bases = draw(st.lists(channel_vectors(n, n), min_size=1, max_size=3))
    pool = draw(st.lists(channel_vectors(n, n), min_size=1, max_size=3))
    fps, segs = [], []
    for modes, classes, pf, _ in bases:
        for _ in range(draw(st.integers(2, 8))):
            latency = draw(st.sampled_from(pool))[3]
            fps.append(fp(draw(LABELS), modes, classes, pf, latency, draw(st.integers(1, 3))))
        for _ in range(draw(st.integers(1, 4))):
            segs.append(seg(modes, classes, pf, draw(st.sampled_from(pool))[3]))
    return fps, segs


@settings(max_examples=150, deadline=None)
@given(
    families=latency_families(),
    others=st.lists(fingerprints(), max_size=4),
    extra=st.lists(segments(), max_size=4),
    per_block=st.integers(1, 3),
    channels=CHANNEL_SETS,
)
def test_pruned_latency_agrees_with_scalar_oracle(families, others, extra, per_block, channels):
    fps, segs = families
    fps, segs = fps + others, segs + extra
    width = max(len(entry) for entry in fps)
    budget = per_block * len(fps) * width
    with mock.patch.object(matcher, "BLOCK_ELEMENTS", budget):
        preds = match_trace(segments_of(segs), db_of(*fps), channels)
        assert_pairs_match_scalar_oracle(CompiledDb(db_of(*fps), channels), segs, fps, channels)
    assert_matches_scalar_oracle(preds, segs, fps, channels)


# ------------------------------------------------------------- tie-breaks


def test_tie_prefers_higher_support():
    s = seg("RE", "OX", (8, 5), (5548, 5309))
    low = fp("zz.rare", s.modes, s.classes, s.pf, s.latency, support=1)
    high = fp("aa.common", s.modes, s.classes, s.pf, s.latency, support=9)
    preds = match_trace(segments_of([s]), db_of(low, high))
    assert preds[0].label == "aa.common"
    assert preds[0].margin == pytest.approx(0.0)


def test_tie_prefers_lexicographically_smaller_label():
    s = seg("RE", "OX", (8, 5), (5548, 5309))
    b = fp("bbb", s.modes, s.classes, s.pf, s.latency)
    a = fp("aaa", s.modes, s.classes, s.pf, s.latency)
    preds = match_trace(segments_of([s]), db_of(b, a))
    assert preds[0].label == "aaa"


def test_tie_prefers_labeled_over_unlabeled():
    s = seg("RE", "OX", (8, 5), (5548, 5309))
    anon = fp(None, s.modes, s.classes, s.pf, s.latency)
    named = fp("zzz", s.modes, s.classes, s.pf, s.latency)
    preds = match_trace(segments_of([s]), db_of(anon, named))
    assert preds[0].label == "zzz"


def test_single_entry_margin_is_the_full_score():
    s = seg("RE", "OX", (8, 5), (5548, 5309))
    only = fp("one", s.modes, s.classes, s.pf, s.latency)
    preds = match_trace(segments_of([s]), db_of(only))
    assert preds[0].score == pytest.approx(1.0)
    assert preds[0].margin == pytest.approx(1.0)


# ------------------------------------------------------------- match_trace


def test_match_trace_enumerates_segments_in_order():
    s1 = seg("RE", "OX", (8, 5), (5548, 5309))
    s2 = seg("RW", "OS", (8, 9), (5548, 5409))
    e1 = fp("first", s1.modes, s1.classes, s1.pf, s1.latency)
    e2 = fp("second", s2.modes, s2.classes, s2.pf, s2.latency)
    preds = match_trace(segments_of([s1, s2]), db_of(e1, e2))
    assert [p.segment_id for p in preds] == [0, 1]
    assert [p.label for p in preds] == ["first", "second"]


def test_match_trace_is_deterministic():
    rng = random.Random(3)
    entries = [
        fp(
            f"op{i}",
            "".join(rng.choice("RWE") for _ in range(4)),
            "".join(rng.choice("OSX") for _ in range(4)),
            [rng.randint(0, 9) for _ in range(4)],
            [rng.randint(5000, 6000) for _ in range(4)],
        )
        for i in range(6)
    ]
    segs = [
        seg(
            "".join(rng.choice("RWE") for _ in range(4)),
            "".join(rng.choice("OSX") for _ in range(4)),
            [rng.randint(0, 9) for _ in range(4)],
            [rng.randint(5000, 6000) for _ in range(4)],
        )
        for _ in range(10)
    ]
    stacked = segments_of(segs)
    assert match_trace(stacked, db_of(*entries)) == match_trace(stacked, db_of(*entries))


def test_database_of_empty_entries_still_scores_discrete_channels():
    s = seg("RE", "OX", (8, 5), (5548, 5309))
    empty = fp("none", "", "", (), ())
    channels = frozenset({Channel.MODE})
    preds = match_trace(segments_of([s]), db_of(empty), channels)
    assert preds[0].score == pytest.approx(score_segment(s, empty, channels))


def test_empty_entry_scores_like_the_oracle_on_numeric_channels():
    # An empty vector scores 1.0 against an empty one and 0.0 otherwise,
    # whatever the other side's first value is.
    empty = fp("empty", "", "", (), ())
    pair = fp("pair", "RW", "OS", (1, 1), (5000, 5000))
    segs = [seg("RE", "OX", (0, 3), (0, 5309)), seg("", "", (), ())]
    # The second database has width 0, so every segment's scored rows are empty.
    for fps in ([empty, pair], [empty]):
        for channels in ({Channel.PF}, {Channel.LATENCY}, {Channel.PF, Channel.MODE}):
            preds = match_trace(segments_of(segs), db_of(*fps), frozenset(channels))
            assert_matches_scalar_oracle(preds, segs, fps, frozenset(channels))


def test_constant_non_integer_prefix_scores_as_discrete():
    # A latency mean such as 5280 1/3 repeated is constant, so against a
    # varying segment it falls back to score_discrete; raw sums of squares
    # would leave it a small nonzero variance and score its correlation.
    const = fp("const", "RWERW", "OSXOS", (1,) * 5, (15841 / 3,) * 5, support=3)
    s = seg("RWERW", "OSXOS", (1,) * 5, (5000, 5010, 5005, 5001, 5002))
    channels = frozenset({Channel.LATENCY})
    want = score_numeric(s.latency, const.latency)
    assert want == pytest.approx(1 / 6)
    assert scored_pairs(CompiledDb(db_of(const), channels), [s])[0][0] == pytest.approx(want)


def offset_latency(trace: SideChannelTrace, offset: int) -> SideChannelTrace:
    return SideChannelTrace(
        trace.page, trace.mode, trace.pf, trace.latency + offset, trace.truth, trace.layout_seed
    )


@pytest.mark.parametrize("offset", [10**9, 10**10])
def test_constant_latency_offsets_wash_out(offset):
    # One offset added to every latency of the profile and of the victim, as
    # a timer with another zero point reads them, leaves every label as is.
    layout, profile = synth(
        execute(reference_module(4), step_limit=10_000_000),
        seed=PROFILE_SEED_OFFSET,
        noise=noise_model(PROFILE_SEED_OFFSET + 1),
        markers=True,
    )
    segs = victim(0, iterations=5).segments

    def labels_at(b):
        fps = build_fingerprint_db(
            offset_latency(profile, b),
            layout.marker_page,
            layout.optable_page,
            frozenset(layout.stack_pages),
        )
        shifted = Segments(offset_latency(segs.trace, b), segs.classes, segs.starts, segs.ends)
        return match_trace(shifted, fps).labels

    assert labels_at(offset) == labels_at(0)


def test_segments_score_once_per_length_and_scored_rows():
    # Width 3: the scorer reads the first 3 rows of the longer segments.
    fps = [
        fp("a", "RWE", "OSX", (1, 2, 3), (5000, 5010, 5005)),
        fp("b", "RW", "OS", (2, 1), (5010, 5000)),
    ]
    base = seg("RWERW", "OSXOS", (1, 2, 3, 4, 5), (5000, 5010, 5005, 5001, 5002))
    longer = seg(base.modes + "E", base.classes + "X", base.pf + (6,), base.latency + (5003,))
    tail_differs = seg("RWEEE", "OSXXX", (1, 2, 3, 9, 9), (5000, 5010, 5005, 5009, 5009))
    segs = [base, longer, tail_differs]
    placed = {}
    compiled = CompiledDb(db_of(*fps))
    blocks = compiled.score_blocks(segments_of(segs))
    for block, (rows, slot, key, entry, score) in enumerate(blocks):
        for row, k in zip(rows.tolist(), slot.tolist()):
            placed[row] = (block, k, dict(zip(entry[key == k].tolist(), score[key == k].tolist())))
    assert sorted(placed) == [0, 1, 2]
    assert placed[0][:2] == placed[2][:2]
    assert placed[0][:2] != placed[1][:2]
    assert placed[0][2] != placed[1][2]
    assert_pairs_match_scalar_oracle(compiled, segs, fps, frozenset(Channel))


ALL_SUBSETS = [
    frozenset(subset)
    for k in range(1, len(Channel) + 1)
    for subset in itertools.combinations(Channel, k)
]


def key_of(segment, channels):
    """The rows of `segment` that the scored `channels` read, in Channel order."""
    return tuple(rows for ch, rows in zip(Channel, vectors_of(segment)) if ch in channels)


def spy_on_pairs(rows_in, latency_pairs):
    """A stand-in for CompiledDb._score_pairs that counts, per set of channels scored, the
    rows it was given, and each (length, latency rows, entry) pair whose latency it scored."""
    real = CompiledDb._score_pairs

    def spy(self, x, L, rows, key, entry, side):
        rows_in[frozenset(x)] += len(rows)
        if Channel.LATENCY in x:
            latency = x[Channel.LATENCY][rows].tolist()
            latency_pairs.update(
                (int(L[rows[k]]), tuple(latency[k]), e)
                for k, e in zip(key.tolist(), entry.tolist())
            )
        return real(self, x, L, rows, key, entry, side)

    return mock.patch.object(CompiledDb, "_score_pairs", spy)


def assert_latency_scored_once_per_pair(latency_pairs, full_keys, n_entries):
    """Each (full key, entry) pair's latency was scored at most once, and each full key's
    against at least its two entries of highest discrete score.  A full key is a tuple of
    the segment length, then the rows read, latency last."""
    per_latency = Counter((key[0], tuple(key[-1])) for key in full_keys)
    for (length, rows, _), times in latency_pairs.items():
        assert times <= per_latency[length, rows]
    assert sum(latency_pairs.values()) >= min(2, n_entries) * len(full_keys)


def test_families_sharing_a_discrete_key_score_it_once():
    # {add, sub} and {and, or, xor} each share modes, classes and pf and
    # differ in latency only, as width twins do in a profiled DB.
    rng = random.Random(12)

    def latency(n):
        return [rng.randint(5000, 5030) for _ in range(n)]

    arith = ("RWER", "OSXO", (1, 0, 2, 1))
    logic = ("RWE", "OSX", (0, 1, 1))
    fps = [fp(label, *arith, latency(4)) for label in ("i32.add", "i32.sub")]
    fps += [fp(label, *logic, latency(3)) for label in ("i32.and", "i32.or", "i32.xor")]
    segs = [seg(*arith, latency(4)) for _ in range(30)]
    segs += [seg(*logic, latency(3)) for _ in range(20)]
    segs += [seg(*logic, (5000, 5000, 5000))] * 3
    # One latency vector under two discrete keys that differ in every
    # discrete channel: its latency is scored once per full key, so twice
    # against an entry that both keys score exactly.
    shared = latency(4)
    segs += [seg(*arith, shared), seg("WRRE", "SOOX", (0, 2, 1, 0), shared)]
    for channels in ALL_SUBSETS:
        rows_in, latency_pairs = Counter(), Counter()
        with spy_on_pairs(rows_in, latency_pairs):
            preds = match_trace(segments_of(segs), db_of(*fps), channels)
        assert_matches_scalar_oracle(preds, segs, fps, channels)
        assert_pairs_match_scalar_oracle(CompiledDb(db_of(*fps), channels), segs, fps, channels)
        discrete = channels - {Channel.LATENCY}
        if discrete:
            # One discrete key per family group, and one for the odd segment.
            assert rows_in[discrete] == 3
        if Channel.LATENCY in channels:
            full_keys = {(len(s), *key_of(s, channels)) for s in segs}
            assert_latency_scored_once_per_pair(latency_pairs, full_keys, len(fps))
            if discrete:  # the shared vector belongs to two full keys
                assert len(full_keys) == len({s.latency for s in segs}) + 1


def test_repeats_of_a_real_trace_score_latency_once_per_full_key():
    # A zero-noise victim replays each handler's events exactly, so its
    # segments collapse to a few dozen full keys.
    segs = victim(0, zero=True, iterations=5).segments
    fps = entries_of(profile_db(PROFILE_SEED_OFFSET, zero=True))
    width = max(len(entry) for entry in fps)
    full_keys = {(len(s), *(rows[:width] for rows in vectors_of(s))) for s in segs}
    rows_in, latency_pairs = Counter(), Counter()
    with spy_on_pairs(rows_in, latency_pairs):
        preds = match_trace(segs, db_of(*fps))
    assert_latency_scored_once_per_pair(latency_pairs, full_keys, len(fps))
    # Latency is scored for only a few entries of each full key.
    assert sum(latency_pairs.values()) < len(full_keys) * len(fps) / 4
    assert 10 * len(full_keys) < len(segs)
    assert_matches_scalar_oracle(preds, segs, fps, frozenset(Channel))


def test_empty_database_is_an_error():
    with pytest.raises(MatchError, match="empty"):
        match_trace(segments_of([]), db_of())


# ------------------------------------------------------------ Predictions


def prediction_columns():
    """Four predictions over a table that holds label "x" twice, as a DB may."""
    return Predictions(
        np.array([0, 1, 2, 7]),
        np.array([0, 1, 2, 3]),
        ["x", None, "y", "x"],
        np.array([0.5, 0.25, 1.0, -0.0]),
        np.array([0.125, 0.0, 0.5, 0.0]),
    )


PREDICTION_ROWS = [
    Prediction(0, "x", 0.5, 0.125),
    Prediction(1, None, 0.25, 0.0),
    Prediction(2, "y", 1.0, 0.5),
    Prediction(7, "x", -0.0, 0.0),
]


def test_predictions_index_like_a_list():
    preds, rows = prediction_columns(), PREDICTION_ROWS
    assert list(preds) == rows
    assert preds.labels == [p.label for p in rows]
    for i in range(-len(rows), len(rows)):
        assert preds[i] == preds[np.int64(i)] == rows[i]
        assert type(preds[i].segment_id) is int and type(preds[i].score) is float
    for i in (4, -5, np.int64(4)):
        with pytest.raises(IndexError):
            preds[i]
    for part in (slice(1, 3), slice(None, None, -2), slice(5, 9)):
        assert isinstance(preds[part], Predictions)
        assert preds[part] == rows[part]
    assert preds[np.array([3, 0])] == [rows[3], rows[0]]


def test_predictions_compare_item_by_item():
    preds, rows = prediction_columns(), PREDICTION_ROWS
    assert preds == rows and rows == preds and preds == tuple(rows)
    assert preds == predictions_of(rows) == prediction_columns()
    assert preds != rows[:-1]
    assert preds != [*rows[:-1], replace(rows[-1], margin=1.0)]
    assert preds != 5


def test_predictions_assignment_writes_into_the_columns():
    preds, rows = prediction_columns(), list(PREDICTION_ROWS)
    rows[1] = replace(rows[1], label="y", score=0.75)  # a label in the table
    rows[-1] = replace(rows[-1], label="z", segment_id=9)  # a new label
    preds[1], preds[-1] = rows[1], rows[-1]
    assert preds == rows
    assert preds.table == ["x", None, "y", "x", "z"]
    view = preds[1:]  # a slice's columns are views sharing the table
    view[0] = rows[1] = replace(rows[1], label="w")
    assert preds == rows
    assert preds.table == ["x", None, "y", "x", "z", "w"]


def old_prediction_list(segs, fps, channels):
    """match_trace as it was: one Prediction built per segment from the picks."""
    compiled = CompiledDb(db_of(*fps), channels)
    best = np.zeros(len(segs), dtype=np.int64)
    top, margin = np.zeros(len(segs)), np.zeros(len(segs))
    for rows, slot, key, entry, score in compiled.score_blocks(segments_of(segs)):
        b, t, g = compiled.pick(key, entry, score)
        best[rows], top[rows], margin[rows] = b[slot], t[slot], g[slot]
    predicted = [fps[b].label for b in best.tolist()]
    return list(map(Prediction, range(len(segs)), predicted, top.tolist(), margin.tolist()))


@settings(max_examples=100, deadline=None)
@given(
    fps=st.lists(fingerprints(), min_size=1, max_size=8),
    segs=st.lists(segments(max_len=6), max_size=12),
    channels=CHANNEL_SETS,
)
def test_predictions_items_are_the_old_prediction_list(fps, segs, channels):
    preds = match_trace(segments_of(segs), db_of(*fps), channels)
    want = old_prediction_list(segs, fps, channels)
    assert list(preds) == [preds[i] for i in range(len(preds))] == want
    assert preds.labels == [p.label for p in want]
    assert predictions_of(want) == preds
