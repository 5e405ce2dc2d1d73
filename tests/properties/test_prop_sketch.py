"""Property test: the R4 sketch's window-close kernel against a naive loop.

``SketchWindowScorer`` reads its threshold from a top set of the
novelty history (its sorted values at or above a cut), splits its buffer
once per ``advance``, skips empty windows by index arithmetic, and
scores, flags and folds every window an ``advance`` closes in one array
kernel over an interned document table.  These properties pin all of it
against the plain definitions: the top set's quantile is ``np.quantile``
bitwise, over small histories and over 300-5000-value histories with
ties and drift, the set is ``sorted(v for v in history if v >= cut)``
after any sequence of windows and evictions, and every flag, novelty and
history entry equals a naive model that closes one window at a time with
two buffer scans, ``np.quantile`` and one ``HashingTopicSketch.score``
call per document — over wide documents, value-equal copies and empty
documents, under any advance schedule, and across rebuilds of the
document table.  The top set's slack is drawn small as well as at its
module value, so the small histories cross its cut, its re-derivations
and its slack bound too.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.ml import sketch as sketch_module
from repro.ml.sketch import HashingTopicSketch, SketchFlag, SketchWindowScorer

N_BUCKETS = 16
WINDOW = 10.0
# Few distinct documents, so novelties repeat and the history holds ties.
DOCUMENTS = [
    ((1,), (1,)),
    ((1, 2), (1, 3)),
    ((2, 5, 9), (1, 1, 2)),
    ((3,), (4,)),
    ((4, 7), (2, 1)),
    ((0, 15), (1, 1)),
]
# In-window steps, window-sized steps and gaps spanning many windows.
STEPS = [0.0, 0.0, 0.5, 3.0, 9.9, 10.0, 25.0, 140.0]
QUANTILES = st.one_of(
    st.sampled_from([0.0, 0.5, 0.99, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)
# Slacks far below the histories drawn here, and the module's own.
SLACKS = st.sampled_from([1, 3, sketch_module._TOP_SLACK])


def top_set_holds(scorer):
    """The threshold's top set is every history value at or above its cut."""
    return scorer._top == sorted(v for v in scorer._history if v >= scorer._cut)


def small_slack(slack):
    """Run with the top set's slack patched to ``slack``."""
    return mock.patch.object(sketch_module, "_TOP_SLACK", slack)


class NaiveScorer:
    """The window loop with nothing derived: one window per step, two
    comprehensions over the buffer per window, ``np.quantile`` over the
    history, one ``score`` call per document."""

    def __init__(self, quantile, gap, limit, warmup=2, n_buckets=N_BUCKETS):
        self.sketch = HashingTopicSketch(n_buckets)
        self.quantile, self.gap, self.limit = quantile, gap, limit
        self.warmup = warmup
        self.start = None
        self.index = 0
        self.buffer = []
        self.history = []
        self.flags = []

    def add(self, doc):
        if not doc[2][0]:
            return
        if self.start is None:
            self.start = doc[0]
        self.buffer.append(doc)

    def advance(self, watermark):
        if self.start is None:
            return
        while self.start + (self.index + 1) * WINDOW <= watermark:
            self.close(self.start + (self.index + 1) * WINDOW)

    def close(self, end):
        if end is None:
            batch, self.buffer = self.buffer, []
        else:
            batch = [doc for doc in self.buffer if doc[0] < end]
            self.buffer = [doc for doc in self.buffer if doc[0] >= end]
        if batch:
            batch.sort()
            threshold = None
            if self.index >= self.warmup and self.history:
                threshold = float(
                    np.quantile(self.history, self.quantile)
                ) + self.gap
            novelties = [-self.sketch.score(*doc[2]) for doc in batch]
            if threshold is not None:
                self.flags.extend(
                    SketchFlag(doc[1], doc[0], novelty, self.index)
                    for doc, novelty in zip(batch, novelties)
                    if novelty > threshold
                )
            self.history = (self.history + novelties)[-self.limit:]
            self.sketch.partial_fit([doc[2] for doc in batch])
        self.index += 1


@st.composite
def streams(draw):
    """Documents with jittered times (late arrivals included) and the
    watermarks ``advance`` sees after each one."""
    n = draw(st.integers(min_value=1, max_value=160))
    now = 0.0
    events = []
    for _ in range(n):
        now += draw(st.sampled_from(STEPS))
        lateness = draw(st.sampled_from([0.0, 0.0, 0.0, 4.0, 12.0]))
        at = max(now - lateness, 0.0)
        content = draw(st.sampled_from(DOCUMENTS))
        strategy = draw(st.sampled_from(["s-1", "s-2"]))
        watermark = now - draw(st.sampled_from([0.0, 5.0, 30.0]))
        events.append(((at, strategy, content), watermark))
    return events


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=50.0) | st.sampled_from([1.0, 2.5]),
        min_size=1, max_size=300,
    ),
    QUANTILES,
    SLACKS,
)
# At g = 0.5 numpy lerps from the upper neighbour; from the lower one
# this pair would land one ulp higher.
@example([2.4558498082097246, 130425.25193495094], 0.5, 1)
@settings(deadline=None)
def test_top_set_quantile_is_numpy_quantile_bitwise(history, quantile, slack):
    scorer = SketchWindowScorer(novelty_quantile=quantile)
    state = scorer.export_state()
    state["history"] = history
    scorer.restore_state(state)
    expected = float(np.quantile(history, quantile))
    with small_slack(slack):
        assert scorer._threshold().hex() == expected.hex()
    assert top_set_holds(scorer)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=300, max_value=5000),
    st.sampled_from([0.0, 0.5, 0.99, 1.0]),
    st.sampled_from([-1.0, 0.0, 1.0]),
    SLACKS,
)
@settings(deadline=None)
def test_top_set_threshold_is_numpy_quantile_over_large_histories(
        seed, limit, quantile, drift, slack):
    """Windows of novelties, a third of them from four tied values and
    the rest spread around a drifting centre, fill a 300-5000-value
    history and evict past it; so the top set is cut, outgrown and
    drained, and after every window it holds and the threshold is
    ``np.quantile`` bitwise."""
    rng = np.random.default_rng(seed)
    ties = rng.normal(size=4)
    scorer = SketchWindowScorer(novelty_quantile=quantile, history_limit=limit)
    with small_slack(slack):
        for window in range(32):
            size = int(rng.integers(limit // 16 + 1, limit // 6 + 2))
            values = rng.normal(drift * window / 8, 1.0, size)
            tied = rng.random(size) < 0.3
            values[tied] = rng.choice(ties, int(tied.sum()))
            scorer._remember(values.tolist())
            expected = float(np.quantile(scorer._history, quantile))
            assert scorer._threshold().hex() == expected.hex()
            assert top_set_holds(scorer)
    assert len(scorer._history) == limit


@given(streams(), QUANTILES, st.integers(min_value=1, max_value=40), SLACKS)
@settings(deadline=None)
def test_scorer_matches_the_naive_window_loop(events, quantile, limit, slack):
    scorer = SketchWindowScorer(
        n_buckets=N_BUCKETS, window_seconds=WINDOW, warmup_windows=2,
        novelty_quantile=quantile, min_novelty_gap=0.0, history_limit=limit,
    )
    naive = NaiveScorer(quantile, 0.0, limit)
    with small_slack(slack):
        for (at, strategy, (ids, counts)), watermark in events:
            scorer.add((at, strategy, ids, counts))
            naive.add((at, strategy, (ids, counts)))
            scorer.advance(watermark)
            naive.advance(watermark)
            assert scorer._window_index == naive.index
            assert scorer._history == naive.history
            assert top_set_holds(scorer)
            # The retained buffer keeps its arrival order (checkpoint bytes).
            assert scorer._buffer == naive.buffer
        scorer.finish()
    if naive.buffer:
        naive.close(None)
    assert [(f.strategy_id, f.occurred_at, f.novelty.hex(), f.window_index)
            for f in scorer.flags] == \
        [(f.strategy_id, f.occurred_at, f.novelty.hex(), f.window_index)
         for f in naive.flags]
    assert [value.hex() for value in scorer._history] == \
        [value.hex() for value in naive.history]
    assert top_set_holds(scorer)
    assert scorer.sketch.export_state() == naive.sketch.export_state()


@given(
    st.lists(st.integers(min_value=0, max_value=300), min_size=1,
             max_size=12),
    st.integers(min_value=1, max_value=150),
    SLACKS,
)
@settings(deadline=None)
def test_top_set_tracks_history_through_bulk_windows(sizes, limit, slack):
    """Windows of up to 300 documents, more than a whole history, enter
    and evict across the top set's cut; the set stays every history
    value at or above it."""
    scorer = SketchWindowScorer(
        n_buckets=N_BUCKETS, window_seconds=WINDOW, warmup_windows=1,
        history_limit=limit,
    )
    with small_slack(slack):
        for window, size in enumerate(sizes):
            for offset in range(size):
                ids, counts = DOCUMENTS[(window + offset) % len(DOCUMENTS)]
                scorer.add((window * WINDOW + offset * WINDOW / 400, "s-1",
                            ids, counts))
            scorer.advance((window + 1) * WINDOW)
            assert len(scorer._history) <= limit
            assert top_set_holds(scorer)


def documents(n_buckets):
    """Sorted distinct bucket ids of a drawn width, counts 1-5, or empty."""
    return st.lists(
        st.integers(min_value=0, max_value=n_buckets - 1),
        max_size=12, unique=True,
    ).flatmap(lambda ids: st.tuples(
        st.just(tuple(sorted(ids))),
        st.tuples(*[st.integers(min_value=1, max_value=5)] * len(ids)),
    ))


def copy_of(content):
    """A value-equal ``(ids, counts)`` pair that is a distinct object."""
    return tuple(list(content[0])), tuple(list(content[1]))


def verdicts(flags, history):
    """Flags and history with every float as ``hex``."""
    return (
        [(f.strategy_id, f.occurred_at, f.novelty.hex(), f.window_index)
         for f in flags],
        [value.hex() for value in history],
    )


def fingerprint(scorer):
    """Everything an advance schedule could change."""
    return verdicts(scorer.flags, scorer._history), scorer.export_state()


@st.composite
def wide_flushes(draw):
    """Flushes of rows over a pool of wide documents (any bucket of a
    drawn width, counts above one, empty ones), each row sharing its
    pool object or carrying a value-equal copy."""
    n_buckets = draw(st.sampled_from([16, 300, 4096]))
    pool = draw(st.lists(documents(n_buckets), min_size=1, max_size=6))
    now = 0.0
    flushes = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        rows = []
        for _ in range(draw(st.integers(min_value=0, max_value=12))):
            now += draw(st.sampled_from([0.0, 0.0, 0.5, 3.0, 10.0, 40.0]))
            lateness = draw(st.sampled_from([0.0, 0.0, 4.0]))
            content = draw(st.sampled_from(pool))
            if draw(st.booleans()):
                content = copy_of(content)
            strategy = draw(st.sampled_from(["s-1", "s-2", "s-3"]))
            rows.append((max(now - lateness, 0.0), strategy, content))
        flushes.append((rows, now - draw(st.sampled_from([0.0, 5.0]))))
    return n_buckets, flushes


@given(wide_flushes(), QUANTILES, st.integers(min_value=1, max_value=40),
       SLACKS)
@settings(deadline=None)
def test_wide_documents_match_the_naive_window_loop(
        drawn, quantile, limit, slack):
    n_buckets, flushes = drawn
    scorer = SketchWindowScorer(
        n_buckets=n_buckets, window_seconds=WINDOW, warmup_windows=2,
        novelty_quantile=quantile, min_novelty_gap=0.0, history_limit=limit,
    )
    naive = NaiveScorer(quantile, 0.0, limit, n_buckets=n_buckets)
    with small_slack(slack):
        for rows, watermark in flushes:
            # The suite's per-flush form: a docs table and rows indexing it.
            docs = [content for _, _, content in rows]
            scorer.add_rows(docs, [
                (at, strategy, index)
                for index, (at, strategy, _) in enumerate(rows)
            ])
            for at, strategy, content in rows:
                naive.add((at, strategy, content))
            scorer.advance(watermark)
            naive.advance(watermark)
            assert scorer._window_index == naive.index
            assert scorer._buffer == naive.buffer
            assert top_set_holds(scorer)
        scorer.finish()
    if naive.buffer:
        naive.close(None)
    assert verdicts(scorer.flags, scorer._history) == \
        verdicts(naive.flags, naive.history)
    assert scorer.sketch.export_state() == naive.sketch.export_state()


@st.composite
def in_order_streams(draw):
    """Documents in event-time order (ties included), so every document
    lands beyond any watermark an earlier one set."""
    n_buckets = draw(st.sampled_from([16, 4096]))
    pool = draw(st.lists(documents(n_buckets), min_size=1, max_size=5))
    now = 0.0
    events = []
    for _ in range(draw(st.integers(min_value=1, max_value=120))):
        now += draw(st.sampled_from(STEPS))
        content = draw(st.sampled_from(pool))
        strategy = draw(st.sampled_from(["s-1", "s-2"]))
        events.append((now, strategy, content))
    return n_buckets, events


@given(in_order_streams(), st.data(), st.integers(min_value=1, max_value=40))
@settings(deadline=None)
def test_advance_schedule_does_not_change_any_verdict(drawn, data, limit):
    """Advancing after every document, at drawn cut points, or once at
    the end closes the same windows in the same order."""
    n_buckets, events = drawn
    cuts = data.draw(st.sets(st.integers(min_value=0, max_value=len(events))))

    def run(advance_after):
        scorer = SketchWindowScorer(
            n_buckets=n_buckets, window_seconds=WINDOW, warmup_windows=2,
            min_novelty_gap=0.0, history_limit=limit,
        )
        for position, (at, strategy, (ids, counts)) in enumerate(events):
            scorer.add((at, strategy, ids, counts))
            if advance_after(position):
                scorer.advance(at)
        scorer.advance(events[-1][0])
        scorer.finish()
        return fingerprint(scorer)

    every = run(lambda position: True)
    assert run(cuts.__contains__) == every
    assert run(lambda position: False) == every


TABLE_CAP = 8


@given(
    st.lists(
        st.tuples(st.sampled_from([5.0, 7.0, 10.0, 25.0]), documents(4096)),
        min_size=20, max_size=80,
    ),
    QUANTILES,
)
@settings(deadline=None)
def test_document_table_stays_bounded_across_rebuilds(steps, quantile):
    """Every document is new and at most two share a window, so the live
    buffer never holds more than three: the table must fold back under
    its cap after every call, and the verdicts still equal the naive
    loop's."""
    with mock.patch.object(sketch_module, "_DOC_TABLE_CAP", TABLE_CAP):
        scorer = SketchWindowScorer(
            n_buckets=4096, window_seconds=WINDOW, warmup_windows=2,
            novelty_quantile=quantile, min_novelty_gap=0.0, history_limit=30,
        )
        naive = NaiveScorer(quantile, 0.0, 30, n_buckets=4096)
        now = 0.0
        rebuilt = False
        for number, (step, (ids, counts)) in enumerate(steps):
            now += step
            # Bucket ``number`` is each document's only one below 100,
            # so every document is distinct and non-empty.
            kept = [(b, c) for b, c in zip(ids, counts) if b >= 100]
            ids = (number,) + tuple(b for b, _ in kept)
            counts = (1,) + tuple(c for _, c in kept)
            before = len(scorer._table)
            scorer.add((now, "s-1", ids, counts))
            naive.add((now, "s-1", (ids, counts)))
            scorer.advance(now)
            naive.advance(now)
            rebuilt = rebuilt or len(scorer._table) < before + 1
            assert len(scorer._table) <= TABLE_CAP
            assert scorer._buffer == naive.buffer
        scorer.finish()
    if naive.buffer:
        naive.close(None)
    assert rebuilt
    assert verdicts(scorer.flags, scorer._history) == \
        verdicts(naive.flags, naive.history)
    assert scorer.sketch.export_state() == naive.sketch.export_state()
