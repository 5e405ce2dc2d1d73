"""LDA-free R4 scoring: a hashing-trick topic sketch.

:class:`~repro.core.mitigation.emerging.EmergingAlertDetector` scores
novelty with an online LDA — exact, but it carries a vocabulary, topic
matrices, and a variational inference loop that cannot run incrementally
inside the gateway's flush barriers at stream rates.  This module is the
streaming replacement:

* **stable hashing** — every token maps to one of ``n_buckets`` counter
  buckets via ``blake2b`` (never the salted builtin ``hash``), so the
  same document hashes identically across processes, restarts, and
  checkpoint round trips;
* **integer counts** — the sketch is an int64 histogram of ``n_buckets``
  counts, so folding documents is order-independent and
  byte-deterministic (no float accumulation drift between backends);
* **novelty = surprise** — a document's score is the mean smoothed
  log-probability of its token buckets under the histogram; alerts
  whose word combinations the sketch has not absorbed score low, the
  same "matches no known topic" signal the LDA bound gives;
* **one exact kernel per advance** — :class:`SketchWindowScorer` hands
  every window a watermark closes to one numpy pass
  (:meth:`HashingTopicSketch.score_windows`) that scores each distinct
  document of each window against the histogram as it stood before that
  window, then folds them all in.  It returns the very floats the
  per-document loop of :meth:`HashingTopicSketch.score` does, bit for
  bit, because nothing is reordered: the counts are integers; each log
  term is ``math.log`` of the same Python float (never numpy's
  vectorised log, whose SIMD path may differ by one ulp); elementwise
  IEEE operations round exactly as CPython's float operations do; and a
  document's terms are summed by ``np.add.accumulate`` along its row,
  strictly left to right (never a numpy sum, segment reduction or dot
  product, which sum pairwise);
* **the identical window discipline** — :class:`SketchWindowScorer`
  reproduces the LDA detector's loop exactly (fixed windows from the
  first document, warm-up, 0.99-quantile + gap threshold, 5000-entry
  history) but runs *incrementally*, without sorting the history or
  rescanning the buffer per window (see the class docstring): the
  streaming detector suite feeds
  it watermark by watermark, and :class:`SketchEmergingDetector` wraps
  the same scorer for one-shot batch runs, so the two paths share every
  line of verdict logic and the differential harness compares data
  paths, not re-implementations.

The sketch-vs-LDA agreement bound lives in
``tests/streaming/test_differential.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections.abc import Iterable
from dataclasses import dataclass
from hashlib import blake2b
from itertools import chain
from operator import itemgetter

import numpy as np

from repro.common.errors import ValidationError
from repro.common.timeutil import HOUR
from repro.common.validation import require_fraction, require_positive
from repro.ml.tokenize import tokenize

__all__ = [
    "DEFAULT_SKETCH_BUCKETS",
    "alert_document",
    "hash_document",
    "HashingTopicSketch",
    "SketchWindowScorer",
    "SketchEmergingDetector",
]

DEFAULT_SKETCH_BUCKETS = 4096

#: One document ready for the sketch: event time, the subject strategy,
#: and the hashed bag-of-buckets (parallel id/count tuples, ids sorted).
SketchDoc = tuple[float, str, tuple[int, ...], tuple[int, ...]]

#: A buffered document's event time (the bisect key of a sorted buffer).
_event_time = itemgetter(0)
#: A buffered document's interned ``(ids, counts)`` pair.
_content = itemgetter(2)

#: Spare ranks the threshold's top set is derived with, and how far it
#: may grow past its derived size before it is derived again.
_TOP_SLACK = 256

#: The document table is rebuilt from the live buffer once it holds more
#: than this many documents and twice what its last rebuild kept.
_DOC_TABLE_CAP = 4096


def alert_document(alert) -> list[str]:
    """The bag-of-words document representing one alert.

    The exact recipe of
    :meth:`~repro.core.mitigation.emerging.EmergingAlertDetector.document_of`
    (which delegates here): strategy name, title, description, and the
    component names, so sketch topics align with the LDA topics they
    replace.
    """
    text = " ".join([
        alert.strategy_name,
        alert.title,
        alert.description,
        alert.microservice,
        alert.service,
    ])
    return tokenize(text)


def _bucket_of(token: str, n_buckets: int) -> int:
    """Stable token -> bucket assignment (process/restart invariant)."""
    raw = blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(raw, "big") % n_buckets


def hash_document(
    tokens: list[str], n_buckets: int = DEFAULT_SKETCH_BUCKETS,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Hash a token list into sorted ``(bucket ids, counts)`` tuples."""
    counts: dict[int, int] = {}
    for token in tokens:
        bucket = _bucket_of(token, n_buckets)
        counts[bucket] = counts.get(bucket, 0) + 1
    ids = tuple(sorted(counts))
    return ids, tuple(counts[bucket] for bucket in ids)


def _exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    """``[0, v0, v0 + v1, ...]`` — one longer than ``values`` (integers)."""
    running = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=running[1:])
    return running


class HashingTopicSketch:
    """A fixed-width int64 bucket histogram scoring token-bucket surprise."""

    __slots__ = ("n_buckets", "smoothing", "_counts", "_total")

    def __init__(
        self,
        n_buckets: int = DEFAULT_SKETCH_BUCKETS,
        smoothing: float = 0.5,
    ) -> None:
        require_positive(n_buckets, "n_buckets")
        require_positive(smoothing, "smoothing")
        self.n_buckets = int(n_buckets)
        self.smoothing = float(smoothing)
        #: Integer bucket counts — fold order never matters.
        self._counts = np.zeros(self.n_buckets, dtype=np.int64)
        self._total = 0

    def score(self, ids: tuple[int, ...], counts: tuple[int, ...]) -> float:
        """Mean smoothed log-probability per token occurrence.

        The sketch analogue of the LDA per-word bound: higher means the
        document's buckets are well explained by what the sketch has
        absorbed; novelty is the negation.  This per-document loop is
        the reference :meth:`score_windows` is bitwise equal to.
        """
        alpha = self.smoothing
        denominator = math.log(self._total + alpha * self.n_buckets)
        log_likelihood = 0.0
        total = 0
        bucket_counts = self._counts
        for bucket, count in zip(ids, counts):
            log_likelihood += count * (
                math.log(int(bucket_counts[bucket]) + alpha) - denominator
            )
            total += count
        if total == 0:
            return 0.0
        return log_likelihood / total

    def partial_fit(
        self, docs: list[tuple[tuple[int, ...], tuple[int, ...]]],
    ) -> None:
        """Fold documents into the histogram (commutative, integral)."""
        bucket_counts = self._counts
        for ids, counts in docs:
            for bucket, count in zip(ids, counts):
                bucket_counts[bucket] += count
                self._total += count

    def score_windows(
        self,
        pair_window: np.ndarray,
        lengths: np.ndarray,
        buckets: np.ndarray,
        counts: np.ndarray,
        multiplicity: np.ndarray,
    ) -> np.ndarray:
        """Novelty of each (window, document) pair, then fold them all.

        Pair ``p`` is a document that occurs ``multiplicity[p]`` times in
        window ``pair_window[p]`` (``0, 1, ...``, non-decreasing); its
        buckets and counts are the next ``lengths[p]`` entries of
        ``buckets`` / ``counts``.  Each pair is scored against the
        histogram as it stands before its window — this histogram plus
        every earlier window's documents — and the result is bitwise
        ``-score(ids, counts)`` at that point of a window-by-window loop
        that calls :meth:`partial_fit` after each window (see the module
        docstring for why).
        """
        n_windows = int(pair_window[-1]) + 1
        element_window = np.repeat(pair_window, lengths)
        increments = counts * np.repeat(multiplicity, lengths)
        element_starts = _exclusive_cumsum(lengths)
        token_running = _exclusive_cumsum(counts)
        tokens = token_running[element_starts[1:]] - token_running[element_starts[:-1]]
        pair_increments = tokens * multiplicity
        # Window ``w`` holds pairs ``pair_bounds[w]:pair_bounds[w + 1]``.
        pair_bounds = np.searchsorted(pair_window, np.arange(n_windows + 1))
        # Each element's bucket count before its window: gather it from
        # the histogram, then fold that window's integer increments in.
        histogram = self._counts
        before = np.empty_like(buckets)
        bounds = element_starts[pair_bounds].tolist()
        for begin, end in zip(bounds, bounds[1:]):
            window_buckets = buckets[begin:end]
            before[begin:end] = histogram[window_buckets]
            np.add.at(histogram, window_buckets, increments[begin:end])
        # One ``math.log`` per distinct count, of the float ``score``
        # takes it of (an int64 below 2**53 converts exactly).
        alpha = self.smoothing
        values, value_index = np.unique(before, return_inverse=True)
        log_terms = np.fromiter(
            map(math.log, (values + alpha).tolist()),
            dtype=np.float64, count=len(values),
        )
        # The histogram total before each window.
        spent = _exclusive_cumsum(pair_increments)[pair_bounds[:-1]]
        width = alpha * self.n_buckets
        denominators = np.array([
            math.log(self._total + earlier + width) for earlier in spent.tolist()
        ])
        terms = counts * (log_terms[value_index] - denominators[element_window])
        # One row per pair, its terms left-aligned and zero-padded: the
        # row's running sum is never -0.0 (a term is +0.0 at worst), so
        # the trailing zeros leave the left-to-right sum untouched.
        matrix = np.zeros((len(lengths), int(lengths.max())))
        matrix[np.arange(matrix.shape[1]) < lengths[:, None]] = terms
        log_likelihood = np.add.accumulate(matrix, axis=1)[:, -1]
        self._total += int(pair_increments.sum())
        return -(log_likelihood / tokens)

    def export_state(self) -> dict:
        """The histogram as a JSON-safe dict (checkpointing)."""
        nonzero = np.flatnonzero(self._counts)
        return {
            "counts": [
                [bucket, count] for bucket, count in
                zip(nonzero.tolist(), self._counts[nonzero].tolist())
            ],
            "total": self._total,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a histogram captured by :meth:`export_state` (exact).

        Refuses a state no fold can produce: a bucket outside
        ``[0, n_buckets)``, a count below one, or a ``total`` that is not
        the histogram's sum.
        """
        counts = np.zeros(self.n_buckets, dtype=np.int64)
        for bucket, count in state["counts"]:
            bucket, count = int(bucket), int(count)
            if not 0 <= bucket < self.n_buckets:
                raise ValidationError(
                    f"sketch bucket {bucket} outside [0, {self.n_buckets})"
                )
            if count <= 0:
                raise ValidationError(
                    f"sketch bucket {bucket} has count {count}, must be > 0"
                )
            counts[bucket] = count
        total = int(state["total"])
        if total != int(counts.sum()):
            raise ValidationError(
                f"sketch total {total} is not its counts' sum {int(counts.sum())}"
            )
        self._counts, self._total = counts, total


class _DocumentTable:
    """Buffered documents interned by value into one ragged array table.

    Row ``r`` is the document ``contents[r]``: its bucket ids and counts
    are ``ids`` / ``counts`` from ``starts[r]`` for ``lengths[r]``
    entries.  Value-equal documents share one row and one canonical
    ``(ids, counts)`` object, which the buffer holds, so a buffered
    document finds its row by identity.  The table is derived state:
    never checkpointed, and rebuilt from the live buffer when it grows.
    """

    __slots__ = ("contents", "_row_of_id", "_row_of_value", "_synced",
                 "ids", "counts", "starts", "lengths")

    def __init__(self, contents: Iterable[tuple] = ()) -> None:
        self.contents: list[tuple] = []
        #: ``id(canonical content) -> row``; sound because ``contents``
        #: keeps every canonical object alive.
        self._row_of_id: dict[int, int] = {}
        self._row_of_value: dict[tuple, int] = {}
        self._synced = 0
        empty = np.zeros(0, dtype=np.int64)
        self.ids = self.counts = self.starts = self.lengths = empty
        for content in contents:
            self.intern(content)

    def __len__(self) -> int:
        return len(self.contents)

    def intern(self, content: tuple) -> tuple:
        """The canonical object value-equal to ``content``."""
        if id(content) in self._row_of_id:
            return content
        row = self._row_of_value.get(content)
        if row is not None:
            return self.contents[row]
        row = len(self.contents)
        self._row_of_value[content] = self._row_of_id[id(content)] = row
        self.contents.append(content)
        return content

    def rows_of(self, docs: list[tuple]) -> np.ndarray:
        """The table row of each buffered document."""
        return np.fromiter(
            map(self._row_of_id.__getitem__, map(id, map(_content, docs))),
            dtype=np.int64, count=len(docs),
        )

    def sync(self) -> None:
        """Append the arrays of every row interned since the last sync."""
        new = self.contents[self._synced:]
        if not new:
            return
        lengths = np.fromiter(
            (len(ids) for ids, _ in new), dtype=np.int64, count=len(new),
        )
        self.starts = np.concatenate(
            (self.starts, len(self.ids) + np.cumsum(lengths) - lengths)
        )
        self.lengths = np.concatenate((self.lengths, lengths))
        self.ids = np.concatenate((self.ids, np.fromiter(
            chain.from_iterable(ids for ids, _ in new), dtype=np.int64,
        )))
        self.counts = np.concatenate((self.counts, np.fromiter(
            chain.from_iterable(counts for _, counts in new), dtype=np.int64,
        )))
        self._synced = len(self.contents)


def _checked_content(ids, counts, n_buckets: int) -> tuple:
    """A restored buffer document as ``(ids, counts)``, or refuse it."""
    ids, counts = tuple(int(b) for b in ids), tuple(int(c) for c in counts)
    if (
        not ids
        or len(ids) != len(counts)
        or not all(0 <= bucket < n_buckets for bucket in ids)
        or not all(count > 0 for count in counts)
    ):
        raise ValidationError(
            f"sketch buffer document {[list(ids), list(counts)]!r} is not a "
            f"non-empty bag of buckets in [0, {n_buckets}) with counts > 0"
        )
    return ids, counts


@dataclass(frozen=True, slots=True)
class SketchFlag:
    """One emerging-alert flag raised by the sketch scorer."""

    strategy_id: str
    occurred_at: float
    novelty: float
    window_index: int


class SketchWindowScorer:
    """The LDA detector's window loop, runnable incrementally.

    Documents accumulate in a buffer; :meth:`advance` closes every
    window the watermark has passed (any in-order future document must
    land beyond it), scoring each window's documents against the sketch
    *before* folding them in — exactly the order the batch LDA detector
    uses.  Windows are canonically sorted before processing, so the
    verdicts are independent of plane count, backend, and flush
    schedule; :meth:`finish` closes the final partial window at drain.
    Because windows close in order whatever the schedule, advancing
    after every document or once at the end yields identical state.

    The work per :meth:`advance` follows what changed, not the stream's
    length, and its per-document arithmetic is array work:

    * the buffer is sorted once and each closing window's batch is the
      prefix below its end, cut by bisect — already in the canonical
      order, and the retained tail keeps its arrival order;
    * a gap with no documents (a quiet stretch, or one far-future event
      time) is skipped in O(1): the index jumps to the window the next
      document or the watermark falls in, found by the loop's own float
      test ``start + (k + 1) * window <= t``;
    * every buffered document is interned by value into a ragged
      ids/counts table (derived, never checkpointed, rebuilt from the
      live buffer once it passes ``max(cap, 2 × live)``); the closing
      documents collapse to one row per distinct (window, document)
      pair with its multiplicity, and
      :meth:`HashingTopicSketch.score_windows` scores and folds every
      closing window in one exact kernel;
    * per window, in order, the threshold is read with numpy's
      ``linear`` quantile rule off ``_top``, the sorted values of the
      checkpointed ``_history`` at or above a cut, so it equals numpy's
      ``quantile(history, q)`` bitwise; a novelty below the cut costs
      one compare, and one ``sorted(history)`` re-derives cut and set
      only once they miss the quantile's ranks or outgrow their slack.
    """

    def __init__(
        self,
        n_buckets: int = DEFAULT_SKETCH_BUCKETS,
        smoothing: float = 0.5,
        window_seconds: float = 1 * HOUR,
        warmup_windows: int = 6,
        novelty_quantile: float = 0.99,
        min_novelty_gap: float = 1.0,
        history_limit: int = 5000,
    ) -> None:
        require_positive(window_seconds, "window_seconds")
        require_positive(warmup_windows, "warmup_windows")
        require_fraction(novelty_quantile, "novelty_quantile")
        require_positive(history_limit, "history_limit")
        self.sketch = HashingTopicSketch(n_buckets, smoothing)
        self._window = float(window_seconds)
        self._warmup_windows = int(warmup_windows)
        self._novelty_quantile = float(novelty_quantile)
        self._min_novelty_gap = float(min_novelty_gap)
        self._history_limit = int(history_limit)
        self._start: float | None = None
        self._window_index = 0
        #: (occurred_at, strategy_id, (ids, counts)) — the content pair
        #: is the document table's canonical object for its value.
        self._buffer: list[tuple[float, str, tuple]] = []
        #: Interned buffered documents (derived; see :meth:`add_rows`).
        self._table = _DocumentTable()
        self._table_limit = _DOC_TABLE_CAP
        #: Novelties of the closed windows, oldest first (checkpointed).
        self._history: list[float] = []
        #: ``sorted(v for v in history if v >= cut)`` and its size bound
        #: (derived by :meth:`_threshold`; empty until the first read).
        self._cut, self._top, self._top_limit = math.inf, [], 0
        self.flags: list[SketchFlag] = []

    def add(self, doc: SketchDoc) -> None:
        """Buffer one hashed document (empty documents are no-ops)."""
        self.add_rows([(doc[2], doc[3])], [(doc[0], doc[1], 0)])

    def add_rows(self, docs, doc_rows) -> None:
        """Buffer ``(occurred_at, strategy_id, doc_index)`` rows.

        Each row buffers the referenced ``(ids, counts)`` entry of the
        shared ``docs`` table — the detector suite's per-flush path; an
        empty entry is a no-op.  Each entry is interned once, however
        many rows share it.
        """
        intern = self._table.intern
        canonical = [intern(content) if content[0] else None for content in docs]
        buffer = self._buffer
        start = self._start
        for occurred_at, strategy_id, index in doc_rows:
            content = canonical[index]
            if content is None:
                continue
            if start is None:
                start = occurred_at
            buffer.append((occurred_at, strategy_id, content))
        self._start = start
        # Rebuild the table from the live buffer once it has outgrown
        # both the cap and twice what its last rebuild kept.
        if len(self._table) > self._table_limit:
            self._rebuild_table()

    def _window_of(self, at: float, index: int) -> int:
        """The first window from ``index`` on that ``at`` has not passed.

        The smallest ``k >= index`` with ``start + (k + 1) * window > at``:
        the index the close-one-window-at-a-time loop would stop at.  A
        floor-division estimate is corrected with that exact float test
        (monotone in ``k``), so the result is the loop's, not merely
        close to it.
        """
        start, window = self._start, self._window
        if start + (index + 1) * window > at:
            return index
        k = max(index + 1, int((at - start) // window))
        while k > index + 1 and start + k * window > at:
            k -= 1
        while start + (k + 1) * window <= at:
            k += 1
        return k

    def advance(self, watermark: float | None) -> None:
        """Close and score every window the watermark has passed."""
        if watermark is None or self._start is None:
            return
        index = self._window_index
        final = self._window_of(watermark, index)
        if final == index:
            return
        start, window = self._start, self._window
        last_end = start + final * window
        buffer = self._buffer
        ordered = sorted(buffer)
        stop = bisect_left(ordered, last_end, key=_event_time)
        self._buffer = (
            [doc for doc in buffer if doc[0] >= last_end]
            if stop < len(ordered) else []
        )
        windows: list[tuple[int, int]] = []
        position = 0
        while position < stop:
            # Windows with no document close as index bumps only: jump
            # straight to the one holding the next document.
            index = self._window_of(ordered[position][0], index)
            position = bisect_left(
                ordered, start + (index + 1) * window, position, stop,
                key=_event_time,
            )
            windows.append((index, position))
            index += 1
        if windows:
            self._close_windows(ordered[:stop], windows)
        self._window_index = final

    def finish(self) -> None:
        """Close the final partial window (end of stream)."""
        if self._buffer:
            batch, self._buffer = self._buffer, []
            # Canonical within-window order: verdicts are
            # order-independent (one threshold per window, scored
            # pre-fit), but the flag list and the history-cap tail are
            # not — sort so every backend and flush schedule produces
            # identical state.  ``advance`` gets the same order from its
            # one sort of the buffer.
            batch.sort()
            self._close_windows(batch, [(self._window_index, len(batch))])
            self._window_index += 1

    def _threshold(self) -> float:
        """numpy's ``quantile(history, q)`` read off the top set.

        numpy's ``linear`` rule, operation for operation: virtual index
        ``v = (n - 1) * q``, neighbours ``a = ranked[floor(v)]`` and
        ``b`` the next one (clamped to the last), weight ``g = v -
        floor(v)``, and the lerp evaluated from ``a`` below ``g = 0.5``
        and from ``b`` at or above it.  (At ``v = n - 1`` numpy clamps
        both neighbours to the last value, which this reaches with
        ``g = 0``.)  The top set is ``ranked``'s last ``len(top)`` values.
        """
        history = self._history
        n = len(history)
        virtual = (n - 1) * self._novelty_quantile
        low = math.floor(virtual)
        gamma = virtual - low
        top = self._top
        if not n - low <= len(top) <= self._top_limit:
            ranked = sorted(history)
            first = bisect_left(ranked, ranked[max(low - _TOP_SLACK, 0)])
            self._cut = ranked[first]
            self._top = top = ranked[first:]
            self._top_limit = len(top) + _TOP_SLACK
        offset = n - len(top)
        a = top[low - offset]
        b = top[min(low + 1, n - 1) - offset]
        diff = b - a
        if gamma < 0.5:
            return a + diff * gamma
        return b - diff * (1 - gamma)

    def _remember(self, novelties: list[float]) -> None:
        """Append a window's novelties; evict FIFO beyond the limit."""
        history = self._history
        cut, top = self._cut, self._top
        history.extend(novelties)
        for value in novelties:
            if value >= cut:
                insort(top, value)
        # Bound the reference history so the threshold adapts to drift.
        excess = len(history) - self._history_limit
        if excess > 0:
            for value in history[:excess]:
                if value >= cut:
                    del top[bisect_left(top, value)]
            del history[:excess]

    def _close_windows(
        self, batch: list[tuple[float, str, tuple]],
        windows: list[tuple[int, int]],
    ) -> None:
        """Score, flag and fold consecutive windows of a sorted batch.

        ``windows`` lists ``(window index, end position in batch)`` for
        each window that holds a document, in order.
        """
        table = self._table
        table.sync()
        n_rows = len(table)
        sizes = np.diff([end for _, end in windows], prepend=0)
        # Alert streams repeat: one row per distinct (window, document)
        # pair, carrying its multiplicity, in window order.
        keys = np.repeat(np.arange(len(windows)), sizes) * n_rows
        keys += table.rows_of(batch)
        pairs, occurrence, multiplicity = np.unique(
            keys, return_inverse=True, return_counts=True,
        )
        pair_window, pair_doc = np.divmod(pairs, n_rows)
        lengths = table.lengths[pair_doc]
        element_ends = np.cumsum(lengths)
        gather = np.repeat(
            table.starts[pair_doc] - element_ends + lengths, lengths,
        ) + np.arange(element_ends[-1])
        novelty = self.sketch.score_windows(
            pair_window, lengths, table.ids[gather], table.counts[gather],
            multiplicity,
        )[occurrence]
        novelties = novelty.tolist()
        begin = 0
        for index, end in windows:
            self._window_index = index
            if index >= self._warmup_windows and self._history:
                threshold = self._threshold() + self._min_novelty_gap
                for position in np.flatnonzero(
                    novelty[begin:end] > threshold
                ).tolist():
                    doc = batch[begin + position]
                    self.flags.append(SketchFlag(
                        strategy_id=doc[1],
                        occurred_at=doc[0],
                        novelty=novelties[begin + position],
                        window_index=index,
                    ))
            self._remember(novelties[begin:end])
            begin = end

    def _rebuild_table(self) -> None:
        """Re-intern only the live buffer's (canonical) documents."""
        self._table = _DocumentTable(map(_content, self._buffer))
        # Doubling past what the buffer itself holds keeps a long window
        # from rebuilding on every new document.
        self._table_limit = max(_DOC_TABLE_CAP, 2 * len(self._table))

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Complete dynamic state, JSON-safe (checkpointing)."""
        return {
            "sketch": self.sketch.export_state(),
            "start": self._start,
            "window_index": self._window_index,
            "buffer": [
                [at, strategy_id, list(content[0]), list(content[1])]
                for at, strategy_id, content in self._buffer
            ],
            "history": list(self._history),
            "flags": [
                [f.strategy_id, f.occurred_at, f.novelty, f.window_index]
                for f in self.flags
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Adopt state captured by :meth:`export_state` (exact).

        Refuses what no run can produce: a negative window index, a
        buffered document without a window start, a buffered document
        that is empty or names a bucket outside the sketch, and any
        histogram :meth:`HashingTopicSketch.restore_state` refuses, and a
        non-finite history value (it would mis-order the top set).  Every
        field is parsed before any is assigned, and a malformed one
        raises :class:`ValidationError`, so a refused state leaves the
        scorer as it was.
        """
        try:
            parsed = self._parse_state(state)
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed sketch state: {exc!r}") from exc
        (sketch, start, window_index, buffer, history, flags) = parsed
        self.sketch = sketch
        self._start = start
        self._window_index = window_index
        self._buffer = buffer
        self._rebuild_table()
        self._history = history
        self._cut, self._top, self._top_limit = math.inf, [], 0
        self.flags = flags

    def _parse_state(self, state: dict) -> tuple:
        """Every field of :meth:`restore_state`'s state, as locals."""
        window_index = int(state["window_index"])
        if window_index < 0:
            raise ValidationError(
                f"sketch window_index must be >= 0, got {window_index}"
            )
        if state["buffer"] and state["start"] is None:
            raise ValidationError("sketch buffer holds documents but no start")
        start = None if state["start"] is None else float(state["start"])
        history = [float(value) for value in state["history"]]
        if not all(map(math.isfinite, history)):
            raise ValidationError("sketch history holds a non-finite novelty")
        n_buckets = self.sketch.n_buckets
        # Value-equal documents share one object, as they do when live.
        interned = _DocumentTable()
        buffer = [
            (float(at), str(strategy_id),
             interned.intern(_checked_content(ids, counts, n_buckets)))
            for at, strategy_id, ids, counts in state["buffer"]
        ]
        sketch = HashingTopicSketch(self.sketch.n_buckets, self.sketch.smoothing)
        sketch.restore_state(state["sketch"])
        flags = [
            SketchFlag(
                strategy_id=str(strategy_id),
                occurred_at=float(at),
                novelty=float(novelty),
                window_index=int(index),
            )
            for strategy_id, at, novelty, index in state["flags"]
        ]
        return sketch, start, window_index, buffer, history, flags


class SketchEmergingDetector:
    """Batch wrapper: the sketch scorer run over a finished alert list.

    The one-shot counterpart of the streaming path — same scorer, same
    windows, same thresholds — used by the differential harness to
    compare the sketch verdicts against the LDA detector's on the same
    trace, and by anyone who wants LDA-free R4 scoring offline.
    """

    def __init__(self, **kwargs) -> None:
        self._kwargs = kwargs

    def run(self, alerts: list) -> list[SketchFlag]:
        """Process the finished stream; returns flags in window order.

        Every document is buffered first and the trace closes in one
        :meth:`SketchWindowScorer.advance`: windows close in order
        whatever the advance schedule, so the flags are the ones an
        advance per alert would raise, for one kernel call per trace.
        """
        scorer = SketchWindowScorer(**self._kwargs)
        n_buckets = scorer.sketch.n_buckets
        ordered = sorted(alerts, key=lambda a: a.occurred_at)
        for alert in ordered:
            ids, counts = hash_document(alert_document(alert), n_buckets)
            scorer.add((alert.occurred_at, alert.strategy_id, ids, counts))
        if ordered:
            scorer.advance(ordered[-1].occurred_at)
        scorer.finish()
        return scorer.flags
