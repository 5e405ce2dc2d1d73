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
* **integer counts** — the sketch is a plain bucket histogram, so
  folding documents is order-independent and byte-deterministic (no
  float accumulation drift between backends);
* **novelty = surprise** — a document's score is the mean smoothed
  log-probability of its token buckets under the histogram; alerts
  whose word combinations the sketch has not absorbed score low, the
  same "matches no known topic" signal the LDA bound gives;
* **the identical window discipline** — :class:`SketchWindowScorer`
  reproduces the LDA detector's loop exactly (fixed windows from the
  first document, warm-up, 0.99-quantile + gap threshold, 5000-entry
  history) but runs *incrementally*, without re-reading the history or
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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from hashlib import blake2b
from operator import itemgetter

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

#: Above this many novelties inserted plus evicted in one window, the
#: sorted history mirror is rebuilt with one ``sorted`` instead of being
#: patched value by value (each patch moves up to ``history_limit``
#: pointers).
_MIRROR_REBUILD_AT = 128


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


class HashingTopicSketch:
    """A fixed-width bucket histogram scoring token-bucket surprise."""

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
        #: Sparse integer bucket counts — fold order never matters.
        self._counts: dict[int, int] = {}
        self._total = 0

    def score(self, ids: tuple[int, ...], counts: tuple[int, ...]) -> float:
        """Mean smoothed log-probability per token occurrence.

        The sketch analogue of the LDA per-word bound: higher means the
        document's buckets are well explained by what the sketch has
        absorbed; novelty is the negation.
        """
        alpha = self.smoothing
        denominator = math.log(self._total + alpha * self.n_buckets)
        log_likelihood = 0.0
        total = 0
        bucket_counts = self._counts
        for bucket, count in zip(ids, counts):
            log_likelihood += count * (
                math.log(bucket_counts.get(bucket, 0) + alpha) - denominator
            )
            total += count
        if total == 0:
            return 0.0
        return log_likelihood / total

    def frozen_scorer(self):
        """A memoizing :meth:`score` for a histogram that is not moving.

        Valid only between folds (the window-close invariant): the
        per-bucket term ``log(count + alpha) - denominator`` is fixed,
        so it is computed once per distinct bucket instead of once per
        document.  It is the very float :meth:`score` multiplies by the
        token count, so every returned float is bitwise identical to
        :meth:`score`'s.
        """
        alpha = self.smoothing
        denominator = math.log(self._total + alpha * self.n_buckets)
        bucket_counts = self._counts
        term_of: dict[int, float] = {}
        log = math.log

        def score(ids, counts):
            log_likelihood = 0.0
            total = 0
            for bucket, count in zip(ids, counts):
                term = term_of.get(bucket)
                if term is None:
                    term = term_of[bucket] = log(
                        bucket_counts.get(bucket, 0) + alpha
                    ) - denominator
                log_likelihood += count * term
                total += count
            if total == 0:
                return 0.0
            return log_likelihood / total

        return score

    def partial_fit(
        self, docs: list[tuple[tuple[int, ...], tuple[int, ...]]],
    ) -> None:
        """Fold documents into the histogram (commutative, integral)."""
        bucket_counts = self._counts
        for ids, counts in docs:
            for bucket, count in zip(ids, counts):
                bucket_counts[bucket] = bucket_counts.get(bucket, 0) + count
                self._total += count

    def fold_weighted(self, records: Iterable[Sequence]) -> None:
        """Fold weighted documents into the histogram.

        ``records`` iterates sequences that start ``(ids, counts,
        multiplicity)``; later items are ignored, so a window close hands
        over its per-document memo records (which also carry the cached
        novelty) without building a second ``{document: count}`` map.
        Identical to :meth:`partial_fit` over the expanded multiset —
        the counts are integers, so ``count * multiplicity`` is exactly
        the repeated addition — at cost proportional to *unique*
        documents.  Alert streams are dominated by repeats (the floods
        the paper characterizes), so this is the hot-path entry point.
        """
        bucket_counts = self._counts
        total = 0
        for record in records:
            multiplicity = record[2]
            for bucket, count in zip(record[0], record[1]):
                increment = count * multiplicity
                bucket_counts[bucket] = bucket_counts.get(bucket, 0) + increment
                total += increment
        self._total += total

    def export_state(self) -> dict:
        """The histogram as a JSON-safe dict (checkpointing)."""
        return {
            "counts": [
                [bucket, self._counts[bucket]] for bucket in sorted(self._counts)
            ],
            "total": self._total,
        }

    def restore_state(self, state: dict) -> None:
        """Adopt a histogram captured by :meth:`export_state` (exact)."""
        self._counts = {int(bucket): int(count) for bucket, count in state["counts"]}
        self._total = int(state["total"])


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

    The work per :meth:`advance` follows what changed, not the stream's
    length:

    * the buffer is sorted once and each closing window's batch is the
      prefix below its end, cut by bisect — already in the canonical
      order, and the retained tail keeps its arrival order;
    * a gap with no documents (a quiet stretch, or one far-future event
      time) is skipped in O(1): the index jumps to the window the next
      document or the watermark falls in, found by the loop's own float
      test ``start + (k + 1) * window <= t``;
    * the threshold is read from ``_ranked``, a sorted mirror of the
      checkpointed ``_history``, with numpy's ``linear`` quantile rule,
      so it equals numpy's ``quantile(history, q)`` bitwise without
      copying or partitioning the history per window.
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
        #: is shared with the flush's docs table, so window close can
        #: dedup repeats by object identity before falling back to
        #: value equality.
        self._buffer: list[tuple[float, str, tuple]] = []
        #: Novelties of the closed windows, oldest first (checkpointed).
        self._history: list[float] = []
        #: ``sorted(self._history)``, maintained incrementally (derived;
        #: rebuilt on restore).
        self._ranked: list[float] = []
        self.flags: list[SketchFlag] = []

    @property
    def emerging_count(self) -> int:
        """Lifetime emerging flags raised."""
        return len(self.flags)

    def add(self, doc: SketchDoc) -> None:
        """Buffer one hashed document (empty documents are no-ops)."""
        if not doc[2]:
            return
        if self._start is None:
            self._start = doc[0]
        self._buffer.append((doc[0], doc[1], (doc[2], doc[3])))

    def add_rows(self, docs, doc_rows) -> None:
        """Buffer ``(occurred_at, strategy_id, doc_index)`` rows.

        Equivalent to :meth:`add` over each referenced document from the
        shared ``docs`` table — the detector suite's per-flush fast path.
        Buffer entries alias the table's content pairs, so a document
        repeated within one flush stays one object.
        """
        buffer = self._buffer
        start = self._start
        for occurred_at, strategy_id, index in doc_rows:
            content = docs[index]
            if not content[0]:
                continue
            if start is None:
                start = occurred_at
            buffer.append((occurred_at, strategy_id, content))
        self._start = start

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
        position = 0
        while position < stop:
            # Windows with no document close as index bumps only: jump
            # straight to the one holding the next document.
            index = self._window_of(ordered[position][0], index)
            cut = bisect_left(
                ordered, start + (index + 1) * window, position, stop,
                key=_event_time,
            )
            self._window_index = index
            self._close_window(ordered[position:cut])
            position = cut
            index += 1
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
            self._close_window(batch)

    def _threshold(self) -> float:
        """numpy's ``quantile(history, q)`` read off the sorted mirror.

        numpy's ``linear`` rule, operation for operation: virtual index
        ``v = (n - 1) * q``, neighbours ``a = ranked[floor(v)]`` and
        ``b`` the next one (clamped to the last), weight ``g = v -
        floor(v)``, and the lerp evaluated from ``a`` below ``g = 0.5``
        and from ``b`` at or above it.  (At ``v = n - 1`` numpy clamps
        both neighbours to the last value, which this reaches with
        ``g = 0``.)
        """
        ranked = self._ranked
        n = len(ranked)
        virtual = (n - 1) * self._novelty_quantile
        low = math.floor(virtual)
        gamma = virtual - low
        a = ranked[low]
        b = ranked[min(low + 1, n - 1)]
        diff = b - a
        if gamma < 0.5:
            return a + diff * gamma
        return b - diff * (1 - gamma)

    def _remember(self, novelties: list[float]) -> None:
        """Append a window's novelties; evict FIFO beyond the limit."""
        history = self._history
        ranked = self._ranked
        history.extend(novelties)
        # Bound the reference history so the threshold adapts to drift.
        excess = len(history) - self._history_limit
        if len(novelties) + max(excess, 0) > _MIRROR_REBUILD_AT:
            if excess > 0:
                del history[:excess]
            self._ranked = sorted(history)
            return
        for value in novelties:
            insort(ranked, value)
        if excess > 0:
            for value in history[:excess]:
                del ranked[bisect_left(ranked, value)]
            del history[:excess]

    def _close_window(self, batch: list[tuple[float, str, tuple]]) -> None:
        """Score, flag and fold one window's canonically sorted batch."""
        threshold: float | None = None
        if self._window_index >= self._warmup_windows and self._history:
            threshold = self._threshold() + self._min_novelty_gap
        # Alert streams repeat: score each distinct document once (the
        # sketch is frozen until the post-window fit, so every repeat
        # would produce the identical float) and fold with multiplicity.
        score = self.sketch.frozen_scorer()
        # Two-level memo of [ids, counts, multiplicity, novelty]
        # records: object identity first (repeats within one flush
        # share the docs-table tuple, so most occurrences skip even the
        # content hash), value equality second (equal contents arriving
        # via different flushes).
        by_id: dict[int, list] = {}
        records: dict[tuple, list] = {}
        novelties = []
        for doc in batch:
            content = doc[2]
            rec = by_id.get(id(content))
            if rec is None:
                rec = records.get(content)
                if rec is None:
                    ids, counts = content
                    records[content] = rec = [
                        ids, counts, 0, -score(ids, counts),
                    ]
                by_id[id(content)] = rec
            rec[2] += 1
            novelties.append(rec[3])
        if threshold is not None:
            for doc, novelty in zip(batch, novelties):
                if novelty > threshold:
                    self.flags.append(SketchFlag(
                        strategy_id=doc[1],
                        occurred_at=doc[0],
                        novelty=novelty,
                        window_index=self._window_index,
                    ))
        self._remember(novelties)
        self.sketch.fold_weighted(records.values())
        self._window_index += 1

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
        """Adopt state captured by :meth:`export_state` (exact)."""
        self.sketch.restore_state(state["sketch"])
        self._start = (
            None if state["start"] is None else float(state["start"])
        )
        self._window_index = int(state["window_index"])
        self._buffer = [
            (float(at), str(strategy_id), (tuple(ids), tuple(counts)))
            for at, strategy_id, ids, counts in state["buffer"]
        ]
        self._history = [float(value) for value in state["history"]]
        self._ranked = sorted(self._history)
        self.flags = [
            SketchFlag(
                strategy_id=str(strategy_id),
                occurred_at=float(at),
                novelty=float(novelty),
                window_index=int(index),
            )
            for strategy_id, at, novelty, index in state["flags"]
        ]


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
        """Process the finished stream; returns flags in window order."""
        scorer = SketchWindowScorer(**self._kwargs)
        n_buckets = scorer.sketch.n_buckets
        ordered = sorted(alerts, key=lambda a: a.occurred_at)
        for alert in ordered:
            ids, counts = hash_document(alert_document(alert), n_buckets)
            doc = (alert.occurred_at, alert.strategy_id, ids, counts)
            scorer.add(doc)
            scorer.advance(alert.occurred_at)
        scorer.finish()
        return scorer.flags
