"""Unit tests for the hashing-trick topic sketch (LDA-free R4 scoring).

The differential harness compares sketch-vs-LDA verdicts end to end;
these tests pin the component contracts: stable hashing, commutative
folding, the window/threshold discipline, and exact checkpoint
round-trips.
"""

from __future__ import annotations

import time
from unittest import mock

import pytest

from repro.common.errors import ValidationError
from repro.ml import sketch as sketch_module
from repro.ml.sketch import (
    DEFAULT_SKETCH_BUCKETS,
    HashingTopicSketch,
    SketchEmergingDetector,
    SketchWindowScorer,
    alert_document,
    hash_document,
)
from repro.ml.tokenize import tokenize

from tests.streaming.conftest import make_alert


class TestHashing:
    def test_hashing_is_stable_and_sorted(self):
        tokens = tokenize("disk full on database-api-00 commit failed disk")
        ids, counts = hash_document(tokens)
        assert ids == tuple(sorted(ids))
        assert hash_document(tokens) == (ids, counts)
        assert sum(counts) == len(tokens)

    def test_buckets_respect_the_modulus(self):
        ids, _ = hash_document(tokenize("alpha beta gamma delta"), n_buckets=7)
        assert all(0 <= bucket < 7 for bucket in ids)

    def test_alert_document_covers_the_lda_fields(self):
        alert = make_alert(0.0, title="disk usage over threshold")
        document = alert_document(alert)
        for piece in (alert.strategy_name, "disk", alert.microservice,
                      alert.service):
            assert any(piece.split("-")[0] in token for token in document)

    def test_document_recipe_matches_the_batch_detector(self):
        from repro.core.mitigation.emerging import EmergingAlertDetector

        alert = make_alert(0.0)
        assert EmergingAlertDetector.document_of(alert) == alert_document(alert)


class TestHashingTopicSketch:
    def test_empty_document_scores_zero(self):
        assert HashingTopicSketch().score((), ()) == 0.0

    def test_absorbed_documents_score_higher_than_novel_ones(self):
        sketch = HashingTopicSketch(n_buckets=512)
        familiar = hash_document(tokenize("disk full on storage node"), 512)
        sketch.partial_fit([familiar] * 50)
        novel = hash_document(
            tokenize("entirely unprecedented quantum flux anomaly"), 512,
        )
        assert sketch.score(*familiar) > sketch.score(*novel)

    def test_folding_is_commutative(self):
        docs = [
            hash_document(tokenize(text), 256)
            for text in ("a b c", "c d e", "e f a", "b b b")
        ]
        forward, backward = HashingTopicSketch(256), HashingTopicSketch(256)
        forward.partial_fit(docs)
        backward.partial_fit(list(reversed(docs)))
        assert forward.export_state() == backward.export_state()
        probe = hash_document(tokenize("a c e"), 256)
        assert forward.score(*probe) == backward.score(*probe)

    def test_state_round_trip_is_exact(self):
        sketch = HashingTopicSketch(n_buckets=64)
        sketch.partial_fit([hash_document(tokenize("x y z x"), 64)])
        clone = HashingTopicSketch(n_buckets=64)
        clone.restore_state(sketch.export_state())
        probe = hash_document(tokenize("x q"), 64)
        assert clone.score(*probe) == sketch.score(*probe)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValidationError):
            HashingTopicSketch(n_buckets=0)
        with pytest.raises(ValidationError):
            HashingTopicSketch(smoothing=0.0)

    def test_export_lists_nonzero_buckets_in_id_order(self):
        sketch = HashingTopicSketch(n_buckets=16)
        sketch.partial_fit([((9, 2), (1, 3)), ((2,), (2,))])
        assert sketch.export_state() == {"counts": [[2, 5], [9, 1]], "total": 6}

    @pytest.mark.parametrize("bucket", [16, 99, -1])
    def test_restore_refuses_a_bucket_outside_the_sketch(self, bucket):
        sketch = HashingTopicSketch(n_buckets=16)
        with pytest.raises(ValidationError, match="outside"):
            sketch.restore_state({"counts": [[bucket, 3]], "total": 3})
        assert sketch.export_state() == {"counts": [], "total": 0}

    @pytest.mark.parametrize("count", [0, -5])
    def test_restore_refuses_a_nonpositive_count(self, count):
        sketch = HashingTopicSketch(n_buckets=16)
        with pytest.raises(ValidationError, match="count"):
            sketch.restore_state({"counts": [[2, 3], [5, count]],
                                  "total": 3 + count})

    def test_restore_refuses_a_total_that_is_not_the_sum(self):
        sketch = HashingTopicSketch(n_buckets=16)
        with pytest.raises(ValidationError, match="total"):
            sketch.restore_state({"counts": [[2, 3], [5, 4]], "total": 8})


def _top_set_holds(scorer) -> bool:
    """The threshold's top set is every history value at or above its cut."""
    return scorer._top == sorted(v for v in scorer._history if v >= scorer._cut)


def _doc(at: float, strategy: str, text: str, n_buckets=DEFAULT_SKETCH_BUCKETS):
    ids, counts = hash_document(tokenize(text), n_buckets)
    return (at, strategy, ids, counts)


class TestSketchWindowScorer:
    def test_no_flags_during_warmup(self):
        scorer = SketchWindowScorer(window_seconds=100.0, warmup_windows=3)
        for index in range(3):
            scorer.add(_doc(index * 100.0 + 1.0, "s-1", "routine latency alert"))
        scorer.advance(301.0)
        scorer.finish()
        assert scorer.flags == []

    def test_novel_document_after_warmup_is_flagged(self):
        # Small history cap: the cold-start windows (where everything is
        # maximally novel) must age out of the threshold quantile before
        # a genuinely novel late document can clear quantile + gap.
        scorer = SketchWindowScorer(
            window_seconds=100.0, warmup_windows=2, min_novelty_gap=0.5,
            history_limit=30,
        )
        for index in range(100):
            scorer.add(_doc(index * 10.0, "s-routine",
                            "disk usage over threshold on storage node"))
        scorer.add(_doc(1005.0, "s-novel",
                        "unprecedented quantum flux catastrophic anomaly"))
        scorer.advance(1200.0)
        scorer.finish()
        assert any(flag.strategy_id == "s-novel" for flag in scorer.flags)
        assert all(flag.strategy_id != "s-routine" for flag in scorer.flags)

    def test_incremental_advance_matches_one_shot(self):
        docs = [
            _doc(at, f"s-{int(at) % 3}", f"alert text variant {int(at) % 5}")
            for at in [float(x) for x in range(0, 1000, 7)]
        ]
        one_shot = SketchWindowScorer(window_seconds=100.0, warmup_windows=2)
        for doc in docs:
            one_shot.add(doc)
        one_shot.advance(docs[-1][0])
        one_shot.finish()
        incremental = SketchWindowScorer(window_seconds=100.0, warmup_windows=2)
        for doc in docs:
            incremental.add(doc)
            incremental.advance(doc[0])
        incremental.finish()
        assert incremental.flags == one_shot.flags
        assert incremental.export_state() == one_shot.export_state()

    def test_empty_documents_are_dropped(self):
        scorer = SketchWindowScorer(window_seconds=100.0)
        scorer.add((5.0, "s-1", (), ()))
        scorer.finish()
        assert scorer.export_state()["start"] is None

    def test_state_round_trip_continues_identically(self):
        docs = [
            _doc(at, "s-1", f"alert variant {int(at) % 4}")
            for at in [float(x) for x in range(0, 800, 11)]
        ]
        cut = len(docs) // 2
        straight = SketchWindowScorer(window_seconds=100.0, warmup_windows=2)
        for doc in docs:
            straight.add(doc)
            straight.advance(doc[0])
        straight.finish()
        first = SketchWindowScorer(window_seconds=100.0, warmup_windows=2)
        for doc in docs[:cut]:
            first.add(doc)
            first.advance(doc[0])
        resumed = SketchWindowScorer(window_seconds=100.0, warmup_windows=2)
        resumed.restore_state(first.export_state())
        for doc in docs[cut:]:
            resumed.add(doc)
            resumed.advance(doc[0])
        resumed.finish()
        assert resumed.export_state() == straight.export_state()

    @staticmethod
    def _scorer():
        # A small history cap so the cut lands after FIFO evictions, and
        # no gap so the restored threshold decides real flags.
        return SketchWindowScorer(
            window_seconds=100.0, warmup_windows=2, min_novelty_gap=0.0,
            history_limit=12,
        )

    def test_restore_after_evictions_continues_identically(self):
        docs = [
            # A new phase token every 300 s: each phase's first window
            # clears the threshold, before and after the cut.
            _doc(at, f"s-{int(at) % 3}",
                 f"alert variant {int(at) % 7} phase{int(at) // 300}")
            for at in [float(x) for x in range(0, 1500, 13)]
        ]
        cut = len(docs) // 2
        straight = self._scorer()
        for doc in docs:
            straight.add(doc)
            straight.advance(doc[0])
        straight.finish()
        first = self._scorer()
        for doc in docs[:cut]:
            first.add(doc)
            first.advance(doc[0])
        state = first.export_state()
        # The cut is past the cap: the restored history is a FIFO tail.
        assert first._window_index > 2
        assert len(state["history"]) == 12
        resumed = self._scorer()
        # A slack below the history cap, so the restored run's top set
        # is derived, outgrown and re-derived, not the whole history.
        with mock.patch.object(sketch_module, "_TOP_SLACK", 2):
            resumed.restore_state(state)
            assert _top_set_holds(resumed)
            for doc in docs[cut:]:
                resumed.add(doc)
                resumed.advance(doc[0])
                assert _top_set_holds(resumed)
            resumed.finish()
        assert len(resumed._top) < len(resumed._history)
        assert any(flag.occurred_at >= docs[cut][0] for flag in straight.flags)
        assert resumed.flags == straight.flags
        assert resumed.export_state() == straight.export_state()

    def test_restore_with_unsorted_buffer_spanning_windows(self):
        # Arrivals out of event-time order across four windows, held in
        # the buffer (no advance yet) when the state is captured.
        warm = [_doc(float(at), "s-1", f"warm variant {at % 3}")
                for at in range(0, 300, 10)]
        pending = [
            _doc(at, f"s-{index % 2}", f"pending variant {index % 4}")
            for index, at in enumerate([
                650.0, 310.0, 520.0, 305.0, 690.0, 410.0, 599.0, 450.0,
            ])
        ]
        straight = self._scorer()
        first = self._scorer()
        for scorer in (straight, first):
            for doc in warm:
                scorer.add(doc)
                scorer.advance(doc[0])
            for doc in pending:
                scorer.add(doc)
        state = first.export_state()
        assert [row[0] for row in state["buffer"]] != \
            sorted(row[0] for row in state["buffer"])
        resumed = self._scorer()
        resumed.restore_state(state)
        for scorer in (straight, resumed):
            scorer.advance(700.0)
            scorer.finish()
        assert resumed.export_state() == straight.export_state()

    def test_restore_refuses_a_buffer_without_a_start(self):
        scorer = SketchWindowScorer(window_seconds=100.0)
        scorer.add(_doc(5.0, "s-1", "routine latency alert"))
        state = scorer.export_state()
        state["start"] = None
        with pytest.raises(ValidationError, match="start"):
            SketchWindowScorer(window_seconds=100.0).restore_state(state)

    def test_restore_refuses_a_negative_window_index(self):
        state = SketchWindowScorer(window_seconds=100.0).export_state()
        state["window_index"] = -1
        with pytest.raises(ValidationError, match="window_index"):
            SketchWindowScorer(window_seconds=100.0).restore_state(state)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_restore_refuses_a_non_finite_history_value(self, value):
        scorer = SketchWindowScorer(window_seconds=100.0)
        state = scorer.export_state()
        state["history"] = [1.5, float(value), 2.5]
        with pytest.raises(ValidationError, match="non-finite"):
            scorer.restore_state(state)
        assert scorer.export_state()["history"] == []

    @pytest.mark.parametrize("ids, counts", [
        ([], []),
        ([3, 4096], [1, 1]),
        ([-1], [1]),
        ([3], [0]),
        ([3, 5], [1]),
    ])
    def test_restore_refuses_an_impossible_buffered_document(
            self, ids, counts):
        scorer = SketchWindowScorer(window_seconds=100.0)
        scorer.add(_doc(5.0, "s-1", "routine latency alert"))
        state = scorer.export_state()
        state["buffer"].append([6.0, "s-2", ids, counts])
        with pytest.raises(ValidationError, match="buffer document"):
            SketchWindowScorer(window_seconds=100.0).restore_state(state)

    @pytest.mark.parametrize("field, value", [
        ("flags", [["s", "not-a-float", 1.0, 2]]),
        ("flags", [["s", 1.0, 2.0]]),
        ("sketch", {"counts": [[3, 2]], "total": 5}),
        ("sketch", {"counts": "oops", "total": 0}),
        ("history", None),
        ("window_index", "x"),
    ])
    def test_a_refused_restore_leaves_the_scorer_as_it_was(
            self, field, value):
        # Every field but the bad one is valid and differs from the
        # target's, so a field assigned before the refusal would show.
        source = SketchWindowScorer(window_seconds=100.0, warmup_windows=1)
        for index in range(6):
            source.add(_doc(index * 100.0 + 1.0, "s-1",
                            f"routine latency alert {index}"))
            source.advance(index * 100.0 + 1.0)
        state = source.export_state()
        assert state["window_index"] == 5 and state["history"]
        state[field] = value
        target = SketchWindowScorer(window_seconds=100.0, warmup_windows=1)
        target.add(_doc(7.0, "s-2", "disk usage over threshold"))
        before = target.export_state()
        with pytest.raises(ValidationError):
            target.restore_state(state)
        assert target.export_state() == before

    def test_far_future_watermark_skips_empty_windows(self):
        scorer = SketchWindowScorer(window_seconds=3600.0)
        scorer.add(_doc(0.0, "s-1", "disk usage over threshold"))
        began = time.perf_counter()
        scorer.advance(1e18)
        assert time.perf_counter() - began < 1.0
        index = scorer._window_index
        assert 3600.0 * index <= 1e18 < 3600.0 * (index + 1)
        assert scorer.export_state()["buffer"] == []
        assert len(scorer.export_state()["history"]) == 1

    @pytest.mark.parametrize("start", [0.0, 17.25, 1.7e9 + 0.1])
    @pytest.mark.parametrize("window", [100.0, 3600.0, 0.3])
    def test_skipped_index_equals_the_window_by_window_loop(
            self, start, window):
        for gap in (0.0, window, 5 * window - 1e-9, 777.7 * window, 2e4):
            scorer = SketchWindowScorer(window_seconds=window)
            scorer.add(_doc(start, "s-1", "routine latency alert"))
            # A late document and one far ahead share the buffer.
            scorer.add(_doc(start + gap, "s-2", "routine latency alert"))
            watermark = start + gap + window / 3
            scorer.advance(watermark)
            index = 0
            while start + (index + 1) * window <= watermark:
                index += 1
            assert scorer._window_index == index

    @pytest.mark.parametrize("start, window, watermark", [
        # Gaps too long to loop over, where the floor-division estimate
        # overshoots the loop's index by one (``at - start`` rounds up).
        (1_700_000_000.1, 100.0, 7_476_772_300.099999),
        (1_700_000_000.1, 0.3, 8_393_141_310.599999),
        (375_662_084.1988046, 100.0, 2_764_960_584.1988044),
    ])
    def test_skipped_index_is_the_loops_at_float_edges(
            self, start, window, watermark):
        scorer = SketchWindowScorer(window_seconds=window)
        scorer.add(_doc(start, "s-1", "routine latency alert"))
        scorer.advance(watermark)
        index = scorer._window_index
        # The loop stops at the first window whose end is past the
        # watermark; its test is monotone in the index, so these two
        # comparisons pin the index exactly.
        assert start + index * window <= watermark
        assert not start + (index + 1) * window <= watermark


class TestSketchEmergingDetector:
    def test_batch_run_flags_a_novel_burst(self):
        alerts = [
            make_alert(at, strategy_id="s-routine",
                       title="disk usage over threshold")
            for at in [float(x) for x in range(0, 30_000, 60)]
        ] + [
            make_alert(28_000.0 + i, strategy_id="s-novel",
                       title="unprecedented catastrophic quantum anomaly")
            for i in range(3)
        ]
        flags = SketchEmergingDetector(
            window_seconds=3600.0, warmup_windows=2, min_novelty_gap=0.5,
            history_limit=60,
        ).run(alerts)
        assert any(flag.strategy_id == "s-novel" for flag in flags)
