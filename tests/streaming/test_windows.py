"""Latency reservoirs: the bounded-memory sample behind the flush stats."""

import pytest

from repro.streaming.windows import LatencyReservoir


class TestLatencyReservoir:
    def test_mean_is_exact_even_past_capacity(self):
        reservoir = LatencyReservoir(capacity=4)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
            reservoir.observe(value)
        assert reservoir.count == 6
        assert reservoir.mean == pytest.approx(3.5)

    def test_sample_is_bounded(self):
        reservoir = LatencyReservoir(capacity=8)
        for i in range(1000):
            reservoir.observe(float(i))
        assert len(reservoir._samples) == 8

    def test_quantiles_ordered(self):
        reservoir = LatencyReservoir(capacity=128)
        for i in range(100):
            reservoir.observe(float(i))
        assert reservoir.quantile(0.5) <= reservoir.quantile(0.99)

    def test_empty_reservoir(self):
        reservoir = LatencyReservoir()
        assert reservoir.mean == 0.0
        assert reservoir.quantile(0.99) == 0.0
