"""Span bookkeeping: nesting, self time, and targets that went away."""

import sys
import threading
import types

import pytest

from benchmarks.e2e.tracer import Tracer, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["outer", 0.0, 10.0, -1, 1],
        ["mid", 1.0, 4.0, 0, 1],
        ["leaf", 2.0, 3.0, 1, 1],
        ["mid", 5.0, 7.0, 0, 1],
        ["other-thread", 0.0, 6.0, -1, 2],
    ]
    table = self_times(spans)
    assert table["outer"] == [1, pytest.approx(10.0), pytest.approx(5.0)]
    assert table["mid"] == [2, pytest.approx(5.0), pytest.approx(4.0)]
    assert table["leaf"] == [1, pytest.approx(1.0), pytest.approx(1.0)]
    # Self times of one thread add up to its root spans.
    own = self_times(spans, thread=1)
    assert "other-thread" not in own
    assert sum(row[2] for row in own.values()) == pytest.approx(10.0)


@pytest.fixture
def layer_module():
    module = types.ModuleType("e2e_fake_layer")

    class Layer:
        def outer(self, n):
            return sum(self.inner(i) for i in range(n))

        def inner(self, i):
            return i * 2

        @staticmethod
        def helper(x):
            return x + 1

    module.Layer = Layer
    sys.modules[module.__name__] = module
    yield module
    del sys.modules[module.__name__]


def test_install_records_parents_and_uninstall_restores(layer_module):
    tracer = Tracer()
    tracer.install([
        ("fake", "e2e_fake_layer", "Layer.outer"),
        ("fake", "e2e_fake_layer", "Layer.inner"),
        ("fake", "e2e_fake_layer", "Layer.helper"),
    ])
    layer = layer_module.Layer()
    assert layer.outer(3) == 6          # disabled: nothing recorded
    assert tracer.spans == []
    tracer.enabled = True
    assert layer.outer(3) == 6
    assert layer_module.Layer.helper(1) == 2
    tracer.enabled = False
    names = [span[0] for span in tracer.spans]
    assert names == ["Layer.outer", "Layer.inner", "Layer.inner", "Layer.inner",
                     "Layer.helper"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0, 0, -1]
    assert {span[4] for span in tracer.spans} == {threading.get_ident()}
    assert all(span[2] >= span[1] for span in tracer.spans)
    tracer.uninstall()
    assert not hasattr(layer_module.Layer.outer, "__wrapped__")
    assert isinstance(vars(layer_module.Layer)["helper"], staticmethod)


def test_threads_keep_their_own_spans_and_parents(layer_module):
    tracer = Tracer()
    tracer.install([
        ("fake", "e2e_fake_layer", "Layer.outer"),
        ("fake", "e2e_fake_layer", "Layer.inner"),
    ])
    tracer.enabled = True
    start = threading.Barrier(3)

    def work():
        start.wait()
        for _ in range(200):
            layer_module.Layer().outer(3)

    threads = [threading.Thread(target=work) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    tracer.enabled = False
    tracer.uninstall()
    spans = tracer.spans
    assert len(spans) == 3 * 200 * 4
    for name, _start, _end, parent, thread in spans:
        if name == "Layer.outer":
            assert parent == -1
        else:   # every inner call hangs off an outer call of its own thread
            assert spans[parent][0] == "Layer.outer" and spans[parent][4] == thread
    for ident in {span[4] for span in spans}:
        own = self_times(spans, thread=ident)
        roots = sum(s[2] - s[1] for s in spans if s[4] == ident and s[3] == -1)
        assert sum(row[2] for row in own.values()) == pytest.approx(roots)


def test_missing_or_renamed_target_is_counted_not_raised(layer_module):
    tracer = Tracer()
    tracer.install([
        ("fake", "e2e_fake_layer", "Layer.renamed_away"),
        ("fake", "e2e_fake_layer", "Gone.method"),
        ("fake", "no_such_module_anywhere", "Thing.method"),
        ("fake", "e2e_fake_layer", "Layer.inner"),
    ])
    assert len(tracer.missing) == 3
    tracer.uninstall()
