import contextlib
import importlib
import io
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import layers
import trielab.cli
import trielab.markov_source
import trielab.trie
from spans import Span, Tracer, assert_unpatched, self_times


def span(name, start, end, thread=1, parent=None):
    s = Span(name, start, thread, parent)
    s.end = end
    return s


def test_self_time_subtracts_nested_children():
    root = span("root", 0.0, 10.0)
    a = span("a", 1.0, 4.0, parent=root)
    a1 = span("a1", 2.0, 3.0, parent=a)
    b = span("b", 5.0, 9.0, parent=root)
    own = self_times([root, a, a1, b])
    assert own[root] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[a] == pytest.approx(2.0)
    assert own[a1] == pytest.approx(1.0)
    assert own[b] == pytest.approx(4.0)


def test_self_time_ignores_children_on_other_threads():
    root = span("root", 0.0, 10.0, thread=1)
    sim = span("sim", 1.0, 9.0, thread=1, parent=root)
    worker_a = span("batch", 1.5, 8.5, thread=2, parent=sim)
    worker_b = span("batch", 1.5, 8.0, thread=3, parent=sim)
    inner = span("uniforms", 2.0, 5.0, thread=2, parent=worker_a)
    own = self_times([root, sim, worker_a, worker_b, inner])
    assert own[root] == pytest.approx(2.0)
    assert own[sim] == pytest.approx(8.0)
    assert own[worker_a] == pytest.approx(4.0)
    assert own[worker_b] == pytest.approx(6.5)


def test_self_time_clips_overlapping_and_overhanging_children():
    root = span("root", 0.0, 10.0)
    kids = [span("c", 1.0, 4.0, parent=root), span("c", 3.0, 6.0, parent=root),
            span("c", 9.0, 12.0, parent=root)]
    assert self_times([root, *kids])[root] == pytest.approx(10.0 - 5.0 - 1.0)


def test_install_uninstall_round_trip():
    original = trielab.trie.uniforms_at
    tracer = Tracer()
    tracer.install("trielab.trie", "uniforms_at", "markov_source.uniforms_at",
                   layers._uniforms)
    assert trielab.trie.uniforms_at is not original
    assert trielab.markov_source.uniforms_at is original
    with pytest.raises(RuntimeError, match="trielab.trie.uniforms_at"):
        assert_unpatched([("trielab.trie", "uniforms_at")])
    seeds = trielab.markov_source.stream_seeds(7, [0, 1, 2])
    assert (trielab.trie.uniforms_at(seeds, 5) == original(seeds, 5)).all()
    tracer.uninstall()
    assert trielab.trie.uniforms_at is original
    assert_unpatched(layers.PROBED_NAMES)
    (recorded,) = tracer.spans
    assert recorded.info == {"elements": 3, "position": 5}


def test_all_probes_install_and_restore():
    def bound():
        return [getattr(importlib.import_module(m), a) for m, a in layers.PROBED_NAMES]

    before = bound()
    tracer = Tracer()
    layers.install(tracer)
    assert all(hasattr(fn, "__wrapped__") for fn in bound())
    tracer.uninstall()
    assert all(a is b for a, b in zip(before, bound()))
    assert_unpatched(layers.PROBED_NAMES)


def test_pool_thread_spans_take_the_fork_span_as_parent(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.leaf = lambda: None

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            for job in [pool.submit(fake.leaf) for _ in range(4)]:
                job.result()
        fake.leaf()

    fake.fan_out = fan_out
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    tracer = Tracer()
    tracer.install("fake_layer", "fan_out", "fork", fork=True)
    tracer.install("fake_layer", "leaf", "leaf")
    root = tracer.open("root")
    fake.fan_out()
    tracer.close(root)
    tracer.uninstall()
    fork, *leaves = tracer.spans[1:]
    assert fork.name == "fork" and fork.parent is root
    assert [leaf.parent for leaf in leaves] == [fork] * 5
    assert sum(leaf.thread != root.thread for leaf in leaves) == 4
    # a span opened later on a pool-like thread no longer adopts the finished call
    late = threading.Thread(target=tracer.open, args=("late",))
    late.start()
    late.join(timeout=10)
    assert not late.is_alive() and tracer.spans[-1].parent is None


def test_traced_tiny_run_reports_every_metric_and_invariants_hold():
    tracer = Tracer()
    layers.install(tracer)
    root = tracer.open(layers.ROOT)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = trielab.cli.main(["simulate", "--p00", "0.6", "--p11", "0.7", "--n", "64",
                                     "--m", "40", "--threads", "2", "--standardize",
                                     "oracle", "--json"])
    finally:
        tracer.close(root)
        tracer.uninstall()
    assert code == 0
    metrics = layers.layer_metrics(tracer.spans)
    assert set(metrics) | {"trace.overhead_s"} == set(layers.METRICS)
    assert all(ok for _, ok, _ in layers.invariants(tracer.spans, metrics, kernel=True))
    assert metrics["trie.strings"] == 64 * 40
    assert 1 <= metrics["clt_harness.threads"] <= 2
    (sim,) = [s for s in tracer.spans if s.name == "clt_harness.simulate_epl"]
    assert all(s.parent is sim for s in tracer.spans if s.name == "trie.batch")
    assert metrics["exact_moments.table.calls"] == 1
    assert metrics["exact_moments.levels"] == 63
