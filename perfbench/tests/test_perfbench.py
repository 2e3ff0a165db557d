"""Tests of the benchmark itself: run with `python3 -m pytest perfbench/tests`."""

import json
import os
import types
from functools import partial

import numpy as np
import pytest

import generators
import harness
import layers
import workloads
from spans import Span, Tracer, covered, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TINY_PMNIST = partial(generators.pmnist, classes=4, views=3, dim=16,
                      train_per_class=20, test_per_class=8)
TINY = {
    "stream": workloads.Workload("stream", "tiny stream",
                                 partial(workloads.stream_setup, TINY_PMNIST),
                                 workloads.stream_pass),
    # 3 classes x 2 views x 128 test samples: 12 mixed batches of 64
    "serve": workloads.Workload("serve", "tiny serve",
                                partial(workloads.serve_setup,
                                        partial(generators.pmnist, classes=3, views=2, dim=16,
                                                train_per_class=20, test_per_class=128)),
                                workloads.serve_pass),
}


def _arrays(data):
    return [(b.class_id, b.view_id, b.inputs, b.labels) for b in data.train + data.test]


def _same(a, b):
    return len(a) == len(b) and all(
        x[:2] == y[:2] and np.array_equal(x[2], y[2]) and np.array_equal(x[3], y[3])
        for x, y in zip(a, b))


@pytest.mark.parametrize("make", [
    partial(generators.pmnist, classes=3, dim=20, train_per_class=5, test_per_class=3),
    partial(generators.tables, classes=3, widths=(4, 6), train_per_class=5, test_per_class=3),
])
def test_generators_repeat_per_seed(make):
    (d1, p1), (d2, p2), (d3, _) = make(7), make(7), make(8)
    assert _same(_arrays(d1), _arrays(d2))
    assert p1 == p2
    assert not _same(_arrays(d1), _arrays(d3))


def test_mixed_batches_repeat_per_seed_and_keep_labels():
    data, _ = generators.pmnist(1, classes=3, views=2, dim=8, train_per_class=2,
                                test_per_class=50)
    a = generators.mixed_batches(data.test, 5)
    b = generators.mixed_batches(data.test, 5)
    assert len(a) == 300 // 64
    assert all(np.array_equal(x.inputs, y.inputs) and np.array_equal(x.labels, y.labels)
               for x, y in zip(a, b))
    # rows keep their own labels, and batches mix classes
    pool = {tuple(row): label for t in data.test for row, label in zip(t.inputs, t.labels)}
    assert all(pool[tuple(row)] == label for x in a for row, label in zip(x.inputs, x.labels))
    assert all(len(set(x.labels.tolist())) > 1 for x in a)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert harness.tail(list(range(1, 31))) == (100.0 * 20 / 30, 20)
    assert harness.tail(list(range(11, 0, -1))) == (100.0 / 11, 1)
    percentile, value = harness.tail([0.5] * 100)
    assert (percentile, value) == (90.0, 0.5)
    with pytest.raises(ValueError):
        harness.tail(list(range(10)))


def test_self_time_on_fixed_span_tree():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 5.0, 9.0),
        Span(3, 2, "c", 6.0, 7.0),
        Span(4, None, "other", 12.0, 13.0),
    ]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0, 4: 1.0}
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (5.5, 5.7)]) == 4.0
    assert covered([]) == 0.0


def test_tracer_nests_spans_and_restores_originals():
    ns = types.SimpleNamespace()
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    inner, outer = ns.inner, ns.outer
    with Tracer() as tracer:
        tracer.wrap(ns, "inner", "m.inner", lambda args, kwargs, result: {"out": result})
        tracer.wrap(ns, "outer", "m.outer")
        assert ns.outer(1) == 4
    assert ns.inner is inner and ns.outer is outer
    outer_span, inner_span = sorted(tracer.spans, key=lambda s: s.start)
    assert (outer_span.name, outer_span.parent) == ("m.outer", None)
    assert (inner_span.name, inner_span.parent) == ("m.inner", outer_span.id)
    assert inner_span.attrs == {"out": 2}


def test_tracer_fails_loudly_on_missing_name():
    with Tracer() as tracer:
        with pytest.raises(LookupError, match="no_such"):
            tracer.wrap(types.SimpleNamespace(), "no_such", "m.no_such")


def test_declared_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == harness.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("kind", ["stream", "serve"])
def test_tiny_runs_report_exactly_the_declared_metrics(kind, tmp_path):
    plain = harness.execute("tiny", 3, 0.0, False, "1", TINY[kind], str(tmp_path))
    again = harness.execute("tiny", 3, 0.0, False, "1", TINY[kind], str(tmp_path))
    traced = harness.execute("tiny", 3, 0.0, True, "1", TINY[kind], str(tmp_path))
    for record, declared in ((plain, harness.END_TO_END), (traced, layers.PER_LAYER)):
        assert (record["correct"], record["failed"]) == (True, 0)
        assert all(record["checks"].values()) and len(record["checks"]) == 3
        line = json.loads(harness.result_line(record))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            k: unit for k, (unit, _) in declared.items()}
    # accuracy and state size repeat exactly for a fixed seed
    exact = {"avg_acc", "bwt", "shuffled_acc", "state_bytes"} & set(plain["named_metrics"])
    assert len(exact) == (3 if kind == "stream" else 2)
    for name in exact:
        assert plain["named_metrics"][name] == again["named_metrics"][name]
    assert plain["named_metrics"]["ops_failed_share"][0] == 0.0
    per_layer = {k: v for k, (v, _) in traced["metrics"].items()}
    assert per_layer["sparse_features.fit_train_calls"] > 0
    assert 0.0 < per_layer["trace.span_coverage"] <= 1.0
    assert os.path.exists(tmp_path / "tiny" / "spans.jsonl")
