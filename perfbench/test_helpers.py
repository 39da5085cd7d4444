"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from measure import burst_capacity, exact_topk, percentile, recall_at_k, \
    spread
from spans import Patcher, SpanRecorder, self_times, timed, timed_context

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# percentile
# ----------------------------------------------------------------------

def test_percentile_nearest_rank_and_count_beyond():
    values = list(range(100, 0, -1))          # 1..100, unsorted
    assert percentile(values, 50) == (50.0, 50)
    assert percentile(values, 99) == (99.0, 1)
    assert percentile(values, 100) == (100.0, 0)


def test_percentile_ties_are_not_beyond():
    assert percentile([1, 2, 2, 2, 3], 50) == (2.0, 1)
    assert percentile([5, 5, 5], 99) == (5.0, 0)


def test_percentile_rejects_empty_and_bad_pct():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_spread_is_iqr_over_median():
    # quantiles([1..9], n=4) with the default exclusive method: 2.5, 5, 7.5
    assert spread(list(range(1, 10))) == pytest.approx(5.0 / 5.0)


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------

def _self(spans):
    parent = np.array([p for p, _, _ in spans])
    start = np.array([s for _, s, _ in spans], dtype=float)
    end = np.array([e for _, _, e in spans], dtype=float)
    return self_times(parent, start, end)


def test_self_time_nested():
    #  root [0,10]; a [1,4] holds g [2,3]; b [5,9]
    own = _self([(-1, 0, 10), (0, 1, 4), (1, 2, 3), (0, 5, 9)])
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0   # nested self times add up to the root


def test_self_time_overlapping_children_count_once():
    #  root [0,10] with children [1,5] and [3,8] overlapping: union 7
    own = _self([(-1, 0, 10), (0, 1, 5), (0, 3, 8)])
    assert own.tolist() == [3.0, 4.0, 5.0]


def test_self_time_clips_children_to_parent():
    #  a child running past its parent's end only covers the overlap,
    #  and a child nested inside a sibling is not counted twice
    own = _self([(-1, 0, 10), (0, 8, 12), (0, 1, 6), (0, 2, 3)])
    assert own[0] == pytest.approx(10 - 2 - 5)


def test_recorded_spans_nest_and_add_up():
    recorder = SpanRecorder()

    class Layer:
        def outer(self):
            self.inner()
            self.inner()

        def inner(self):
            sum(range(1000))

    with Patcher() as patch:
        patch.replace(Layer, "outer",
                      lambda fn: timed(recorder, "outer", fn))
        patch.replace(Layer, "inner",
                      lambda fn: timed(recorder, "inner", fn))
        root = recorder.open(recorder.name_index("root"))
        Layer().outer()
        recorder.close(root)
    spans = recorder.arrays()
    names = [spans["names"][i] for i in spans["name_id"]]
    assert names == ["root", "outer", "inner", "inner"]
    assert spans["parent"].tolist() == [-1, 0, 1, 1]
    own = self_times(spans["parent"], spans["start"], spans["end"])
    total = spans["end"][0] - spans["start"][0]
    assert own.sum() == pytest.approx(total, rel=1e-12)
    assert (own >= 0).all()


def test_span_tree_check_flags_spans_outside_the_root():
    import run
    from layers import ROOT as ROOT_SPAN
    recorder = SpanRecorder()
    root = recorder.open(recorder.name_index(ROOT_SPAN))
    recorder.close(recorder.open(recorder.name_index("event_loop.step")))
    recorder.close(root)
    assert run.span_tree_failures(recorder) == []
    recorder.close(recorder.open(recorder.name_index("event_loop.step")))
    recorder.open(recorder.name_index("no.such.layer"))
    failures = run.span_tree_failures(recorder)
    assert len(failures) == 3
    assert "no.such.layer" in failures[0]


def test_patcher_restores_and_hooks_see_arguments():
    recorder = SpanRecorder()
    seen = []

    class Store:
        def put(self, key, data):
            return len(data)

    original = Store.__dict__["put"]
    with Patcher() as patch:
        patch.replace(Store, "put", lambda fn: timed(
            recorder, "put", fn,
            before=lambda args, kwargs: len(args[2]),
            after=lambda args, kwargs, result, token:
                seen.append((token, result))))
        assert Store().put("k", b"abc") == 3
    assert Store.__dict__["put"] is original
    assert seen == [(3, 3)]
    assert len(recorder) == 1


def test_timed_context_times_enter_and_exit_not_body():
    from contextlib import contextmanager
    recorder = SpanRecorder()

    @contextmanager
    def ctx():
        yield "value"

    wrapped = timed_context(recorder, "ctx", ctx)
    body = recorder.name_index("body")
    with wrapped() as value:
        inside = recorder.open(body)
        recorder.close(inside)
    assert value == "value"
    spans = recorder.arrays()
    assert [spans["names"][i] for i in spans["name_id"]] == \
        ["ctx", "body", "ctx"]
    assert spans["parent"].tolist() == [-1, -1, -1]


# ----------------------------------------------------------------------
# recall, ground truth, capacity
# ----------------------------------------------------------------------

def test_recall_hand_checked():
    found = [[1, 2, 3], [4, 5, 6]]
    truth = [[1, 2, 9], [4, 7, 8]]
    assert recall_at_k(found, truth, 3) == pytest.approx(3 / 6)
    assert recall_at_k([[3, 2, 1]], [[1, 2, 3]], 3) == 1.0


def test_exact_topk_honours_visibility_windows():
    base = np.arange(10, dtype=np.float32)[:, None]   # points 0..9 on a line
    queries = np.zeros((2, 1), dtype=np.float32)
    assert exact_topk(base, queries, 3).tolist() == [[0, 1, 2], [0, 1, 2]]
    born = np.zeros(10)
    born[1] = 5            # row 1 inserted at step 5
    died = np.full(10, np.inf)
    died[0] = 3            # row 0 deleted at step 3
    got = exact_topk(base, queries, 3, born=born, died=died, at=[2, 6],
                     block=4)
    assert got.tolist() == [[0, 2, 3], [1, 2, 3]]


def _serve(arrivals_ms, service_ms, servers):
    """Completion times of a FIFO queue with identical servers."""
    free = [0.0] * servers
    done = []
    for at in arrivals_ms:
        slot = min(range(servers), key=free.__getitem__)
        free[slot] = max(free[slot], at) + service_ms
        done.append(free[slot])
    return done


def test_burst_capacity_matches_known_service_rate():
    # 2 ms per request on one server: 500 requests per second
    done = _serve([0.0] * 100, 2.0, servers=1)
    assert burst_capacity(0.0, done) == pytest.approx(500.0)
    # two servers double it
    done = _serve([10.0] * 100, 2.0, servers=2)
    assert burst_capacity(10.0, done) == pytest.approx(1000.0)


def test_burst_capacity_rejects_empty_burst():
    with pytest.raises(ValueError):
        burst_capacity(0.0, [])


# ----------------------------------------------------------------------
# the benchmark's declared metrics match what it prints
# ----------------------------------------------------------------------

def test_declared_metrics_match_benchmark_json():
    import run
    from layers import PER_LAYER, SELF_METRIC
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert set(SELF_METRIC.values()) <= set(PER_LAYER)
