"""Which entry points the traced run wraps, and the per-layer metrics.

Each layer is timed at its public entry points from outside the program.
Where a caller imported a function by name (``merge_topk``), the caller's
module attribute is wrapped, since wrapping the defining module would not
reach it.  Work counts are taken by hooks on the same calls, outside the
timed span.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from measure import percentile
from spans import Patcher, SpanRecorder, self_times, timed, timed_context

#: Root span of the timed phase.  Its self time (driver code) and the
#: self time of event-loop steps (dispatch plus callbacks no layer span
#: covers) together make ``event_loop.self_s``.
ROOT = "phase"

#: Span name -> the ``*.self_s`` metric its self time is reported in.
#: Every span name the probes create appears here exactly once, so the
#: self-time metrics sum to the traced wall time.
SELF_METRIC = {
    ROOT: "event_loop.self_s",
    "event_loop.step": "event_loop.self_s",
    "proxy.insert": "proxy.insert.self_s",
    "proxy.delete": "proxy.delete.self_s",
    "proxy.search": "proxy.search.self_s",
    "logger.flush_group": "logger.flush_group.self_s",
    "broker.publish": "broker.publish.self_s",
    "lsm.put_many": "lsm.put_many.self_s",
    "lsm.get": "lsm.get.self_s",
    "bloom.add": "bloom.add.self_s",
    "bloom.probe": "bloom.probe.self_s",
    "object_store.put": "object_store.self_s",
    "object_store.get": "object_store.self_s",
    "data_node.seal_and_flush": "data_node.seal_and_flush.self_s",
    "index_node.submit_build": "index_node.submit_build.self_s",
    "index.hnsw.build": "index.hnsw.build.self_s",
    "index.ivf_flat.build": "index.ivf_flat.build.self_s",
    "index.hnsw.search": "index.hnsw.search.self_s",
    "index.ivf_flat.search": "index.ivf_flat.search.self_s",
    "query_node.search": "query_node.search.self_s",
    "segment.append": "segment.append.self_s",
    "segment.scan": "segment.scan.self_s",
    "reduce.merge_topk": "reduce.merge_topk.self_s",
    "tracer": "tracer.self_s",
    "metrics.observe": "metrics.observe.self_s",
    "tenancy.admit": "tenancy.admit.self_s",
}

#: Per-layer metric name -> unit, in the order they are printed.
PER_LAYER = {
    "proxy.insert.calls": "count",
    "proxy.insert.self_s": "s",
    "proxy.delete.calls": "count",
    "proxy.delete.self_s": "s",
    "proxy.search.calls": "count",
    "proxy.search.self_s": "s",
    "proxy.search.wall_p50_ms": "ms",
    "proxy.search.wall_p99_ms": "ms",
    "proxy.consistency_wait_p99_vms": "vms",
    "logger.flush_group.calls": "count",
    "logger.flush_group.rows_per_call": "rows",
    "logger.flush_group.self_s": "s",
    "broker.publish.calls": "count",
    "broker.publish.self_s": "s",
    "lsm.put_many.calls": "count",
    "lsm.put_many.keys": "count",
    "lsm.put_many.self_s": "s",
    "lsm.get.calls": "count",
    "lsm.get.self_s": "s",
    "lsm.tables": "count",
    "bloom.add.calls": "count",
    "bloom.add.self_s": "s",
    "bloom.probe.calls": "count",
    "bloom.probe.self_s": "s",
    "bloom.probe.negative_ratio": "ratio",
    "object_store.put.calls": "count",
    "object_store.put.bytes": "bytes",
    "object_store.get.calls": "count",
    "object_store.get.bytes": "bytes",
    "object_store.self_s": "s",
    "object_store.write_amp": "ratio",
    "data_node.seal_and_flush.calls": "count",
    "data_node.seal_and_flush.rows": "rows",
    "data_node.seal_and_flush.self_s": "s",
    "index_node.submit_build.self_s": "s",
    "index.hnsw.build.self_s": "s",
    "index.ivf_flat.build.calls": "count",
    "index.ivf_flat.build.self_s": "s",
    "index.build.rows": "rows",
    "index.build.vms_per_wall_s": "vms/s",
    "query_node.search.calls": "count",
    "query_node.search.segments_per_call": "count",
    "query_node.search.self_s": "s",
    "query_node.service_vms_per_wall_ms": "vms/ms",
    "segment.append.rows": "rows",
    "segment.append.self_s": "s",
    "segment.scan.calls": "count",
    "segment.scan.self_s": "s",
    "scan.rows_scanned_per_query": "rows",
    "scan.float_comparisons_per_query": "count",
    "scan.graph_hops_per_query": "count",
    "scan.candidates_visited_per_query": "count",
    "scan.delete_filter_hits": "count",
    "scan.index_scan_ratio": "ratio",
    "index.hnsw.search.calls": "count",
    "index.hnsw.search.self_s": "s",
    "index.ivf_flat.search.calls": "count",
    "index.ivf_flat.search.self_s": "s",
    "reduce.merge_topk.calls": "count",
    "reduce.merge_topk.self_s": "s",
    "event_loop.steps": "count",
    "event_loop.self_s": "s",
    "tracer.calls": "count",
    "tracer.self_s": "s",
    "tracer.share": "ratio",
    "metrics.observe.calls": "count",
    "metrics.observe.self_s": "s",
    "tenancy.admit.calls": "count",
    "tenancy.admit.self_s": "s",
    "tenancy.metered_wu": "wu",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
}

_SCAN_FIELDS = ("rows_scanned", "float_comparisons", "graph_hops",
                "candidates_visited", "delete_filter_hits", "index_scans",
                "brute_scans")

_TRACER_METHODS = ("start_span", "finish_span", "record_span", "on_publish",
                   "current", "current_wire")
_TRACER_CONTEXTS = ("span", "activate", "detached", "deliver")


class LayerProbes:
    """Installs the span wrappers and turns the spans into metrics."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.work: dict[str, float] = defaultdict(float)
        self._patcher = Patcher()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        from repro.core.segment import Segment
        from repro.index.hnsw import HnswIndex
        from repro.index.ivf import IvfFlatIndex
        from repro.log.broker import LogBroker
        from repro.log.logger_node import LoggerService
        from repro.monitoring.metrics import Histogram, LatencyWindow
        from repro.nodes import index_node as index_node_mod
        from repro.nodes import proxy as proxy_mod
        from repro.nodes import query_node as query_node_mod
        from repro.nodes.data_node import DataNode
        from repro.sim.events import EventLoop
        from repro.storage.bloom import BloomFilter
        from repro.storage.lsm import LsmTree
        from repro.storage.object_store import ObjectStore
        from repro.tenancy.qos import AdmissionController
        from repro.tracing.collector import TraceCollector

        rec, work, patch = self.recorder, self.work, self._patcher

        def span(owner, attr, name, before=None, after=None):
            patch.replace(owner, attr,
                          lambda fn: timed(rec, name, fn, before, after))

        def count(key, arg):
            def before(args, kwargs):
                work[key] += len(args[arg])
            return before

        def count_queries(args, kwargs):
            queries = np.asarray(args[2])
            work["proxy.search.queries"] += \
                1 if queries.ndim == 1 else queries.shape[0]

        def bloom_negative(args, kwargs, result, token):
            if not result:
                work["bloom.probe.negatives"] += 1

        def get_bytes(args, kwargs, result, token):
            work["object_store.get.bytes"] += len(result)

        def growing_rows(args, kwargs):
            node, collection, segment_id = args[0], args[1], args[2]
            for coll, sid, rows in node.growing_segments():
                if (coll, sid) == (collection, segment_id):
                    work["data_node.seal_and_flush.rows"] += rows

        def scan_before(args, kwargs):
            acc = kwargs.get("acc_stats")
            return acc.as_dict() if acc is not None else None

        def scan_after(args, kwargs, result, before):
            _hits, service_ms, searched = result
            work["query_node.segments"] += searched
            work["query_node.service_vms"] += service_ms
            if before is not None:
                after = kwargs["acc_stats"].as_dict()
                for field in _SCAN_FIELDS:
                    work["scan." + field] += after[field] - before[field]

        def charge(fn):
            def charged(*args, **kwargs):
                result = fn(*args, **kwargs)
                work["index.build.vms"] += result
                return result
            return charged

        span(proxy_mod.Proxy, "insert", "proxy.insert")
        span(proxy_mod.Proxy, "insert_async", "proxy.insert")
        span(proxy_mod.Proxy, "delete", "proxy.delete")
        span(proxy_mod.Proxy, "search", "proxy.search",
             before=count_queries)
        span(LoggerService, "flush_group", "logger.flush_group")
        span(LogBroker, "publish", "broker.publish")
        span(LsmTree, "put_many", "lsm.put_many",
             before=count("lsm.put_many.keys", 1))
        span(LsmTree, "get", "lsm.get")
        span(BloomFilter, "add", "bloom.add")
        span(BloomFilter, "might_contain", "bloom.probe",
             after=bloom_negative)
        span(ObjectStore, "put", "object_store.put",
             before=count("object_store.put.bytes", 2))
        span(ObjectStore, "get", "object_store.get", after=get_bytes)
        span(DataNode, "seal_and_flush", "data_node.seal_and_flush",
             before=growing_rows)
        span(index_node_mod.IndexNode, "submit_build",
             "index_node.submit_build")
        patch.replace(index_node_mod, "estimate_build_ms", charge)
        span(HnswIndex, "build", "index.hnsw.build",
             before=count("index.build.rows", 1))
        span(IvfFlatIndex, "build", "index.ivf_flat.build",
             before=count("index.build.rows", 1))
        span(HnswIndex, "search", "index.hnsw.search")
        span(IvfFlatIndex, "search", "index.ivf_flat.search")
        span(query_node_mod.QueryNode, "search", "query_node.search",
             before=scan_before, after=scan_after)
        span(Segment, "append", "segment.append",
             before=count("segment.append.rows", 1))
        span(Segment, "search", "segment.scan")
        span(proxy_mod, "merge_topk", "reduce.merge_topk")
        span(query_node_mod, "merge_topk", "reduce.merge_topk")
        span(EventLoop, "step", "event_loop.step")
        for method in _TRACER_METHODS:
            span(TraceCollector, method, "tracer")
        for method in _TRACER_CONTEXTS:
            patch.replace(TraceCollector, method,
                          lambda fn: timed_context(rec, "tracer", fn))
        span(Histogram, "observe", "metrics.observe")
        span(LatencyWindow, "record", "metrics.observe")
        span(AdmissionController, "admit", "tenancy.admit")

    def uninstall(self) -> None:
        self._patcher.restore()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------

    def metrics(self, cluster, user_bytes: int, tenant) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and work counts.

        ``user_bytes`` is what the workload wrote since the cluster was
        built (the write-amplification base); ``tenant`` is the tenant
        whose metered write units are reported, if any.
        """
        spans = self.recorder.arrays()
        names = list(spans["names"])
        name_id, parent = spans["name_id"], spans["parent"]
        start, end = spans["start"], spans["end"]
        own = self_times(parent, start, end)
        duration = end - start
        n_names = len(names)
        self_by_name = np.bincount(name_id, weights=own, minlength=n_names)
        wall_by_name = np.bincount(name_id, weights=duration,
                                   minlength=n_names)
        # A call is a span whose parent is not a span of the same name
        # (re-entry, such as a tracer helper calling another, is one call).
        parent_name = np.where(parent >= 0, name_id[np.maximum(parent, 0)],
                               -1)
        calls_by_name = np.bincount(name_id[parent_name != name_id],
                                    minlength=n_names)

        def self_s(name):
            return float(self_by_name[names.index(name)]) \
                if name in names else 0.0

        def calls(name):
            return int(calls_by_name[names.index(name)]) \
                if name in names else 0

        def wall_s(name):
            return float(wall_by_name[names.index(name)]) \
                if name in names else 0.0

        work = self.work
        out: dict[str, float] = {}
        for name, metric in SELF_METRIC.items():
            out[metric] = out.get(metric, 0.0) + self_s(name)
        root = names.index(ROOT)
        wall = float(duration[name_id == root].sum())

        queries = work["proxy.search.queries"]
        per_query = (lambda v: v / queries) if queries else (lambda v: 0.0)
        flush_calls = calls("logger.flush_group")
        rows_published = sum(logger.rows_published
                             for _, logger in cluster.logger_service
                             .loggers())
        qn_calls = calls("query_node.search")
        probes = calls("bloom.probe")
        scans = work["scan.index_scans"] + work["scan.brute_scans"]
        built_wall = _build_wall_under(names, name_id, parent, duration)
        out.update({
            "proxy.insert.calls": calls("proxy.insert"),
            "proxy.delete.calls": calls("proxy.delete"),
            "proxy.search.calls": calls("proxy.search"),
            "logger.flush_group.calls": flush_calls,
            "logger.flush_group.rows_per_call":
                (rows_published - work["rows_published.before"])
                / flush_calls if flush_calls else 0.0,
            "broker.publish.calls": calls("broker.publish"),
            "lsm.put_many.calls": calls("lsm.put_many"),
            "lsm.put_many.keys": work["lsm.put_many.keys"],
            "lsm.get.calls": calls("lsm.get"),
            "lsm.tables": sum(1 for key in cluster.store.list("mapping/")
                              if key.endswith(".sst")),
            "bloom.add.calls": calls("bloom.add"),
            "bloom.probe.calls": probes,
            "bloom.probe.negative_ratio":
                work["bloom.probe.negatives"] / probes if probes else 0.0,
            "object_store.put.calls": calls("object_store.put"),
            "object_store.put.bytes": work["object_store.put.bytes"],
            "object_store.get.calls": calls("object_store.get"),
            "object_store.get.bytes": work["object_store.get.bytes"],
            "object_store.write_amp":
                cluster.store.stats.bytes_written / user_bytes,
            "data_node.seal_and_flush.calls":
                calls("data_node.seal_and_flush"),
            "data_node.seal_and_flush.rows":
                work["data_node.seal_and_flush.rows"],
            "index.ivf_flat.build.calls": calls("index.ivf_flat.build"),
            "index.build.rows": work["index.build.rows"],
            "index.build.vms_per_wall_s":
                work["index.build.vms"] / built_wall if built_wall else 0.0,
            "query_node.search.calls": qn_calls,
            "query_node.search.segments_per_call":
                work["query_node.segments"] / qn_calls if qn_calls else 0.0,
            "query_node.service_vms_per_wall_ms":
                work["query_node.service_vms"]
                / (wall_s("query_node.search") * 1000.0)
                if qn_calls else 0.0,
            "segment.append.rows": work["segment.append.rows"],
            "segment.scan.calls": calls("segment.scan"),
            "scan.rows_scanned_per_query": per_query(
                work["scan.rows_scanned"]),
            "scan.float_comparisons_per_query": per_query(
                work["scan.float_comparisons"]),
            "scan.graph_hops_per_query": per_query(work["scan.graph_hops"]),
            "scan.candidates_visited_per_query": per_query(
                work["scan.candidates_visited"]),
            "scan.delete_filter_hits": work["scan.delete_filter_hits"],
            "scan.index_scan_ratio":
                work["scan.index_scans"] / scans if scans else 0.0,
            "index.hnsw.search.calls": calls("index.hnsw.search"),
            "index.ivf_flat.search.calls": calls("index.ivf_flat.search"),
            "reduce.merge_topk.calls": calls("reduce.merge_topk"),
            "event_loop.steps": calls("event_loop.step"),
            "tracer.calls": calls("tracer"),
            "tracer.share": out["tracer.self_s"] / wall,
            "metrics.observe.calls": calls("metrics.observe"),
            "tenancy.admit.calls": calls("tenancy.admit"),
            "tenancy.metered_wu":
                cluster.cost_meter.usage(tenant).write_units
                if tenant is not None else 0.0,
            "trace.wall_s": wall,
            "trace.spans": len(self.recorder),
        })
        return out

    def note_start(self, cluster) -> None:
        """Record counters that the phase's deltas are taken from."""
        self.work["rows_published.before"] = sum(
            logger.rows_published
            for _, logger in cluster.logger_service.loggers())


def _build_wall_under(names, name_id, parent, duration) -> float:
    """Wall seconds of index builds run by index nodes (the builds the
    cost model charges through ``estimate_build_ms``)."""
    if "index_node.submit_build" not in names:
        return 0.0
    submit = names.index("index_node.submit_build")
    builds = [names.index(n) for n in ("index.hnsw.build",
                                       "index.ivf_flat.build")
              if n in names]
    is_build = np.isin(name_id, builds)
    under = is_build & (parent >= 0)
    under[under] = name_id[parent[under]] == submit
    return float(duration[under].sum())


def wall_percentiles(samples_ms) -> tuple[float, float]:
    """(p50, p99) of per-call wall times, 0 when there were no calls."""
    if not samples_ms:
        return 0.0, 0.0
    return percentile(samples_ms, 50)[0], percentile(samples_ms, 99)[0]
