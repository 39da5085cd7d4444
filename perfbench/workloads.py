"""The benchmark's three workloads against one in-process ``ManuCluster``.

Every workload runs from a single process and a single client, with the
cluster's default configuration (default tracer and group-commit policy
included): 2 query nodes, 1 index node, 1 data node, dim-64 SIFT-like
vectors, k = 10.  A run is a few *rounds*.  Each round builds a fresh
cluster and preloads the same base rows into sealed, indexed, loaded
segments (the set-up, timed on its own), then runs a timed phase on its
own slice of the seeded plan.  Pooling rounds keeps peak memory at one
cluster while the timed work adds up to about ``--seconds``; the work is
fixed by ``--seed`` and ``--seconds`` alone, so virtual-time results
repeat exactly for a seed.

A round's checks come in two parts: ``finish`` runs those that need the
cluster, ``grade`` those that only need the answers (ground truth,
recall), after the cluster is gone.

The virtual clock is advanced to each arrival *outside* the verb call,
so a call's wall time is the verb's own work plus whatever background
events fall due while the verb itself drives the clock.

* ``ingest`` streams ``insert_async`` batches as an open loop: the write
  layers (group commit, WAL publish, LSM mapping, Bloom filters, seal,
  binlog, index build) do the work; the read path is idle.
* ``search`` runs open-loop Poisson searches against HNSW segments at a
  rate that queues on the query nodes, then a burst all due at once; the
  write path is idle.
* ``mixed`` is the Figure 6 shape through a tenant: synchronous inserts
  at a fixed rate, deletes of earlier rows and session-consistent
  searches over growing and sealed IVF segments.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from measure import burst_capacity, exact_topk, recall_at_k
from repro.cluster.manu import ManuCluster
from repro.core.consistency import ConsistencyLevel
from repro.core.schema import CollectionSchema, DataType, FieldSchema, \
    MetricType
from repro.datasets.synthetic import make_sift_like
from repro.errors import ManuError

DIM = 64
K = 10
FIELD = "vector"
PK = "_auto_id"
COLLECTION = "bench"
TENANT = "bench-tenant"
PRELOAD_BATCH = 1024
IVF_PARAMS = {"nlist": 64, "nprobe": 8}
HNSW_PARAMS = {"M": 16, "ef_construction": 64, "ef_search": 64}
ROW_BYTES = DIM * 4 + 8  # one float32 vector plus its int64 primary key


class Verbs:
    """Counts every verb the workload attempts and every one that fails.

    A :class:`ManuError` (``ConsistencyTimeout``, ``QuotaExceeded``, ...)
    is a failed verb: it is counted, never dropped silently, and the call
    yields no latency sample.  Successful calls record their wall time.
    """

    def __init__(self) -> None:
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: Counter = Counter()
        self.wall_ms: dict[str, list[float]] = defaultdict(list)

    def call(self, verb: str, fn, *args, **kwargs):
        self.attempted[verb] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except ManuError as exc:
            self.failed[verb] += 1
            self.errors[type(exc).__name__] += 1
            return None
        self.wall_ms[verb].append((perf_counter() - start) * 1000.0)
        return result


class Outcome:
    """What one round produced, for metrics and correctness checks."""

    def __init__(self) -> None:
        self.latency_vms: list[float] = []
        self.wait_vms: list[float] = []
        self.work = 0               # rows (ingest) or searches (others)
        self.burst = 0              # searches in the burst
        self.capacity_vqps = 0.0
        self.recall = 0.0
        self.recall_queries = 0
        self.rows_written = 0       # rows the client wrote, preload included
        self.live_rows = 0
        self.space_amp = 0.0
        self.cpu_s = 0.0            # process CPU time of the timed phase
        self.failures: list[str] = []


def _schema() -> CollectionSchema:
    return CollectionSchema([FieldSchema(FIELD, DataType.FLOAT_VECTOR,
                                         dim=DIM)])


def settle(cluster, physical: str, max_ms: float = 600_000.0) -> None:
    """Flush, build indexes and wait until every flushed segment is
    loaded on a live query node with its index attached."""
    cluster.flush(physical)
    if not cluster.wait_for_indexes(physical, max_ms=max_ms):
        raise RuntimeError("indexes were not built in time")

    def loaded() -> bool:
        for segment_id in cluster.data_coord.flushed_segments(physical):
            if not any(segment_id in node.sealed_segments_of(physical)
                       and node.segment(physical, segment_id)
                       .has_index(FIELD)
                       for node in cluster.query_coord.live_nodes()):
                return False
        return True

    if not cluster.run_until_condition(loaded, max_ms=max_ms):
        raise RuntimeError("sealed segments were not loaded in time")


class Workload:
    """Preload, timed phase and checks shared by the three workloads."""

    name = ""
    rounds = 4
    index_type = "IVF_FLAT"
    index_params = IVF_PARAMS
    base_rows = 16384
    tenant = None
    recall_floor = 0.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    def _data(self, stream_rows, queries_per_round: int) -> None:
        """Base rows, each round's streamed rows and queries, all from
        one seeded SIFT-like draw."""
        data = make_sift_like(n=self.base_rows + int(sum(stream_rows)),
                              nq=self.rounds * queries_per_round, dim=DIM,
                              seed=self.seed)
        self.base = data.vectors[:self.base_rows]
        bounds = self.base_rows + np.cumsum([0] + list(stream_rows))
        self.stream = [data.vectors[a:b]
                       for a, b in zip(bounds[:-1], bounds[1:])]
        self.queries = [data.queries[r * queries_per_round:
                                     (r + 1) * queries_per_round]
                        for r in range(self.rounds)]

    def setup(self):
        """Build a cluster holding the base rows in sealed, indexed,
        loaded segments; returns ``(cluster, physical collection)``."""
        cluster = ManuCluster(num_query_nodes=2, num_index_nodes=1,
                              num_data_nodes=1)
        if self.tenant is not None:
            cluster.create_tenant(self.tenant)
            physical = cluster.tenant_create_collection(
                self.tenant, COLLECTION, _schema())
        else:
            cluster.create_collection(COLLECTION, _schema())
            physical = COLLECTION
        cluster.create_index(physical, FIELD, self.index_type,
                             MetricType.EUCLIDEAN, self.index_params)
        pks = []
        for start in range(0, self.base_rows, PRELOAD_BATCH):
            pks.extend(cluster.insert(
                COLLECTION, {FIELD: self.base[start:start + PRELOAD_BATCH]},
                tenant=self.tenant))
        self.base_pks = pks
        settle(cluster, physical)
        return cluster, physical

    def burst(self, cluster, collection: str, queries, verbs: Verbs,
              out: Outcome) -> list:
        """Submit every query at one virtual instant once the query nodes
        are idle; records the capacity and returns the results."""
        idle_at = max(node.busy_until_ms
                      for node in cluster.query_coord.live_nodes())
        cluster.run_until(max(cluster.now(), idle_at))
        issue_ms = cluster.now()
        proxy = cluster.proxy()
        handles = [verbs.call("search", proxy.submit_search, collection,
                              query, K, tenant=self.tenant)
                   for query in queries]
        results = [h.result for h in handles if h is not None and h.done]
        unresolved = sum(1 for h in handles if h is not None and not h.done)
        if unresolved:
            verbs.failed["search"] += unresolved
        out.burst = len(results)
        out.capacity_vqps = burst_capacity(
            issue_ms, [issue_ms + r.latency_ms for r in results])
        return results

    def score(self, out: Outcome, found_rows, truth) -> None:
        out.recall = recall_at_k(found_rows, truth.tolist(), K)
        out.recall_queries = len(found_rows)
        if out.recall < self.recall_floor:
            out.failures.append(f"recall_at_10 {out.recall:.4f} below "
                                f"the floor {self.recall_floor}")

    def measure_space(self, cluster, out: Outcome) -> None:
        out.space_amp = cluster.store.total_bytes() \
            / (out.live_rows * ROW_BYTES)


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------

class Ingest(Workload):
    """Open-loop ``insert_async`` stream, then flush and index build."""

    name = "ingest"
    rounds = 6
    #: Batches per ``--seconds`` over all rounds: sized so the timed
    #: phases add up to about that long on a 2-vCPU VM, and fixed, so the
    #: work does not depend on the speed of the code under test.
    batches_per_s = 300
    #: Mean virtual gap between batches (Poisson arrivals).  Batches of
    #: 1-128 rows over 2 shards close most commit groups on the 64-row
    #: bound; after a lull a group closes on the 2 ms window instead.
    mean_gap_ms = 0.25
    probes = 100
    readback = 100

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed)
        n = max(1, int(round(seconds * self.batches_per_s / self.rounds)))
        self.sizes = self.rng.integers(1, 129, size=(self.rounds, n))
        self.arrivals = np.cumsum(
            self.rng.exponential(self.mean_gap_ms, size=(self.rounds, n)),
            axis=1)
        self._data(self.sizes.sum(axis=1), self.probes)

    def phase(self, cluster, physical: str, verbs: Verbs,
              rnd: int) -> Outcome:
        out = Outcome()
        issued: list[float] = []
        acked: list = []
        pks_rows: list[tuple] = []
        stream = self.stream[rnd]
        start_ms = cluster.now()
        cursor = 0
        for size, due in zip(self.sizes[rnd].tolist(),
                             self.arrivals[rnd].tolist()):
            cluster.run_until(start_ms + due)
            answer = verbs.call("insert", cluster.insert_async, physical,
                                {FIELD: stream[cursor:cursor + size]})
            if answer is not None:
                pks, ack = answer
                pks_rows.extend(zip(pks, range(cursor, cursor + size)))
                slot = len(acked)
                issued.append(cluster.now())
                acked.append(None)
                ack.add_done_callback(
                    lambda _f, slot=slot: acked.__setitem__(slot,
                                                            cluster.now()))
            cursor += size
        # One commit window lets the last open groups close on their
        # timer; then seal, write binlogs and build every index.
        cluster.run_for(cluster.config.log.group_commit_window_ms)
        settle(cluster, physical)
        out.work = len(pks_rows)
        out.rows_written = out.live_rows = self.base_rows + len(pks_rows)
        out.latency_vms = [done - at for at, done in zip(issued, acked)
                           if done is not None]
        if len(out.latency_vms) != len(issued):
            out.failures.append(
                f"{len(issued) - len(out.latency_vms)} acks never resolved")
        self.pks_rows = pks_rows
        return out

    def finish(self, cluster, physical: str, verbs: Verbs, rnd: int,
               out: Outcome) -> None:
        """Row count and readable acked rows, then an untimed probe burst
        for recall and capacity over everything ingested."""
        counted = cluster.collection_row_count(physical)
        if counted != out.rows_written:
            out.failures.append(f"row count {counted} != "
                                f"{out.rows_written}")
        stream = self.stream[rnd]
        picks = np.random.default_rng((self.seed, rnd)).choice(
            len(self.pks_rows), size=min(self.readback, len(self.pks_rows)),
            replace=False)
        sample = [self.pks_rows[i] for i in picks.tolist()]
        got = verbs.call("get", cluster.get, physical,
                         [pk for pk, _ in sample]) or {}
        unreadable = sum(
            1 for pk, row in sample
            if pk not in got or not np.array_equal(
                np.asarray(got[pk][FIELD], dtype=np.float32), stream[row]))
        if unreadable:
            out.failures.append(f"{unreadable} of {len(sample)} acked rows "
                                f"not readable through get()")
        self.measure_space(cluster, out)
        results = self.burst(cluster, physical, self.queries[rnd], verbs,
                             out)
        self.found = [r.pks for r in results]

    def grade(self, rnd: int, out: Outcome) -> None:
        # Rows are numbered base first, then this round's stream.
        row_of = {pk: row for row, pk in enumerate(self.base_pks)}
        row_of.update((pk, self.base_rows + row)
                      for pk, row in self.pks_rows)
        present = np.concatenate([np.arange(self.base_rows),
                                  self.base_rows + np.asarray(
                                      [row for _, row in self.pks_rows],
                                      dtype=np.int64)])
        vectors = np.concatenate([self.base, self.stream[rnd]])[present]
        truth = present[exact_topk(vectors, self.queries[rnd], K)]
        self.score(out, [[row_of.get(pk, -1) for pk in pks]
                         for pks in self.found], truth)


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------

class Search(Workload):
    """Open-loop Poisson searches on HNSW, then a saturating burst."""

    name = "search"
    rounds = 3
    index_type = "HNSW"
    index_params = HNSW_PARAMS
    base_rows = 4096
    searches_per_s = 340
    #: Virtual arrival rate: high enough that requests queue behind each
    #: other on the query nodes, below the rate the burst sustains.
    rate_vqps = 3000.0
    burst_size = 128
    recall_floor = 0.9

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed)
        self.n = max(1, int(round(seconds * self.searches_per_s
                                  / self.rounds)))
        self.arrivals = np.cumsum(self.rng.exponential(
            1000.0 / self.rate_vqps, size=(self.rounds, self.n)), axis=1)
        self._data([0] * self.rounds, self.n + self.burst_size)

    def phase(self, cluster, physical: str, verbs: Verbs,
              rnd: int) -> Outcome:
        out = Outcome()
        queries = self.queries[rnd]
        found: list = []
        asked: list[int] = []
        start_ms = cluster.now()
        for i, due in enumerate(self.arrivals[rnd].tolist()):
            cluster.run_until(start_ms + due)
            answer = verbs.call("search", cluster.search, physical,
                                queries[i], K,
                                consistency=ConsistencyLevel.BOUNDED)
            if answer is None:
                continue
            out.latency_vms.append(answer[0].latency_ms)
            out.wait_vms.append(answer[0].consistency_wait_ms)
            found.append(answer[0].pks)
            asked.append(i)
        burst = self.burst(cluster, physical, queries[self.n:], verbs, out)
        out.work = len(found) + len(burst)
        out.rows_written = out.live_rows = self.base_rows
        self.found, self.asked = found, asked
        return out

    def finish(self, cluster, physical: str, verbs: Verbs, rnd: int,
               out: Outcome) -> None:
        self.measure_space(cluster, out)

    def grade(self, rnd: int, out: Outcome) -> None:
        row_of = {pk: row for row, pk in enumerate(self.base_pks)}
        truth = exact_topk(self.base, self.queries[rnd][self.asked], K)
        self.score(out, [[row_of.get(pk, -1) for pk in pks]
                         for pks in self.found], truth)


# ----------------------------------------------------------------------
# mixed
# ----------------------------------------------------------------------

INSERT, DELETE, SEARCH = 0, 1, 2


class Mixed(Workload):
    """Figure 6 shape through a tenant with no quota."""

    name = "mixed"
    tenant = TENANT
    searches_per_s = 200
    rate_vqps = 20.0
    insert_every_ms = 100.0
    insert_rows = 40
    delete_every_ms = 250.0
    delete_rows = 8
    burst_size = 64
    recall_floor = 0.85

    def __init__(self, seed: int, seconds: float) -> None:
        super().__init__(seed)
        self.n = max(1, int(round(seconds * self.searches_per_s
                                  / self.rounds)))
        self.events = []
        streamed = []
        # Every round spans the same virtual time, so it ends with the
        # same rows in growing segments; the searches are a Poisson
        # process conditioned on their count (uniform arrival times).
        horizon = self.n * 1000.0 / self.rate_vqps
        for _ in range(self.rounds):
            search_at = np.sort(self.rng.uniform(0.0, horizon, size=self.n))
            insert_at = np.arange(self.insert_every_ms, horizon,
                                  self.insert_every_ms)
            delete_at = np.arange(self.delete_every_ms, horizon,
                                  self.delete_every_ms)
            # At equal times inserts go first, then deletes, then
            # searches.
            self.events.append(sorted(
                [(t, INSERT) for t in insert_at.tolist()]
                + [(t, DELETE) for t in delete_at.tolist()]
                + [(t, SEARCH) for t in search_at.tolist()]))
            streamed.append(len(insert_at) * self.insert_rows)
        self._data(streamed, self.n + self.burst_size)

    def phase(self, cluster, physical: str, verbs: Verbs,
              rnd: int) -> Outcome:
        out = Outcome()
        stream, queries = self.stream[rnd], self.queries[rnd]
        delete_rng = np.random.default_rng((self.seed, rnd))
        total = self.base_rows + len(stream)
        # Row r (base first, then this round's stream) is visible to the
        # client's step s when born[r] < s < died[r].
        born = np.full(total, np.inf)
        died = np.full(total, np.inf)
        born[:self.base_rows] = 0
        pk_of = list(self.base_pks) + [None] * len(stream)
        live = list(range(self.base_rows))
        cursor = 0
        step = 0
        searched = 0
        found, asked, at_step = [], [], []
        start_ms = cluster.now()
        for due, kind in self.events[rnd]:
            cluster.run_until(start_ms + due)
            step += 1
            if kind == INSERT:
                rows = stream[cursor:cursor + self.insert_rows]
                pks = verbs.call("insert", cluster.insert, COLLECTION,
                                 {FIELD: rows}, tenant=self.tenant)
                if pks is not None:
                    first = self.base_rows + cursor
                    pk_of[first:first + len(pks)] = pks
                    live.extend(range(first, first + len(pks)))
                    born[first:first + len(pks)] = step
                cursor += len(rows)
            elif kind == DELETE:
                picks = sorted(delete_rng.choice(
                    len(live), size=self.delete_rows,
                    replace=False).tolist())
                rows = [live[i] for i in picks]
                expr = f"{PK} in [{', '.join(str(pk_of[r]) for r in rows)}]"
                if verbs.call("delete", cluster.delete, COLLECTION, expr,
                              tenant=self.tenant) is not None:
                    died[rows] = step
                    for i in reversed(picks):
                        live.pop(i)
            else:
                query = searched
                searched += 1
                answer = verbs.call("search", cluster.search, COLLECTION,
                                    queries[query], K,
                                    consistency=ConsistencyLevel.SESSION,
                                    tenant=self.tenant)
                if answer is None:
                    continue
                out.latency_vms.append(answer[0].latency_ms)
                out.wait_vms.append(answer[0].consistency_wait_ms)
                found.append(answer[0].pks)
                asked.append(query)
                at_step.append(step)
        burst = self.burst(cluster, COLLECTION, queries[self.n:], verbs, out)
        out.work = len(found) + len(burst)
        out.rows_written = int(np.isfinite(born).sum())
        out.live_rows = len(live)
        self.pk_of, self.born, self.died = pk_of, born, died
        self.found, self.asked, self.at_step = found, asked, at_step
        return out

    def finish(self, cluster, physical: str, verbs: Verbs, rnd: int,
               out: Outcome) -> None:
        """Metering counts every written row once; then flush for the
        space measurement."""
        metered = cluster.cost_meter.usage(self.tenant).write_units
        if metered != out.rows_written:
            out.failures.append(f"metered write units {metered} != rows "
                                f"written {out.rows_written}")
        settle(cluster, physical)
        self.measure_space(cluster, out)

    def grade(self, rnd: int, out: Outcome) -> None:
        """Deleted rows never come back, and recall is taken against the
        rows each search had to see: all live rows whose insert had
        returned."""
        row_of = {pk: row for row, pk in enumerate(self.pk_of)
                  if pk is not None}
        found_rows = []
        stale = 0
        for pks, step in zip(self.found, self.at_step):
            rows = [row_of.get(pk, -1) for pk in pks]
            stale += sum(1 for r in rows
                         if r < 0 or not self.born[r] < step < self.died[r])
            found_rows.append(rows)
        if stale:
            out.failures.append(f"{stale} hits were deleted or unknown "
                                f"rows when their search was issued")
        vectors = np.concatenate([self.base, self.stream[rnd]])
        truth = exact_topk(vectors, self.queries[rnd][self.asked], K,
                           born=self.born, died=self.died, at=self.at_step)
        self.score(out, found_rows, truth)


WORKLOADS = {cls.name: cls for cls in (Ingest, Search, Mixed)}
