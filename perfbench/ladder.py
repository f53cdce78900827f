"""Traced-run helpers: the layer ladder and span-tree self times.

The ladder replays one fixed sample of a workload's queries through each
layer's public entry point in turn, in this process, and times every
call with its own clock.  Differences between rungs give each layer's
self time: wire = client - service, window wait = service - locked,
lock = locked - index, engine gap = index - batch1.
"""

from __future__ import annotations

import shutil
import time
from collections import defaultdict
from typing import Dict, Iterable, List

import numpy as np

import inputs as inp

#: batch size of the ``ladder.batchB_query_us`` rung, near pipelined-reader's
#: mean micro-batch when the benchmark was introduced; fixed so the rung
#: stays comparable across changes
BATCH_B = 32
#: span names the server emits in single-process mode; any other name
#: is reported under ``span.other.self_ms``
SPAN_NAMES = (
    "query", "insert", "delete", "admission", "cache.probe", "batch",
    "batch.wait", "index.query", "lock.wait", "kernel.hash", "kernel.search",
    "kernel.merge", "kernel.verify", "index.insert", "index.delete",
    "wal.append", "wal.fsync", "lsm.seal", "lsm.compact", "lsm.rebuild",
)
STAGES = ("hash", "search", "merge", "verify")


def _median_ms(samples: List[float]) -> float:
    return float(np.median(samples)) * 1e3


def client_rung(client, queries: np.ndarray) -> float:
    """``ServeClient.query`` round trip, median ms."""
    times = []
    for q in queries:
        t = time.perf_counter()
        client.query(q, k=inp.K)
        times.append(time.perf_counter() - t)
    return _median_ms(times)


def load(bundle: str):
    from repro.serve.persistence import load_index

    index = load_index(bundle)
    index.set_kernel_backend("cext")
    return index


def query_rungs(index, queries: np.ndarray, batch_queries: np.ndarray) -> Dict[str, float]:
    """Service, lock, single engine, batch engine at 1 and at ``BATCH_B``."""
    from repro.serve.concurrency import ConcurrentIndex
    from repro.serve.service import ANNService

    kw = {"num_candidates": inp.NUM_CANDIDATES}
    k = inp.K
    rungs = defaultdict(list)
    stage = defaultdict(float)
    candidates = scanned = 0.0
    locked = ConcurrentIndex(index)
    with ANNService(index, cache_size=1024, batch_window_ms=2.0,
                    max_batch_size=64) as service:
        calls = {
            "service": lambda q: service.query(q, k=k, **kw),
            "locked": lambda q: locked.query(q, k=k, **kw),
            "index": lambda q: index.query(q, k=k, **kw),
            "batch1": lambda q: index.batch_query(q[None], k=k, **kw),
        }
        order = list(calls)
        for i, q in enumerate(queries):
            # Rotate the rung order so no rung always meets this query's
            # rows cold in the CPU caches.
            for name in order[i % 4:] + order[:i % 4]:
                t = time.perf_counter()
                calls[name](q)
                rungs[name].append(time.perf_counter() - t)
                if name == "index":
                    stats = dict(index.last_stats)
                    for s in STAGES:
                        stage[f"single.{s}_us"] += stats.get(f"stage_{s}_s", 0.0)
                    candidates += stats.get("candidates", 0.0)
                    scanned += stats.get("buffer_scanned", 0.0)
    per_query = []
    batch_stage = defaultdict(float)
    for start in range(0, len(batch_queries) - BATCH_B + 1, BATCH_B):
        block = batch_queries[start : start + BATCH_B]
        t = time.perf_counter()
        index.batch_query(block, k=k, **kw)
        per_query.append((time.perf_counter() - t) / BATCH_B)
        for s in STAGES:
            batch_stage[f"batch.{s}_us"] += index.last_stats.get(f"stage_{s}_s", 0.0)
    n, nb = len(queries), len(per_query) * BATCH_B
    out = {
        "ladder.service_query_ms": _median_ms(rungs["service"]),
        "ladder.locked_query_ms": _median_ms(rungs["locked"]),
        "ladder.index_query_ms": _median_ms(rungs["index"]),
        "ladder.batch1_query_ms": _median_ms(rungs["batch1"]),
        "ladder.batchB_query_us": float(np.median(per_query)) * 1e6,
        "index.candidates_per_query": candidates / n,
        "index.memtable_scanned_per_query": scanned / n,
    }
    out.update({key: val * 1e6 / n for key, val in stage.items()})
    out.update({key: val * 1e6 / nb for key, val in batch_stage.items()})
    return out


def insert_rungs(bundle: str, vectors: np.ndarray, wal_dir: str, fsync: str):
    """``DurableIndex.insert`` against ``DynamicLCCSLSH.insert``, median us.

    Returns the metrics and the plain index after its inserts, whose
    memtable then holds ``len(vectors)`` rows for the query rungs.
    """
    from repro.serve.durability import DurableIndex, SnapshotManager

    shutil.rmtree(wal_dir, ignore_errors=True)
    durable = DurableIndex(load(bundle), wal_dir, fsync=fsync,
                           snapshots=SnapshotManager(wal_dir))
    plain = load(bundle)
    times = defaultdict(list)
    try:
        for v in vectors:
            t = time.perf_counter()
            durable.insert(v)
            t1 = time.perf_counter()
            plain.insert(v)
            t2 = time.perf_counter()
            times["durable"].append(t1 - t)
            times["dynamic"].append(t2 - t1)
    finally:
        durable.close()
        shutil.rmtree(wal_dir, ignore_errors=True)
    return {
        "ladder.durable_insert_us": float(np.median(times["durable"])) * 1e6,
        "ladder.dynamic_insert_us": float(np.median(times["dynamic"])) * 1e6,
    }, plain


def span_self_times(traces: Iterable[dict]) -> Dict[str, float]:
    """Mean self ms per request for each span name, and the share of
    query root wall time that no child span covers."""
    totals = defaultdict(float)
    count = 0
    root_self = root_wall = 0.0
    for trace in traces:
        spans = [s for s in trace["spans"] if s.get("duration_s") is not None]
        children = defaultdict(list)
        for s in spans:
            children[s["parent_id"]].append(s)
        count += 1
        for s in spans:
            start = s["start_s"]
            end = start + s["duration_s"]
            covered, cursor = 0.0, start
            for c in sorted(children[s["span_id"]], key=lambda c: c["start_s"]):
                lo = max(cursor, c["start_s"])
                hi = min(end, c["start_s"] + c["duration_s"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            own = s["duration_s"] - covered
            name = s["name"] if s["name"] in SPAN_NAMES else "other"
            totals[name] += own
            if s["parent_id"] is None and s["name"] == "query":
                root_self += own
                root_wall += s["duration_s"]
    out = {f"span.{name}.self_ms": totals[name] * 1e3 / max(count, 1)
           for name in SPAN_NAMES + ("other",)}
    out["span.unspanned_share"] = root_self / root_wall if root_wall else 0.0
    return out
