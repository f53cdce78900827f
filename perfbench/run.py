"""Serving benchmark: lone, pipelined and write-mix traffic over TCP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lone-reader --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (layer ladder, server counters, span self times).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it carries the host steal
share and the server's CPU seconds over the measured phase.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END_UNITS = {
    "setup_s": "s",
    "recall_at_10": "ratio",
    "server_cpu_ms_per_op": "ms",
}
#: traced runs run a fixed number of rounds, so their counts repeat
TRACED_ROUNDS = {"lone-reader": 1, "pipelined-reader": 1, "write-mix": 1}
LADDER_QUERIES = 60


def _unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (("per_s", "1/s"), ("_ms", "ms"), ("_us", "us"),
                         ("_s", "s"), ("_mb", "MB"), ("bytes", "B")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("share", "amp", "size", "recall_at_10", "per_query")):
        return "ratio"
    return "count"


def _dir_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(base, name))
    return total


def untraced(bench, workloads) -> tuple:
    setup_s = bench.setup()
    bench.warm_up()
    record = bench.measure(bench.rounds_for(bench.seconds))
    stats = bench.stats()
    bench.check_server_counters(stats, record["writes"])
    if bench.workload == "write-mix":
        bench.crash_and_restart(record)
    bench.stop_server()
    recall = bench.check_answers(record)
    metrics, wall = workloads.end_to_end(bench, record, setup_s, recall)
    info = {"host.steal_share": record["steal_share"],
            "server.cpu_s": record["server_cpu_s"], "rounds": record["rounds"],
            "measured_s": record["wall_s"], **wall,
            "round_steal": [round(r["steal_share"], 4) for r in record["per_round"]],
            "timed_steal": max(r["steal_share"] for r in workloads.quiet_rounds(record))}
    return metrics, record, info


def traced(bench, workloads) -> tuple:
    import numpy as np

    import inputs as inp
    import ladder
    from procs import FSYNC

    wl = bench.workload
    layer = {}
    # 1. Set-up, then the client rung against an untraced server.
    bench.setup()
    if wl == "lone-reader":
        sample = bench.inputs.lone_block(0, LADDER_QUERIES)
    elif wl == "pipelined-reader":
        sample = bench.inputs.pool(LADDER_QUERIES)
    else:
        _, sample, _ = bench.inputs.write_cycle(0, LADDER_QUERIES)
    layer["ladder.client_query_ms"] = ladder.client_rung(bench.client, sample)
    bench.sent += len(sample)
    bench.stop_server()
    if bench.wal_dir:
        shutil.rmtree(bench.wal_dir)
    # 2. A fixed number of rounds against a server tracing every request.
    bench.start_server(trace=True)
    traces = {}
    side = bench.ServeClient("127.0.0.1", bench.server.port, timeout=120.0)

    def fetch():
        bench.sent += 1
        for t in side.request({"trace": 64})["traces"]:
            traces[t["trace_id"]] = t

    bench.warm_up()
    wal_before = _dir_bytes(bench.wal_dir) if bench.wal_dir else 0
    record = bench.measure(rounds=TRACED_ROUNDS[wl], on_progress=fetch)
    fetch()
    wal_written = (_dir_bytes(bench.wal_dir) - wal_before) if bench.wal_dir else 0
    stats = bench.stats()
    bench.check_server_counters(stats, record["writes"])
    side.close()
    bench.stop_server()
    recall = bench.check_answers(record)
    lat = np.asarray(record["query_lat"]) * 1e3
    server_ops = stats["server"]["ops"]
    wlat = np.asarray(record["write_lat"]) * 1e3
    inserts = record["writes"] // 2
    layer.update({
        "setup.fit_s": bench.layer["setup.fit_s"],
        "setup.save_s": bench.layer["setup.save_s"],
        "setup.ready_s": bench.layer["setup.ready_s"],
        "traced.query_p50_ms": float(np.percentile(lat, 50)),
        "traced.recall_at_10": recall,
        "server.requests": stats["server"]["requests_total"],
        "server.query_p50_ms": server_ops["query"]["p50_ms"],
        "service.batches": stats["batches"],
        "service.avg_batch_size": stats["avg_batch_size"],
        "service.largest_batch": stats["largest_batch"],
        "cache.hits": stats["cache_hits"],
        "cache.misses": stats["cache_misses"],
        "cache.invalidations": stats["cache_invalidations"],
        "cache.planned_repeats": (workloads.planned_repeats() * record["rounds"]
                                  if wl == "pipelined-reader" else 0),
        "lock.reads": stats["reads"],
        "lock.writes": stats["writes"],
        "tier.seals": stats["tier_seals"],
        "tier.compactions": stats["tier_compactions"],
        "tier.compaction_s": stats["tier_compaction_time_s"],
        "tier.segments": stats["tier_segments"],
        "tier.tombstones": stats["tier_tombstones"],
        "wal.appends": stats.get("wal_appends", 0),
        "wal.syncs": stats.get("wal_syncs", 0),
        "wal.bytes": stats.get("wal_bytes_written", 0),
        "wal.snapshot_files": stats.get("wal_snapshots", 0),
        "write.p50_ms": float(np.percentile(wlat, 50)) if len(wlat) else 0.0,
        "write.tail_ms": float(np.percentile(wlat, 99)) if len(wlat) else 0.0,
        "write.max_stall_ms": float(wlat.max()) if len(wlat) else 0.0,
        "write.ops_per_s": len(wlat) / record["wall_s"] if len(wlat) else 0.0,
        "write.amp": wal_written / (inserts * inp.DIM * 8) if inserts else 0.0,
        "server.peak_rss_mb": record["peak_rss_mb"],
        "host.steal_share": record["steal_share"],
    })
    layer.update(ladder.span_self_times(traces.values()))
    # 3. The in-process ladder over the same bundle.
    if wl == "write-mix":
        inserts_v, _, _ = bench.inputs.write_cycle(0, inp.MEMTABLE_SIZE // 2)
        rungs, index = ladder.insert_rungs(
            bench.bundle, inserts_v, os.path.join(bench.work, "ladder-wal"),
            fsync=FSYNC)
        layer.update(rungs)
    else:
        index = ladder.load(bench.bundle)
        layer["ladder.durable_insert_us"] = layer["ladder.dynamic_insert_us"] = 0.0
    batch_sample = (bench.inputs.pool(4 * ladder.BATCH_B) if wl == "pipelined-reader"
                    else np.concatenate([sample, bench.inputs.warmup(4 * ladder.BATCH_B)]))
    layer.update(ladder.query_rungs(index, sample, batch_sample))
    info = {"host.steal_share": record["steal_share"],
            "server.cpu_s": record["server_cpu_s"], "rounds": record["rounds"],
            "traces": len(traces)}
    return layer, record, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lone-reader", "pipelined-reader", "write-mix"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    # A SIGTERM unwinds through the ``finally`` below, which stops the server.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    work = os.path.join(HERE, ".work")
    os.makedirs(os.path.join(work, "tmp"), exist_ok=True)
    # Compiled kernels are cached inside the checkout, once per kernel
    # source, so the compile is not paid inside every set-up.
    os.environ["REPRO_KERNEL_CACHE"] = os.path.join(HERE, ".kernel_cache")
    os.environ["TMPDIR"] = os.path.join(work, "tmp")

    import workloads

    bench = workloads.Bench(ROOT, args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            metrics, record, info = traced(bench, workloads)
            units = {name: _unit(name) for name in metrics}
        else:
            metrics, record, info = untraced(bench, workloads)
            units = END_TO_END_UNITS
    finally:
        bench.close()
    for message in bench.errors[:20]:
        print(f"operation failed: {message}", file=sys.stderr)
    for message in bench.failures[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    info.update({"workload": args.workload, "seed": args.seed, "trace": args.trace})
    print(json.dumps(info))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
