"""Set-up and the three closed-loop workloads, driven over TCP.

One single-threaded client (this process) drives the real ``repro
serve --tcp`` process over at most two connections.  Every workload
runs a fixed number of whole rounds, set by ``--seconds``, so every run
of one seed does the same operations:

* ``lone-reader``: one query in flight; a round is 100 queries from a
  stream that never repeats.
* ``pipelined-reader``: ``DEPTH`` queries in flight on one connection;
  a round is one pass over a pool of distinct queries, with every 8th
  query after the first ``REPEAT_LAG`` followed by a repeat of the query
  sent ``REPEAT_LAG`` pool positions earlier (an answered query still in
  the server's LRU cache).  The pool is larger than the cache, so on the
  next pass every pool query misses again.
* ``write-mix``: a round is one LSM cycle: ``2 x MEMTABLE_SIZE`` steps of
  an insert and a delete, with a query on every other step, i.e. two
  memtable seals (the second one compacts back to one segment) and one
  snapshot.  Half the queries ask for the vector just inserted
  (read-your-writes).
"""

from __future__ import annotations

import os
import shutil
import time
from collections import deque
from typing import Dict, List, Optional

import numpy as np

import inputs as inp
from checker import (
    CheckError,
    Ledger,
    check_all_present,
    check_answer,
    check_fresh,
    check_restart,
    exact_knn,
    recall_at_k,
)
from procs import (
    Server,
    cpu_seconds,
    host_cpu_ticks,
    peak_rss_mb,
    since_process_start,
    steal_share,
)

BACKEND = "cext"

LONE_ROUND = 100
POOL = 2048
REPEAT_EVERY = 8
REPEAT_LAG = 400
DEPTH = 192
CYCLE_STEPS = 2 * inp.MEMTABLE_SIZE
TAIL_STEPS = 20
TAIL_CYCLE = 1 << 20
FINAL_QUERIES = 30
WARMUP_QUERIES = 20
#: traced runs fetch span trees this often (the server keeps the last 64)
TRACE_FETCH_EVERY = 192
TRACE_FETCH_LONE = 50
TRACE_FETCH_STEPS = 16
#: seconds one round takes on a quiet host at the commit that introduced
#: the benchmark; ``--seconds`` is turned into a round count with these
ROUND_NOMINAL_S = {"lone-reader": 1.25, "pipelined-reader": 1.25, "write-mix": 7.0}
#: the highest percentile with at least ten samples beyond it at this
#: size of run (README "Tail percentiles")
TAIL_PERCENTILE = {"lone-reader": 98.0, "pipelined-reader": 99.9, "write-mix": 90.0}
#: recall below this is a broken index, not a slower one
RECALL_FLOOR = 0.5


def pipelined_plan() -> List[int]:
    """Pool indices of one pass; a repeat shows as an earlier index."""
    plan = []
    for j in range(POOL):
        plan.append(j)
        if j % REPEAT_EVERY == REPEAT_EVERY - 1 and j >= REPEAT_LAG:
            plan.append(j - REPEAT_LAG)
    return plan


def planned_repeats() -> int:
    return len(pipelined_plan()) - POOL


class Bench:
    """One benchmark run: inputs, bundle, server, client and checks."""

    def __init__(self, root: str, workload: str, seed: int, seconds: float):
        from repro.serve.client import ServeClient, ServerError

        self.root = root
        self.workload = workload
        self.seconds = float(seconds)
        self.work = os.path.join(root, "perfbench", ".work", workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.bundle = os.path.join(self.work, "bundle")
        self.wal_dir = os.path.join(self.work, "wal") if workload == "write-mix" else None
        self.inputs = inp.Inputs(seed)
        self.ledger = Ledger(self.inputs.base)
        self.ServeClient, self.ServerError = ServeClient, ServerError
        self.server: Optional[Server] = None
        self.client = None
        self.sent = 0  # requests sent to the current server (ping excluded)
        self.failures: List[str] = []
        self.errors: List[str] = []
        self.layer: Dict[str, float] = {}
        self._servers = 0

    # -- set-up -----------------------------------------------------------

    def setup(self, trace: bool = False) -> float:
        """Fit, save the bundle, start the server; returns ``setup_s``."""
        from repro.core.dynamic import DynamicLCCSLSH
        from repro.serve.persistence import save_index

        t0 = time.perf_counter()
        w = inp.bucket_width(self.inputs.base, self.inputs.calibration_queries())
        index = DynamicLCCSLSH(
            dim=inp.DIM, m=inp.M, w=w, seed=self.inputs.seed, backend=BACKEND,
            memtable_size=inp.MEMTABLE_SIZE, max_segments=inp.MAX_SEGMENTS,
        )
        index.fit(self.inputs.base)
        t1 = time.perf_counter()
        save_index(index, self.bundle,
                   extra={"query_kwargs": {"num_candidates": inp.NUM_CANDIDATES}})
        t2 = time.perf_counter()
        self.start_server(trace=trace)
        t3 = time.perf_counter()
        setup_s = since_process_start()
        self.layer.update({"setup.fit_s": t1 - t0, "setup.save_s": t2 - t1,
                           "setup.ready_s": t3 - t2})
        return setup_s

    def start_server(self, trace: bool = False) -> None:
        self._servers += 1
        log = os.path.join(self.work, f"server{self._servers}.log")
        self.server = Server(
            self.root, self.bundle, log, wal_dir=self.wal_dir,
            snapshot_every=2 * CYCLE_STEPS, trace=trace,
        ).start()
        self.client = self.ServeClient("127.0.0.1", self.server.port, timeout=120.0)
        if not self.client.ping():
            raise RuntimeError("server did not answer ping")
        self.sent = 0
        stats = self.stats()
        if stats.get("kernel_backend") != BACKEND:
            raise RuntimeError(
                f"server runs kernel backend {stats.get('kernel_backend')!r}, "
                f"{BACKEND!r} was requested"
            )

    def stop_server(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()

    def close(self) -> None:
        self.stop_server()
        if self.server is not None:
            self.server.kill()

    def stats(self) -> dict:
        self.sent += 1
        return self.client.stats()

    def fail(self, message: str) -> None:
        """Record a failed check: the run is not correct."""
        self.failures.append(message)

    def error(self, message: str) -> None:
        """Record a failed operation: counted in ``failed``, not a wrong answer."""
        self.errors.append(message)

    def check(self, fn, *args) -> None:
        try:
            fn(*args)
        except CheckError as exc:
            self.fail(str(exc))

    def check_server_counters(self, stats: dict, writes: int) -> None:
        served = stats["server"]["requests_total"]
        if served != self.sent - 1:  # the stats request itself is not counted yet
            self.fail(f"server counted {served} requests, client sent {self.sent - 1}")
        if stats.get("kernel_backend") != BACKEND:
            self.fail(f"kernel backend changed to {stats.get('kernel_backend')!r}")
        if writes and stats.get("wal_appends", 0) < writes:
            self.fail(f"wal_appends {stats.get('wal_appends')} < {writes} acknowledged writes")

    # -- measured phase ---------------------------------------------------

    def warm_up(self) -> None:
        for q in self.inputs.warmup(WARMUP_QUERIES):
            self.sent += 1
            self.client.query(q, k=inp.K)

    def rounds_for(self, seconds: float) -> int:
        """Whole rounds that take about ``seconds`` on a quiet host here.

        The work of a run is fixed by ``--seconds`` alone, never by the
        clock, so every run of one seed does exactly the same operations.
        """
        return max(1, round(seconds / ROUND_NOMINAL_S[self.workload]))

    def measure(self, rounds: int, on_progress=None) -> dict:
        """Run ``rounds`` whole rounds; returns the raw record of the phase.

        Wall time, server CPU and host steal are taken per round.
        """
        pid = self.server.pid
        rec = {"query_lat": [], "queries": [], "answers": [], "times": None,
               "attempted": 0, "failed": 0, "writes": 0, "write_lat": [], "t": 0,
               "wall_s": 0.0, "server_cpu_s": 0.0, "rounds": 0,
               "per_round": []}
        steal_ticks = total_ticks = 0
        if self.workload == "write-mix":
            rec["times"] = []
        elif self.workload == "pipelined-reader":
            self._pool = self.inputs.pool(POOL)
            self._requests = [{"query": row.tolist(), "k": inp.K} for row in self._pool]
            self._got = {}
        round_fn = getattr(self, "_round_" + self.workload.replace("-", "_"))
        for r in range(rounds):
            ticks0, cpu0 = host_cpu_ticks(), cpu_seconds(pid)
            n_query, n_write = len(rec["query_lat"]), len(rec["write_lat"])
            t0 = time.perf_counter()
            round_fn(rec, r, on_progress)
            wall = time.perf_counter() - t0
            cpu = cpu_seconds(pid) - cpu0
            ticks1 = host_cpu_ticks()
            steal = ticks1[7] - ticks0[7]
            total = sum(ticks1[:8]) - sum(ticks0[:8])
            rec["per_round"].append({
                "steal_share": steal / total if total else 0.0, "wall_s": wall,
                "server_cpu_s": cpu, "query_lat": rec["query_lat"][n_query:],
                "write_lat": rec["write_lat"][n_write:],
            })
            rec["wall_s"] += wall
            rec["server_cpu_s"] += cpu
            steal_ticks += steal
            total_ticks += total
            rec["rounds"] += 1
        rec["steal_share"] = steal_ticks / total_ticks if total_ticks else 0.0
        rec["peak_rss_mb"] = peak_rss_mb(pid)
        if self.workload == "pipelined-reader":
            got = self._got
            rec["queries"] = [self._pool[i] for i in sorted(got)]
            rec["answers"] = [(np.asarray(got[i][0]), np.asarray(got[i][1]))
                              for i in sorted(got)]
        return rec

    def _query(self, q: np.ndarray):
        """One blocking query; ``None`` when the server answered an error."""
        self.sent += 1
        try:
            return self.client.query(q, k=inp.K)
        except self.ServerError as exc:
            self.error(f"query failed: {exc}")
            return None

    def _round_lone_reader(self, rec, r, on_progress) -> None:
        for q in self.inputs.lone_block(r, LONE_ROUND):
            rec["attempted"] += 1
            t = time.perf_counter()
            answer = self._query(q)
            if answer is None:
                rec["failed"] += 1
                continue
            rec["query_lat"].append(time.perf_counter() - t)
            rec["queries"].append(q)
            rec["answers"].append(answer)
            if on_progress is not None and rec["attempted"] % TRACE_FETCH_LONE == 0:
                on_progress()

    def _round_pipelined_reader(self, rec, r, on_progress) -> None:
        """One pass over the plan with ``DEPTH`` requests in flight."""
        plan, requests, got = pipelined_plan(), self._requests, self._got
        inflight: deque = deque()
        client = self.client
        pos = 0
        while pos < len(plan) or inflight:
            while pos < len(plan) and len(inflight) < DEPTH:
                idx = plan[pos]
                pos += 1
                if on_progress is not None and pos % TRACE_FETCH_EVERY == 0:
                    on_progress()
                client.send(requests[idx])
                self.sent += 1
                rec["attempted"] += 1
                inflight.append((idx, time.perf_counter()))
            response = client.recv()
            idx, sent_at = inflight.popleft()
            if "error" in response:
                rec["failed"] += 1
                self.error(f"query failed: {response['error']}")
                continue
            rec["query_lat"].append(time.perf_counter() - sent_at)
            answer = (response["ids"], response["dists"])
            if got.setdefault(idx, answer) != answer:
                self.fail(f"pool query {idx} answered differently on a repeat")

    def _write(self, payload: dict):
        self.sent += 1
        t = time.perf_counter()
        try:
            response = self.client.request(payload)
        except (OSError, ValueError) as exc:
            raise RuntimeError(f"write failed: {exc}") from None
        elapsed = time.perf_counter() - t
        if "error" in response:
            self.error(f"write failed: {response['error']}")
            return None, elapsed
        return response, elapsed

    def _write_steps(self, inserts, queries, draws, rec, measured: bool,
                     offset: int = 0) -> None:
        """Insert, query, delete for each step; records into ``rec``."""
        ledger = self.ledger
        for s in range(len(inserts)):
            v = inserts[s]
            rec["attempted"] += 2
            response, dt = self._write({"insert": v.tolist()})
            fresh = None
            if response is None:
                rec["failed"] += 1
            else:
                rec["t"] += 1
                ledger.insert(response["handle"], v, rec["t"])
                fresh = int(response["handle"])
                rec["writes"] += 1
                if measured:
                    rec["write_lat"].append(dt)
            step = offset + s
            if step % 2 == 0:
                # Every other step queries: alternately the vector just
                # inserted (read-your-writes) and a fresh query.
                q = v if step % 4 == 0 and fresh is not None else queries[s]
                self._mix_query(q, v, fresh, rec, measured)
            handle = ledger.pick_live(draws[s])
            response, dt = self._write({"delete": handle})
            if response is None:
                rec["failed"] += 1
            else:
                rec["t"] += 1
                ledger.delete(handle, rec["t"])
                rec["writes"] += 1
                if measured:
                    rec["write_lat"].append(dt)

    def _mix_query(self, q, v, fresh, rec, measured: bool) -> None:
        rec["attempted"] += 1
        rec["t"] += 1
        t = time.perf_counter()
        answer = self._query(q)
        if answer is None:
            rec["failed"] += 1
            return
        if measured:
            rec["query_lat"].append(time.perf_counter() - t)
        rec["queries"].append(q)
        rec["answers"].append(answer)
        rec["times"].append(rec["t"])
        if q is v:
            self.check(check_fresh, fresh, answer[0].tolist(), answer[1].tolist())

    def _round_write_mix(self, rec, r, on_progress) -> None:
        """One LSM cycle: two seals, one compaction, one snapshot."""
        inserts, queries, draws = self.inputs.write_cycle(r, CYCLE_STEPS)
        for start in range(0, CYCLE_STEPS, TRACE_FETCH_STEPS):
            stop = start + TRACE_FETCH_STEPS
            self._write_steps(inserts[start:stop], queries[start:stop],
                              draws[start:stop], rec, measured=True, offset=start)
            if on_progress is not None:
                on_progress()

    # -- checks after the measured phase -----------------------------------

    def check_answers(self, record: dict) -> float:
        """Check every answer; returns recall@10 against exact k-NN."""
        qs = np.asarray(record["queries"])
        times = record["times"]
        t_end = record.get("t", 0) + 1
        if times is None:
            masks = None
            times = [t_end] * len(qs)
        else:
            masks = np.stack([self.ledger.live_mask(t) for t in times])
        for q, t, (ids, dists) in zip(qs, times, record["answers"]):
            self.check(check_answer, self.ledger, t, q, ids, dists, inp.K)
        truth, _ = exact_knn(self.ledger.vectors, qs, inp.K, masks=masks)
        recall = recall_at_k(np.stack([np.asarray(a[0]) for a in record["answers"]]), truth)
        if recall < RECALL_FLOOR:
            self.fail(f"recall@{inp.K} {recall:.3f} is below {RECALL_FLOOR}")
        return recall

    def crash_and_restart(self, record: dict) -> None:
        """write-mix ending: tail writes, kill -9, restart from the WAL.

        ``kill -9`` leaves the OS page cache intact, so this checks the
        WAL and snapshot logic, not fsync.
        """
        tail = self.inputs.write_cycle(TAIL_CYCLE, TAIL_STEPS)
        self._write_steps(*tail, record, measured=False)
        finals = self.inputs.final_queries(FINAL_QUERIES)
        before = [self._query(q) for q in finals]
        if None in before:
            self.fail("a final query failed before the crash")
            return
        stats = self.stats()
        self.check_server_counters(stats, record["writes"])
        self.check_live_count(stats)
        self.client.close()
        self.client = None
        self.server.kill()
        self.start_server()
        after = [self._query(q) for q in finals]
        if None in after:
            self.fail("a final query failed after the restart")
            return
        self.check(check_restart,
                   [(a[0].tolist(), a[1].tolist()) for a in before],
                   [(a[0].tolist(), a[1].tolist()) for a in after])
        t_end = record["t"] + 1
        for q, (ids, dists) in zip(finals, after):
            self.check(check_answer, self.ledger, t_end, q, ids, dists, inp.K)
        present = self.pipelined_answers(self.ledger.vectors[self.ledger.live_inserted()])
        self.check(check_all_present, self.ledger, present)
        for h, (ids, dists) in zip(self.ledger.live_inserted(), present):
            self.check(check_answer, self.ledger, t_end, self.ledger.vectors[h], ids, dists, inp.K)
        self.check_live_count(self.stats())

    def check_live_count(self, stats: dict) -> None:
        live = (sum(stats["tier_segment_rows"]) + stats["tier_memtable"]
                - stats["tier_tombstones"])
        if live != self.ledger.live_count:
            self.fail(f"server holds {live} live points, the ledger {self.ledger.live_count}")

    def pipelined_answers(self, queries: np.ndarray) -> list:
        out, inflight = [], 0
        it = iter(queries)
        pending = True
        while pending or inflight:
            while pending and inflight < DEPTH:
                q = next(it, None)
                if q is None:
                    pending = False
                    break
                self.client.send({"query": q.tolist(), "k": inp.K})
                self.sent += 1
                inflight += 1
            if inflight:
                response = self.client.recv()
                inflight -= 1
                if "error" in response:
                    self.fail(f"query failed: {response['error']}")
                    out.append(([], []))
                else:
                    out.append((np.asarray(response["ids"]), np.asarray(response["dists"])))
        return out


def quiet_rounds(record: dict) -> List[dict]:
    """The half of the rounds (rounded up) with the least host steal.

    Hypervisor steal on this class of host comes in bursts of seconds to
    minutes and stretches every wall-clock and CPU figure of the rounds
    it hits.  Every round is run and checked, and its steal is printed;
    the timing figures are taken over the quieter half, which a change
    to the program slows just as much as any other round.
    """
    rounds = sorted(record["per_round"], key=lambda r: r["steal_share"])
    return rounds[: (len(rounds) + 1) // 2]


def end_to_end(bench: Bench, record: dict, setup_s: float, recall: float):
    """(bounded end-to-end metrics, wall-clock figures for the info line).

    Wall-clock latency, throughput and peak RSS did not repeat on the
    hosts this benchmark was built on (README "Steadiness"), so they are
    printed next to the metrics rather than bounded.
    """
    chosen = quiet_rounds(record)
    lat_ms = np.concatenate([r["query_lat"] for r in chosen]) * 1e3
    ops = len(lat_ms) + sum(len(r["write_lat"]) for r in chosen)
    cpu = sum(r["server_cpu_s"] for r in chosen)
    bounded = {
        "setup_s": setup_s,
        "recall_at_10": recall,
        "server_cpu_ms_per_op": cpu * 1e3 / ops,
    }
    wall = {
        "query_p50_ms": float(np.percentile(lat_ms, 50)),
        "query_tail_ms": float(np.percentile(lat_ms, TAIL_PERCENTILE[bench.workload])),
        "query_qps": len(lat_ms) / sum(r["wall_s"] for r in chosen),
        "server_peak_rss_mb": record["peak_rss_mb"],
    }
    return bounded, wall
