"""The workloads do the work they were chosen for, by construction."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import inputs  # noqa: E402
import ladder  # noqa: E402
import workloads  # noqa: E402
from procs import SERVE_FLAGS  # noqa: E402

CACHE = int(SERVE_FLAGS[SERVE_FLAGS.index("--cache-size") + 1])
INFLIGHT = int(SERVE_FLAGS[SERVE_FLAGS.index("--max-inflight") + 1])


def test_pipelined_repeats_hit_and_fresh_queries_miss():
    plan = workloads.pipelined_plan()
    position = {}
    for pos, idx in enumerate(plan):
        if idx in position:
            # A repeat: its first copy was answered before it is sent
            # (more than DEPTH requests earlier) and is still in the LRU.
            gap = pos - position[idx]
            assert workloads.DEPTH < gap < CACHE
        else:
            position[idx] = pos
    repeats = len(plan) - workloads.POOL
    assert repeats == workloads.planned_repeats() > 0
    # On the next pass every pool query comes back after more distinct
    # keys than the cache holds were touched, so it misses again.
    last_touch = {idx: pos for pos, idx in enumerate(plan)}
    for i in range(0, workloads.POOL, 61):
        between = set(plan[last_touch[i] + 1:]) | set(plan[:position[i]])
        assert len(between) > CACHE
    assert workloads.DEPTH <= INFLIGHT


def test_write_cycle_seals_twice_and_compacts_once():
    # Inserts per cycle fill the memtable exactly twice; the second seal
    # takes the segment count past MAX_SEGMENTS and compacts.
    assert workloads.CYCLE_STEPS == 2 * inputs.MEMTABLE_SIZE
    assert inputs.MAX_SEGMENTS == 2


def test_inputs_repeat_per_seed():
    a, b = inputs.Inputs(3), inputs.Inputs(3)
    assert (a.base == b.base).all()
    assert (a.lone_block(2, 5) == b.lone_block(2, 5)).all()
    assert not (a.lone_block(2, 5) == a.lone_block(3, 5)).any()
    assert (inputs.Inputs(4).base != a.base).any()


def test_span_self_times():
    trace = {"trace_id": "t", "spans": [
        {"name": "query", "span_id": 1, "parent_id": None, "start_s": 0.0, "duration_s": 10e-3},
        {"name": "batch", "span_id": 2, "parent_id": 1, "start_s": 1e-3, "duration_s": 6e-3},
        {"name": "batch.wait", "span_id": 3, "parent_id": 2, "start_s": 1e-3, "duration_s": 2e-3},
        {"name": "decode", "span_id": 4, "parent_id": 1, "start_s": 0.0, "duration_s": 1e-3},
    ]}
    out = ladder.span_self_times([trace])
    assert abs(out["span.query.self_ms"] - 3.0) < 1e-9
    assert abs(out["span.batch.self_ms"] - 4.0) < 1e-9
    assert abs(out["span.other.self_ms"] - 1.0) < 1e-9
    assert abs(out["span.unspanned_share"] - 0.3) < 1e-9
