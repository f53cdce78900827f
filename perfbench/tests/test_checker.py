"""The benchmark's answer checks must reject wrong answers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  Each test hands a check a correct answer (accepted) and a wrong
one (rejected).
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from checker import (  # noqa: E402
    CheckError,
    Ledger,
    check_all_present,
    check_answer,
    check_fresh,
    check_restart,
    exact_knn,
    recall_at_k,
)

K = 5


@pytest.fixture
def ledger():
    rng = np.random.default_rng(7)
    return Ledger(rng.standard_normal((60, 4)))


def _answer(ledger, q, t):
    ids, dists = exact_knn(ledger.vectors, q[None], K, masks=ledger.live_mask(t)[None])
    return ids[0], dists[0]


def test_exact_knn_matches_brute_force(ledger):
    rng = np.random.default_rng(8)
    qs = rng.standard_normal((20, 4))
    ids, dists = exact_knn(ledger.vectors, qs, K)
    for q, row_ids, row_d in zip(qs, ids, dists):
        d = np.sqrt(((ledger.vectors - q) ** 2).sum(axis=1))
        order = np.lexsort((np.arange(len(d)), d))[:K]
        assert row_ids.tolist() == order.tolist()
        assert np.allclose(row_d, d[order])


def test_correct_answer_passes(ledger):
    q = np.zeros(4)
    ids, dists = _answer(ledger, q, 1)
    check_answer(ledger, 1, q, ids, dists, K)


def test_distance_off_is_rejected(ledger):
    q = np.zeros(4)
    ids, dists = _answer(ledger, q, 1)
    dists = dists.copy()
    dists[2] *= 1.0 + 1e-6
    with pytest.raises(CheckError, match="distance"):
        check_answer(ledger, 1, q, ids, dists, K)


def test_deleted_handle_is_rejected(ledger):
    q = np.zeros(4)
    ids, dists = _answer(ledger, q, 1)
    ledger.delete(int(ids[0]), 5)
    check_answer(ledger, 4, q, ids, dists, K)  # still live before the delete
    with pytest.raises(CheckError, match="not live"):
        check_answer(ledger, 6, q, ids, dists, K)


def test_unknown_handle_is_rejected(ledger):
    q = np.zeros(4)
    ids, dists = _answer(ledger, q, 1)
    ids = ids.copy()
    ids[-1] = 60
    with pytest.raises(CheckError, match="not live"):
        check_answer(ledger, 1, q, ids, dists, K)


def test_short_list_is_rejected(ledger):
    q = np.zeros(4)
    ids, dists = _answer(ledger, q, 1)
    with pytest.raises(CheckError, match="short"):
        check_answer(ledger, 1, q, ids[:-1], dists[:-1], K)


def test_duplicate_and_unsorted_are_rejected(ledger):
    q = np.zeros(4)
    ids, dists = _answer(ledger, q, 1)
    with pytest.raises(CheckError, match="duplicate"):
        check_answer(ledger, 1, q, np.r_[ids[:-1], ids[0]], dists, K)
    with pytest.raises(CheckError, match="ascending"):
        check_answer(ledger, 1, q, ids[::-1], dists[::-1], K)


def test_fresh_insert_missing_is_rejected(ledger):
    v = np.full(4, 3.0)
    ledger.insert(60, v, 3)
    ids, dists = _answer(ledger, v, 4)
    check_fresh(60, ids.tolist(), dists.tolist())
    stale_ids, stale_d = _answer(ledger, v, 2)  # the index before the insert
    with pytest.raises(CheckError, match="missing"):
        check_fresh(60, stale_ids.tolist(), stale_d.tolist())
    moved = dists.copy()
    moved[ids.tolist().index(60)] = 0.5
    with pytest.raises(CheckError, match="distance"):
        check_fresh(60, ids.tolist(), moved.tolist())


def test_insert_with_unexpected_handle_is_rejected(ledger):
    with pytest.raises(CheckError, match="expected"):
        ledger.insert(7, np.zeros(4), 1)


def test_restart_that_changed_an_answer_is_rejected(ledger):
    q = np.zeros(4)
    ids, dists = _answer(ledger, q, 1)
    before = [(ids.tolist(), dists.tolist())]
    check_restart(before, [(ids.tolist(), dists.tolist())])
    with pytest.raises(CheckError, match="changed"):
        check_restart(before, [(ids[::-1].tolist(), dists.tolist())])
    with pytest.raises(CheckError, match="answers"):
        check_restart(before, [])


def test_restart_that_lost_a_write_is_rejected(ledger):
    for i, v in enumerate(np.eye(4) * 5.0):
        ledger.insert(60 + i, v, 2 + i)
    ledger.delete(61, 10)
    t = 11
    kept = [_answer(ledger, ledger.vectors[h], t) for h in ledger.live_inserted()]
    check_all_present(ledger, kept)
    # The restarted index lost insert 62: its own vector no longer finds it.
    lost = ledger.live_inserted().index(62)
    mask = ledger.live_mask(t)
    mask[62] = False
    ids, dists = exact_knn(ledger.vectors, ledger.vectors[62][None], K, masks=mask[None])
    broken = list(kept)
    broken[lost] = (ids[0], dists[0])
    with pytest.raises(CheckError, match="lost"):
        check_all_present(ledger, broken)
    with pytest.raises(CheckError, match="presence answers"):
        check_all_present(ledger, kept[:-1])


def test_pick_live_never_picks_a_deleted_handle(ledger):
    rng = np.random.default_rng(9)
    for t, draw in enumerate(rng.random(50)):
        h = ledger.pick_live(draw)
        assert ledger.is_live(h, 2 * t)
        ledger.delete(h, 2 * t + 1)
    assert ledger.live_count == 10


def test_recall_at_k():
    truth = np.array([[1, 2, 3, 4, 5]])
    assert recall_at_k(truth, truth) == 1.0
    assert recall_at_k(np.array([[1, 2, 9, 8, 7]]), truth) == pytest.approx(0.4)
