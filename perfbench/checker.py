"""Independent answer checker: plain NumPy, no code from the program.

Every answer the benchmark receives is checked here against the
benchmark's own record of what the index should hold:

* :class:`Ledger` records every acknowledged insert and delete with the
  operation index at which it was acknowledged, so the live set at any
  point of a run is known exactly;
* :func:`exact_knn` computes exact k-NN over that live set;
* :func:`check_answer` rejects a short result list, an unknown or
  deleted handle, a duplicate, an unsorted list and any distance that
  does not match a recomputation;
* :func:`check_fresh` rejects a read-your-writes answer that does not
  return the fresh insert at distance 0;
* :func:`check_restart` rejects a restart whose answers differ from the
  answers before the crash, and :func:`check_all_present` one that lost
  an acknowledged insert.

Nothing here imports ``repro``: the checker must not share a bug with
the code it checks.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: distance recomputation tolerance (the program and the checker sum
#: squares in different orders; float64 rounding stays far below this)
RTOL = 1e-9
ATOL = 1e-9

_NEVER = np.iinfo(np.int64).max


class CheckError(AssertionError):
    """An answer failed a check."""


class Ledger:
    """Acknowledged inserts and deletes, by operation index.

    Handle ``h`` is live at operation ``t`` when its insert was
    acknowledged before ``t`` and its delete (if any) after ``t``.  The
    base data holds handles ``0 .. n-1``, live from the start.
    """

    def __init__(self, base: np.ndarray):
        base = np.asarray(base, dtype=np.float64)
        self._vectors = [base]
        self._births = [np.full(len(base), -1, dtype=np.int64)]
        self._deaths = [np.full(len(base), _NEVER, dtype=np.int64)]
        self._size = len(base)
        self._pending: List[Tuple[int, np.ndarray, int]] = []
        self._death_updates: List[Tuple[int, int]] = []
        self._live = set(range(len(base)))
        #: live handles in a stable order (swap-remove on delete), so a
        #: seeded draw maps to the same handle on every run
        self._live_list = list(range(len(base)))
        self._live_pos = {h: i for i, h in enumerate(self._live_list)}
        self.inserted: List[int] = []

    # -- recording ------------------------------------------------------

    def insert(self, handle: int, vector: np.ndarray, t: int) -> None:
        handle = int(handle)
        # Handles are dense and never reused, so the next one is known.
        expected = self._size + len(self._pending)
        if handle != expected:
            raise CheckError(
                f"insert acknowledged handle {handle}, expected the next "
                f"free handle {expected}"
            )
        self._pending.append((handle, np.asarray(vector, dtype=np.float64), int(t)))
        self._live.add(handle)
        self._live_pos[handle] = len(self._live_list)
        self._live_list.append(handle)
        self.inserted.append(handle)

    def delete(self, handle: int, t: int) -> None:
        handle = int(handle)
        if handle not in self._live:
            raise CheckError(f"delete of a handle that is not live: {handle}")
        self._live.discard(handle)
        pos = self._live_pos.pop(handle)
        last = self._live_list.pop()
        if last != handle:
            self._live_list[pos] = last
            self._live_pos[last] = pos
        self._death_updates.append((handle, int(t)))

    def pick_live(self, draw: float) -> int:
        """The live handle a uniform ``draw`` in [0, 1) selects."""
        return self._live_list[int(draw * len(self._live_list))]

    # -- queries --------------------------------------------------------

    def _flush(self) -> None:
        if self._pending:
            self._vectors.append(np.stack([v for _, v, _ in self._pending]))
            self._births.append(np.array([t for _, _, t in self._pending], dtype=np.int64))
            self._deaths.append(np.full(len(self._pending), _NEVER, dtype=np.int64))
            self._size += len(self._pending)
            self._pending = []
            self._vectors = [np.concatenate(self._vectors)]
            self._births = [np.concatenate(self._births)]
            self._deaths = [np.concatenate(self._deaths)]
        if self._death_updates:
            for handle, t in self._death_updates:
                self._deaths[0][handle] = t
            self._death_updates = []

    @property
    def vectors(self) -> np.ndarray:
        self._flush()
        return self._vectors[0]

    def live_mask(self, t: int) -> np.ndarray:
        self._flush()
        return (self._births[0] < t) & (self._deaths[0] > t)

    def is_live(self, handle: int, t: int) -> bool:
        self._flush()
        return (
            0 <= handle < self._size
            and self._births[0][handle] < t < self._deaths[0][handle]
        )

    @property
    def live_count(self) -> int:
        return len(self._live)

    def live_inserted(self) -> List[int]:
        return [h for h in self.inserted if h in self._live]


def exact_knn(
    vectors: np.ndarray,
    queries: np.ndarray,
    k: int,
    masks: Optional[np.ndarray] = None,
    chunk: int = 256,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact Euclidean k-NN, ties broken by the lower id.

    ``masks`` (one boolean row per query) restricts each query to a live
    set.  Candidates come from the expanded ``|x|^2 - 2 x.q`` form, then
    the best ``4k`` are re-ranked by direct differences, so the result
    does not depend on the expansion's rounding.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    sq = np.einsum("ij,ij->i", vectors, vectors)
    wide = min(len(vectors), 4 * k)
    ids = np.empty((len(queries), k), dtype=np.int64)
    dists = np.empty((len(queries), k))
    for start in range(0, len(queries), chunk):
        block = queries[start : start + chunk]
        d2 = sq[None, :] - 2.0 * (block @ vectors.T)
        if masks is not None:
            d2 = np.where(masks[start : start + chunk], d2, np.inf)
        cand = np.argpartition(d2, wide - 1, axis=1)[:, :wide]
        for row in range(len(block)):
            c = cand[row]
            if masks is not None:
                c = c[masks[start + row][c]]
            exact = np.sqrt(((vectors[c] - block[row]) ** 2).sum(axis=1))
            order = np.lexsort((c, exact))[:k]
            if len(order) < k:
                raise CheckError("live set smaller than k")
            ids[start + row] = c[order]
            dists[start + row] = exact[order]
    return ids, dists


def check_answer(
    ledger: Ledger,
    t: int,
    q: np.ndarray,
    ids: Sequence[int],
    dists: Sequence[float],
    k: int,
) -> None:
    """Reject anything but k live, distinct, sorted, correctly measured ids."""
    ids = np.asarray(ids, dtype=np.int64)
    dists = np.asarray(dists, dtype=np.float64)
    if len(ids) != k or len(dists) != k:
        raise CheckError(f"short result list: {len(ids)} ids, {len(dists)} distances, want {k}")
    if len(set(ids.tolist())) != k:
        raise CheckError(f"duplicate ids in {ids.tolist()}")
    for h in ids.tolist():
        if not ledger.is_live(h, t):
            raise CheckError(f"handle {h} is not live at operation {t}")
    if np.any(np.diff(dists) < 0):
        raise CheckError(f"distances not ascending: {dists.tolist()}")
    actual = np.sqrt(((ledger.vectors[ids] - np.asarray(q, dtype=np.float64)) ** 2).sum(axis=1))
    if not np.allclose(dists, actual, rtol=RTOL, atol=ATOL):
        bad = int(np.argmax(np.abs(dists - actual)))
        raise CheckError(
            f"distance of handle {int(ids[bad])} is {dists[bad]!r}, recomputed {actual[bad]!r}"
        )


def check_fresh(handle: int, ids: Sequence[int], dists: Sequence[float]) -> None:
    """A query with a freshly inserted vector must return it at distance 0."""
    ids = list(ids)
    if handle not in ids:
        raise CheckError(f"fresh insert {handle} missing from its own query")
    if float(dists[ids.index(handle)]) > ATOL:
        raise CheckError(f"fresh insert {handle} at distance {dists[ids.index(handle)]!r}")


def check_restart(before: Iterable, after: Iterable) -> None:
    """Answers after the crash and restart must equal those before it."""
    before, after = list(before), list(after)
    if len(before) != len(after):
        raise CheckError(f"{len(before)} answers before the restart, {len(after)} after")
    for i, ((ids_b, d_b), (ids_a, d_a)) in enumerate(zip(before, after)):
        if list(ids_b) != list(ids_a) or list(d_b) != list(d_a):
            raise CheckError(f"final query {i} changed across the restart")


def check_all_present(ledger: Ledger, answers: Iterable) -> None:
    """Each live acknowledged insert, queried by its own vector after the
    restart, must come back at distance 0 (``answers`` in the order of
    :meth:`Ledger.live_inserted`)."""
    live = ledger.live_inserted()
    answers = list(answers)
    if len(answers) != len(live):
        raise CheckError(f"{len(answers)} presence answers for {len(live)} live inserts")
    for handle, (ids, dists) in zip(live, answers):
        try:
            check_fresh(handle, ids, dists)
        except CheckError as exc:
            raise CheckError(f"acknowledged insert lost across the restart: {exc}") from None


def recall_at_k(ids: np.ndarray, truth: np.ndarray) -> float:
    """Mean share of each exact k-NN set that the answer found."""
    ids = np.asarray(ids)
    truth = np.asarray(truth)
    k = truth.shape[1]
    hits = sum(len(set(a.tolist()) & set(b.tolist())) for a, b in zip(ids, truth))
    return hits / (k * len(truth))
