"""Seeded inputs shared by every workload.

Everything the program sees is generated here from ``--seed``; the
program only ever receives the resulting vectors.

Make-up: points lie near a 12-dimensional clustered manifold embedded
in d=128 (64 Gaussian clusters in the latent space, mapped through a
random orthonormal 12x128 basis, plus small isotropic noise in all 128
dimensions).  Real descriptor sets have low intrinsic dimension, so a
point's near neighbours are clearly nearer than the bulk of the data
(mean 10-NN distance about 90 against about 500 between random pairs),
which is where an LSH index is run in practice.  Queries are fresh
draws from the same distribution, never points of the data set.
"""

from __future__ import annotations

import numpy as np

from checker import exact_knn

#: sizes shared by every workload (README "Inputs")
N_BASE = 20_000
DIM = 128
LATENT_DIM = 12
CLUSTERS = 64
K = 10
#: hash-string length of the index
M = 64
#: candidate budget stored in the bundle's ``query_kwargs``
NUM_CANDIDATES = 300
#: write-mix LSM shape: two seals per cycle, the second one compacts
MEMTABLE_SIZE = 100
MAX_SEGMENTS = 2
#: queries whose exact 10-NN set the bucket width (as ``repro build`` does)
W_CALIBRATION_QUERIES = 200

# Stream ids: each input stream draws from its own generator so that
# consuming more of one never shifts another.
_MANIFOLD, _BASE, _CALIB, _LONE, _POOL, _WARM, _WRITE, _FINAL = range(8)


class Inputs:
    """All seeded inputs for one ``--seed``."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        rng = self._rng(_MANIFOLD)
        self._basis = np.linalg.qr(rng.standard_normal((DIM, LATENT_DIM)))[0].T
        self._centers = rng.standard_normal((CLUSTERS, LATENT_DIM)) * 10.0
        self.base = self._draw(self._rng(_BASE), N_BASE)

    def _rng(self, *stream) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])

    def _draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        cluster = rng.integers(0, CLUSTERS, count)
        latent = self._centers[cluster] + rng.standard_normal((count, LATENT_DIM)) * 3.0
        return latent @ self._basis * 10.0 + rng.standard_normal((count, DIM)) * 0.5

    def calibration_queries(self) -> np.ndarray:
        return self._draw(self._rng(_CALIB), W_CALIBRATION_QUERIES)

    def lone_block(self, block: int, size: int) -> np.ndarray:
        """Block ``block`` of the never-repeating lone-reader stream."""
        return self._draw(self._rng(_LONE, block), size)

    def pool(self, size: int) -> np.ndarray:
        """The pipelined-reader's pool of distinct queries."""
        return self._draw(self._rng(_POOL), size)

    def warmup(self, size: int) -> np.ndarray:
        """Queries sent before the measured phase (never measured)."""
        return self._draw(self._rng(_WARM), size)

    def write_cycle(self, cycle: int, steps: int):
        """(insert vectors, regular queries, delete draws) for one cycle.

        Delete draws are uniform numbers in [0, 1); the workload maps
        each to a live handle through its own ledger at run time, so a
        delete always names a handle whose insert was acknowledged.
        """
        rng = self._rng(_WRITE, cycle)
        inserts = self._draw(rng, steps)
        queries = self._draw(rng, steps)
        draws = rng.random(steps)
        return inserts, queries, draws

    def final_queries(self, size: int) -> np.ndarray:
        """Queries asked before and after the write-mix crash."""
        return self._draw(self._rng(_FINAL), size)


def bucket_width(base: np.ndarray, calibration: np.ndarray, k: int = K) -> float:
    """``2 x mean exact k-NN distance``, the rule ``repro build`` applies."""
    _, dists = exact_knn(base, calibration, k)
    return 2.0 * float(np.mean(dists))
