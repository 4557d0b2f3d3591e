"""Counter-based random streams.

All sampling in the package goes through keyed Philox streams so that a
(seed, stream) pair pins the draws exactly, independently of how work is
partitioned across workers.  Path ensembles are generated in fixed-size
blocks; block b of seed s always uses the stream keyed by (s, b), so the
assembled arrays are bitwise identical for any worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

BLOCK_SIZE = 8192


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Generator for the (seed, stream_id) Philox stream."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64(stream_id & 0xFFFFFFFFFFFFFFFF)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def blocked_normals(seed: int, n_rows: int, shape_per_row: tuple[int, ...],
                    workers: int = 1) -> np.ndarray:
    """Standard normals of shape (n_rows, *shape_per_row), generated blockwise.

    Row block b comes from stream (seed, b + 1), so the output does not
    depend on `workers`; threads only fill disjoint slices.
    """
    out = np.empty((n_rows,) + shape_per_row)
    n_blocks = (n_rows + BLOCK_SIZE - 1) // BLOCK_SIZE

    def fill(b):
        lo = b * BLOCK_SIZE
        hi = min(lo + BLOCK_SIZE, n_rows)
        out[lo:hi] = stream(seed, b + 1).standard_normal((hi - lo,) + shape_per_row)

    if workers > 1 and n_blocks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(n_blocks)))
    else:
        for b in range(n_blocks):
            fill(b)
    return out
