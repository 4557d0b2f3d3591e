"""Counter-based random streams.

Keyed Philox streams pin the solvers' draws, the W paths
(grids.sample_backward_path), forward ensembles and the regression's phantom
step (blocked_normals): a (seed, stream) pair fixes them for any worker count.
The sampled checks (generators._node_draws, doss.derivative_identity_report)
and the comparison and conjugate-order suites use np.random.default_rng(seed).
Ensembles come in fixed-size blocks; block b of seed s always uses the stream
keyed by (s, b + 1), so the assembled arrays are bitwise identical.
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


def for_blocks(seed: int, n_rows: int, shape_per_row: tuple[int, ...], fn, workers: int = 1):
    """Call fn(lo, hi, block) with each row block lo:hi of seed's standard normals.

    Block b, rows from b * BLOCK_SIZE, comes from stream (seed, b + 1), whatever
    `workers` is; above 1 the calls run on threads and must write disjoint data.
    """
    def call(lo):
        hi = min(lo + BLOCK_SIZE, n_rows)
        fn(lo, hi, stream(seed, lo // BLOCK_SIZE + 1).standard_normal((hi - lo,) + shape_per_row))

    starts = range(0, n_rows, BLOCK_SIZE)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(call, starts))
    else:
        for lo in starts:
            call(lo)


def blocked_normals(seed: int, n_rows: int, shape_per_row: tuple[int, ...],
                    workers: int = 1) -> np.ndarray:
    """Standard normals of shape (n_rows, *shape_per_row): the blocks of `for_blocks`."""
    out = np.empty((n_rows,) + shape_per_row)
    for_blocks(seed, n_rows, shape_per_row, lambda lo, hi, z: np.copyto(out[lo:hi], z), workers)
    return out
