"""Frozen reference for ``repro.codec.modules.block_match``.

The library's block matcher searches one block row at a time and
emulates NumPy's summation order.  Exactness tests compare it with this
copy of the original whole-plane scan: one pass per (dy, dx) candidate,
the block SAD from ``reshape(nby, bs, nbx, bs).sum(axis=(1, 3))``, and
a strict ``<`` keeping the first least cost in scan order.
"""

import numpy as np


def legacy_block_match(
    current: np.ndarray,
    reference: np.ndarray,
    block_size: int = 8,
    search_range: int = 4,
) -> np.ndarray:
    """Integer motion vectors (2, nby, nbx) by the whole-plane scan."""
    h, w = current.shape
    nby, nbx = h // block_size, w // block_size
    if nby == 0 or nbx == 0:
        raise ValueError(f"plane {h}x{w} smaller than block size {block_size}")
    hc, wc = nby * block_size, nbx * block_size
    cur = current[:hc, :wc]
    padded_ref = np.pad(reference, search_range, mode="edge")

    best_sad = np.full((nby, nbx), np.inf)
    best_mv = np.zeros((2, nby, nbx), dtype=np.int64)
    for dy in range(-search_range, search_range + 1):
        for dx in range(-search_range, search_range + 1):
            shifted = padded_ref[
                search_range + dy : search_range + dy + hc,
                search_range + dx : search_range + dx + wc,
            ]
            diff = np.abs(cur - shifted)
            sad = diff.reshape(nby, block_size, nbx, block_size).sum(axis=(1, 3))
            # Slight zero-motion bias stabilizes flat regions.
            cost = sad + 0.01 * (abs(dy) + abs(dx)) * block_size
            better = cost < best_sad
            best_sad = np.where(better, cost, best_sad)
            best_mv[0] = np.where(better, dy, best_mv[0])
            best_mv[1] = np.where(better, dx, best_mv[1])
    return best_mv
