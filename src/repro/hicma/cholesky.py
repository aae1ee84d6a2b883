"""TLR and dense tiled Cholesky factorizations (the numerical HiCMA).

Right-looking tile Cholesky.  For the TLR variant with band 1, the paper's
configuration, the update kernels operate directly on the low-rank format
(``trsm_lr``/``syrk_lr``/``gemm_lr``).  Factorization happens in place; the
input container holds L afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import HicmaError
from repro.hicma.kernels import (
    gemm_dense,
    potrf,
    syrk_dense,
    trsm_dense,
)
from repro.hicma.lowrank import LowRankTile
from repro.hicma.tlr import TLRMatrix

__all__ = ["tlr_cholesky", "dense_tiled_cholesky", "CholeskyStats"]


@dataclass
class CholeskyStats:
    """Counters from one factorization (kernel counts mirror the DAG)."""

    potrf: int = 0
    trsm: int = 0
    syrk: int = 0
    gemm: int = 0
    final_ranks: list = field(default_factory=list)

    @property
    def total_tasks(self) -> int:
        """Total kernel invocations."""
        return self.potrf + self.trsm + self.syrk + self.gemm


def tlr_cholesky(
    a: TLRMatrix, tol: float, maxrank: Optional[int] = None
) -> CholeskyStats:
    """Factorize a TLR matrix in place: A = L·Lᵀ (lower tiles become L).

    Supports any band size: tiles with ``|i − j| < band`` are dense and the
    update kernels dispatch on the dense/low-rank combination
    (:func:`~repro.hicma.kernels.gemm_mixed` et al.).
    """
    from repro.hicma.kernels import gemm_mixed, syrk_mixed, trsm_mixed

    nt = a.nt
    stats = CholeskyStats()
    for k in range(nt):
        l_kk = potrf(a.tile(k, k))
        a.set_tile(k, k, l_kk)
        stats.potrf += 1
        for i in range(k + 1, nt):
            a.set_tile(i, k, trsm_mixed(l_kk, a.tile(i, k)))
            stats.trsm += 1
        for i in range(k + 1, nt):
            a_ik = a.tile(i, k)
            a.set_tile(i, i, syrk_mixed(a.tile(i, i), a_ik))
            stats.syrk += 1
            for j in range(k + 1, i):
                a.set_tile(
                    i, j,
                    gemm_mixed(a.tile(i, j), a_ik, a.tile(j, k), tol, maxrank),
                )
                stats.gemm += 1
    for (i, j), tile in a._tiles.items():
        if isinstance(tile, LowRankTile):
            stats.final_ranks.append(tile.rank)
    return stats


def dense_tiled_cholesky(a: np.ndarray, tile_size: int) -> tuple[np.ndarray, CholeskyStats]:
    """The DPLASMA substrate: dense tile Cholesky; returns (L, stats)."""
    n = a.shape[0]
    if a.shape != (n, n):
        raise HicmaError("dense_tiled_cholesky expects a square matrix")
    if n % tile_size != 0:
        raise HicmaError("matrix size must be a multiple of the tile size")
    nt = n // tile_size
    b = tile_size
    l = a.copy()  # diagonal tiles stay symmetric through the updates
    stats = CholeskyStats()

    def blk(i, j):
        return l[i * b : (i + 1) * b, j * b : (j + 1) * b]

    def setblk(i, j, val):
        l[i * b : (i + 1) * b, j * b : (j + 1) * b] = val

    for k in range(nt):
        setblk(k, k, potrf(blk(k, k)))
        stats.potrf += 1
        for i in range(k + 1, nt):
            setblk(i, k, trsm_dense(blk(k, k), blk(i, k)))
            stats.trsm += 1
        for i in range(k + 1, nt):
            setblk(i, i, syrk_dense(blk(i, i), blk(i, k)))
            stats.syrk += 1
            for j in range(k + 1, i):
                setblk(i, j, gemm_dense(blk(i, j), blk(i, k), blk(j, k)))
                stats.gemm += 1
    # Only the lower triangle is meaningful; zero the rest.
    return np.tril(l), stats
