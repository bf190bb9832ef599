"""Batch SOM training (paper Eq. 5).

Per epoch, with BMU assignments b(x) frozen at the epoch-start codebook::

    w_i(end) = Σ_x h_{b(x),i} · x   /   Σ_x h_{b(x),i}

Both sums decompose over any partition of the inputs, which is exactly the
property the paper's MapReduce-MPI SOM exploits: each map() call accumulates
the numerator and denominator over its block of input vectors, and a single
``MPI_Reduce`` adds the partial sums (Fig. 2).  :func:`accumulate_batch` is
that per-block kernel; the serial trainer and the parallel driver both call
it, so parallel and serial training are the same arithmetic.

A block of B inputs hits at most B distinct BMUs, so only those B rows of
the (K, K) neighbourhood matrix h contribute to its sums.  The trainers pass
a :class:`~repro.som.neighborhood.GaussianRows` provider that computes just
those rows: a block costs its BMU search plus an O(B·K·d) product, and no
rank ever holds a (K, K) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.som.bmu import best_matching_units
from repro.som.codebook import SOMGrid, init_codebook
from repro.som.neighborhood import GaussianRows, radius_schedule
from repro.som.quality import quantization_error

__all__ = ["accumulate_batch", "batch_update", "BatchSOM"]


def accumulate_batch(
    data: np.ndarray,
    codebook: np.ndarray,
    kernel,
    num: np.ndarray | None = None,
    denom: np.ndarray | None = None,
    chunk: int = 2048,
) -> tuple[np.ndarray, np.ndarray]:
    """Accumulate Eq. 5 numerator/denominator contributions of one block.

    ``kernel`` is the neighbourhood h[c, i] for the current radius: any
    object with ``.shape == (K, K)`` whose ``kernel[units]`` returns those
    rows — a :class:`~repro.som.neighborhood.GaussianRows` provider or a
    dense ndarray.  Only the rows of the block's BMUs are read, so a block
    of B inputs costs O(B·K·d) time and O(K·d) memory beyond its BMU
    search.  Pass existing ``num`` (K, dim) and ``denom`` (K,) arrays to
    accumulate in place (the mapper's running accumulators); fresh zeroed
    arrays are created otherwise.
    """
    data = np.asarray(data, dtype=np.float64)
    k, dim = codebook.shape
    if kernel.shape != (k, k):
        raise ValueError(f"kernel shape {kernel.shape} != ({k}, {k})")
    if num is None:
        num = np.zeros((k, dim))
    if denom is None:
        denom = np.zeros(k)
    if data.shape[0] == 0:
        return num, denom
    bmus = best_matching_units(data, codebook, chunk=chunk)
    # For each touched unit c with inputs X_c:
    #   num += Σ_c h[c]ᵀ ⊗ sum(X_c);  denom += Σ_c h[c]ᵀ·|X_c|
    units, inv = np.unique(bmus, return_inverse=True)
    counts = np.bincount(inv, minlength=units.size).astype(np.float64)
    sums = np.zeros((units.size, dim))
    np.add.at(sums, inv, data)
    rows = kernel[units]
    num += rows.T @ sums
    denom += rows.T @ counts
    return num, denom


def batch_update(
    codebook: np.ndarray, num: np.ndarray, denom: np.ndarray
) -> np.ndarray:
    """Apply Eq. 5: new weights = num/denom; units nobody touched keep
    their old weights (standard batch-SOM convention for empty units)."""
    new = codebook.copy()
    alive = denom > 0
    new[alive] = num[alive] / denom[alive, None]
    return new


@dataclass
class BatchSOM:
    """Serial batch-SOM trainer — also the arithmetic reference for mrsom.

    Parameters mirror the paper's setup: a 2-D grid, Gaussian neighbourhood,
    radius shrinking linearly from half the grid diagonal to one cell.
    """

    grid: SOMGrid
    dim: int
    init: str = "linear"
    seed: int = 0
    initial_radius: float | None = None
    final_radius: float = 1.0
    codebook: np.ndarray | None = None
    #: per-epoch quantization error, appended during train()
    history: list[float] = field(default_factory=list)

    def _ensure_codebook(self, data: np.ndarray) -> np.ndarray:
        if self.codebook is None:
            self.codebook = init_codebook(self.grid, data, method=self.init,
                                          seed_or_rng=self.seed)
        return self.codebook

    def radii(self, epochs: int) -> np.ndarray:
        initial = self.initial_radius
        if initial is None:
            initial = max(self.grid.diagonal / 2.0, self.final_radius)
        return radius_schedule(initial, self.final_radius, epochs)

    def train(self, data: np.ndarray, epochs: int = 10, track_error: bool = False
              ) -> np.ndarray:
        """Run ``epochs`` batch epochs; returns the trained codebook."""
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.dim:
            raise ValueError(f"data must be (N, {self.dim}), got {data.shape}")
        codebook = self._ensure_codebook(data)
        for sigma in self.radii(epochs):
            kernel = GaussianRows(self.grid, float(sigma))
            num, denom = accumulate_batch(data, codebook, kernel)
            codebook = batch_update(codebook, num, denom)
            if track_error:
                self.history.append(quantization_error(data, codebook))
        self.codebook = codebook
        return codebook
