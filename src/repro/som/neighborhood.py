"""Neighbourhood kernels and the radius schedule (paper Eq. 4).

The Gaussian kernel h_ci(t) = exp(−‖r_c − r_i‖² / σ(t)²) couples each
neuron to the BMU; σ(t) "monotonically decreases as iteration goes from a
value no less than half of the largest diagonal of the map to a value equal
to the width of a single cell".

:class:`GaussianRows` serves the rows of the (K, K) Gaussian kernel on
demand, so batch training never materialises the matrix: an epoch only
needs the rows of the units that are some input's BMU.
"""

from __future__ import annotations

import numpy as np

from repro.som.codebook import SOMGrid

__all__ = ["gaussian_kernel", "bubble_kernel", "GaussianRows", "radius_schedule"]


def gaussian_kernel(grid_sq_dists: np.ndarray, sigma: float) -> np.ndarray:
    """exp(−d² / σ²) for an array of squared grid distances."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return np.exp(-grid_sq_dists / (sigma * sigma))


def bubble_kernel(grid_sq_dists: np.ndarray, sigma: float) -> np.ndarray:
    """1 inside radius σ, 0 outside (the cheap classic alternative)."""
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    return (grid_sq_dists <= sigma * sigma).astype(np.float64)


class GaussianRows:
    """The (K, K) Gaussian kernel of ``grid`` at radius σ, row by row.

    ``rows[units]`` is ``gaussian_kernel(grid.grid_sq_distances(), σ)[units]``
    bit for bit, computed from only those rows' distances, so anything that
    indexes a dense kernel by unit (``accumulate_batch``) accepts either.
    """

    def __init__(self, grid: SOMGrid, sigma: float) -> None:
        if sigma <= 0:
            raise ValueError(f"sigma must be positive, got {sigma}")
        self.grid = grid
        self.sigma = float(sigma)
        self.shape = (grid.n_units, grid.n_units)

    def __getitem__(self, units) -> np.ndarray:
        return gaussian_kernel(self.grid.sq_distances_from(units), self.sigma)


def radius_schedule(initial: float, final: float, epochs: int) -> np.ndarray:
    """Linearly decreasing σ per epoch, from ``initial`` down to ``final``.

    ``initial`` defaults in the trainers to half the grid diagonal and
    ``final`` to 1.0 (one cell width), per the paper's description.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if initial < final:
        raise ValueError(f"initial radius {initial} must be >= final {final}")
    if final <= 0:
        raise ValueError(f"final radius must be positive, got {final}")
    if epochs == 1:
        return np.array([initial], dtype=np.float64)
    return np.linspace(initial, final, epochs)
