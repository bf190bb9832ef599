"""Online (sequential) SOM training — the paper's Eqs. 1-3 baseline.

One input vector at a time: find the BMU, pull it and its neighbourhood
toward the input with a decaying learning rate.  Unlike batch training the
result *depends on presentation order* (paper §II.D) — a property the test
suite verifies as the contrast to the batch trainer's order independence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.som.codebook import SOMGrid, init_codebook
from repro.som.neighborhood import radius_schedule
from repro.util.rng import as_rng

__all__ = ["OnlineSOM"]


@dataclass
class OnlineSOM:
    """Kohonen's original training rule.

    ``alpha`` decays linearly from ``alpha0`` to ``alpha_final`` over all
    presented samples; σ follows the same schedule as the batch trainer.
    """

    grid: SOMGrid
    dim: int
    alpha0: float = 0.5
    alpha_final: float = 0.01
    init: str = "linear"
    seed: int = 0
    initial_radius: float | None = None
    final_radius: float = 1.0
    shuffle: bool = False
    codebook: np.ndarray | None = None

    def __post_init__(self) -> None:
        if not (0 < self.alpha0 <= 1):
            raise ValueError(f"alpha0 must be in (0, 1], got {self.alpha0}")
        if not (0 < self.alpha_final <= self.alpha0):
            raise ValueError("alpha_final must be in (0, alpha0]")

    def train(self, data: np.ndarray, epochs: int = 10) -> np.ndarray:
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[1] != self.dim:
            raise ValueError(f"data must be (N, {self.dim}), got {data.shape}")
        if self.codebook is None:
            self.codebook = init_codebook(self.grid, data, method=self.init,
                                          seed_or_rng=self.seed)
        codebook = self.codebook
        initial = self.initial_radius
        if initial is None:
            initial = max(self.grid.diagonal / 2.0, self.final_radius)
        sigmas = radius_schedule(initial, self.final_radius, epochs)
        n = data.shape[0]
        total = epochs * n
        alphas = np.linspace(self.alpha0, self.alpha_final, max(total, 1))
        rng = as_rng(self.seed) if self.shuffle else None
        step = 0
        for epoch in range(epochs):
            sigma = float(sigmas[epoch])
            order = rng.permutation(n) if rng is not None else np.arange(n)
            for i in order:
                x = data[i]
                d2 = ((codebook - x) ** 2).sum(axis=1)
                bmu = int(np.argmin(d2))
                h = np.exp(-self.grid.sq_distances_from([bmu])[0] / (sigma * sigma))
                codebook += alphas[step] * h[:, None] * (x - codebook)
                step += 1
        self.codebook = codebook
        return codebook
