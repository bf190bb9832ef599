"""Serial SOM baseline with the mrsom configuration surface.

Runs :class:`repro.som.batch.BatchSOM` over the same memory-mapped matrix
file the parallel driver consumes, with identical initialisation and radius
schedule — so ``run_serial_batch_som(cfg)`` and ``mrsom_spmd(P, cfg)`` are
comparable bit-for-bit (up to floating-point summation order).
"""

from __future__ import annotations

import numpy as np

from repro.core.mrsom.driver import MrSomConfig
from repro.core.mrsom.mmap_input import MatrixFile
from repro.som.batch import accumulate_batch, batch_update
from repro.som.codebook import init_codebook
from repro.som.neighborhood import GaussianRows, radius_schedule

__all__ = ["run_serial_batch_som"]


def run_serial_batch_som(config: MrSomConfig) -> np.ndarray:
    """Train serially with exactly the parallel driver's schedule and init."""
    matrix = MatrixFile(config.matrix_path)
    grid = config.grid
    sample = matrix.rows(0, min(config.init_sample_rows, matrix.n))
    codebook = init_codebook(grid, sample, method=config.init, seed_or_rng=config.seed)
    initial = config.initial_radius
    if initial is None:
        initial = max(grid.diagonal / 2.0, config.final_radius)
    sigmas = radius_schedule(initial, config.final_radius, config.epochs)
    for sigma in sigmas:
        kernel = GaussianRows(grid, float(sigma))
        num, denom = None, None
        # Walk the same work units the parallel driver would, in order.
        for start, stop in matrix.work_units(config.block_rows):
            num, denom = accumulate_batch(matrix.rows(start, stop), codebook, kernel, num, denom)
        codebook = batch_update(codebook, num, denom)
    return codebook
