"""Batch SOM at the paper's Fig. 6 shape: a 50x50 map of 256-d vectors in
40-row work units.

Training reads only the neighbourhood rows of each block's BMUs, so no
rank holds a (K, K) matrix: the serial trainer's peak allocation stays
below one K x K float64 matrix, and the two-rank process-backend job
matches it within the parity tolerance.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.core import MrSomConfig, mrsom_spmd
from repro.core.baselines.serial_som import run_serial_batch_som
from repro.core.mrsom.mmap_input import write_matrix_file
from repro.som.codebook import SOMGrid

GRID = SOMGrid(50, 50)
DIM = 256
BLOCK_ROWS = 40


@pytest.fixture(scope="module")
def paper_config(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("som_paper_shape")
    data = np.random.default_rng(61).random((6 * BLOCK_ROWS, DIM))
    path = write_matrix_file(tmp / "vectors.mat", data)
    return MrSomConfig(matrix_path=str(path), grid=GRID, epochs=3,
                       block_rows=BLOCK_ROWS)


def test_serial_training_peak_below_one_kxk_matrix(paper_config):
    k = GRID.n_units
    kxk_bytes = k * k * 8  # 50 MB
    tracemalloc.start()
    try:
        run_serial_batch_som(paper_config)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < kxk_bytes, f"peak {peak / 1e6:.1f} MB >= one K x K matrix"


def test_process_backend_matches_serial(paper_config):
    serial = run_serial_batch_som(paper_config)
    results = mrsom_spmd(2, dataclasses.replace(paper_config, backend="process"))
    for r in results[1:]:
        assert np.array_equal(r.codebook, results[0].codebook)
    np.testing.assert_allclose(results[0].codebook, serial, rtol=0, atol=1e-9)
