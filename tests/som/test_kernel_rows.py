"""Neighbourhood rows on demand: ``SOMGrid.sq_distances_from`` and
``GaussianRows`` reproduce the dense (K, K) matrices row for row, bit for
bit, and ``accumulate_batch`` gives the same sums from either."""

import numpy as np
import pytest

from repro.som import GaussianRows, SOMGrid, accumulate_batch, gaussian_kernel

GRIDS = [SOMGrid(7, 9), SOMGrid(6, 5, topology="hex"), SOMGrid(5, 8, periodic=True)]
GRID_IDS = ["rect", "hex", "periodic"]


def _unit_arrays(k):
    rng = np.random.default_rng(11)
    return [
        np.arange(k),
        rng.permutation(k)[: k // 2],  # unsorted
        np.array([3, 3, 0, k - 1, 3, 0]),  # repeated
        np.array([k - 1]),
        np.array([], dtype=np.int64),
    ]


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_sq_distances_from_matches_dense_rows(grid):
    dense = grid.grid_sq_distances()
    assert dense.shape == (grid.n_units, grid.n_units)
    for units in _unit_arrays(grid.n_units):
        rows = grid.sq_distances_from(units)
        assert rows.shape == (units.size, grid.n_units)
        assert np.array_equal(rows, dense[units])


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("sigma", [0.7, 2.5, 11.0])
def test_gaussian_rows_bit_identical_to_dense_kernel(grid, sigma):
    dense = gaussian_kernel(grid.grid_sq_distances(), sigma)
    provider = GaussianRows(grid, sigma)
    assert provider.shape == dense.shape
    for units in _unit_arrays(grid.n_units):
        assert np.array_equal(provider[units], dense[units])


def test_sq_distances_from_rejects_units_outside_grid():
    grid = SOMGrid(3, 3)
    with pytest.raises(IndexError):
        grid.sq_distances_from([9])
    with pytest.raises(IndexError):
        grid.sq_distances_from([-1])


def test_gaussian_rows_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        GaussianRows(SOMGrid(3, 3), 0.0)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_accumulate_with_provider_matches_dense_kernel(grid):
    rng = np.random.default_rng(5)
    codebook = rng.random((grid.n_units, 6))
    data = rng.random((53, 6))
    sigma = 1.8
    num_d, den_d = accumulate_batch(data, codebook, gaussian_kernel(grid.grid_sq_distances(), sigma))
    num_p, den_p = accumulate_batch(data, codebook, GaussianRows(grid, sigma))
    np.testing.assert_allclose(num_p, num_d, rtol=0, atol=1e-12)
    np.testing.assert_allclose(den_p, den_d, rtol=0, atol=1e-12)


def test_accumulate_matches_per_input_definition():
    """Eq. 5 straight from the definition: Σ_x h[b(x)] ⊗ x and Σ_x h[b(x)]."""
    grid = SOMGrid(4, 5)
    rng = np.random.default_rng(8)
    codebook = rng.random((grid.n_units, 3))
    data = rng.random((30, 3))
    kernel = gaussian_kernel(grid.grid_sq_distances(), 1.3)
    bmus = np.argmin(((data[:, None, :] - codebook[None]) ** 2).sum(axis=2), axis=1)
    num, den = accumulate_batch(data, codebook, GaussianRows(grid, 1.3))
    np.testing.assert_allclose(num, kernel[bmus].T @ data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(den, kernel[bmus].sum(axis=0), rtol=0, atol=1e-12)


def test_accumulate_empty_block_returns_zero_accumulators():
    grid = SOMGrid(3, 4)
    codebook = np.random.default_rng(2).random((12, 5))
    num, den = accumulate_batch(np.zeros((0, 5)), codebook, GaussianRows(grid, 1.0))
    assert num.shape == (12, 5) and den.shape == (12,)
    assert not num.any() and not den.any()


def test_accumulate_rejects_provider_of_wrong_shape():
    codebook = np.zeros((12, 5))
    with pytest.raises(ValueError):
        accumulate_batch(np.ones((2, 5)), codebook, GaussianRows(SOMGrid(3, 3), 1.0))
