"""Outside-in probes for layers no end-to-end run isolates.

- ``lookup``: build a ``ProteinLookup`` over one ``blastp-batch`` query
  block, first in a fresh interpreter (the process-wide BLOSUM
  neighbourhood table is built on this call) and then again warm.  The
  two split ``blast.seed_s`` into the one-off table build and the rest.
- ``som_block``: time ``best_matching_units`` and ``accumulate_batch`` on
  one 40-row block against the 50x50x256 codebook; the flop counts are
  computed from the shapes.
- ``pingpong``: fit ``t = alpha + n / beta`` to half round trips over
  ``Comm.Send``/``Recv`` between two process-backend ranks with the shared
  arena, and price the per-batch fixed cost ``advise_batch_size`` assumes
  (``collectives_per_batch x alpha x nprocs``) with the fitted alpha.

Each probe must run in a worker interpreter that has built nothing yet, so
``lookup`` runs first.
"""

from __future__ import annotations

import inspect
import statistics
import time

import numpy as np

from workloads import NPROCS, SOM, blastp_inputs, blastp_options

PINGPONG_SIZES = (1024, 16 * 1024, 128 * 1024, 1024 * 1024, 4 * 1024 * 1024)
PINGPONG_REPS = 15
WARM_REPEATS = 5
BLOCK_REPEATS = 7


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def lookup(seed):
    from repro.blast.lookup import ProteinLookup, QueryBlock

    opts = blastp_options()
    block = blastp_inputs(seed)[0][0]

    def build():
        qb = QueryBlock(block, "blastp", use_mask=opts.seg)
        ProteinLookup(qb, word_size=opts.word_size, threshold=opts.neighbor_threshold)

    cold = _timed(build)
    warm = statistics.median(_timed(build) for _ in range(WARM_REPEATS))
    return {"blast.lookup_build_cold_ms": cold * 1e3,
            "blast.lookup_build_warm_ms": warm * 1e3}


def som_block(seed):
    from repro.som.batch import accumulate_batch
    from repro.som.bmu import best_matching_units
    from repro.som.codebook import SOMGrid
    from repro.som.neighborhood import gaussian_kernel

    grid = SOMGrid(*SOM["grid"])
    k, d, b = grid.n_units, SOM["dim"], SOM["block_rows"]
    rng = np.random.default_rng(seed)
    codebook = rng.random((k, d))
    block = rng.random((b, d))
    kernel = gaussian_kernel(grid.grid_sq_distances(), grid.diagonal / 4.0)
    num, denom = np.zeros((k, d)), np.zeros(k)
    best_matching_units(block, codebook)  # first-call BLAS set-up, untimed
    bmu = statistics.median(_timed(lambda: best_matching_units(block, codebook))
                            for _ in range(BLOCK_REPEATS))
    acc = statistics.median(
        _timed(lambda: accumulate_batch(block, codebook, kernel, num, denom))
        for _ in range(BLOCK_REPEATS))
    return {"som.bmu_block_ms": bmu * 1e3,
            "som.accumulate_block_ms": acc * 1e3,
            "som.bmu_flop_per_block": 2 * b * k * d,
            "som.kernel_flop_per_block": 2 * k * k * d}


def _pingpong(comm, sizes, reps):
    """Best half round trip per size on rank 0 (same protocol both ways)."""
    halves = []
    for n in sizes:
        buf = np.zeros(n, dtype=np.uint8)
        echo = np.empty_like(buf)
        best = float("inf")
        for _ in range(reps):
            comm.barrier()
            if comm.rank == 0:
                t0 = time.perf_counter()
                comm.Send(buf, dest=1)
                comm.Recv(echo, source=1)
                best = min(best, (time.perf_counter() - t0) / 2.0)
            else:
                comm.Recv(echo, source=0)
                comm.Send(buf, dest=0)
        halves.append(best)
    return halves if comm.rank == 0 else None


def pingpong(per_query_s=0.0):
    from repro.mpi.runtime import run_spmd
    from repro.serve import advise_batch_size

    halves = run_spmd(NPROCS, _pingpong, PINGPONG_SIZES, PINGPONG_REPS,
                      backend="process")[0]
    collectives = inspect.signature(advise_batch_size).parameters[
        "collectives_per_batch"].default
    slope, alpha = np.polyfit(np.array(PINGPONG_SIZES, dtype=float),
                              np.array(halves), 1)
    model = {"alpha_s": float(alpha), "bandwidth_bytes_s": 1.0 / slope}
    out = {"mpi.alpha_us": alpha * 1e6,
           "mpi.beta_gibs": model["bandwidth_bytes_s"] / 2**30,
           "mpi.advise_fixed_ms": collectives * alpha * NPROCS * 1e3,
           "serve.advised_batch": 0}
    if per_query_s > 0:
        out["serve.advised_batch"] = advise_batch_size(model, NPROCS, per_query_s)
    return out


def run_all(seed, per_query_s=0.0):
    out = lookup(seed)
    out.update(som_block(seed))
    out.update(pingpong(per_query_s))
    return out
