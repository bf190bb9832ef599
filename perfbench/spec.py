"""What the benchmark reports: workloads, metrics, and what each should move.

``BENCHMARK.json`` lists the same names in the same order; ``run.py``
refuses to run when the two disagree.  For every per-layer metric,
``PER_LAYER`` records which end-to-end metric on which workload a change in
that layer should move — the prediction a performance change states before
it is measured.
"""

import math


def nearest_rank(values, q):
    """Nearest-rank percentile; a missing result (inf) counts as a miss."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)] if ordered else 0.0


WORKLOADS = {
    "blastp-batch": "Fig. 5 analogue: one 2-rank mrblast_spmd protein job; "
                    "the engine does nearly all the work, MR shuffle and "
                    "transport almost none.",
    "som-train": "Fig. 6 analogue: mrsom_spmd, 50x50 map, 256-d vectors, "
                 "40-row units; no BLAST work, a 5 MB codebook broadcast and "
                 "reduce per epoch.",
    "blastn-serve": "Resident QueryService, five lifetimes: a burst (full "
                    "batches, engine-bound), then open-loop Poisson queries "
                    "at 5 qps (small batches, per-job fixed costs count).",
}

#: name -> (unit, better, bound).  On the batch workloads every query of a
#: job resolves when the job ends, so a query's latency is the job's wall
#: time; on blastn-serve it is the open-loop phase's scheduled-send to
#: resolve time.  ``job_s`` is the batch job, the training job, or the
#: median burst of a rep; ``throughput_per_s`` is queries/s, input vectors x epochs/s
#: or burst queries/s.  The tail is p90, the highest percentile with at
#: least ten of the open-loop phase's 113 samples beyond it.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "job_s": ("s", "lower", 0.25),
    "throughput_per_s": ("1/s", "higher", 0.25),
    "latency_p50_ms": ("ms", "lower", 0.25),
    "latency_p90_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.25),
}

_B, _S, _SV = "blastp-batch", "som-train", "blastn-serve"
_JOB = f"job_s@{_B}, throughput_per_s@{_SV}"

#: name -> (unit, better, layer module, which end-to-end metric it moves)
PER_LAYER = {
    "blast.seed_s": ("s", "lower", "repro.blast", _JOB),
    "blast.ungapped_s": ("s", "lower", "repro.blast", _JOB),
    "blast.gapped_s": ("s", "lower", "repro.blast", _JOB),
    "blast.other_s": ("s", "lower", "repro.core.mrblast", _JOB),
    "blast.units": ("count", "higher", "repro.core.mrblast", _JOB),
    "blast.hits": ("count", "higher", "repro.core.mrblast", "none (output size)"),
    "blast.lookup_cache_hits": ("count", "higher", "repro.blast", _JOB),
    "blast.fused_rounds": ("count", "lower", "repro.blast", _JOB),
    "blast.peak_slab_bytes": ("bytes", "lower", "repro.blast", f"peak_rss_mb@{_B}"),
    "blast.lookup_build_cold_ms": ("ms", "lower", "repro.blast", f"job_s@{_B}, setup_s@{_SV}"),
    "blast.lookup_build_warm_ms": ("ms", "lower", "repro.blast", _JOB),
    "mr.map_s": ("s", "lower", "repro.mrmpi", f"job_s@{_B}, job_s@{_S}"),
    "mr.aggregate_s": ("s", "lower", "repro.mrmpi", f"latency_p50_ms@{_SV}"),
    "mr.convert_s": ("s", "lower", "repro.mrmpi", f"latency_p50_ms@{_SV}"),
    "mr.reduce_s": ("s", "lower", "repro.mrmpi", f"latency_p50_ms@{_SV}"),
    "mr.gather_s": ("s", "lower", "repro.mrmpi", f"latency_p50_ms@{_SV}"),
    "mr.shuffle_pairs": ("count", "lower", "repro.mrmpi", f"latency_p50_ms@{_SV}"),
    "mr.shuffle_bytes": ("bytes", "lower", "repro.mrmpi", f"latency_p50_ms@{_SV}"),
    "mr.spill_pages": ("count", "lower", "repro.mrmpi", f"job_s@{_B}"),
    "sched.worker_util": ("ratio", "higher", "repro.mrmpi", f"job_s@{_B}"),
    "sched.master_busy_share": ("ratio", "higher", "repro.mrmpi",
                                f"job_s@{_B}, job_s@{_S}, throughput_per_s@{_SV}"),
    "sched.partition_switches": ("count", "lower", "repro.mrmpi", f"job_s@{_B}"),
    "mpi.bcast_s": ("s", "lower", "repro.mpi", f"job_s@{_S}, latency_p50_ms@{_SV}"),
    "mpi.reduce_s": ("s", "lower", "repro.mpi", f"job_s@{_S}, latency_p50_ms@{_SV}"),
    "mpi.gather_s": ("s", "lower", "repro.mpi", f"latency_p50_ms@{_SV}"),
    "mpi.alltoall_s": ("s", "lower", "repro.mpi", f"latency_p50_ms@{_SV}"),
    "mpi.barrier_s": ("s", "lower", "repro.mpi", f"latency_p50_ms@{_SV}"),
    "mpi.sends": ("count", "lower", "repro.mpi", f"latency_p50_ms@{_SV}"),
    "mpi.alpha_us": ("us", "lower", "repro.mpi", f"latency_p50_ms@{_SV}, job_s@{_S}"),
    "mpi.beta_gibs": ("GiB/s", "higher", "repro.mpi", f"job_s@{_S}"),
    "mpi.som_bytes_per_epoch": ("bytes", "lower", "repro.mpi", f"job_s@{_S} (computed)"),
    "mpi.advise_fixed_ms": ("ms", "lower", "repro.mpi", f"latency_p50_ms@{_SV} (computed)"),
    "som.busy_s": ("s", "lower", "repro.som", f"job_s@{_S}"),
    "som.bcast_s": ("s", "lower", "repro.core.mrsom", f"job_s@{_S}"),
    "som.reduce_s": ("s", "lower", "repro.core.mrsom", f"job_s@{_S}"),
    "som.units": ("count", "higher", "repro.core.mrsom", f"job_s@{_S}"),
    "som.bmu_block_ms": ("ms", "lower", "repro.som", f"job_s@{_S}"),
    "som.accumulate_block_ms": ("ms", "lower", "repro.som", f"job_s@{_S}"),
    "som.bmu_flop_per_block": ("flop", "lower", "repro.som", f"job_s@{_S} (computed)"),
    "som.kernel_flop_per_block": ("flop", "lower", "repro.som", f"job_s@{_S} (computed)"),
    "serve.batches": ("count", "lower", "repro.serve", f"throughput_per_s@{_SV}"),
    "serve.batch_size_mean": ("queries", "higher", "repro.serve", f"throughput_per_s@{_SV}"),
    "serve.queue_wait_ms_p50": ("ms", "lower", "repro.serve", f"latency_p50_ms@{_SV}"),
    "serve.job_ms_p50": ("ms", "lower", "repro.serve", f"latency_p50_ms@{_SV}"),
    "serve.job_overhead_ms_p50": ("ms", "lower", "repro.serve", f"latency_p50_ms@{_SV}"),
    "serve.engine_s_per_query": ("s", "lower", "repro.serve", f"throughput_per_s@{_SV}"),
    "serve.advised_batch": ("queries", "lower", "repro.serve", f"latency_p90_ms@{_SV}"),
    "serve.submit_us_p50": ("us", "lower", "repro.serve", f"latency_p50_ms@{_SV}"),
    "serve.pump_s": ("s", "lower", "repro.serve", f"latency_p90_ms@{_SV}"),
    "serve.rejected": ("count", "lower", "repro.serve", f"latency_p90_ms@{_SV}"),
    "serve.restarts": ("count", "lower", "repro.serve", f"latency_p90_ms@{_SV}"),
    "serve.gen_late_ms_p95": ("ms", "lower", "load generator", "none (validity check)"),
    "budget.engine_s": ("s", "lower", "engine", "job_s on every workload"),
    "budget.mrmpi_s": ("s", "lower", "repro.mrmpi", "job_s on every workload"),
    "budget.mpi_s": ("s", "lower", "repro.mpi", "job_s on every workload"),
    "budget.serve_s": ("s", "lower", "repro.serve", f"latency_p50_ms@{_SV}"),
    "budget.core_s": ("s", "lower", "repro.core", "job_s on every workload"),
    "budget.idle_s": ("s", "lower", "repro.serve", "none (spare capacity)"),
    "budget.unattributed_s": ("s", "lower", "whole run", "job_s on every workload"),
    "budget.unattributed_frac": ("ratio", "lower", "whole run", "none (coverage)"),
    "trace.overhead_frac": ("ratio", "lower", "repro.obs", "none (traced runs only)"),
}
