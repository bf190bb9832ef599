"""Per-layer metrics and the layer time budget of one traced run.

Everything here reads a finished :class:`~repro.obs.trace.TraceSession`
through ``repro.obs.report`` (``phase_durations``, ``stage_breakdown``,
``shuffle_traffic``, ``utilization_report``, ``critical_path_report``) and
the result objects the public entry points return.  The benchmark writes no
spans of its own inside the program.

The budget attributes the critical rank's time to layers by span *self*
time (a span's duration minus its child spans), keyed on the span-name
prefix of the layer that emits it.  Whatever the end-to-end wall time
measured from outside leaves over — time in the rank outside every layer
span, plus process launch and teardown outside the rank span — is the
unattributed rest.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from spec import nearest_rank

from repro.obs.report import (
    critical_path_report,
    phase_durations,
    shuffle_traffic,
    stage_breakdown,
    utilization_report,
)

LAYERS = ("engine", "mrmpi", "mpi", "serve", "core", "idle")
MR_PHASES = ("map", "aggregate", "convert", "reduce", "gather")
COLLECTIVES = ("bcast", "reduce", "gather", "alltoall", "barrier")


def layer_of(name):
    """Layer a span belongs to, by the module prefix that emits it."""
    if name.startswith("mpi."):
        return "mpi"
    if name.startswith("mr."):
        return "mrmpi"
    if name.startswith(("mrblast.unit", "blast.")):
        return "engine"
    if name.startswith("serve."):
        return "serve"
    if name.startswith(("mrblast.", "mrsom.")):
        return "core"
    return None


def walk_spans(tracer):
    """Yield ``(name, t0, t1, begin_attrs, end_attrs, self_s, parents)``.

    ``parents`` are the names of the enclosing spans, outermost first.
    """
    stack = []
    for ph, ts, _sid, name, _cat, attrs in tracer.iter_events():
        if ph == "B":
            stack.append([name, ts, attrs, 0.0])
        elif ph == "E" and stack:
            bname, t0, battrs, child = stack.pop()
            if stack:
                stack[-1][3] += ts - t0
            yield (bname, t0, ts, battrs, attrs, (ts - t0) - child,
                   tuple(entry[0] for entry in stack))


def _median(values):
    return float(statistics.median(values)) if values else 0.0


def critical_rank(session, busy_by_rank):
    """The rank that did the most engine work, else the last to finish.

    Under MASTER_WORKER dispatch rank 0 only waits for the workers, so the
    busiest worker's timeline is the job's critical path.
    """
    if any(busy_by_rank.values()):
        return max(busy_by_rank, key=busy_by_rank.get)
    crit = utilization_report(session)["straggler_rank"]
    return 0 if crit is None else crit


def budget(session, wall_s, busy_by_rank, engine_outside_spans=False,
           resident=False):
    """Attribute the critical rank's time to layers; return the budget dict.

    With ``engine_outside_spans`` the engine runs inside ``mr.map`` without
    spans of its own (the SOM kernel): the rank's busy seconds move from
    ``mrmpi`` to ``engine``.  In a ``resident`` service session, time
    outside every ``serve.job`` span — the directive broadcast that blocks
    until the front door hands over a job — is ``idle``, not transport.
    """
    crit = critical_rank(session, busy_by_rank)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    rank_wall = 0.0
    for name, t0, t1, _b, _e, self_s, parents in walk_spans(session.tracer(crit)):
        if name == "rank":
            rank_wall += t1 - t0
        elif resident and name != "serve.job" and "serve.job" not in parents:
            by_layer["idle"] += self_s
        elif layer_of(name):
            by_layer[layer_of(name)] += self_s
    if engine_outside_spans:
        by_layer["engine"] += busy_by_rank.get(crit, 0.0)
        by_layer["mrmpi"] -= busy_by_rank.get(crit, 0.0)
    attributed = sum(by_layer.values())
    return {
        "critical_rank": crit,
        "wall_s": wall_s,
        "rank_wall_s": rank_wall,
        "layers_s": by_layer,
        "in_rank_unattributed_s": rank_wall - attributed,
        "outside_rank_s": wall_s - rank_wall,
        "unattributed_s": wall_s - attributed,
    }


def format_budget(b):
    """Text table of one budget, shares of the end-to-end wall time."""
    wall = b["wall_s"] or 1.0
    lines = [f"layer budget, critical rank {b['critical_rank']} "
             f"(end-to-end wall {b['wall_s']:.4f}s)"]
    for layer, secs in b["layers_s"].items():
        lines.append(f"  {layer:<26} {secs:9.4f}s {secs / wall:7.1%}")
    lines.append(f"  {'unattributed, in rank':<26} {b['in_rank_unattributed_s']:9.4f}s "
                 f"{b['in_rank_unattributed_s'] / wall:7.1%}")
    lines.append(f"  {'unattributed, launch/join':<26} {b['outside_rank_s']:9.4f}s "
                 f"{b['outside_rank_s'] / wall:7.1%}")
    lines.append(f"  {'unattributed rest':<26} {b['unattributed_s']:9.4f}s "
                 f"{b['unattributed_s'] / wall:7.1%}")
    return "\n".join(lines)


def _common(session, wall_s, busy_by_rank, engine_outside_spans=False,
            resident=False):
    """Metrics every workload reports: MR phases, shuffle, mpi, sched, budget."""
    b = budget(session, wall_s, busy_by_rank, engine_outside_spans, resident)
    crit = b["critical_rank"]
    phases = phase_durations(session).get(crit, {})
    util = utilization_report(session)["per_rank"]
    traffic = shuffle_traffic(session)["totals"].get("aggregate", {})
    coll = defaultdict(float)
    for name, t0, t1, _b, _e, _s, parents in walk_spans(session.tracer(crit)):
        if name.startswith("mpi.") and (not resident or "serve.job" in parents):
            coll[name[4:]] += t1 - t0
    sends = spills = 0
    for trc in session.tracers:
        for ph, _ts, _sid, name, _cat, _attrs in trc.iter_events():
            if ph == "i":
                sends += name == "mpi.send"
                spills += name == "spool.write"
    workers = [r for r in range(session.nprocs) if r != 0]
    worker_wall = sum(util.get(r, {}).get("wall_s", 0.0) for r in workers)
    total_busy = sum(busy_by_rank.values())
    m = {f"mr.{p}_s": phases.get(p, 0.0) for p in MR_PHASES}
    m.update({f"mpi.{c}_s": coll.get(c, 0.0) for c in COLLECTIVES})
    m.update({
        "mr.shuffle_pairs": traffic.get("pairs", 0),
        "mr.shuffle_bytes": traffic.get("bytes", 0),
        "mr.spill_pages": spills,
        "mpi.sends": sends,
        "sched.worker_util": (sum(busy_by_rank.get(r, 0.0) for r in workers)
                              / worker_wall) if worker_wall else 0.0,
        "sched.master_busy_share": (busy_by_rank.get(0, 0.0) / total_busy
                                    if total_busy else 0.0),
    })
    m.update({f"budget.{k}_s": v for k, v in b["layers_s"].items()})
    m["budget.unattributed_s"] = b["unattributed_s"]
    m["budget.unattributed_frac"] = b["unattributed_s"] / wall_s
    return m, {"budget": b, "critical_path": critical_path_report(session)}


def _blast_stages(session):
    """blast.* from ``mrblast.unit`` spans, summed over ranks."""
    stages = stage_breakdown(session)
    rounds = slab = 0
    for trc in session.tracers:
        for name, _t0, _t1, _b, eattrs, _s, _p in walk_spans(trc):
            if name == "mrblast.unit" and eattrs:
                rounds += eattrs.get("fused_rounds", 0)
                slab = max(slab, eattrs.get("slab_bytes", 0))
    tot = {k: sum(s[k] for s in stages.values())
           for k in ("seed_s", "ungapped_s", "gapped_s", "busy_s", "units", "hits")}
    m = {f"blast.{k}": tot[k] for k in ("seed_s", "ungapped_s", "gapped_s",
                                        "units", "hits")}
    m["blast.other_s"] = tot["busy_s"] - tot["seed_s"] - tot["ungapped_s"] - tot["gapped_s"]
    m["blast.fused_rounds"] = rounds
    m["blast.peak_slab_bytes"] = slab
    busy = {rank: s["busy_s"] for rank, s in stages.items()}
    return m, busy


def batch_layers(session, job_s, blast_results=None, som_results=None,
                 codebook_bytes=0):
    """Per-layer metrics of one traced ``mrblast_spmd`` / ``mrsom_spmd`` job."""
    m, busy = _blast_stages(session)
    if blast_results is not None:
        m["blast.lookup_cache_hits"] = sum(r.lookup_cache_hits for r in blast_results)
        m["sched.partition_switches"] = sum(r.partition_switches for r in blast_results)
    if som_results is not None:
        busy = {r.rank: r.busy_seconds for r in som_results}
        som = {
            "som.busy_s": sum(r.busy_seconds for r in som_results),
            "som.bcast_s": max(r.bcast_seconds for r in som_results),
            "som.reduce_s": max(r.reduce_seconds for r in som_results),
            "som.units": sum(r.units_processed for r in som_results),
        }
        m.update(som)
        # Computed, not measured: per epoch the codebook goes out to every
        # other rank and the numerator (K x d) plus denominator (K) come back.
        k = som_results[0].codebook.shape[0]
        m["mpi.som_bytes_per_epoch"] = (session.nprocs - 1) * (
            2 * codebook_bytes + 8 * k)
    common, report = _common(session, job_s, busy, som_results is not None)
    m.update(common)
    return {"metrics": m, **report}


def serve_layers(session, wall_s, stats, sessions, loadgen, late_ms):
    """Per-layer metrics of one traced service rep (session lifetime)."""
    m, busy = _blast_stages(session)
    rank_stats = [s for sess in sessions for s in (sess.rank_stats or []) if s]
    m["blast.lookup_cache_hits"] = sum(s.lookup_cache_hits for s in rank_stats)
    m["sched.partition_switches"] = sum(s.partition_switches for s in rank_stats)

    # Per job: the rank-0 span, and the engine time inside each rank's span.
    job_span, job_engine = {}, defaultdict(lambda: defaultdict(float))
    for trc in session.tracers[:session.nprocs]:
        jobs, units = [], []
        for name, t0, t1, battrs, _e, _s, _p in walk_spans(trc):
            if name == "serve.job":
                jobs.append((t0, t1, battrs["job_id"]))
            elif name == "mrblast.unit":
                units.append((t0, t1))
        if trc.rank == 0:
            job_span.update({j: (t0, t1) for t0, t1, j in jobs})
        for u0, u1 in units:
            for t0, t1, j in jobs:
                if t0 <= u0 <= t1:
                    job_engine[j][trc.rank] += u1 - u0
                    break
    job_ms = [(t1 - t0) * 1e3 for t0, t1 in job_span.values()]
    overhead_ms = [(t1 - t0) * 1e3 - 1e3 * max(job_engine[j].values(), default=0.0)
                   for j, (t0, t1) in job_span.items()]

    # Submissions enter batches oldest first (one tenant, no duplicate ids),
    # so the n-th serve.batch instant holds the next `size` submissions.
    submits, batches = [], []
    for ph, ts, _sid, name, _cat, attrs in session.supervisor.iter_events():
        if ph == "i" and name == "serve.submit":
            submits.append(ts)
        elif ph == "i" and name == "serve.batch":
            batches.append((attrs["job_id"], attrs["size"]))
    waits, seq = [], 0
    for job_id, size in batches:
        start = job_span.get(job_id, (None,))[0]
        for ts in submits[seq:seq + size]:
            if start is not None:
                waits.append((start - ts) * 1e3)
        seq += size

    m.update({
        "serve.batches": stats["batches"],
        "serve.batch_size_mean": stats["submitted"] / max(stats["batches"], 1),
        "serve.queue_wait_ms_p50": _median(waits),
        "serve.job_ms_p50": _median(job_ms),
        "serve.job_overhead_ms_p50": _median(overhead_ms),
        "serve.submit_us_p50": _median(loadgen.submit_s) * 1e6,
        "serve.pump_s": loadgen.pump_s,
        "serve.rejected": stats["rejected"],
        "serve.restarts": stats["restarts"],
        "serve.gen_late_ms_p95": nearest_rank(late_ms, 95),
        "serve.engine_s_per_query": (sum(busy.values())
                                     / max(stats["submitted"], 1)),
    })
    common, report = _common(session, wall_s, busy, resident=True)
    m.update(common)
    return {"metrics": m, **report}

