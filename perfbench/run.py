"""Benchmark for batch BLAST, batch SOM and the resident BLAST service.

Usage::

    python3 perfbench/run.py --workload blastp-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced and traced

One invocation computes the workload's reference output once, then runs
reps — each a fresh ``worker.py`` interpreter that sets up, runs one timed
job on two process-backend ranks and checks the output — until
``--seconds`` are spent.  With ``--trace 0`` it reports the end-to-end
metrics of ``spec.END_TO_END`` (medians over reps).  With ``--trace 1``
every second rep is traced; it reports the per-layer metrics of
``spec.PER_LAYER`` from the traced reps and the outside-in probes, the
layer budget, and the tracing overhead against the untraced reps.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
record with the environment stamp.  A failed output check counts as a
failed operation and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from spec import END_TO_END, PER_LAYER, WORKLOADS, nearest_rank  # noqa: E402

#: fewest untraced reps per run, whatever --seconds says; a traced run
#: needs at least one traced and one untraced rep.  One blastn-serve rep
#: takes about 35 s and runs five service lifetimes itself.
MIN_REPS = {"blastp-batch": 2, "som-train": 2, "blastn-serve": 1}
#: seconds one worker process may take before the run is abandoned
WORKER_TIMEOUT = 150.0


class BenchError(RuntimeError):
    """A worker failed; the run prints no result."""


def _group_alive(pgid):
    """True while a live (non-zombie) process remains in group *pgid*."""
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        state, _ppid, pgrp = text[text.rindex(")") + 2:].split()[:3]
        if int(pgrp) == pgid and state not in ("Z", "X"):
            return True
    return False


def _reap_group(pgid, grace=10.0):
    """Wait until every process the worker started has ended."""
    deadline = time.monotonic() + grace
    killed = False
    while _group_alive(pgid):
        if time.monotonic() > deadline:
            if killed:
                raise BenchError(f"processes of group {pgid} survived SIGKILL")
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            killed, deadline = True, time.monotonic() + grace
        time.sleep(0.01)


def _cpu_times():
    """(steal, total) jiffies from /proc/stat: CPU time the host took away."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def call_worker(task, workdir, *args):
    """Run ``worker.py TASK`` in a fresh interpreter; return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["TMPDIR"] = str(workdir / "tmp")
    for var in ("REPRO_MPI_BACKEND", "REPRO_MPI_ARENA_MB"):
        env.pop(var, None)  # the benchmark pins the backend; arena at its default
    cmd = [sys.executable, str(HERE / "worker.py"), task, "--workdir", str(workdir),
           *map(str, args)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    finally:
        _reap_group(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"worker {task} {' '.join(map(str, args))} "
                         f"exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns the record (metrics, counts, stamp)."""
    workdir = ROOT / ".perfbench" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "tmp").mkdir(parents=True)
    common = ["--workload", name, "--seed", seed]
    try:
        stamp = call_worker("env", workdir)
        stamp.pop("worker_s")
        reference = call_worker("reference", workdir, *common)
        reps, walls = [], []
        cpu0 = _cpu_times()
        t_start = time.monotonic()
        while True:
            traced = trace and len(reps) % 2 == 1
            t0 = time.monotonic()
            rec = call_worker("rep", workdir, *common, "--rep", len(reps),
                              "--trace", int(traced))
            walls.append(time.monotonic() - t0)
            shutil.rmtree(workdir / f"rep{len(reps)}", ignore_errors=True)
            rec["traced"] = traced
            reps.append(rec)
            spent = time.monotonic() - t_start
            enough = len(reps) >= (2 if trace else MIN_REPS[name])
            if enough and spent + statistics.median(walls) > seconds:
                break
        measured_s = time.monotonic() - t_start
        cpu1 = _cpu_times()
        stamp["cpu_steal_frac"] = (cpu1[0] - cpu0[0]) / max(cpu1[1] - cpu0[1], 1)
        probes = None
        if trace:
            per_query = statistics.median(
                r["layers"]["metrics"].get("serve.engine_s_per_query", 0.0)
                for r in reps if r["traced"])
            probes = call_worker("probes", workdir, *common,
                                 "--per-query-s", per_query)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return _summarise(name, seed, trace, stamp, reference, reps, probes, measured_s)


def _summarise(name, seed, trace, stamp, reference, reps, probes, measured_s):
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    def med(key, recs=plain):
        return statistics.median(r[key] for r in recs)

    latencies = [x for r in plain for x in r["latencies_ms"]]
    e2e = {
        "setup_s": med("setup_s"),
        "job_s": med("job_s"),
        "throughput_per_s": med("throughput_per_s"),
        "latency_p50_ms": nearest_rank(latencies, 50),
        "latency_p90_ms": nearest_rank(latencies, 90),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    layers = {}
    if trace:
        for metric in PER_LAYER:
            vals = [r["layers"]["metrics"][metric] for r in traced
                    if metric in r["layers"]["metrics"]]
            if vals:
                layers[metric] = statistics.median(vals)
        layers.update({k: v for k, v in probes.items() if k in PER_LAYER})
        layers["trace.overhead_frac"] = med("job_s", traced) / e2e["job_s"] - 1.0
        for metric in PER_LAYER:
            layers.setdefault(metric, 0)  # a layer this workload never enters
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "why": WORKLOADS[name], "environment": stamp, "reference": reference,
        "reps": len(plain), "traced_reps": len(traced),
        "measured_s": measured_s, "latency_samples": len(latencies),
        "attempted": attempted, "failed": failed,
        "errors": [e for r in reps for e in r["errors"]][:10],
        "samples": {k: [r[k] for r in plain]
                    for k in ("setup_s", "job_s", "peak_rss_mb")},
        "end_to_end": e2e, "per_layer": layers,
        "budget_text": traced[-1]["layers"]["budget_text"] if traced else None,
        "critical_path": traced[-1]["layers"]["critical_path"] if traced else None,
    }


def print_report(rec, out=sys.stdout):
    p = lambda s="": print(s, file=out)  # noqa: E731
    mode = "traced + untraced" if rec["trace"] else "untraced"
    p(f"== {rec['workload']}  seed {rec['seed']}  ({mode}: {rec['reps']} untraced + "
      f"{rec['traced_reps']} traced reps in {rec['measured_s']:.1f}s) ==")
    p(f"why: {rec['why']}")
    p("environment: " + ", ".join(f"{k}={v}" for k, v in rec["environment"].items()))
    p(f"operations: {rec['attempted']} attempted, {rec['failed']} failed")
    for err in rec["errors"]:
        p(f"  check failed: {err}")
    p(f"end-to-end (untraced reps; {rec['latency_samples']} latency samples):")
    for metric, value in rec["end_to_end"].items():
        p(f"  {metric:<22} {value:14.4f} {END_TO_END[metric][0]}")
    if rec["trace"]:
        p("per-layer (median of traced reps, probes in fresh interpreters):")
        for metric, value in rec["per_layer"].items():
            unit, _better, layer, moves = PER_LAYER[metric]
            p(f"  {metric:<28} {value:16.6g} {unit:<8} {layer:<20} moves {moves}")
        p(rec["budget_text"])
        p(rec["critical_path"].rstrip())


def _check_spec():
    """BENCHMARK.json, when present, must list exactly spec.py's names."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    doc = json.loads(path.read_text())
    for key, spec in (("workloads", WORKLOADS), ("end_to_end", END_TO_END),
                      ("per_layer", PER_LAYER)):
        names = [m["name"] for m in doc[key]]
        if names != list(spec):
            raise BenchError(f"BENCHMARK.json {key} {names} != spec.py {list(spec)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still kills and reaps its current worker's processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        _check_spec()
        if args.workload == "all":
            runs = [run_workload(w, args.seed, args.seconds, t)
                    for w in WORKLOADS for t in (False, True)]
        else:
            runs = [run_workload(args.workload, args.seed, args.seconds, bool(args.trace))]
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    for rec in runs:
        print_report(rec)
        print(json.dumps({"record": rec}))
    if args.workload == "all":
        metrics = {f"{r['workload']}:{m}": {"value": v, "unit": (END_TO_END.get(m) or PER_LAYER[m])[0]}
                   for r in runs for m, v in (r["per_layer"] if r["trace"] else r["end_to_end"]).items()}
    else:
        rec = runs[0]
        values = rec["per_layer"] if rec["trace"] else rec["end_to_end"]
        spec = PER_LAYER if rec["trace"] else END_TO_END
        metrics = {m: {"value": values[m], "unit": spec[m][0]} for m in spec}
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in runs),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
