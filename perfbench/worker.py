"""One fresh interpreter's worth of benchmark work; prints one JSON line.

``run.py`` starts a new ``worker.py`` process for every rep, so no state a
run builds — the BLOSUM neighbourhood table, lookup caches, BLAS thread
pools, imported modules — reaches the next one.  Tasks:

- ``env``: the environment stamp;
- ``reference``: compute the workload's reference output once per run;
- ``rep``: set up, run one timed job (traced or not), check it;
- ``probes``: the outside-in layer probes.

Usage: ``python3 perfbench/worker.py TASK --workload W --seed N --workdir D
[--rep I] [--trace 0|1] [--per-query-s S]``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path


def _blas_threads():
    """Threads the loaded OpenBLAS will use, or None when not found."""
    import numpy  # noqa: F401 - loads the BLAS library

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest(root):
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root):
    """Where and on what a number was measured."""
    import numpy

    from repro.mpi.arena import resolve_arena_bytes
    from workloads import BACKEND, NPROCS

    sha = None  # a plain checkout without .git has no commit id
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                 capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "git_sha": sha,
        "src_sha256": _source_digest(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "backend": BACKEND,
        "ranks": NPROCS,
        "arena_mib": resolve_arena_bytes(None, None) >> 20,
        "state": "cold: fresh interpreter per rep; OS page cache warm",
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("task", choices=("env", "reference", "rep", "probes"))
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--rep", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--per-query-s", type=float, default=0.0)
    args = ap.parse_args(argv)
    root = Path(__file__).resolve().parents[1]

    import workloads

    t0 = time.perf_counter()
    if args.task == "env":
        out = environment(root)
    elif args.task == "reference":
        out = workloads.REFERENCES[args.workload](args.seed, args.workdir)
    elif args.task == "rep":
        scratch = args.workdir / f"rep{args.rep}"
        scratch.mkdir()
        out = workloads.REPS[args.workload](args.seed, args.workdir, scratch,
                                            bool(args.trace))
        if "layers" in out:
            from layers import format_budget

            out["layers"]["budget_text"] = format_budget(out["layers"]["budget"])
    else:
        import probes

        out = probes.run_all(args.seed, args.per_query_s)
    out["worker_s"] = time.perf_counter() - t0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
