"""Run one permstab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload flagship_grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the benchmark imports permstab from
``src/`` there and nowhere else.  With ``--trace 0`` it runs closed-loop
passes for ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it runs a fixed number of passes, untraced and traced in turn,
and reports the per-layer metrics and the tracing overhead.  Either way every
output is checked against ``perfbench/reference/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.

Every timing is scaled to a reference machine speed.  On a shared 2-vCPU VM
a single thread's speed changes by up to 1.7x, for seconds to minutes at a
time, with no CPU steal to show for it, and that decided the median of a
30 s run.  So a fixed calibration loop that does the item's kind of work is
timed next to each item and each set-up, and a timing t is reported as
t / (the loop's time around it / its time at full speed).  A program that
does more work still takes longer; a machine that runs slower for a while
does not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # pins BLAS; exits non-zero when the checkout has no src/permstab
from tracer import SPANS, Tracer, layer_metrics

SETUP_PROBES = 7
TRACE_ROUNDS = 2
WORK_DIR = workloads.ROOT / ".perfbench_work"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]

_COUNTS = [
    "groups.mul.calls",
    "groups.mul_many.calls",
    "groups.mul_many.elems",
    "groups.left_perm.calls",
    "perms.compose.calls",
    "perms.hamming.calls",
    "families.swap_search.products",
    "spectral.solver_iterations",
    "spectral.solver_warnings",
    "oracle.candidates",
    "trace.spans",
]
# (name, unit, better) of every metric a traced run reports
PER_LAYER = (
    [(f"{name}.s", "s", "lower") for name in SPANS]
    + [(name, "count", "lower") for name in _COUNTS]
    + [
        ("trace.coverage", "ratio", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _git_revision(root: Path) -> str:
    """HEAD's commit, read from .git without running git."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = (git / "packed-refs").read_text().splitlines() if (git / "packed-refs").is_file() else []
    return next((line.split()[0] for line in packed if line.endswith(" " + ref)), "unknown")


def provenance(args) -> dict:
    import numpy
    import scipy

    src = workloads.ROOT / "src" / "permstab"
    nproc = len(os.sched_getaffinity(0))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": min(workloads.BLAS_THREADS, nproc),
        "git_revision": _git_revision(workloads.ROOT),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
    }


def measure_setup(args) -> float:
    """Median scaled wall time of fresh processes that import permstab and build the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        before = workloads.scalar_slowness()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)],
            check=True,
            stdout=subprocess.DEVNULL,
            cwd=workloads.ROOT,
        )
        t = time.perf_counter() - t0
        times.append(t * 2 / (before + workloads.scalar_slowness()))
    return statistics.median(times)


def item_latencies(passes) -> list:
    """Each item's median over the passes of its scaled latency, items matched by key."""
    scaled = {}
    for p in passes:
        for (key, _), t, slowness in zip(p.outputs, p.item_s, p.item_slowness):
            scaled.setdefault(key, []).append(t / slowness)
    return [statistics.median(v) for v in scaled.values()]


def run_untraced(wl, seconds: float):
    """Closed-loop passes until ``seconds`` are spent; the last may overrun."""
    passes = []
    while sum(p.wall_s for p in passes) < seconds:
        passes.append(wl.run_pass(len(passes)))
    return passes, [wl.check(p) for p in passes]


def run_traced(wl):
    """TRACE_ROUNDS passes untraced and the same passes traced, in turn."""
    tracer = Tracer()
    plain, traced = [], []
    for i in range(TRACE_ROUNDS):
        plain.append(wl.run_pass(i))
        with tracer.install():
            traced.append(wl.run_pass(i, tracer))
    checks = [wl.check(p) for p in plain + traced]
    for a, b in zip(plain, traced):
        checks[-1].expect(a.outputs == b.outputs, "traced outputs differ from untraced outputs")
    metrics = layer_metrics(tracer, sum(sum(p.item_s) for p in traced))
    metrics["trace.wall_s"] = sum(item_latencies(traced))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - sum(item_latencies(plain))
    return plain + traced, checks, {name: metrics.get(name, 0) for name, _, _ in PER_LAYER}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    cls = workloads.WORKLOADS[args.workload]
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            cls(args.seed, workdir)
            return 0
        if args.trace:
            passes, checks, metrics = run_traced(cls(args.seed, workdir))
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            setup_s = measure_setup(args)
            wl = cls(args.seed, workdir)
            passes, checks = run_untraced(wl, args.seconds)
            latencies = item_latencies(passes)
            metrics = {
                "setup_s": setup_s,
                "wall_s": sum(latencies),
                "item_ms_p50": 1000 * statistics.median(latencies),
                "item_ms_p90": 1000 * _p90(latencies),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    failures = [msg for c in checks for msg in c.failures]
    attempted = sum(c.attempted for c in checks)
    failed = len(failures)
    for msg in [e for p in passes for e in p.errors] + failures:
        print(f"FAILED {msg}")
    print(json.dumps({"provenance": provenance(args)}, sort_keys=True))
    n_items = len(item_latencies(passes))
    print(f"passes {len(passes)}  items {n_items} (the latency samples)  warnings {sum(p.warnings for p in passes)}")
    for name, value in metrics.items():
        print(f"{name:42s} {value:>16.6g} {units[name]}")
    print(f"{'error_rate':42s} {failed / max(attempted, 1):>16.6g} ratio")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
