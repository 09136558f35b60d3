#!/usr/bin/env python3
"""perfbench: the repository's benchmark, one command for every workload.

Run from the repository root::

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed:
five timed set-ups (``setup_s`` is the median import cost, here and in
four fresh child processes, plus the set-ups' median), then whole
passes of the workload until ``--seconds`` have elapsed, reporting
medians.  ``--trace 1`` runs one untraced set-up + pass, then
the same under the layer probes (:mod:`probes`), and reports the
per-layer split from the recorded spans.  Either way every pass's
outputs are checked (:mod:`workloads`), and the last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every output check passed.  The program
runs with the auto kernel backend on one thread (``REPRO_NUM_THREADS=1``,
see :data:`BENCH_THREADS`); otherwise the benchmark only isolates it:
caches, temporary files and the compiled kernel library all live under
``.bench_build/`` in the checkout, and other ``REPRO_*`` settings
inherited from the caller are cleared.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
clock = time.perf_counter

#: Inherited settings that would move the program off the configuration
#: measured here or turn on its own tracing.
_CLEARED_ENV = (
    "REPRO_OBS", "REPRO_OBS_DIR", "REPRO_KERNEL_BACKEND", "REPRO_NUM_THREADS",
    "REPRO_CHECK",
)
#: The program runs single-threaded: on a shared 2-core host its RNG
#: producer, predraw and kernel threads (up to five busy threads at the
#: auto count of 2) made multi-threaded workloads drift 20-30% between
#: sets of runs while the single-threaded one held within 1%.
BENCH_THREADS = "1"
SETUP_REPEATS = 5
#: fresh child processes whose import cost is timed beside this one's
IMPORT_REPEATS = 4
_IMPORT_CODE = (
    "import sys, time; t0 = time.perf_counter(); sys.path[:0] = sys.argv[1:3];"
    "import workloads; from repro.kernels import resolve_backend, resolve_threads;"
    "resolve_backend(); resolve_threads(); print(time.perf_counter() - t0)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def isolate(run_tmp: Path) -> dict:
    """Point every cache and temp path into the checkout; pin one thread;
    clear other overrides."""
    for key in _CLEARED_ENV:
        os.environ.pop(key, None)
    os.environ.update(
        REPRO_NUM_THREADS=BENCH_THREADS,
        REPRO_KERNEL_CACHE=str(BUILD / "repro-kernels"),
        REPRO_SWEEP_CACHE=str(run_tmp / "sweep-cache"),
        XDG_CACHE_HOME=str(run_tmp / "xdg-cache"),
        TMPDIR=str(run_tmp),
        PYTHONPATH=os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        ),
    )
    tempfile.tempdir = str(run_tmp)
    sys.path[:0] = [str(SRC), str(HERE)]
    return dict(os.environ)


def build(env: dict) -> None:
    """Byte-compile the sources and compile the C kernels, untimed.

    Runs in a child process so that the timed import below finds the
    kernel library already built (the compile is a one-time build step,
    not set-up).  A failed compile is not an error here: the program's
    auto backend falls back to numpy, and the context line says so.
    """
    code = (
        "import compileall, sys;"
        "compileall.compile_dir(sys.argv[1], quiet=1);"
        "compileall.compile_dir(sys.argv[2], quiet=1);"
        "from repro.kernels import get_backend; get_backend('auto')"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(SRC), str(HERE)],
        env=env, check=True, timeout=600, stdout=subprocess.DEVNULL,
    )


def cache_sizes() -> dict:
    """CPU cache sizes of cpu0 as sysfs states them (empty when absent)."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def child_import_times(n: int) -> list:
    """The import :func:`measure` times, repeated in ``n`` fresh children."""
    times = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_CODE, str(SRC), str(HERE)],
            check=True, timeout=120, capture_output=True, text=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plain(wl, seed: int, seconds: float, import_s: float):
    """``--trace 0``: timed set-ups, passes for ``seconds``, checks."""
    from workloads import Check

    import_times = [import_s] + child_import_times(IMPORT_REPEATS)
    setup_times = []
    for i in range(SETUP_REPEATS):
        t0 = clock()
        inputs = wl.setup(seed)
        setup_times.append(clock() - t0)
        if i < SETUP_REPEATS - 1:
            wl.teardown(inputs)
            del inputs
    start = clock()
    outcomes = [wl.run(inputs, 0)]
    # later passes only add allocator fragmentation, not program memory
    rss = peak_rss_mb()
    while clock() - start < seconds:
        outcomes.append(wl.run(inputs, len(outcomes)))
    checks = wl.check(inputs, outcomes[0])
    checks += [
        Check(f"pass {k} outputs identical to pass 0", o.attempted,
              0 if wl.same(outcomes[0], o) else o.attempted)
        for k, o in enumerate(outcomes[1:], start=1)
    ]
    wl.teardown(inputs)
    metrics = {
        "items_per_s": statistics.median(o.items / o.wall_s for o in outcomes),
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "peak_rss_mb": rss,
    }
    reported = {"wall_s": ([o.wall_s for o in outcomes], "s")}
    for o in outcomes:
        for name, (value, unit) in wl.report(o).items():
            reported.setdefault(name, ([], unit))[0].append(value)
    reported = {k: (statistics.median(v), u) for k, (v, u) in reported.items()}
    info = {"passes": len(outcomes), "import_times_s": import_times,
            "setup_times_s": setup_times,
            "pass_walls_s": [o.wall_s for o in outcomes]}
    return outcomes, checks, metrics, reported, info


def run_traced(wl, seed: int):
    """``--trace 1``: one untraced set-up + pass, then the same traced."""
    import probes
    from spans import SpanRecorder
    from workloads import Check

    t0 = clock()
    inputs = wl.setup(seed)
    plain = wl.run(inputs, 0)
    untraced_wall = clock() - t0
    wl.teardown(inputs)
    del inputs

    rec = SpanRecorder()
    byte_totals: list = []
    with probes.installed(rec, byte_totals):
        t0 = clock()
        with rec.span("bench.workload"):
            with rec.span("bench.setup"):
                inputs = wl.setup(seed)
            with rec.span("bench.pass"):
                traced = wl.run(inputs, 1, rec)
        traced_wall = clock() - t0
    table = rec.table()

    extras = {
        "kernels.place_block.bytes": float(sum(byte_totals)),
        "serve.op.errors": traced.raised,
    }
    if table.calls("bench.warm"):
        extras["warm_hit_ratio"] = table.work_fraction_within(
            "sweeps.cache.get", "bench.warm")
    if hasattr(wl, "parallel_efficiency"):
        extras["parallel_efficiency"] = wl.parallel_efficiency(inputs)
    for result in traced.outputs.values():
        metrics = getattr(result, "metrics", None)
        if isinstance(metrics, dict) and "lookups_issued" in metrics:
            for key in ("lookups_issued", "lookups_resolved", "nacks", "timeouts"):
                extras[f"net.{key}"] = extras.get(f"net.{key}", 0) + metrics[key]
    checks = wl.check(inputs, traced) + [
        Check("traced outputs identical to untraced", traced.attempted,
              0 if wl.same(plain, traced) else traced.attempted)
    ]
    wl.teardown(inputs)

    from ledger import layer_metrics

    metrics = layer_metrics(table, traced_wall=traced_wall,
                            untraced_wall=untraced_wall, extras=extras)
    spans_dir = BUILD / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    table.dump(spans_dir / f"{wl.name}.npz")
    info = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
            "spans": len(table), "spans_file": str((spans_dir / f"{wl.name}.npz").relative_to(ROOT))}
    return [plain, traced], checks, metrics, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC.relative_to(ROOT)}/repro; "
              "run from a full checkout", file=sys.stderr)
        return 2
    BUILD.mkdir(exist_ok=True)
    (BUILD / "tmp").mkdir(exist_ok=True)
    run_tmp = Path(tempfile.mkdtemp(prefix="run-", dir=BUILD / "tmp"))
    try:
        env = isolate(run_tmp)
        build(env)
        return measure(args, run_tmp)
    finally:
        shutil.rmtree(run_tmp, ignore_errors=True)


def measure(args, run_tmp: Path) -> int:
    t0 = clock()
    import workloads
    from repro.kernels import resolve_backend, resolve_threads

    backend = resolve_backend().name
    threads = resolve_threads()
    import_s = clock() - t0

    from ledger import load_spec, validate_metrics
    from repro.obs.manifest import run_manifest

    spec = load_spec()
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    head = f"perfbench {wl.name} seed={args.seed} trace={args.trace} " \
           f"backend={backend} threads={threads} nproc={os.cpu_count()}"
    print(head, flush=True)

    if args.trace:
        outcomes, checks, values, info = run_traced(wl, args.seed)
        declared = spec["per_layer"]
        reported = {}
    else:
        outcomes, checks, values, reported, info = run_plain(
            wl, args.seed, args.seconds, import_s)
        declared = spec["end_to_end"]

    attempted = sum(o.attempted for o in outcomes)
    raised = sum(o.raised for o in outcomes)
    failed = min(attempted, raised + sum(c.failed for c in checks))
    correct = failed == 0 and all(c.ok for c in checks)
    metrics = validate_metrics(values, declared)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>16.6g} {units[name]}")
    if reported:
        reported["failed_frac"] = (failed / attempted, "ratio")
        print("  -- workload figures (reported, not gated) --")
        for name, (value, unit) in reported.items():
            print(f"  {name:<40} {value:>16.6g} {unit}")
    for c in checks:
        status = "ok  " if c.ok else "FAIL"
        detail = f" ({c.detail})" if c.detail else ""
        print(f"  check {status} {c.label}: {c.failed}/{c.ops} failed{detail}")
    context = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "backend": backend,
        "threads": threads,
        "nproc": os.cpu_count(),
        "cpu_caches": cache_sizes(),
        "params": next(w["params"] for w in spec["workloads"] if w["name"] == wl.name),
        "reported": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()},
        "info": info,
        "manifest": run_manifest(),
    }
    print(json.dumps({"context": context}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
