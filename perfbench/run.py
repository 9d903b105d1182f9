"""Repository benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload lib-small --seed 1 --seconds 26 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs an untraced closed-loop phase, then the same
workload with span wrappers installed around each layer's public
functions, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is the JSON result; full results,
the environment stamp and (traced runs) the spans file and per-layer
self-time table are written under ``.perfbench/``.  See README.md in
this directory.
"""

from __future__ import annotations

import os
from time import perf_counter, process_time

T_PROCESS = perf_counter()

#: environment variables that set BLAS/OpenMP thread counts
THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
#: the thread environment as the benchmark found it
FOUND_THREAD_ENV = {k: os.environ.get(k) for k in THREAD_ENV}
# BLAS and OpenMP pools run one thread unless the caller set a count.
# With the default pool (one thread per vCPU) a busy neighbour on a
# shared 2-vCPU host slowed lib-deep ~3x; one thread keeps the op on
# one core, so its CPU time is steady (see README.md).
for _var in THREAD_ENV:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Seed kept out of all tuning; use it only to confirm a claimed gain.
HELD_OUT_SEED = 8191

#: share of ``--seconds`` spent in the closed-loop phase; the rest is
#: the open-loop phase
CLOSED_SHARE = 0.8
#: traced runs: untraced closed loop, traced closed loop, traced open loop
TRACE_SHARES = (0.3, 0.4, 0.3)
#: set-up is repeated this many times per run and the median reported
SETUP_REPEATS = 3
#: open-loop arrival rate per workload (ops/s), as a share of the median
#: closed-loop wall-clock rate on a busy shared 2-vCPU host at the commit
#: that added this benchmark: ~20% where ops of very different cost mix
#: (a slow op queues the cheap ones behind it), ~40% where every op costs
#: about the same
OPEN_RATE = {
    "lib-small": 200.0,
    "lib-deep": 2.0,
    "service-mixed": 40.0,
    "vqe-sweep": 0.8,
}


def blas_stamp(np) -> dict:
    """BLAS vendor and live thread count, read through numpy's bundled
    OpenBLAS."""
    out = {"library": None, "threads": None, "config": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        out["library"] = os.path.basename(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}",
                              None)
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None and out["threads"] is None:
                    get.argtypes = []
                    get.restype = ctypes.c_int
                    out["threads"] = int(get())
                if cfg is not None and out["config"] is None:
                    cfg.argtypes = []
                    cfg.restype = ctypes.c_char_p
                    out["config"] = cfg().decode("utf-8", "replace")
        break
    return out


def environment(np, seed) -> dict:
    from repro.simulation.backends import default_backend

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_stamp(np),
        "thread_env_found": FOUND_THREAD_ENV,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "default_backend": default_backend().name,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def percentile(values, q, cap):
    """Linear-interpolated latency percentile of a phase; a failed op
    (``None``) counts as taking ``cap`` seconds, so it misses every
    latency limit."""
    import numpy as np

    vals = [cap if v is None else v for v in values]
    return float(np.percentile(vals, q)) if vals else cap


def run_phases(wl, name, seconds, tracer, shares, first=1, ref=None):
    """Run ``(label, share of seconds)`` phases in order; labels starting
    with ``open`` run open-loop, and closed phases alternate with
    ``ref`` if given.  Phase ``n`` (counted from ``first``) numbers its
    ops from ``n * 10**7``, so no two phases of a run share inputs.
    Returns ``{label: PhaseResult}``."""
    from workloads import ServiceMixed, lib_closed, lib_open

    service = isinstance(wl, ServiceMixed)
    phases = {}
    for n, (label, share) in enumerate(shares, start=first):
        secs = seconds * share
        # every phase starts from an empty young generation, so how many
        # full collections land inside it depends on its own work only
        gc.collect()
        if label.startswith("open"):
            rate = OPEN_RATE[name]
            phases[label] = (
                wl.open(secs, rate, tracer, n) if service
                else lib_open(wl, secs, rate, tracer, n)
            )
        else:
            phases[label] = (
                wl.closed(secs, tracer, n, ref) if service
                else lib_closed(wl, secs, tracer, n, ref)
            )
    return phases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lib-small", "lib-deep", "service-mixed",
                                 "vqe-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)

    # importing the program is part of set-up time
    import numpy as np

    import repro  # noqa: F401
    import repro.serve  # noqa: F401
    import reference
    import tracing
    import workloads

    # set-up is gated in CPU time (see README.md); process_time() counts
    # from process start, so it holds the interpreter start and imports
    cpu_imports = process_time()
    t_imports = perf_counter() - T_PROCESS
    wl = workloads.WORKLOADS[args.workload](args.seed)
    setup_times = []
    setup_cpu = []
    try:
        for k in range(SETUP_REPEATS):
            if k:
                wl.reset()
            t0 = perf_counter()
            c0 = process_time()
            wl.setup()
            setup_cpu.append(process_time() - c0)
            setup_times.append(perf_counter() - t0)
        setup_s = cpu_imports + statistics.median(setup_cpu)

        tracer = None
        if args.trace:
            untraced, traced, open_share = TRACE_SHARES
            phases = run_phases(wl, args.workload, args.seconds, None,
                                [("closed-untraced", untraced)])
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                phases.update(run_phases(
                    wl, args.workload, args.seconds, tracer,
                    [("closed", traced), ("open", open_share)], first=2,
                ))
            finally:
                tracer.uninstall()
        else:
            phases = run_phases(
                wl, args.workload, args.seconds, None,
                [("closed", CLOSED_SHARE), ("open", 1 - CLOSED_SHARE)],
                ref=reference.for_workload(args.workload),
            )
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF
        ).ru_maxrss / 1024.0
        wrong = wl.check()
        hit_rate = (wl.cache_hit_rate()
                    if args.workload == "service-mixed" else 0.0)
    finally:
        if hasattr(wl, "close"):
            wl.close()

    attempted = sum(len(p.latencies) for p in phases.values())
    failed = sum(p.failed for p in phases.values()) + wrong
    closed = phases["closed"]
    opened = phases["open"]
    cap = max(p.wall for p in phases.values())
    ms = 1e3
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(np, args.seed),
        "setup_runs_s": setup_times,
        "setup_runs_cpu_s": setup_cpu,
        "imports_s": t_imports,
        "imports_cpu_s": cpu_imports,
        "setup_wall_s": t_imports + statistics.median(setup_times),
        "wrong_answers": wrong,
        "op_failures": workloads.ERRORS,
        "error_rate": failed / max(1, attempted),
        # reported, not gated: wall-clock and CPU-time figures track the
        # shared host's load as much as the program (see README.md)
        "ops_per_cpu_s": closed.cpu_rate(),
        "ops_per_s": closed.rate(),
        "latency_p50_ms": percentile(closed.latencies, 50, cap) * ms,
        "latency_p90_ms": percentile(closed.latencies, 90, cap) * ms,
        "latency_p99_ms": percentile(closed.latencies, 99, cap) * ms,
        "open_latency_p50_ms": percentile(opened.latencies, 50, cap) * ms,
        "open_latency_p99_ms": percentile(opened.latencies, 99, cap) * ms,
        "phases": {
            label: {"ops": len(p.latencies), "failed": p.failed,
                    "wall_s": p.wall,
                    "latencies_ms": [None if v is None else round(v * 1e3, 4)
                                     for v in p.latencies],
                    "chunks": [[round(c * 1e3, 4), n, round(r * 1e3, 4)]
                               for c, n, r in p.pairs]}
            for label, p in phases.items()
        },
    }
    if not args.trace:
        metrics = {
            "op_cpu_over_ref": (closed.cpu_over_ref(), "ratio"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
    else:
        metrics = traced_metrics(args, tracer, phases, hit_rate,
                                 getattr(wl, "refused", 0), result, tracing)
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=str)

    env = result["environment"]
    print(f"env: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} blas={env['blas']['library']} "
          f"blas_threads={env['blas']['threads']} "
          f"backend={env['default_backend']} seed={args.seed}")
    print(f"checks: attempted={attempted} failed={failed} "
          f"(wrong answers {wrong}) error_rate={result['error_rate']:.6f}")
    print(f"ungated: ops_per_cpu_s={result['ops_per_cpu_s']:.3f}; wall "
          f"clock: ops_per_s={result['ops_per_s']:.3f} "
          f"latency p50/p90/p99 {result['latency_p50_ms']:.3f}/"
          f"{result['latency_p90_ms']:.3f}/"
          f"{result['latency_p99_ms']:.3f} ms; open loop at "
          f"{OPEN_RATE[args.workload]:g} ops/s: p50 "
          f"{result['open_latency_p50_ms']:.3f} ms, p99 "
          f"{result['open_latency_p99_ms']:.3f} ms")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def traced_metrics(args, tracer, phases, hit_rate, refused, result,
                   tracing):
    """Per-layer metrics of a traced run, plus its artifacts."""
    roots = [s for s in tracer.spans if s.name == "op"]
    wall = sum(s.t1 - s.t0 for s in roots)
    layer, table, coverage = tracing.analyse(
        tracer.spans, len(roots), wall
    )
    untraced = phases["closed-untraced"]
    traced = phases["closed"]
    rate_u = untraced.rate()
    rate_t = traced.rate()
    overhead = 1.0 - rate_t / rate_u if rate_u > 0 else 0.0
    lags = phases["open"].lags
    layer["loadgen.lag_ms"] = (sum(lags) / len(lags) * 1e3) if lags else 0.0
    layer["gateway.result_cache_hit_rate"] = hit_rate
    layer["gateway.refused"] = float(refused)
    layer["trace.overhead"] = overhead
    layer["trace.coverage"] = coverage

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    tracing.write_spans(
        os.path.join(OUT_DIR, f"spans-{stem}.jsonl"), tracer.spans
    )
    lines = [f"# self time per layer, {args.workload}, seed {args.seed}, "
             f"{len(roots)} traced ops, op wall {wall:.3f} s",
             f"{'layer':34s} {'us/op':>12s} {'share':>8s}"]
    lines += [f"{name:34s} {us:12.1f} {share:8.3f}"
              for name, us, share in table]
    ok = abs(coverage - 1.0) <= tracing.COVERAGE_TOLERANCE
    lines.append(
        f"coverage: layer self times / op wall = {coverage:.3f} "
        f"({'ok' if ok else 'FAIL'}, tolerance "
        f"{tracing.COVERAGE_TOLERANCE:.0%})"
    )
    lines.append(
        f"tracing overhead: ops/s untraced {rate_u:.2f}, traced "
        f"{rate_t:.2f}, overhead {overhead:.1%}"
    )
    with open(os.path.join(OUT_DIR, f"layers-{stem}.txt"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    result["layer_table"] = table
    return {k: (v, _unit(k)) for k, v in sorted(layer.items())}


def _unit(name):
    if name.endswith("_us") or "_us." in name or name.endswith(".us_per_op"):
        return "us"
    if name.endswith(("_ms", ".ms")):
        return "ms"
    if name.endswith("gbps_computed"):
        return "GB/s"
    if name.endswith(("_per_op", ".refused", "branches_max")):
        return "count"
    if "_over_" in name:
        return "ratio"
    return "fraction"


if __name__ == "__main__":
    sys.exit(main())
