#!/usr/bin/env python3
"""liomsim benchmark: one workload per process, called in-process.

Run from the repository root:

    python3 perfbench/run.py --workload chain_plan --seed 1 --seconds 10 --trace 0

Workloads: chain_plan, sample_dense, expect_plan, dense_verify (see
perfbench/README.md).  --trace 0 measures the end-to-end metrics with no
instrumentation; --trace 1 runs ops untraced for half of the time, then
the same ops again with the library's functions wrapped, and reports the
per-layer metrics and the tracing overhead.  Every output is checked for correctness
after the timed region.

The library is imported from ./src of the checkout this file sits in; the
BLAS thread count is pinned to 1 in this process's environment before numpy
loads.  The last line of standard output is the result object; the line
before it is the full record (environment, checks, every metric), which is
also written with the spans of a traced run to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(".perfbench_out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
# Reference samples taken right before each set-up, which is often too short
# for the timer to fire inside it.
SETUP_SAMPLES = 8
# Each op is adjusted by the host factor of the samples within this many
# seconds of it.
LOCAL_S = 0.25


def use_checkout_src() -> None:
    """Put the checkout's src/ first on the import path; refuse to run
    against any other copy of liomsim."""
    if not (SRC / "liomsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no liomsim sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import liomsim

    if Path(liomsim.__file__).resolve().parent != (SRC / "liomsim").resolve():
        raise SystemExit(f"perfbench: imported liomsim from {liomsim.__file__}, not {SRC}")


def declared_metrics() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def timed_loop(batches, seconds=None, tracer=None, count=None, clock=None):
    """Closed loop over batches.  Stops after `count` batches, or at the
    group boundary nearest to `seconds`: at the first boundary past it, or
    earlier when the next group, taking as long as the last one, would end
    further past `seconds` than the loop is short of it now.  At least one
    group always runs.  With a host clock running, the time its timer
    handler took is taken out of each op's seconds."""
    from workloads import Done

    done = []
    start = group_start = time.perf_counter()
    for i, batch in enumerate(batches):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result, error = batch.fn(), None
        except Exception:
            result, error = None, traceback.format_exc()
            print(error, file=sys.stderr)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op = None
        paused = clock.paused_within(t0, t1) if clock is not None else 0.0
        done.append(Done(batch, result, error, t1 - t0 - paused, t0))
        if count is not None:
            if len(done) >= count:
                break
        elif batch.closes_group:
            short = seconds - (t1 - start)
            if short <= 0 or (t1 - group_start) - short > short:
                break
            group_start = t1
    return done, time.perf_counter() - start


def op_latencies_ms(done, seconds=None) -> list[float]:
    """Per-op latencies; `seconds` overrides each batch's own duration."""
    out = []
    for i, d in enumerate(done):
        s = d.seconds if seconds is None else seconds[i]
        out += [1e3 * s / d.batch.ops] * d.batch.ops
    return out


def failures(done, failed: set[int]) -> int:
    return sum(d.batch.ops for i, d in enumerate(done) if d.error is not None or i in failed)


def bound_over_eps(state) -> float:
    from liomsim.truncation import delta_h_bound

    return max(
        (delta_h_bound(r.instance.params, r.radii) * r.t / r.epsilon for r in state.requests),
        default=0.0,
    )


def plain_run(wl, seed: int, seconds: float) -> dict:
    """End-to-end metrics, host-adjusted by the reference clock (see
    hostref.py); the raw figures and the factors go into the record."""
    import numpy as np
    from hostref import HostClock

    clock = HostClock()
    setup_raw, setup_adj = [], []
    with clock:
        for _ in range(SETUP_REPEATS):
            before = time.perf_counter()
            for _ in range(SETUP_SAMPLES):
                clock.sample()
            t0 = time.perf_counter()
            state = wl.setup(seed)
            t1 = time.perf_counter()
            net = t1 - t0 - clock.paused_within(t0, t1)
            setup_raw.append(net)
            setup_adj.append(net / clock.factor(before, t1))
        loop_start = time.perf_counter()
        done, wall = timed_loop(wl.batches(state), seconds, clock=clock)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    factors = [clock.factor(d.started - LOCAL_S, d.started + d.seconds + LOCAL_S) for d in done]
    adjusted = [d.seconds / f for d, f in zip(done, factors)]
    failed, checks = wl.check(state, done)
    n_ops = sum(d.batch.ops for d in done)
    lat = op_latencies_ms(done, adjusted)
    raw_lat = op_latencies_ms(done)
    return {
        "attempted": n_ops,
        "failed": failures(done, failed),
        "checks": checks,
        "setup_runs_s": setup_adj,
        "host": {
            "reference_samples": len(clock.samples),
            "op_factor_median": float(np.median(factors)),
            "op_factor_min": min(factors),
            "op_factor_max": max(factors),
            "handler_share": clock.paused_within(loop_start, time.perf_counter()) / wall,
        },
        "raw_metrics": {
            "ops_per_s": n_ops / sum(d.seconds for d in done),
            "op_p50_ms": float(np.percentile(raw_lat, 50)),
            "op_p90_ms": float(np.percentile(raw_lat, 90)),
            "setup_s": float(np.median(setup_raw)),
            "loop_wall_s": wall,
        },
        "metrics": {
            "ops_per_s": n_ops / sum(adjusted),
            "op_p50_ms": float(np.percentile(lat, 50)),
            "op_p90_ms": float(np.percentile(lat, 90)),
            "setup_s": float(np.median(setup_adj)),
            "peak_rss_mib": rss_mib,
        },
    }


def traced_run(wl, seed: int, seconds: float, spans_path: Path) -> dict:
    import liomsim
    from liomsim.tensor import open_leg_bound
    from spans import Tracer, layer_metrics

    # The same ops run twice, each on a fresh set-up: first uninstrumented
    # (the overhead base), then traced.  Untraced first, so that the spans
    # the tracer keeps cannot slow the base through garbage collection.
    base, base_wall = timed_loop(wl.batches(wl.setup(seed)), seconds / 2)
    tracer = Tracer()
    tracer.install(liomsim)
    try:
        state = wl.setup(seed)
        done, wall = timed_loop(wl.batches(state), tracer=tracer, count=len(base))
    finally:
        tracer.uninstall()
    failed, checks = wl.check(state, done)
    n_ops = sum(d.batch.ops for d in done)
    metrics = layer_metrics(tracer, n_ops, [d.seconds for d in done], open_leg_bound)
    metrics["truncation.bound_over_eps"] = bound_over_eps(state)
    metrics["trace.ops_per_s"] = n_ops / wall
    metrics["trace.untraced_ops_per_s"] = n_ops / base_wall
    metrics["trace.overhead_ratio"] = wall / base_wall - 1.0
    tracer.write_jsonl(spans_path)
    return {
        "attempted": n_ops,
        "failed": failures(done, failed | {i for i, d in enumerate(base) if d.error}),
        "checks": checks,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path),
        "metrics": metrics,
    }


def openblas_info() -> dict:
    """Version and live thread count of the OpenBLAS numpy loaded, asked of
    the library itself; None where it cannot be found."""
    info = {"openblas_version": None, "blas_threads": None}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                info["openblas_version"] = config().decode()
                info["blas_threads"] = threads()
                return info
    return info


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        **openblas_info(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "git_commit": git_commit(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("chain_plan", "sample_dense", "expect_plan", "dense_verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy loads: BLAS reads its thread count once, at load time.
    for var in BLAS_ENV:
        os.environ[var] = "1"
    use_checkout_src()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    declared = declared_metrics()
    wl = workloads.WORKLOADS[args.workload]()
    OUT_DIR.mkdir(exist_ok=True)
    label = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        record = traced_run(wl, args.seed, args.seconds, OUT_DIR / f"SPANS_{label}.jsonl")
        wanted = declared["per_layer"]
    else:
        record = plain_run(wl, args.seed, args.seconds)
        wanted = declared["end_to_end"]
    got = record["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        raise SystemExit(
            f"perfbench: emitted metrics differ from BENCHMARK.json: {sorted(set(got) ^ {m['name'] for m in wanted})}"
        )
    record.update(
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        failed_ratio=record["failed"] / record["attempted"],
        environment=environment(args.seed),
    )
    text = json.dumps(record, sort_keys=True, default=str)
    (OUT_DIR / f"BENCH_{label}.json").write_text(text + "\n")
    print(text)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
