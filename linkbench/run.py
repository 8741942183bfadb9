"""nbmimo benchmark: fixed-work rounds of coded, DE and uncoded workloads.

    python3 linkbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of the workload until S seconds have passed (at least
one round), as a closed loop with one caller and BLAS at one thread, then
checks the outputs.  The last line of standard output is one JSON object:
correct, attempted, failed, and the metrics.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json; with --trace 1 they are its
per-layer ones, taken from a traced run that wraps nbmimo's public
functions and writes its spans to linkbench_out/.  See linkbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import bootstrap  # before numpy: pins BLAS threads
from tracer import Tracer

OUT_DIR = bootstrap.ROOT / "linkbench_out"
SETUP_REPEATS = 3
SPAN_STATS = ("calls", "busy_s", "self_s")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def blas_libraries() -> list[dict]:
    """Each OpenBLAS that numpy and scipy bundle: its build and thread count."""
    import numpy
    import scipy

    found = []
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if get_config and get_threads:
                    get_config.restype = ctypes.c_char_p
                    found.append({
                        "user": pkg.__name__,
                        "build": get_config().decode().strip(),
                        "threads": get_threads(),
                    })
                    break
    return found


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": bootstrap.BLAS_THREADS,
        "openblas": blas_libraries(),
    }


def setup_seconds(wl) -> float:
    t0 = time.perf_counter()
    wl.setup()
    return time.perf_counter() - t0


def run_rounds(wl, checks, seconds: float) -> list[float]:
    """Whole rounds until `seconds` have passed; each round's time without checks."""
    times = []
    start = time.perf_counter()
    r = 0
    while True:
        c0 = checks.seconds
        t0 = time.perf_counter()
        wl.run_round(r)
        times.append(time.perf_counter() - t0 - (checks.seconds - c0))
        print(f"round {r}: {times[-1]:.3f} s", file=sys.stderr)
        r += 1
        if time.perf_counter() - start >= seconds:
            return times


def untraced_metrics(wl, checks, args, spec, import_s) -> dict:
    builds = [setup_seconds(wl) for _ in range(SETUP_REPEATS)]
    rounds = run_rounds(wl, checks, args.seconds)
    values = {
        "round_s": statistics.median(rounds),
        "setup_s": import_s + statistics.median(builds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print("rates " + json.dumps(wl.rates()))
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["end_to_end"]
    }


def traced_metrics(wl, checks, args, spec, env) -> dict:
    import workloads

    # Round 0 untraced, then the same round traced: their difference is the
    # tracing overhead.
    (untraced,) = run_rounds(wl, checks, 0)
    tracer = Tracer()
    observers = {name: checks.timing(fn) for name, fn in wl.observers(tracer).items()}
    modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("nbmimo.")]
    try:
        tracer.wrap_functions(modules, "nbmimo", observers)
        for owner, attr, name in workloads.TRACED_METHODS:
            tracer.wrap_method(owner, attr, name, observers.get(name))
        traced = run_rounds(wl, checks, args.seconds)
    finally:
        tracer.restore()

    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(
        OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl",
        {"workload": args.workload, "seed": args.seed, "rounds": len(traced), "env": env},
    )
    spans = tracer.summary()
    n = len(traced)
    iterations = tracer.counters["decoder.iterations"]
    derived = {
        "trace.overhead_s": traced[0] - untraced,
        "decoder.s_per_iteration": (
            spans.get("decoder.decode", {}).get("busy_s", 0.0) / iterations
            if iterations else 0.0
        ),
    }
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        span, stat = name.rsplit(".", 1)
        if name in derived:
            value = derived[name]
        elif stat in SPAN_STATS:
            value = spans.get(span, {}).get(stat, 0) / n
        else:
            value = tracer.counters[name] / n
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())
    t0 = time.perf_counter()
    try:
        import workloads  # imports numpy, scipy and nbmimo
    except bootstrap.MissingProgram as exc:
        print(f"linkbench: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        print(f"linkbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env))
    checks = workloads.Checks()
    wl = workloads.WORKLOADS[args.workload](args.seed, checks)
    if args.trace:
        metrics = traced_metrics(wl, checks, args, spec, env)
    else:
        metrics = untraced_metrics(wl, checks, args, spec, import_s)
    wl.final_checks()
    for problem in checks.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    if len(checks.problems) > 20:
        print(f"... and {len(checks.problems) - 20} more", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
