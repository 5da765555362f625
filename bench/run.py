"""fracrec benchmark: closed-loop workloads, end-to-end metrics, traced layers.

Run from the root of a source checkout:

    python3 bench/run.py --workload sweep-512 --seed 1 --seconds 40 --trace 0

One caller in one process runs ops back to back; the next op starts when the
previous one ends.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
reports per-layer metrics from a separate traced phase.  The last line of
standard output is one JSON object; the lines above it are a table of every
metric and a ``record:`` line with provenance, sample counts and every metric
the run computed.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 5
MIN_OPS = 20
# a run must end within 180 s; past this point the timed phase stops at the
# next op boundary whatever its sample count
DEADLINE_S = 150.0
# percentiles above p90 are left out: interference bursts on a shared machine
# moved the p99 of sweep-512 between 10 and 18 ms over five runs of one build
TAIL_LADDER = (90.0, 75.0, 50.0)


def import_package():
    """Import fracrec from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        fr = importlib.import_module("fracrec")
        importlib.import_module("fracrec.cli")
    except ImportError as exc:
        print(f"error: cannot import fracrec from {SRC}: {exc}", file=sys.stderr)
        return None
    if not os.path.abspath(fr.__file__).startswith(SRC + os.sep):
        print(f"error: fracrec imported from {fr.__file__}, not {SRC}", file=sys.stderr)
        return None
    return fr


def blas_info() -> list:
    """Each loaded OpenBLAS: its file, configuration and thread count (read only)."""
    import ctypes

    out = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return out
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if threads is None:
                continue
            threads.restype = ctypes.c_int
            config = getattr(lib, f"scipy_openblas_get_config{suffix}")
            config.restype = ctypes.c_char_p
            entry["threads"] = threads()
            entry["config"] = config().decode()
            break
        out.append(entry)
    return out


def git_commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def provenance(wl, seed: int) -> dict:
    import scipy

    blas = blas_info()
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "fracrec", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    sets = wl.scene.sets
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": max((b.get("threads", 0) for b in blas), default=None),
        "openblas": blas,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": wl.name,
        "seed": seed,
        "N": wl.n,
        "omega_nodes": int(len(sets.omega)),
        "w2_nodes": int(len(sets.w2)),
    }


def run_ops(wl, pool, seconds, min_ops, cycle, deadline, tracer=None):
    """Closed loop over the pool from its start; returns (latencies ns, outcomes).

    Stops at a multiple of `cycle` ops once `seconds` have passed and at least
    `min_ops` ops ran, or at `deadline` (a time.monotonic value).
    """
    latencies, outcomes = [], []
    t_end = time.monotonic() + seconds
    i = 0
    while True:
        now = time.monotonic()
        if i % cycle == 0 and ((now >= t_end and i >= min_ops) or now >= deadline):
            break
        inp = pool[i % len(pool)]
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter_ns()
        try:
            result = wl.run(inp)
            err = None
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            err = exc
        latencies.append(time.perf_counter_ns() - t0)
        if tracer is not None:
            tracer.op = None
        if err is None:
            try:
                out = wl.check(inp, result)
            except Exception as exc:  # noqa: BLE001
                out = workloads.Outcome()
                out.failures.append(f"check raised {type(exc).__name__}: {exc}")
        else:
            out = workloads.Outcome()
            out.failures.append(f"op raised {type(err).__name__}: {err}")
        outcomes.append(out)
        i += 1
    return latencies, outcomes


def tail(lat_ms: np.ndarray) -> tuple[float, float]:
    """Latency at the highest ladder percentile with >= 10 samples beyond it."""
    n = len(lat_ms)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10.0:
            return float(np.percentile(lat_ms, p)), p
    return float(np.percentile(lat_ms, 50.0)), 50.0


def metric(value, unit, samples, **extra) -> dict:
    return {"value": float(value), "unit": unit, "samples": int(samples), **extra}


def end_to_end(wl, pool, setup_s, latencies, outcomes) -> dict:
    lat_ms = np.asarray(latencies, dtype=float) / 1e6
    n = len(lat_ms)
    tail_ms, tail_p = tail(lat_ms)
    if wl.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rss_n = 1
    else:
        rss = max(o.rss_mb for o in outcomes)
        rss_n = n
    first_pass = [o.q_err for o in outcomes[: len(pool)] if np.isfinite(o.q_err)]
    failed = sum(1 for o in outcomes if o.failures)
    return {
        "setup_s": metric(statistics.median(setup_s), "s", len(setup_s)),
        "latency_p50_ms": metric(np.median(lat_ms), "ms", n),
        "latency_tail_ms": metric(tail_ms, "ms", n, percentile=tail_p),
        "throughput_per_s": metric(n / (lat_ms.sum() / 1e3), "1/s", n),
        "peak_rss_mb": metric(rss, "MB", rss_n),
        "q_rel_err_p50": metric(np.median(first_pass) if first_pass else float("nan"),
                                "ratio", len(first_pass)),
        "fail_frac": metric(failed / n, "ratio", n),
    }


def measure_setup(wl, reps: int) -> list:
    """Wall time of fresh children that import fracrec and build the operator."""
    argv = workloads.setup_child_argv(wl.n)
    env = workloads.child_env(SRC)
    times = []
    for k in range(reps + 1):
        wall, code, _ = workloads.run_child(argv, env, ROOT)
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}")
        if k > 0:  # the first child warms the file cache and bytecode
            times.append(wall)
    return times


def traced_run(fr, wl, pool, seconds, cycle, deadline, workdir, label):
    """Untraced then traced phase in this process; per-layer metrics."""
    modules = [fr] + [importlib.import_module(f"fracrec.{m}") for m in tracing.LAYERS]
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        wl.setup(workdir, pool)
    finally:
        tracer.uninstall()
    plain_lat, plain_out = run_ops(wl, pool, seconds / 2, 2 * cycle, cycle, deadline)
    tracer.install(modules)
    try:
        # whole passes over the pool, so every count covers the same inputs
        lat, outcomes = run_ops(wl, pool, seconds / 2, len(pool), len(pool), deadline, tracer)
    finally:
        tracer.uninstall()
    n_ops = len(lat) - len(lat) % len(pool) or len(lat)
    spans = [s for s in tracer.spans if s.op is None or s.op < n_ops]
    layers = {k: metric(*v) for k, v in tracing.layer_metrics(spans, n_ops).items()}
    import_ms = [workloads.import_child_ms(workloads.child_env(SRC), ROOT) for _ in range(3)]
    layers["cli.import_ms"] = metric(statistics.median(import_ms), "ms", len(import_ms))
    sizes = [o.report_bytes for o in outcomes[:n_ops]]
    layers["cli.report_kb"] = metric(sum(sizes) / 1e3 / n_ops, "kB", n_ops)
    base, traced = np.median(plain_lat), np.median(lat)
    layers["trace.overhead_pct"] = metric(100.0 * (traced - base) / base, "%", len(lat),
                                          untraced_p50_ms=base / 1e6, traced_p50_ms=traced / 1e6)
    spans_path = os.path.join(WORKDIR, f"spans-{label}.jsonl")
    tracer.write(spans_path)
    return layers, plain_out + outcomes, spans_path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small N, one noise draw and one set-up child (smoke test)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    fr = import_package()
    if fr is None:
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR)
    try:
        wl = workloads.make(args.workload, fr, args.tiny, SRC, in_process_cli=bool(args.trace))
        pool = wl.pool(args.seed)
        cycle = wl.cycle
        min_ops = len(pool) if args.tiny else max(MIN_OPS, len(pool))
        label = f"{args.workload}-seed{args.seed}"
        if args.trace:
            wanted = spec["per_layer"]
            metrics, outcomes, spans_path = traced_run(
                fr, wl, pool, args.seconds, cycle, deadline, workdir, label)
            extra = {"spans": os.path.relpath(spans_path, ROOT)}
        else:
            wanted = spec["end_to_end"]
            setup_s = measure_setup(wl, 1 if args.tiny else SETUP_REPS)
            wl.setup(workdir, pool)
            run_ops(wl, pool, 0.0, cycle, cycle, deadline)  # warm-up, not reported
            latencies, outcomes = run_ops(wl, pool, args.seconds, min_ops, cycle, deadline)
            metrics = end_to_end(wl, pool, setup_s, latencies, outcomes)
            extra = {}
        failures = [f for o in outcomes for f in o.failures]
        record = {"provenance": provenance(wl, args.seed), "trace": args.trace,
                  "metrics": metrics, "failures": sorted(set(failures))[:20], **extra}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, m in metrics.items():
        note = f" p{m['percentile']:g}" if "percentile" in m else ""
        print(f"{args.workload:<10} {name:<42} {m['value']:>14.6g} {m['unit']:<6}"
              f" samples={m['samples']}{note}")
    print("record: " + json.dumps(record, sort_keys=True))
    failed = sum(1 for o in outcomes if o.failures)
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]]["value"],
                                "unit": metrics[w["name"]]["unit"]} for w in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
