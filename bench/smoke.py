"""Smoke test of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

Runs every workload at a small N with a few ops, untraced once and traced
twice with one seed.  It checks that every metric is reported with a unit and
a sample count, that the result line matches BENCHMARK.json, that the exact
work counts repeat between the two traced runs, and that the benchmark refuses
to run in a directory holding only BENCHMARK.json and bench/.  Exits 1 on the
first broken expectation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ("setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_per_s",
              "peak_rss_mb", "q_rel_err_p50", "fail_frac")
PER_LAYER = (
    "grid.build_sobolev_ms", "grid.dense_mb", "grid.hs_norm_calls", "grid.hs_norm_ms",
    "forward.solve_dirichlet_ms", "forward.check_dirichlet_uniqueness_ms",
    "ucp.assemble_ucp_calls", "ucp.assemble_ucp_ms", "ucp.ucp_svd_ms",
    "ucp.spectral_reconstruct_ms", "ucp.tikhonov_reconstruct_ms",
    "ucp.minimal_l2_reconstruct_ms", "ucp.minimal_l2_iterations",
    "ucp.minimal_l2_nonconverged", "ucp.minimal_l2_converged_ratio",
    "reconstruct.alphas_per_solve", "reconstruct.recover_interior_self_ms",
    "reconstruct.synthetic_measurement_ms", "reconstruct.measurement_to_h_ms",
    "reconstruct.quotient_q_ms", "reconstruct.full_pipeline_self_ms",
    "cli.import_ms", "cli.load_problem_ms", "cli.main_self_ms", "cli.report_kb",
    "grid.self_ms", "forward.self_ms", "ucp.self_ms", "reconstruct.self_ms", "cli.self_ms",
    "trace.overhead_pct",
)
PROVENANCE = ("nproc", "blas_threads", "numpy", "scipy", "openblas", "python",
              "git_commit", "seed", "N", "omega_nodes", "w2_nodes")


def fail(msg: str) -> None:
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def run(cwd: str, workload: str, trace: int) -> tuple[int, list]:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def parse(workload: str, trace: int, spec: dict) -> tuple[dict, dict]:
    code, lines = run(ROOT, workload, trace)
    if code != 0 or not lines:
        fail(f"{workload} trace={trace} exited {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["attempted"] < 1:
        fail(f"{workload}: no op attempted")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in wanted]:
        fail(f"{workload} trace={trace}: result metrics differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], float):
            fail(f"{workload}: {m['name']} reported as {got}")
    record = json.loads(next(ln for ln in lines if ln.startswith("record: "))[len("record: "):])
    for name in PER_LAYER if trace else END_TO_END:
        m = record["metrics"].get(name)
        if m is None or not m.get("unit") or "samples" not in m:
            fail(f"{workload} trace={trace}: {name} missing, or without unit or samples")
    missing = [k for k in PROVENANCE if k not in record["provenance"]]
    if missing:
        fail(f"{workload}: provenance lacks {missing}")
    return result, record


def isolated_run_fails() -> None:
    """The benchmark must refuse to run without the package sources."""
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="isolated-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(bare, "sweep-512", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0:
        fail("run without src/ exited 0")
    if lines and lines[-1].startswith("{"):
        fail("run without src/ printed a result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = {w["name"] for w in spec["workloads"]}
    for workload in workloads.WORKLOADS:
        result, _ = parse(workload, 0, spec)
        if workload in listed and not result["correct"]:
            fail(f"{workload}: {result['failed']} of {result['attempted']} ops failed their checks")
        traced = [parse(workload, 1, spec)[1]["metrics"] for _ in range(2)]
        for name in tracing.EXACT_COUNTS:
            a, b = (t[name]["value"] for t in traced)
            if a != b:
                fail(f"{workload}: exact count {name} differs between traced runs: {a} != {b}")
        print(f"smoke: {workload}: ok (correct={result['correct']}, "
              f"failed {result['failed']} of {result['attempted']})")
    isolated_run_fails()
    print("smoke: run without src/ refused: ok")
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
