"""hyperflow benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  NAME is one of verify_sweep,
trajectory_dense, nested_chain, euler_walk, or ``all`` for every workload in
turn.  Each workload runs in fresh interpreters, one operation at a time
(a closed loop with a single caller):

1. set-up is sampled four times: three processes that only import
   hyperflow and build the workload's inputs, then the measuring process;
2. the measuring process runs the first operation once as a warm-up, then
   the operation list (reference seed 7, then seed N) round-robin for S
   seconds, at least one full pass, gating every outcome outside the timed
   interval; wall_s and cpu_s add up the per-operation medians;
3. every time (set-up too) is rescaled to a reference host speed measured
   by a probe kernel that runs next to and during it (probe.py), because
   the shared host's speed changes by up to 2x; the raw times are kept in
   the detail line;
4. with ``--trace 1`` it adds one traced pass over the list and reports
   the per-layer metrics instead of the end-to-end ones.

The last line of standard output is the result object; the line before it
carries the environment record and per-operation detail, which is also
written to .perfbench/results/.  Spans of traced passes go to
.perfbench/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = ROOT / ".perfbench"
WORKLOADS = ("verify_sweep", "trajectory_dense", "nested_chain", "euler_walk")
SETUP_SAMPLES = 4
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("HYPERFLOW_THREADS", None)  # measure the users' default pool size
    return env


def _worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run worker.py in a fresh interpreter; returns its spawn time and result."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    spawned = perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=_child_env(),
            stdout=subprocess.PIPE,
            timeout=timeout,
            text=True,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} did not finish in time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return spawned, json.loads(lines[-1])


def _git() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*cmd: str) -> str:
        return subprocess.run(["git", *cmd], cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=30).stdout

    try:
        sha = git("rev-parse", "HEAD").strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").strip())
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}
    return {"sha": sha, "dirty": dirty}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    work = OUTPUT / f"work-{os.getpid()}-{workload}"
    spans = OUTPUT / "spans" / f"{workload}-seed{seed}.npz"
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            spawned, res = _worker(["setup", workload, str(seed), str(work / f"probe{i}")], deadline)
            setups.append((spawned, res["setup"]))
        spawned, res = _worker(
            ["measure", workload, str(seed), str(work / "measure"), str(seconds), str(spans) if trace else "-"], deadline
        )
        setups.append((spawned, res["setup"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Set-up times, less the probe kernels that ran inside them, rescaled to
    # the reference host speed like the operations (see probe.py).
    def setup_median(part) -> float:
        return statistics.median(part(t0, s) * s["scale"] for t0, s in setups)

    setup_s = setup_median(lambda t0, s: s["inputs_done"] - t0 - s["probe_setup_s"])
    import_s = setup_median(lambda t0, s: s["import_done"] - t0 - s["probe_import_s"])
    inputs_s = setup_median(lambda t0, s: s["inputs_done"] - s["import_done"] - s["probe_setup_s"] + s["probe_import_s"])
    attempted, failed = res["attempted"], res["failed"]
    if trace:
        metrics = {}
        for name, layer in res["layers"].items():
            metrics[f"{name}.calls"] = _metric(layer["calls"], "count")
            metrics[f"{name}.self_s"] = _metric(layer["self_s"], "s")
            metrics[f"{name}.total_s"] = _metric(layer["total_s"], "s")
        for name, count in res["counts"].items():
            metrics[name] = _metric(count, "count")
        metrics["scenario.bytes_written"] = _metric(res["bytes_written"], "bytes")
        metrics["setup.import_s"] = _metric(import_s, "s")
        metrics["setup.inputs_s"] = _metric(inputs_s, "s")
        metrics["trace.wall_s"] = _metric(res["traced_wall_s"], "s")
        metrics["trace.overhead_s"] = _metric(res["traced_wall_s"] - res["raw_wall_s"], "s")
    else:
        metrics = {
            "wall_s": _metric(res["wall_s"], "s"),
            "cpu_s": _metric(res["cpu_s"], "s"),
            "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
            "setup_s": _metric(setup_s, "s"),
            "pass_frac": _metric(1.0 - failed / attempted, "1"),
            "worst_tol_ratio": _metric(res["worst_tol_ratio"], "1"),
        }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": {**res["env"], "git": _git()},
        "raw_wall_s": res["raw_wall_s"],
        "raw_cpu_s": res["raw_cpu_s"],
        "setup_samples_s": [s["inputs_done"] - t0 for t0, s in setups],
        "setup_scales": [s["scale"] for _, s in setups],
        "ops": res["ops"],
        "failures": res["failures"],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    out = OUTPUT / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({**detail, "result": result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(detail))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hyperflow" / "__init__.py").is_file():
        print(f"perfbench: no hyperflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = perf_counter() + TIME_LIMIT_S
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
