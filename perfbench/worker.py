"""One benchmark process: import the package, build inputs, run and check operations.

Started by ``run.py`` in a fresh interpreter, so that import and set-up are
paid the way a user pays them.  Modes:

    worker.py setup   WORKLOAD SEED WORK                  time import and input building only
    worker.py measure WORKLOAD SEED WORK SECONDS SPANS    SPANS is "-" for an untraced run
    worker.py digests WORK                                print the reference CSV digests

Every mode prints one JSON object as its last line of standard output.
"""

import os
import sys
from time import perf_counter

from probe import SpeedProbe, scales

# The probe samples host speed from here until the inputs are built.
PROBE = SpeedProbe()
PROBE.arm()
PROBE_START = PROBE.state()

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import hyperflow  # noqa: E402  (the import is what set-up time measures)

IMPORT_DONE = perf_counter()
IMPORT_PROBE = PROBE.state()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402
from time import process_time  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import SPAN_NAMES, Tracer, layer_times  # noqa: E402

DIGESTS = Path(__file__).with_name("digests.json")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

BRACKET_PROBES = 4  # probe kernels run right before and right after each operation


def setup_done() -> dict:
    """Set-up timestamps, the probe's wall time inside them, and the host-speed scale."""
    inputs_done = perf_counter()
    PROBE.disarm()
    end = PROBE.state()
    return {
        "import_done": IMPORT_DONE,
        "inputs_done": inputs_done,
        "probe_import_s": IMPORT_PROBE[2] - PROBE_START[2],
        "probe_setup_s": end[2] - PROBE_START[2],
        "scale": scales(PROBE_START, end)[0],
    }


class Run:
    """Executes operations, times them, and gates every outcome.

    CSV digests must match digests.json for reference-seed operations and
    the first execution for all others.
    """

    def __init__(self, recorded: dict | None):
        self.recorded = recorded
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.worst_ratio = 0.0

    def execute(self, op: workloads.Op) -> tuple[float, float, workloads.Outcome]:
        self.attempted += 1
        expected = self.digests.get(op.key)
        first = expected is None
        if first and op.ref is not None and self.recorded is not None:
            expected = self.recorded.get(op.ref, "not recorded")
        c0 = process_time()
        w0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failed operation is counted, not fatal
            wall, cpu = perf_counter() - w0, process_time() - c0
            self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            return wall, cpu, workloads.Outcome(False, reason=str(exc))
        wall, cpu = perf_counter() - w0, process_time() - c0
        outcome = op.check(result, expected, first)
        if op.reference:
            # the same inputs in every run, so the ratio compares commits, not seeds
            self.worst_ratio = max(self.worst_ratio, outcome.ratio)
        if outcome.ok and outcome.digest is not None:
            self.digests.setdefault(op.key, outcome.digest)
        if not outcome.ok:
            self.failures.append(f"{op.key}: {outcome.reason}")
        return wall, cpu, outcome


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "parallel_map_workers": hyperflow.scenario._max_workers(),
        "HYPERFLOW_THREADS": os.environ.get("HYPERFLOW_THREADS"),
        "blas": {k: os.environ.get(k) for k in BLAS_VARS},
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(workload: str, seed: int, work: Path, seconds: float, spans_path: str) -> dict:
    ops = workloads.build(workload, seed, work)
    setup = setup_done()
    run = Run(json.loads(DIGESTS.read_text()).get(workload))
    run.execute(ops[0])  # warm-up

    # Closed loop: operations in list order, each issued after the previous
    # one returned, until the time is up and every one ran at least once.
    # Each sample is rescaled by the host speed the probe saw right before,
    # during and right after the operation.
    fields = ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s", "wall_scale", "cpu_scale")
    samples = {op.key: {f: [] for f in fields} for op in ops}
    bytes_per_pass = {}
    deadline = perf_counter() + seconds
    i = 0
    while i < len(ops) or perf_counter() < deadline:
        op = ops[i % len(ops)]
        start = PROBE.state()
        PROBE.sample(BRACKET_PROBES)
        armed = PROBE.state()
        PROBE.arm()
        try:
            wall, cpu, outcome = run.execute(op)
        finally:
            PROBE.disarm()
        disarmed = PROBE.state()
        PROBE.sample(BRACKET_PROBES)
        # take out the kernels that ran inside the operation
        wall -= disarmed[2] - armed[2]
        cpu -= disarmed[1] - armed[1]
        wall_scale, cpu_scale = scales(start, PROBE.state())
        for f, v in zip(fields, (wall * wall_scale, cpu * cpu_scale, wall, cpu, wall_scale, cpu_scale)):
            samples[op.key][f].append(v)
        bytes_per_pass.setdefault(op.key, outcome.bytes_written)
        i += 1

    def per_pass(field: str) -> float:
        return sum(statistics.median(s[field]) for s in samples.values())

    result = {
        "setup": setup,
        "wall_s": per_pass("wall_s"),
        "cpu_s": per_pass("cpu_s"),
        "raw_wall_s": per_pass("raw_wall_s"),
        "raw_cpu_s": per_pass("raw_cpu_s"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": samples,
        "bytes_written": sum(bytes_per_pass.values()),
    }

    if spans_path != "-":
        # One traced pass over the same list, after the untraced measurement.
        tracer = Tracer()
        tracer.install()
        try:
            traced = sum(run.execute(op)[0] for op in ops)
        finally:
            tracer.uninstall()
        spans = tracer.spans()
        Path(spans_path).parent.mkdir(parents=True, exist_ok=True)
        numpy.savez_compressed(spans_path, names=numpy.array(SPAN_NAMES), **spans)
        result["layers"] = layer_times(spans)
        result["counts"] = tracer.counts()
        result["traced_wall_s"] = traced

    result.update(
        attempted=run.attempted,
        failed=len(run.failures),
        failures=run.failures,
        worst_tol_ratio=run.worst_ratio,
        env=environment(),
    )
    return result


def reference_digests(work: Path) -> dict:
    out = {}
    for workload in ("trajectory_dense", "nested_chain"):
        run = Run(None)
        for op in workloads.build(workload, workloads.REFERENCE_SEED, work / workload):
            outcome = run.execute(op)[2]
            if not outcome.ok:
                raise SystemExit(f"{op.key} failed: {outcome.reason}")
            out.setdefault(workload, {})[op.ref] = outcome.digest
    return out


def main(argv: list[str]) -> None:
    mode = argv[0]
    if mode == "setup":
        workload, seed, work = argv[1], int(argv[2]), Path(argv[3])
        workloads.build(workload, seed, work)
        print(json.dumps({"setup": setup_done()}))
    elif mode == "measure":
        workload, seed, work, seconds, spans = argv[1], int(argv[2]), Path(argv[3]), float(argv[4]), argv[5]
        print(json.dumps(measure(workload, seed, work, seconds, spans)))
    elif mode == "digests":
        PROBE.disarm()
        print(json.dumps(reference_digests(Path(argv[1])), indent=2, sort_keys=True))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
