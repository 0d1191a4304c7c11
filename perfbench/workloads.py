"""Benchmark workloads: seeded inputs, the fixed operation list, and the correctness gate.

Each workload turns a seed into a list of operations: the operations for
the reference seed 7, whose CSV digests are recorded in digests.json, then
the same operations for the given seed.  An operation is one call into a
public function of the package (``cli.main`` or a library function), looked
up on its module at call time so that the tracer's wrappers are seen.  Its
outcome is checked after the call returns, outside the timed interval.

The workloads were chosen to stress different layers:

* ``verify_sweep``     -- ``hyperflow verify`` on every catalog entry.  About
  90% of its time is the oracle's normal-frame transport, with one scalar
  ``immerse`` and ``hyperbolic_flow`` per stencil point.  Writes nothing.
* ``trajectory_dense`` -- ``hyperflow run`` with dense trajectory and ball
  outputs on every catalog entry.  Scalar flows through the
  ``parallel_map`` thread pool, ``ball_projection`` and ``%.17g`` CSV
  writing; no oracle calls.
* ``nested_chain``     -- ``hyperflow run`` with all outputs on geodesic
  umbilic chains of depth 4 and 8.  Descriptor structure is recomputed on
  every recursive call, so cost grows with depth; the catalog stops at
  depth 2.
* ``euler_walk``       -- the forward Euler comparison and the flat normal
  bundle check, as library calls.  The only traffic through
  ``hyperbolic_flow_batch`` and the batched stencil kernel.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from hyperflow import cli, limits, oracle, scenario
from hyperflow.catalog import CATALOG, catalog_names
from hyperflow.descriptors import Umbilic, derive_umbilic, descriptor_to_json, dimensions

REFERENCE_SEED = 7

HYPERBOLOID_TOL = 1e-9
EULER_TOL = 1e-3
FLAT_BUNDLE_TOL = 1e-4


@dataclass
class Outcome:
    """Result of the correctness gate for one executed operation."""

    ok: bool
    ratio: float = 0.0  # largest residual / tolerance among the checks
    digest: str | None = None  # sha256 over the CSVs the operation wrote
    bytes_written: int = 0
    reason: str = ""


@dataclass
class Op:
    key: str  # unique within the workload's list
    ref: str | None  # key into digests.json, for reference-seed operations that write CSVs
    call: Callable[[], object]
    # gate for the call's result; given the digest its CSVs must have, if
    # known, and whether this is the operation's first execution in the run
    check: Callable[[object, str | None, bool], Outcome]
    reference: bool = False  # built for the reference seed


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _worst_ratio(report: dict) -> float:
    return max((c["max_residual"] / c["tolerance"] for c in report["checks"]), default=0.0)


def _check_verify(result, expected_digest: str | None, first: bool) -> Outcome:
    rc, text = result
    if rc != 0:
        return Outcome(False, reason=f"exit code {rc}")
    report = json.loads(text)
    ratio = _worst_ratio(report)
    if not report["overall_pass"]:
        return Outcome(False, ratio, reason="overall_pass is false")
    return Outcome(True, ratio)


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_run(result, expected_digest: str | None, first: bool) -> Outcome:
    """Exit code, invariants, and the CSVs.

    Every row is checked on the operation's first execution in the run,
    whose CSVs must also match the recorded digest, if there is one.  Later
    executions must write the same bytes as the first.
    """
    rc, text = result
    if rc != 0:
        return Outcome(False, reason=f"exit code {rc}")
    summary = json.loads(text)
    written = {kind: Path(p) for kind, p in summary["written"].items()}
    size = sum(p.stat().st_size for p in written.values())
    ratio = 0.0
    inv = summary.get("invariants")
    if inv is not None:
        ratio = _worst_ratio(inv)
        if not inv["overall_pass"]:
            return Outcome(False, ratio, bytes_written=size, reason="overall_pass is false")
    sha = hashlib.sha256()
    for kind in ("trajectory", "ball"):
        if kind in written:
            sha.update(written[kind].read_bytes())
    digest = sha.hexdigest()
    if expected_digest is not None and digest != expected_digest:
        return Outcome(False, ratio, digest, size, "CSV bytes differ from the recorded or earlier digest")
    if not first:
        return Outcome(True, ratio, digest, size)
    if "trajectory" in written:
        x = _read_csv(written["trajectory"])[:, 2:]
        if not np.all(np.isfinite(x)):
            return Outcome(False, ratio, digest, size, "non-finite trajectory row")
        # |<x,x> + 1| relative to the size of x: rows flowed far backward
        # have coordinates near 1e4, where doubles resolve <x,x> only to ~1e-7.
        off = np.abs(np.sum(x[:, :-1] ** 2, axis=1) - x[:, -1] ** 2 + 1.0)
        worst = float(np.max(off / np.maximum(1.0, np.sum(x * x, axis=1)))) / HYPERBOLOID_TOL
        ratio = max(ratio, worst)
        if worst > 1.0:
            return Outcome(False, ratio, digest, size, "trajectory row off the hyperboloid")
    if "ball" in written:
        y = _read_csv(written["ball"])[:, 2:]
        if not np.all(np.isfinite(y)) or np.linalg.norm(y, axis=1).max() >= 1.0:
            return Outcome(False, ratio, digest, size, "ball row outside the open unit ball")
    return Outcome(True, ratio, digest, size)


def _check_below(tol: float) -> Callable[[object, str | None, bool], Outcome]:
    def check(value, expected_digest: str | None, first: bool) -> Outcome:
        v = float(value)
        if not math.isfinite(v) or v >= tol:
            return Outcome(False, v / tol if math.isfinite(v) else math.inf, reason=f"residual {v} >= {tol}")
        return Outcome(True, v / tol)

    return check


def _write_scenario(path: Path, name: str, d, **settings) -> Path:
    """Write a scenario file and prove that it loads back to the same descriptor."""
    path.parent.mkdir(parents=True, exist_ok=True)
    obj = {"name": name, "descriptor": descriptor_to_json(d), **settings}
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    loaded = scenario.load_scenario(path)
    if descriptor_to_json(loaded.descriptor) != obj["descriptor"] or loaded.name != name:
        raise RuntimeError(f"scenario {path} does not round-trip through load_scenario")
    return path


def _run_op(name: str, seed: int, scenario_file: Path, out: Path) -> Op:
    argv = ["run", str(scenario_file), "--out", str(out)]
    ref = f"run {name}" if seed == REFERENCE_SEED else None
    return Op(f"run {name} --seed {seed}", ref, lambda: _cli(argv), _check_run)


def _verify_sweep(seed: int, work: Path) -> list[Op]:
    ops = []
    for name in catalog_names():
        argv = ["verify", name, "--seed", str(seed)]
        ops.append(Op(" ".join(argv), None, lambda argv=argv: _cli(argv), _check_verify))
    return ops


def _trajectory_dense(seed: int, work: Path) -> list[Op]:
    settings = {
        "time_grid": {"start": -3.0, "end": 2.0, "steps": 200, "clip_to_existence": True},
        "sampling": {"per_dim": 7, "seed": seed},
        "outputs": ["trajectory", "ball"],
    }
    ops = []
    for name in catalog_names():
        path = _write_scenario(work / "inputs" / f"{name}.json", name, CATALOG[name], **settings)
        ops.append(_run_op(name, seed, path, work / "out"))
    return ops


def geodesic_chain(depth: int):
    """``circle_h2`` wrapped ``depth`` times in a geodesic umbilic inclusion."""
    d = CATALOG["circle_h2"]
    for _ in range(depth):
        xi = [1.0] + [0.0] * (dimensions(d).m + 1)
        d = Umbilic(derive_umbilic(xi, 0.0), d)
    return d


def _nested_chain(seed: int, work: Path) -> list[Op]:
    ops = []
    for depth in (4, 8):
        name = f"chain{depth}"
        path = _write_scenario(work / "inputs" / f"{name}.json", name, geodesic_chain(depth), sampling={"per_dim": 3, "seed": seed})
        ops.append(_run_op(name, seed, path, work / "out"))
    return ops


def _euler_walk(seed: int, work: Path) -> list[Op]:
    ops = []
    for name in ("tube_h3", "clifford_tube_h5", "geodesic_sphere_h3"):
        d = CATALOG[name]
        us = scenario.chart_samples(d, 2, seed)[:4]
        call = lambda d=d, us=us: oracle.evolve_and_compare(d, us, 0.0, 0.02, 1e-5)
        ops.append(Op(f"evolve_and_compare {name} --seed {seed}", None, call, _check_below(EULER_TOL)))
    d = CATALOG["circle_in_h4_nested"]
    us = scenario.chart_samples(d, 3, seed)
    call = lambda: limits.verify_flat_normal_bundle(d, limits.backward_limit(d, us))
    ops.append(Op(f"verify_flat_normal_bundle --seed {seed}", None, call, _check_below(FLAT_BUNDLE_TOL)))
    return ops


_PER_SEED = {
    "verify_sweep": _verify_sweep,
    "trajectory_dense": _trajectory_dense,
    "nested_chain": _nested_chain,
    "euler_walk": _euler_walk,
}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The workload's operation list: the reference seed's operations, then the seed's."""
    return [
        replace(op, reference=s == REFERENCE_SEED)
        for s in dict.fromkeys((REFERENCE_SEED, seed))
        for op in _PER_SEED[workload](s, work / f"seed{s}")
    ]
