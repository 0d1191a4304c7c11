"""Scenario-driven orchestration: configs in, trajectories and reports out.

A scenario bundles a descriptor with a time grid, a sampling plan, oracle
settings and an output list.  ``run_scenario`` writes trajectory CSVs in
hyperboloid and ball coordinates plus JSON reports (existence window, limit
report, invariant report); ``run_invariant_battery`` drives the checks that
``verify`` gates on.  Outputs are deterministic for a fixed seed.  The
trajectory and ball writers flow all samples over the whole time grid in
one call of the checked flow (``flow._flow_times``), which refuses the
first grid time whose rows or their squared norms leave doubles before
anything is written; ``csvrows`` formats the rows with numpy, every
number as ``"%.17g" % v`` would write it, and each grid time once per run.
A stationary descriptor keeps its rows at every time, so its run flows,
projects and formats each sample once and repeats the sample's text at
every grid time.
Every artifact is written to a temporary file beside it and renamed into
place, so a failed run leaves no partial file.  Each of the battery's
closed-form checks is one call of the same checked flow over all of its
sampled times.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from . import oracle
from .ball import ball_projection_rows
from .catalog import CATALOG, catalog_descriptor
from .descriptors import (
    _ambient_r,
    _is_stationary,
    _json_float,
    _json_int,
    _json_object,
    _plan,
    _row_dots,
    chart_box,
    classify_shape,
    descriptor_from_json,
    descriptor_to_json,
    dimensions,
    immerse_rows,
)
from .errors import InvalidArgumentError
from .flow import ExistenceWindow, _flow_times, _lorentz_to_hyperbolic_scalars, _per_time, existence_window
from .limits import (
    FORWARD_FOCAL,
    FORWARD_GEODESIC,
    FORWARD_IDEAL_POINT,
    FORWARD_STATIONARY,
    LimitReport,
    backward_limit,
    evaluate_limits,
    forward_limit,
    hausdorff_distance,
)
from .lorentz import OrthonormalFrame


@dataclass(frozen=True)
class TimeGrid:
    start: float
    end: float
    steps: int
    clip_to_existence: bool = True

    def __post_init__(self):
        for name, value in (("start", self.start), ("end", self.end)):
            if not math.isfinite(value):
                raise InvalidArgumentError(f"time_grid.{name} must be finite, got {value!r}")
        if self.steps < 2:
            raise InvalidArgumentError("time grid needs steps >= 2")
        if not (self.start < self.end):
            raise InvalidArgumentError("time grid needs start < end")


@dataclass(frozen=True)
class Sampling:
    per_dim: int = 3
    seed: int = 7

    def __post_init__(self):
        if self.per_dim < 2:
            raise InvalidArgumentError("sampling needs per_dim >= 2")
        if self.seed < 0:
            raise InvalidArgumentError(f"sampling.seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class OracleSettings:
    enabled: bool = True
    fd_step: float = 1e-3
    dt: float = 1e-4
    tolerance: float = 1e-3

    def __post_init__(self):
        for name, value in (("fd_step", self.fd_step), ("dt", self.dt), ("tolerance", self.tolerance)):
            if not (math.isfinite(value) and value > 0):
                raise InvalidArgumentError(f"oracle.{name} must be positive and finite, got {value!r}")


_ALL_OUTPUTS = ("trajectory", "ball", "window", "limits", "invariants")


@dataclass(frozen=True)
class Scenario:
    name: str
    descriptor: object
    time_grid: TimeGrid = TimeGrid(-2.0, 2.0, 9)
    sampling: Sampling = Sampling()
    oracle: OracleSettings = OracleSettings()
    outputs: tuple[str, ...] = _ALL_OUTPUTS
    frame: OrthonormalFrame | None = None  # None means the standard frame

    def __post_init__(self):
        # the name prefixes every artifact file, so it must not leave the output directory
        name = self.name
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\\" in name:
            raise InvalidArgumentError(f"scenario name must be a file name without path separators, got {name!r}")
        for out in self.outputs:
            if out not in _ALL_OUTPUTS:
                raise InvalidArgumentError(f"unknown output kind {out!r}")
        m = dimensions(self.descriptor).m
        if self.frame is not None and self.frame.m != m:
            raise InvalidArgumentError(f"frame must be {m + 1}x{m + 1} for a descriptor in H^{m}, got {self.frame.m + 1}x{self.frame.m + 1}")


def scenario_from_json(obj: dict, name: str = "scenario") -> Scenario:
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"a scenario must be a JSON object, got {type(obj).__name__}")
    if "descriptor" not in obj:
        raise InvalidArgumentError("scenario is missing the descriptor")
    grid = _json_object(obj.get("time_grid", {}), "time_grid")
    samp = _json_object(obj.get("sampling", {}), "sampling")
    orc = _json_object(obj.get("oracle", {}), "oracle")
    frame_spec = obj.get("frame", "standard")
    frame = None if frame_spec == "standard" else OrthonormalFrame(np.asarray(frame_spec, dtype=float))
    return Scenario(
        name=obj.get("name", name),
        descriptor=descriptor_from_json(obj["descriptor"]),
        time_grid=TimeGrid(
            _json_float(grid.get("start", -2.0), "time_grid.start"),
            _json_float(grid.get("end", 2.0), "time_grid.end"),
            _json_int(grid.get("steps", 9), "time_grid.steps"),
            _bool_from_json(grid, "clip_to_existence", True, "time_grid"),
        ),
        sampling=Sampling(_json_int(samp.get("per_dim", 3), "sampling.per_dim"), _json_int(samp.get("seed", 7), "sampling.seed")),
        oracle=OracleSettings(
            _bool_from_json(orc, "enabled", True, "oracle"),
            _json_float(orc.get("fd_step", 1e-3), "oracle.fd_step"),
            _json_float(orc.get("dt", 1e-4), "oracle.dt"),
            _json_float(orc.get("tolerance", 1e-3), "oracle.tolerance"),
        ),
        outputs=_outputs_from_json(obj.get("outputs", list(_ALL_OUTPUTS))),
        frame=frame,
    )


def _bool_from_json(section: dict, key: str, default: bool, path: str) -> bool:
    """A JSON boolean field; strings such as "false" are refused, not read as truthy."""
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise InvalidArgumentError(f"{path}.{key} must be true or false, got {value!r}")
    return value


def _outputs_from_json(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise InvalidArgumentError(f"outputs must be a list of output names, got {value!r}")
    return tuple(value)


def load_scenario(source: str | Path) -> Scenario:
    """A scenario from a JSON file path, or a built-in catalog entry by name."""
    text = str(source)
    if text in CATALOG:
        return Scenario(name=text, descriptor=catalog_descriptor(text))
    path = Path(source)
    if not path.exists():
        raise InvalidArgumentError(f"{text!r} is neither a scenario file nor a catalog name")
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return scenario_from_json(obj, name=path.stem)


def _load_seeded(source: str | Path, seed: int | None) -> Scenario:
    """``load_scenario``, with the sampling seed replaced by ``seed`` unless it is None."""
    scn = load_scenario(source)
    return scn if seed is None else replace(scn, sampling=replace(scn.sampling, seed=seed))


# ---------------------------------------------------------------------------
# sampling helpers


def chart_samples(d, per_dim: int, seed: int, cap: int = 48) -> list[np.ndarray]:
    """Deterministic chart samples, uniform over the canonical chart box."""
    n = dimensions(d).n
    if n == 0:
        return [np.zeros(0)]
    rng = np.random.default_rng(seed)
    count = min(per_dim**n, cap)
    box = chart_box(d)
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    return [lo + (hi - lo) * rng.random(n) for _ in range(count)]


def lorentz_time_range(d) -> tuple[float | None, float | None]:
    """Open maximal interval of the Lorentzian flow (None = unbounded end)."""
    return _plan(d).lorentz_range


def sample_times(lo: float | None, hi: float | None, count: int, rng, span: float = 4.0) -> np.ndarray:
    a = -span if lo is None else lo + 0.02 * max(1.0, abs(lo))
    b = span if hi is None else hi - 0.02 * max(1.0, abs(hi))
    if not (a < b):
        a, b = (b - 1.0, b) if hi is not None else (a, a + 1.0)
    return a + (b - a) * rng.random(count)


def _max_workers() -> int:
    """Pool size for ``parallel_map``: HYPERFLOW_THREADS, else min(8, CPUs).

    Nothing in the package calls it any more; it stays until the benchmark,
    which records it, stops reading it.
    """
    cap = os.environ.get("HYPERFLOW_THREADS")
    if cap:
        return max(1, int(cap))
    return min(8, os.cpu_count() or 1)


def parallel_map(fn: Callable, items: Sequence) -> list:
    """Map ``fn`` over ``items`` on a thread pool, in order.

    Unused by the package: the GIL-bound pool only slowed ``run_scenario``
    down, which now flows its samples in batches.  It stays until the
    benchmark, whose tracer wraps it by name, stops referring to it.  The
    pool is imported by the first call that needs one, so importing the
    package loads no thread pool.
    """
    workers = _max_workers()
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# invariant battery


@dataclass
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool


@dataclass
class InvariantReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, residual: float, tolerance: float) -> None:
        self.checks.append(CheckResult(name, float(residual), float(tolerance), bool(residual < tolerance)))


def run_invariant_battery(
    d,
    sampling: Sampling = Sampling(),
    settings: OracleSettings = OracleSettings(),
    tolerance_scale: float = 1.0,
    lorentz_eval: Callable | None = None,
    hyperbolic_eval: Callable | None = None,
) -> InvariantReport:
    """All closed-form and oracle checks for one descriptor.

    The samples are immersed and validated once; every closed-form check
    then flows all of them over all of its times in one call of the flow
    core, so a battery without the oracle makes five flow calls of its own.
    The oracle checks make a fixed number of chart evaluations: each gauge's
    flow-equation residuals come from one ``pde_residual_grid`` over all
    samples and times, and the isoparametric check is one
    ``isoparametric_residuals`` call over its sample times: one immersion
    of its chart points and one flow of them over all times, with the T
    normal-frame transports run as one stacked chain.
    ``lorentz_eval`` and ``hyperbolic_eval`` map validated rows X (K, m+1)
    and an array of T times to the flowed rows (T, K, m+1); they default to
    the checked flow of each gauge (``flow._flow_times``), which refuses the
    first time whose flow leaves doubles, and tests may substitute
    corrupted evaluators as negative controls.  Tolerances scale with
    ``tolerance_scale``, which must be positive and finite.
    """
    _check_tolerance_scale(tolerance_scale)
    F = lorentz_eval or (lambda X, ts: _flow_times(d, X, ts, "lorentz"))
    f = hyperbolic_eval or (lambda X, ts: _flow_times(d, X, ts))
    dims = dimensions(d)
    n = dims.n
    window = existence_window(d)
    rng = np.random.default_rng(sampling.seed)
    us = chart_samples(d, sampling.per_dim, sampling.seed)
    X = immerse_rows(d, np.array(us))
    report = InvariantReport()
    scale = tolerance_scale

    # norm law <F,F> = <x,x> - 2nt on the Lorentzian domain
    lo, hi = lorentz_time_range(d)
    times = sample_times(lo, hi, 40, rng)
    residual = _norm2_rows(F(X, times)) - (_norm2_rows(X) - 2.0 * n * times[:, None])
    report.add("norm_law", float(np.max(np.abs(residual))), 1e-9 * scale)

    # gauge round trip between the two flows; sampling stays away from the
    # conversion bound, where 1 + 2n w(t) is a catastrophic cancellation and
    # the composition cannot be evaluated to 1e-12 in doubles
    hyp_hi = window.t_max
    times_h = sample_times(None, hyp_hi, 25, rng, span=2.0 / max(n, 1))
    if n > 0:
        s, decay = _lorentz_to_hyperbolic_scalars(n, 1.0, times_h.tolist())
        via_gauge = _per_time(decay) * F(X, np.array(s))
    else:
        via_gauge = X
    report.add("gauge_roundtrip", float(np.max(np.abs(f(X, times_h) - via_gauge))), 1e-12 * scale)

    if settings.enabled:
        sub = us[: max(2, min(4, len(us)))]
        # flow equation residuals in both gauges, all samples x times at once
        t_h = sample_times(None, hyp_hi, 4, rng, span=1.5)
        t_l = sample_times(lo, hi, 4, rng, span=1.5)
        for gauge, times in (("hyperbolic", t_h), ("lorentz", t_l)):
            grid = oracle.pde_residual_grid(d, sub, times.tolist(), settings.fd_step, settings.dt, gauge)
            report.add(f"pde_residual_{gauge}", float(np.max(grid)), settings.tolerance * scale)

        # constancy of principal curvatures along the flow, all times at once;
        # one maximum over them, so a nan spread at any time fails the check
        spreads = np.zeros(1)
        if dims.codim > 0 and n > 0:
            times = sample_times(None, hyp_hi, 3, rng, span=1.0)
            spreads = oracle.isoparametric_residuals(d, times.tolist(), sub, h=settings.fd_step)
        report.add("isoparametric_spread", float(np.max(spreads)), 1e-5 * scale)

    # limit consistency; flowed points grow like e^(n|t|), so the probe
    # times shrink with n: n|t| <= 300 keeps their squared norms, about
    # e^600 = 1e260, within the range of doubles
    flags = classify_shape(d)
    frame = OrthonormalFrame.standard(dims.m)
    f_at = lambda *times: f(X, np.array(times))
    far = 300.0 / max(n, 1)
    if not flags.totally_geodesic and n > 0:
        back = backward_limit(d, us, estimate_dim=False)
        flowed = ball_projection_rows(frame, 1.0, f_at(-min(15.0, far))[0])
        report.add("backward_limit_consistency", hausdorff_distance(flowed, back.samples), 1e-5 * scale)

    fwd = forward_limit(d, us)
    if fwd.variant == FORWARD_STATIONARY:
        worst = float(np.max(np.abs(f_at(min(5.0, far))[0] - X)))
        report.add("forward_limit_consistency", worst, 1e-12 * scale)
    elif fwd.variant == FORWARD_FOCAL:
        T = window.t_max
        S = np.asarray(fwd.samples, dtype=float)
        d_coarse, d_fine = np.max(np.sqrt(_row_dots(f_at(T - 1e-6, T - 1e-9) - S)), axis=1).tolist()
        report.add("forward_limit_consistency", d_coarse, 1e-2 * scale)
        report.add("focal_refinement_monotone", d_fine / max(d_coarse, 1e-300), 1.0)
    elif fwd.variant == FORWARD_GEODESIC:
        worst = float(np.max(np.abs(f_at(min(15.0, far))[0] - np.asarray(fwd.samples, dtype=float))))
        report.add("forward_limit_consistency", worst, 1e-5 * scale)
    elif fwd.variant == FORWARD_IDEAL_POINT:
        Y = ball_projection_rows(frame, 1.0, f_at(min(15.0, far))[0])
        worst = float(np.max(np.sqrt(_row_dots(Y - fwd.ideal_point))))
        report.add("forward_limit_consistency", worst, 1e-5 * scale)
    return report


def _check_tolerance_scale(tolerance_scale: float) -> None:
    if not (math.isfinite(tolerance_scale) and tolerance_scale > 0):
        raise InvalidArgumentError(
            f"tolerance scale (--tolerance-scale) must be positive and finite, got {tolerance_scale!r}"
        )


def _norm2_rows(X: np.ndarray) -> np.ndarray:
    """<x,x> of every row of X (..., m+1), with the arithmetic of ``minkowski_inner(x, x)``."""
    return _row_dots(X[..., :-1]) - X[..., -1] * X[..., -1]


# ---------------------------------------------------------------------------
# serialization helpers


def window_to_json(w: ExistenceWindow) -> dict:
    out = {
        "t_prime": w.t_prime,
        "t_dprime": w.t_dprime,
        "t_max": w.t_max,
        "t_alpha": w.t_alpha,
        "lorentz_lower": w.lorentz_lower,
    }
    out["inner"] = window_to_json(w.inner) if w.inner is not None else None
    return out


def limit_report_to_json(rep: LimitReport) -> dict:
    fwd = {
        "variant": rep.forward.variant,
        "collapse_time": rep.forward.collapse_time,
        "ideal_point": None if rep.forward.ideal_point is None else [float(v) for v in rep.forward.ideal_point],
        "samples": None if rep.forward.samples is None else [[float(v) for v in row] for row in rep.forward.samples],
    }
    bwd = {
        "variant": rep.backward.variant,
        "dim": rep.backward.dim,
        "frame": rep.backward.frame_label,
        "samples": None if rep.backward.samples is None else [[float(v) for v in row] for row in rep.backward.samples],
    }
    return {"forward": fwd, "backward": bwd}


def invariant_report_to_json(rep: InvariantReport) -> dict:
    return {
        "checks": [
            {"name": c.name, "max_residual": c.max_residual, "tolerance": c.tolerance, "pass": c.passed}
            for c in rep.checks
        ],
        "overall_pass": rep.overall_pass,
    }


# ---------------------------------------------------------------------------
# artifact writers


def _flow_samples(d, X0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Flowed sample points as an (S, T, m+1) array, from one checked flow of the chart rows X0 over the grid.

    Times far enough back overflow doubles, in the rows or in their squared
    norms; ``_flow_times`` refuses the first such grid time, before anything
    is written, instead of writing rows whose <x,x> cannot be evaluated.  A
    stationary descriptor has no maximal time and keeps its rows at every
    time, so its grid is flowed at the first time only, as (S, 1, m+1).
    """
    ts = times.tolist()
    return _flow_times(d, X0, ts[:1] if _is_stationary(d) else ts).transpose(1, 0, 2)


@contextmanager
def _replacing(path: Path) -> Iterator[BinaryIO]:
    """A binary file that becomes ``path`` only once the block completes.

    It is written as a temporary file in the same directory and renamed
    over ``path``; if anything fails, the temporary file is removed and
    ``path`` is left as it was.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path: Path, obj: dict) -> None:
    with _replacing(path) as fh:
        fh.write((json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("ascii"))


def _write_sample_rows(path: Path, symbol: str, labels: tuple[np.ndarray, np.ndarray], values: np.ndarray) -> None:
    """Write ``sample_id,t,<symbol>_1,...`` rows of an (S, T, k) array, sample by sample, block by block.

    ``labels`` are the run's ``csvrows.row_labels``, shared by its CSVs; an
    (S, 1, k) array is written at every time of the labels.
    """
    from . import csvrows

    k = values.shape[2]
    with _replacing(path) as fh:
        fh.write(("sample_id,t," + ",".join(f"{symbol}_{i + 1}" for i in range(k)) + "\n").encode("ascii"))
        for block in csvrows.sample_blocks(labels, values):
            fh.write(block)


# the most values a run may flow: time_grid.steps x samples x (m + 1)
MAX_GRID_VALUES = 10_000_000


def _clipped_grid(scn: Scenario, samples: int) -> tuple[np.ndarray, float | None]:
    """The time grid clipped to the existence window, refused before it is allocated if too large."""
    grid = scn.time_grid
    width = dimensions(scn.descriptor).m + 1
    if grid.steps * samples * width > MAX_GRID_VALUES:
        raise InvalidArgumentError(
            f"time_grid.steps = {grid.steps} with {samples} samples of {width} coordinates flows"
            f" {grid.steps * samples * width} values, more than {MAX_GRID_VALUES}; lower time_grid.steps"
        )
    window = existence_window(scn.descriptor)
    end = grid.end
    clipped = None
    if grid.clip_to_existence and window.t_max is not None:
        margin = 1e-9 * max(1.0, abs(window.t_max))
        if window.t_max - margin < end:
            end = window.t_max - margin
            clipped = end
    if not (grid.start < end):
        raise InvalidArgumentError("time grid is empty after clipping to the existence window")
    return np.linspace(grid.start, end, grid.steps), clipped


def run_scenario(source: str | Path, out_dir: str | Path, seed: int | None = None, tolerance_scale: float = 1.0) -> dict:
    """Run one scenario and write its artifacts; returns a summary dict."""
    _check_tolerance_scale(tolerance_scale)
    scn = _load_seeded(source, seed)
    d = scn.descriptor
    dims = dimensions(d)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    us = chart_samples(d, scn.sampling.per_dim, scn.sampling.seed)
    times, clipped = _clipped_grid(scn, len(us))
    frame = scn.frame or OrthonormalFrame.standard(dims.m)
    written: dict[str, str] = {}

    if "trajectory" in scn.outputs or "ball" in scn.outputs:
        from . import csvrows  # imported by the first write: verify and limits format no CSV

        flowed = _flow_samples(d, immerse_rows(d, np.array(us)), times)
        labels = csvrows.row_labels(times, len(us))
        if "ball" in scn.outputs:
            ball = ball_projection_rows(frame, _ambient_r(d), flowed.reshape(-1, dims.m + 1)).reshape(*flowed.shape[:2], dims.m)
        if "trajectory" in scn.outputs:
            path = out / f"{scn.name}_trajectory.csv"
            _write_sample_rows(path, "x", labels, flowed)
            written["trajectory"] = str(path)
        if "ball" in scn.outputs:
            path = out / f"{scn.name}_ball.csv"
            _write_sample_rows(path, "y", labels, ball)
            written["ball"] = str(path)

    summary: dict = {
        "name": scn.name,
        "descriptor": descriptor_to_json(d),
        "dimensions": {"n": dims.n, "m": dims.m, "codim": dims.codim},
        "window": window_to_json(existence_window(d)),
        "clipped_end": clipped,
    }
    if "window" in scn.outputs:
        path = out / f"{scn.name}_window.json"
        _write_json(path, summary)
        written["window"] = str(path)

    if "limits" in scn.outputs:
        rep = evaluate_limits(d, us)
        path = out / f"{scn.name}_limits.json"
        _write_json(path, limit_report_to_json(rep))
        written["limits"] = str(path)
        summary["limits"] = limit_report_to_json(rep)

    if "invariants" in scn.outputs:
        rep = run_invariant_battery(d, scn.sampling, scn.oracle, tolerance_scale)
        path = out / f"{scn.name}_invariants.json"
        _write_json(path, invariant_report_to_json(rep))
        written["invariants"] = str(path)
        summary["invariants"] = invariant_report_to_json(rep)

    summary["written"] = written
    return summary


def verify_scenario(source: str | Path, tolerance_scale: float = 1.0, seed: int | None = None) -> InvariantReport:
    """Run the full invariant battery for a scenario."""
    scn = _load_seeded(source, seed)
    return run_invariant_battery(scn.descriptor, scn.sampling, scn.oracle, tolerance_scale)
