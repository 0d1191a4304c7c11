"""Scenario-driven orchestration: configs in, trajectories and reports out.

A scenario bundles a descriptor with a time grid, a sampling plan, oracle
settings and an output list.  ``run_scenario`` writes trajectory CSVs in
hyperboloid and ball coordinates plus JSON reports (existence window, limit
report, invariant report); ``run_invariant_battery`` drives the checks that
``verify`` gates on.  Outputs are deterministic for a fixed seed.  The
trajectory and ball writers flow all samples in one batch per grid time, and
the battery's closed-form checks one batch per sampled time; the environment
variable HYPERFLOW_THREADS no longer affects them.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import oracle
from .ball import ball_projection_rows
from .catalog import CATALOG, catalog_descriptor
from .descriptors import (
    Ambient,
    FullProduct,
    Umbilic,
    _row_dots,
    chart_box,
    chart_dim,
    classify_shape,
    descriptor_from_json,
    descriptor_to_json,
    dimensions,
    immerse_rows,
)
from .errors import InvalidArgumentError, TimeOutOfRangeError
from .flow import (
    ExistenceWindow,
    _validate_rows,
    existence_window,
    gauge_lorentz_to_hyperbolic,
    hyperbolic_flow_batch,
    lorentz_flow_batch,
)
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


def scenario_from_json(obj: dict, name: str = "scenario") -> Scenario:
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"a scenario must be a JSON object, got {type(obj).__name__}")
    if "descriptor" not in obj:
        raise InvalidArgumentError("scenario is missing the descriptor")
    grid = _section_from_json(obj, "time_grid")
    samp = _section_from_json(obj, "sampling")
    orc = _section_from_json(obj, "oracle")
    frame_spec = obj.get("frame", "standard")
    frame = None if frame_spec == "standard" else OrthonormalFrame(np.asarray(frame_spec, dtype=float))
    return Scenario(
        name=obj.get("name", name),
        descriptor=descriptor_from_json(obj["descriptor"]),
        time_grid=TimeGrid(
            float(grid.get("start", -2.0)),
            float(grid.get("end", 2.0)),
            _int_from_json(grid, "steps", 9, "time_grid"),
            _bool_from_json(grid, "clip_to_existence", True, "time_grid"),
        ),
        sampling=Sampling(_int_from_json(samp, "per_dim", 3, "sampling"), _int_from_json(samp, "seed", 7, "sampling")),
        oracle=OracleSettings(
            _bool_from_json(orc, "enabled", True, "oracle"),
            float(orc.get("fd_step", 1e-3)),
            float(orc.get("dt", 1e-4)),
            float(orc.get("tolerance", 1e-3)),
        ),
        outputs=_outputs_from_json(obj.get("outputs", list(_ALL_OUTPUTS))),
        frame=frame,
    )


def _section_from_json(obj: dict, key: str) -> dict:
    """An optional JSON object section; arrays, numbers and null are refused."""
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise InvalidArgumentError(f"{key} must be a JSON object, got {value!r}")
    return value


def _bool_from_json(section: dict, key: str, default: bool, path: str) -> bool:
    """A JSON boolean field; strings such as "false" are refused, not read as truthy."""
    value = section.get(key, default)
    if not isinstance(value, bool):
        raise InvalidArgumentError(f"{path}.{key} must be true or false, got {value!r}")
    return value


def _int_from_json(section: dict, key: str, default: int, path: str) -> int:
    """A JSON integer field; floats, strings and booleans are refused, not truncated or parsed."""
    value = section.get(key, default)
    if type(value) is not int:
        raise InvalidArgumentError(f"{path}.{key} must be an integer, got {value!r}")
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


# ---------------------------------------------------------------------------
# sampling helpers


def chart_samples(d, per_dim: int, seed: int, cap: int = 48) -> list[np.ndarray]:
    """Deterministic chart samples, uniform over the canonical chart box."""
    n = chart_dim(d)
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
    w = existence_window(d)
    if isinstance(d, Ambient):
        return -d.r / (2.0 * d.m), w.t_dprime
    if isinstance(d, FullProduct):
        return -d.r / (2.0 * d.l), w.t_dprime
    if isinstance(d, Umbilic):
        n = dimensions(d).n
        if n == 0:
            return None, None
        alpha = d.umb.alpha
        lo = None if alpha >= 1.0 else -1.0 / (2.0 * n * d.umb.one_minus_alpha2)
        return lo, w.t_dprime
    raise InvalidArgumentError(f"not a descriptor: {type(d).__name__}")


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
    benchmark, whose tracer wraps it by name, stops referring to it.
    """
    workers = _max_workers()
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
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
    then flows all of them in one batch per time.  The oracle checks make a
    fixed number of chart evaluations: each gauge's flow-equation residuals
    come from one ``pde_residual_grid`` over all samples and times, with one
    stencil evaluation per time, and each isoparametric sample time makes
    two (``isoparametric_residual``).  ``lorentz_eval`` and
    ``hyperbolic_eval`` map rows of points and a time to rows of flowed
    points; they default to ``lorentz_flow_batch``/``hyperbolic_flow_batch``
    and tests may substitute corrupted evaluators as negative controls.
    Tolerances scale with ``tolerance_scale``, which must be positive and
    finite.
    """
    _check_tolerance_scale(tolerance_scale)
    F = lorentz_eval or (lambda X, t: lorentz_flow_batch(d, X, t))
    f = hyperbolic_eval or (lambda X, t: hyperbolic_flow_batch(d, X, t))
    dims = dimensions(d)
    n = dims.n
    window = existence_window(d)
    rng = np.random.default_rng(sampling.seed)
    us = chart_samples(d, sampling.per_dim, sampling.seed)
    X = immerse_rows(d, np.array(us))
    _validate_rows(d, X)
    report = InvariantReport()
    ts = tolerance_scale

    # norm law <F,F> = <x,x> - 2nt on the Lorentzian domain
    lo, hi = lorentz_time_range(d)
    times = sample_times(lo, hi, 40, rng)
    norms = _norm2_rows(X)
    worst = 0.0
    for t in times.tolist():
        FX = F(X, t)
        worst = max(worst, float(np.max(np.abs(_norm2_rows(FX) - (norms - 2.0 * n * t)))))
    report.add("norm_law", worst, 1e-9 * ts)

    # gauge round trip between the two flows; sampling stays away from the
    # conversion bound, where 1 + 2n w(t) is a catastrophic cancellation and
    # the composition cannot be evaluated to 1e-12 in doubles
    hyp_hi = window.t_max
    times_h = sample_times(None, hyp_hi, 25, rng, span=2.0 / max(n, 1))
    worst = 0.0
    for t in times_h.tolist():
        via_gauge = gauge_lorentz_to_hyperbolic(F, n, 1.0, X, t) if n > 0 else X
        worst = max(worst, float(np.max(np.abs(f(X, t) - via_gauge))))
    report.add("gauge_roundtrip", worst, 1e-12 * ts)

    if settings.enabled:
        sub = us[: max(2, min(4, len(us)))]
        # flow equation residuals in both gauges, all samples x times at once
        t_h = sample_times(None, hyp_hi, 4, rng, span=1.5)
        t_l = sample_times(lo, hi, 4, rng, span=1.5)
        for gauge, times in (("hyperbolic", t_h), ("lorentz", t_l)):
            grid = oracle.pde_residual_grid(d, sub, times.tolist(), settings.fd_step, settings.dt, gauge)
            report.add(f"pde_residual_{gauge}", float(np.max(grid)), settings.tolerance * ts)

        # constancy of principal curvatures along the flow
        spread = 0.0
        if dims.codim > 0 and n > 0:
            for t in sample_times(None, hyp_hi, 3, rng, span=1.0):
                spread = max(spread, oracle.isoparametric_residual(d, float(t), sub, h=settings.fd_step))
        report.add("isoparametric_spread", spread, 1e-5 * ts)

    # limit consistency
    flags = classify_shape(d)
    frame = OrthonormalFrame.standard(dims.m)
    if not flags.totally_geodesic and n > 0:
        back = backward_limit(d, us, estimate_dim=False)
        flowed = ball_projection_rows(frame, 1.0, f(X, -15.0))
        report.add("backward_limit_consistency", hausdorff_distance(flowed, back.samples), 1e-5 * ts)

    fwd = forward_limit(d, us)
    if fwd.variant == FORWARD_STATIONARY:
        worst = float(np.max(np.abs(f(X, 5.0) - X)))
        report.add("forward_limit_consistency", worst, 1e-12 * ts)
    elif fwd.variant == FORWARD_FOCAL:
        T = window.t_max
        S = np.asarray(fwd.samples, dtype=float)
        d_coarse = float(np.max(np.sqrt(_row_dots(f(X, T - 1e-6) - S))))
        d_fine = float(np.max(np.sqrt(_row_dots(f(X, T - 1e-9) - S))))
        report.add("forward_limit_consistency", d_coarse, 1e-2 * ts)
        report.add("focal_refinement_monotone", d_fine / max(d_coarse, 1e-300), 1.0)
    elif fwd.variant == FORWARD_GEODESIC:
        worst = float(np.max(np.abs(f(X, 15.0) - np.asarray(fwd.samples, dtype=float))))
        report.add("forward_limit_consistency", worst, 1e-5 * ts)
    elif fwd.variant == FORWARD_IDEAL_POINT:
        Y = ball_projection_rows(frame, 1.0, f(X, 15.0))
        worst = float(np.max(np.sqrt(_row_dots(Y - fwd.ideal_point))))
        report.add("forward_limit_consistency", worst, 1e-5 * ts)
    return report


def _check_tolerance_scale(tolerance_scale: float) -> None:
    if not (math.isfinite(tolerance_scale) and tolerance_scale > 0):
        raise InvalidArgumentError(
            f"tolerance scale (--tolerance-scale) must be positive and finite, got {tolerance_scale!r}"
        )


def _norm2_rows(X: np.ndarray) -> np.ndarray:
    """<x,x> of every row, with the arithmetic of ``minkowski_inner(x, x)``."""
    return _row_dots(X[:, :-1]) - X[:, -1] * X[:, -1]


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
    """Flowed sample points as an (S, T, m+1) array, one batched flow per grid time.

    Times far enough back overflow doubles, in the rows or in their squared
    norms; they are refused here, before anything is written, instead of
    writing rows whose <x,x> cannot be evaluated.
    """
    out = np.empty((X0.shape[0], times.size, X0.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, t in enumerate(times.tolist()):
            try:
                out[:, k] = hyperbolic_flow_batch(d, X0, t)
            except OverflowError:
                out[:, k:] = np.nan  # math.exp overflowed; refused with the rest below
                break
        finite = np.isfinite(np.sum(out * out, axis=2)).all(axis=0)
    if not finite.all():
        t = times.tolist()[int(np.argmin(finite))]
        raise TimeOutOfRangeError(
            f"flowed points or their squared norms are not finite at t={t!r}; the time grid leaves the range of doubles"
        )
    return out


def _write_sample_rows(path: Path, symbol: str, times: np.ndarray, values: np.ndarray) -> None:
    """Write ``sample_id,t,<symbol>_1,...`` rows of an (S, T, k) array, sample by sample."""
    k = values.shape[2]
    line = "%d,%.17g" + ",%.17g" * k + "\n"
    ts = times.tolist()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("sample_id,t," + ",".join(f"{symbol}_{i + 1}" for i in range(k)) + "\n")
        for sid, block in enumerate(values):
            fh.writelines(line % (sid, t, *row) for t, row in zip(ts, block.tolist()))


def _clipped_grid(scn: Scenario) -> tuple[np.ndarray, float | None]:
    grid = scn.time_grid
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
    scn = load_scenario(source)
    if seed is not None:
        scn = Scenario(scn.name, scn.descriptor, scn.time_grid, Sampling(scn.sampling.per_dim, seed), scn.oracle, scn.outputs, scn.frame)
    d = scn.descriptor
    dims = dimensions(d)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    times, clipped = _clipped_grid(scn)
    us = chart_samples(d, scn.sampling.per_dim, scn.sampling.seed)
    frame = scn.frame or OrthonormalFrame.standard(dims.m)
    written: dict[str, str] = {}

    if "trajectory" in scn.outputs or "ball" in scn.outputs:
        X0 = immerse_rows(d, np.array(us))
        _validate_rows(d, X0)
        flowed = _flow_samples(d, X0, times)
        if "ball" in scn.outputs:
            r_top = d.r if isinstance(d, Ambient) else 1.0
            ball = ball_projection_rows(frame, r_top, flowed.reshape(-1, dims.m + 1)).reshape(*flowed.shape[:2], dims.m)
        if "trajectory" in scn.outputs:
            path = out / f"{scn.name}_trajectory.csv"
            _write_sample_rows(path, "x", times, flowed)
            written["trajectory"] = str(path)
        if "ball" in scn.outputs:
            path = out / f"{scn.name}_ball.csv"
            _write_sample_rows(path, "y", times, ball)
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
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written["window"] = str(path)

    if "limits" in scn.outputs:
        rep = evaluate_limits(d, us)
        path = out / f"{scn.name}_limits.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(limit_report_to_json(rep), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written["limits"] = str(path)
        summary["limits"] = limit_report_to_json(rep)

    if "invariants" in scn.outputs:
        rep = run_invariant_battery(d, scn.sampling, scn.oracle, tolerance_scale)
        path = out / f"{scn.name}_invariants.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(invariant_report_to_json(rep), fh, indent=2, sort_keys=True)
            fh.write("\n")
        written["invariants"] = str(path)
        summary["invariants"] = invariant_report_to_json(rep)

    summary["written"] = written
    return summary


def verify_scenario(source: str | Path, tolerance_scale: float = 1.0, seed: int | None = None) -> InvariantReport:
    """Run the full invariant battery for a scenario."""
    scn = load_scenario(source)
    sampling = scn.sampling if seed is None else Sampling(scn.sampling.per_dim, seed)
    return run_invariant_battery(scn.descriptor, sampling, scn.oracle, tolerance_scale)
