"""Scenario orchestration, artifact formats and the command line."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperflow
from conftest import random_admissible_frame
from hyperflow import cli, oracle
from hyperflow.ball import ball_projection
from hyperflow.catalog import CATALOG, catalog_names
from hyperflow.descriptors import Ambient, classify_shape, descriptor_to_json, dimensions, immerse
from hyperflow.errors import InvalidArgumentError, TimeOutOfRangeError
from hyperflow.flow import (
    existence_window,
    gauge_lorentz_to_hyperbolic,
    hyperbolic_flow,
    hyperbolic_flow_batch,
    lorentz_flow,
    lorentz_flow_batch,
)
from hyperflow.limits import (
    FORWARD_FOCAL,
    FORWARD_GEODESIC,
    FORWARD_IDEAL_POINT,
    FORWARD_STATIONARY,
    backward_limit,
    forward_limit,
    hausdorff_distance,
)
from hyperflow.lorentz import OrthonormalFrame, minkowski_inner
from hyperflow.scenario import (
    OracleSettings,
    Sampling,
    Scenario,
    TimeGrid,
    chart_samples,
    load_scenario,
    lorentz_time_range,
    run_invariant_battery,
    run_scenario,
    sample_times,
    scenario_from_json,
    verify_scenario,
)


def write_scenario(path, name, d, **settings):
    path.write_text(json.dumps({"name": name, "descriptor": descriptor_to_json(d), **settings}))
    return path


def read_rows(path):
    """(sample_id, t, coordinates) of every CSV row; %.17g round-trips exactly."""
    rows = []
    for line in path.read_text().splitlines()[1:]:
        sid, t, *coords = line.split(",")
        rows.append((int(sid), float(t), np.array([float(v) for v in coords])))
    return rows


def run_cli(*args):
    # the child imports the package the tests import, installed or not
    src = str(Path(hyperflow.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "hyperflow.cli", *args], capture_output=True, text=True, env=env
    )


class TestScenarioParsing:
    def test_catalog_name_loads(self):
        scn = load_scenario("circle_h2")
        assert scn.name == "circle_h2"
        assert scn.descriptor == CATALOG["circle_h2"]

    def test_json_file_loads(self, tmp_path):
        spec = {
            "name": "my_circle",
            "descriptor": descriptor_to_json(CATALOG["circle_h2"]),
            "time_grid": {"start": -1.0, "end": 0.6, "steps": 5, "clip_to_existence": True},
            "sampling": {"per_dim": 3, "seed": 42},
            "oracle": {"enabled": False, "fd_step": 1e-3, "dt": 1e-4, "tolerance": 1e-3},
            "outputs": ["trajectory", "window"],
        }
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(spec))
        scn = load_scenario(path)
        assert scn.name == "my_circle"
        assert scn.sampling.seed == 42
        assert not scn.oracle.enabled
        assert scn.outputs == ("trajectory", "window")

    def test_unknown_source_rejected(self):
        with pytest.raises(InvalidArgumentError):
            load_scenario("positively_not_a_scenario")

    def test_bad_grid_rejected(self):
        with pytest.raises(InvalidArgumentError):
            TimeGrid(1.0, 0.0, 5)
        with pytest.raises(InvalidArgumentError):
            TimeGrid(0.0, 1.0, 1)
        with pytest.raises(InvalidArgumentError, match="time_grid.start"):
            TimeGrid(-math.inf, 1.0, 5)
        with pytest.raises(InvalidArgumentError, match="time_grid.end"):
            TimeGrid(0.0, math.inf, 5)
        with pytest.raises(InvalidArgumentError, match="time_grid.end"):
            TimeGrid(0.0, math.nan, 5)

    @pytest.mark.parametrize("field", ["fd_step", "dt", "tolerance"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_bad_oracle_settings_rejected(self, field, value):
        with pytest.raises(InvalidArgumentError, match=f"oracle.{field}"):
            OracleSettings(**{field: value})

    @pytest.mark.parametrize(
        "section, key", [("time_grid", "steps"), ("sampling", "per_dim"), ("sampling", "seed")]
    )
    @pytest.mark.parametrize("value", [9.9, 4.0, "3", True, None])
    def test_integer_fields_refuse_non_integers(self, section, key, value):
        spec = {"descriptor": descriptor_to_json(CATALOG["circle_h2"]), section: {key: value}}
        with pytest.raises(InvalidArgumentError, match=f"{section}.{key}"):
            scenario_from_json(spec)

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "../x", "a\\b", 5, None])
    def test_bad_names_rejected(self, name):
        spec = {"name": name, "descriptor": descriptor_to_json(CATALOG["circle_h2"])}
        with pytest.raises(InvalidArgumentError, match="scenario name"):
            scenario_from_json(spec)

    @pytest.mark.parametrize("section", ["time_grid", "sampling", "oracle"])
    @pytest.mark.parametrize("value", [[], 3, None, "x"])
    def test_sections_must_be_objects(self, section, value):
        spec = {"descriptor": descriptor_to_json(CATALOG["circle_h2"]), section: value}
        with pytest.raises(InvalidArgumentError, match=f"{section} must be a JSON object"):
            scenario_from_json(spec)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgumentError, match="sampling.seed"):
            Sampling(3, -1)

    def test_explicit_frame_accepted(self):
        spec = {
            "descriptor": descriptor_to_json(CATALOG["circle_h2"]),
            "frame": [[1.25, 0.0, 0.75], [0.0, 1.0, 0.0], [0.75, 0.0, 1.25]],
        }
        scn = scenario_from_json(spec)
        assert scn.frame is not None and scn.frame.m == 2


class TestRunScenario:
    def test_artifacts_written(self, tmp_path):
        summary = run_scenario("circle_h2", tmp_path)
        for kind in ("trajectory", "ball", "window", "limits", "invariants"):
            assert kind in summary["written"]
        header = (tmp_path / "circle_h2_trajectory.csv").read_text().splitlines()[0]
        assert header == "sample_id,t,x_1,x_2,x_3"
        ball_header = (tmp_path / "circle_h2_ball.csv").read_text().splitlines()[0]
        assert ball_header == "sample_id,t,y_1,y_2"
        window = json.loads((tmp_path / "circle_h2_window.json").read_text())
        assert window["window"]["t_max"] == pytest.approx(math.log(2.0), abs=1e-9)
        assert summary["invariants"]["overall_pass"]

    def test_grid_is_clipped_and_reported(self, tmp_path):
        summary = run_scenario("circle_h2", tmp_path)
        T = math.log(2.0)
        assert summary["clipped_end"] == pytest.approx(T - 1e-9 * max(1.0, T), abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario("tube_h3", a)
        run_scenario("tube_h3", b)
        for name in ("tube_h3_trajectory.csv", "tube_h3_ball.csv", "tube_h3_limits.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("frame_kind", ["standard", "random"])
    def test_rows_match_scalar_flow_and_projection(self, catalog_entry, frame_kind, tmp_path):
        # the batched writer must reproduce the scalar flow and projection bit for bit
        name, d = catalog_entry
        m = dimensions(d).m
        frame = OrthonormalFrame.standard(m)
        if frame_kind == "random":
            frame = random_admissible_frame(np.random.default_rng(41), m)
        steps = 25
        path = write_scenario(
            tmp_path / "scn.json",
            name,
            d,
            time_grid={"start": -3.0, "end": 2.0, "steps": steps},
            sampling={"per_dim": 4, "seed": 11},
            outputs=["trajectory", "ball"],
            frame=frame.vectors.tolist(),
        )
        run_scenario(path, tmp_path)
        points = [immerse(d, u) for u in chart_samples(d, 4, 11)]
        traj = read_rows(tmp_path / f"{name}_trajectory.csv")
        ball = read_rows(tmp_path / f"{name}_ball.csv")
        assert [sid for sid, _, _ in traj] == [sid for sid in range(len(points)) for _ in range(steps)]
        assert len(ball) == len(traj)
        for (sid, t, x), (sid_b, t_b, y) in zip(traj, ball):
            assert (sid_b, t_b) == (sid, t)
            expected = hyperbolic_flow(d, points[sid], t)
            assert x.tobytes() == expected.tobytes()
            assert y.tobytes() == ball_projection(frame, 1.0, expected).coords.tobytes()

    def test_scaled_ambient_trajectory(self, tmp_path):
        # H^2(-2) does not move; its rows are on <x,x> = -2, not -1
        d = Ambient(2, 2.0)
        path = write_scenario(tmp_path / "scn.json", "h2r2", d, outputs=["trajectory"])
        run_scenario(path, tmp_path)
        points = [immerse(d, u) for u in chart_samples(d, 3, 7)]
        for sid, _, x in read_rows(tmp_path / "h2r2_trajectory.csv"):
            assert x.tobytes() == points[sid].tobytes()

    @pytest.mark.parametrize("start", [-709.0, -1000.0])
    def test_overflowing_grid_writes_nothing(self, tmp_path, start):
        # e^(-nt) leaves double range: in numpy at -709 (inf rows), in math.exp at -1000
        path = write_scenario(
            tmp_path / "scn.json", "far", CATALOG["circle_h2"],
            time_grid={"start": start, "end": 0.0, "steps": 3}, outputs=["trajectory", "ball"],
        )
        with pytest.raises(TimeOutOfRangeError, match="not finite"):
            run_scenario(path, tmp_path / "out")
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_seed_changes_samples(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario("tube_h3", a, seed=1)
        run_scenario("tube_h3", b, seed=2)
        assert (a / "tube_h3_trajectory.csv").read_bytes() != (b / "tube_h3_trajectory.csv").read_bytes()


def reference_closed_form_checks(d, sampling, F, f):
    """The battery's closed-form checks with one scalar flow F, f per (sample, time)."""
    n = dimensions(d).n
    window = existence_window(d)
    rng = np.random.default_rng(sampling.seed)
    us = chart_samples(d, sampling.per_dim, sampling.seed)
    points = [immerse(d, u) for u in us]
    frame = OrthonormalFrame.standard(dimensions(d).m)
    out = {}
    times = sample_times(*lorentz_time_range(d), 40, rng).tolist()
    out["norm_law"] = max(
        abs(minkowski_inner(F(x, t), F(x, t)) - (minkowski_inner(x, x) - 2.0 * n * t)) for x in points for t in times
    )
    times = sample_times(None, window.t_max, 25, rng, span=2.0 / max(n, 1)).tolist()
    out["gauge_roundtrip"] = max(
        float(np.max(np.abs(f(x, t) - (gauge_lorentz_to_hyperbolic(F, n, 1.0, x, t) if n > 0 else x))))
        for x in points
        for t in times
    )
    if not classify_shape(d).totally_geodesic and n > 0:
        flowed = np.array([ball_projection(frame, 1.0, f(x, -15.0)).coords for x in points])
        back = backward_limit(d, us, estimate_dim=False)
        out["backward_limit_consistency"] = hausdorff_distance(flowed, back.samples)
    fwd = forward_limit(d, us)
    if fwd.variant == FORWARD_STATIONARY:
        out["forward_limit_consistency"] = max(float(np.max(np.abs(f(x, 5.0) - x))) for x in points)
    elif fwd.variant == FORWARD_FOCAL:
        T = window.t_max
        coarse = max(float(np.linalg.norm(f(x, T - 1e-6) - s)) for x, s in zip(points, fwd.samples))
        fine = max(float(np.linalg.norm(f(x, T - 1e-9) - s)) for x, s in zip(points, fwd.samples))
        out["forward_limit_consistency"] = coarse
        out["focal_refinement_monotone"] = fine / max(coarse, 1e-300)
    elif fwd.variant == FORWARD_GEODESIC:
        out["forward_limit_consistency"] = max(
            float(np.max(np.abs(f(x, 15.0) - s))) for x, s in zip(points, fwd.samples)
        )
    elif fwd.variant == FORWARD_IDEAL_POINT:
        out["forward_limit_consistency"] = max(
            float(np.linalg.norm(ball_projection(frame, 1.0, f(x, 15.0)).coords - fwd.ideal_point)) for x in points
        )
    return out


def reference_oracle_checks(d, sampling, settings):
    """The battery's oracle checks with one ``pde_residual`` per (sample, time) and one ``isoparametric_residual`` per time."""
    n = dimensions(d).n
    window = existence_window(d)
    rng = np.random.default_rng(sampling.seed)
    us = chart_samples(d, sampling.per_dim, sampling.seed)
    lo, hi = lorentz_time_range(d)
    sample_times(lo, hi, 40, rng)  # the norm law's and the gauge round trip's draws
    sample_times(None, window.t_max, 25, rng, span=2.0 / max(n, 1))
    sub = us[: max(2, min(4, len(us)))]
    t_h = sample_times(None, window.t_max, 4, rng, span=1.5).tolist()
    t_l = sample_times(lo, hi, 4, rng, span=1.5).tolist()
    out = {}
    for gauge, times in (("hyperbolic", t_h), ("lorentz", t_l)):
        out[f"pde_residual_{gauge}"] = max(
            oracle.pde_residual(d, u, t, settings.fd_step, settings.dt, gauge) for u in sub for t in times
        )
    out["isoparametric_spread"] = 0.0
    if dimensions(d).codim > 0 and n > 0:
        out["isoparametric_spread"] = max(
            oracle.isoparametric_residual(d, t, sub, h=settings.fd_step)
            for t in sample_times(None, window.t_max, 3, rng, span=1.0).tolist()
        )
    return out


class TestVerify:
    @pytest.mark.parametrize("seed", [7, 3])
    def test_oracle_checks_match_per_point_calls(self, catalog_entry, seed):
        # the flow-equation grids and the per-time spreads visit every sample
        # and time the per-point calls visit, with the same bits
        name, d = catalog_entry
        sampling, settings = Sampling(3, seed), OracleSettings()
        checks = {c.name: c.max_residual for c in run_invariant_battery(d, sampling, settings).checks}
        for check, ref in reference_oracle_checks(d, sampling, settings).items():
            assert checks[check] == ref, (name, check)

    @pytest.mark.parametrize("name", ["clifford_tube_h5", "circle_h2"])
    def test_oracle_chart_call_budget(self, name, monkeypatch):
        # 8 flow-equation stencil evaluations (4 times x 2 gauges) and at most
        # 3 per isoparametric sample time, whatever the number of samples
        calls = []
        at_rows = oracle.ImmersionEvaluator.at_rows
        monkeypatch.setattr(oracle.ImmersionEvaluator, "at_rows", lambda imm, U: calls.append(len(U)) or at_rows(imm, U))
        report = run_invariant_battery(CATALOG[name], Sampling(3, 7))
        assert report.overall_pass
        assert 0 < len(calls) <= 17, calls

    @pytest.mark.parametrize("seed", [7, 3])
    def test_batched_battery_matches_per_point_loop(self, catalog_entry, seed):
        name, d = catalog_entry
        sampling = Sampling(3, seed)
        report = run_invariant_battery(d, sampling, OracleSettings(enabled=False))
        reference = reference_closed_form_checks(
            d, sampling, lambda x, t: lorentz_flow(d, x, t), lambda x, t: hyperbolic_flow(d, x, t)
        )
        assert [c.name for c in report.checks] == list(reference)
        for check in report.checks:
            ref = reference[check.name]
            assert abs(check.max_residual - ref) <= 1e-12, (name, check.name)
            assert check.passed is (ref < check.tolerance), (name, check.name)

    def test_batched_battery_matches_per_point_loop_on_skewed_flows(self, catalog_entry):
        # exact flows leave rounding-level residuals that any subset of the
        # samples and times reproduces; a bump that grows with t and x_1 makes
        # every check's maximum depend on which points and times are visited
        name, d = catalog_entry
        bump = lambda x, t: 1.0 + 1e-7 * t * x[..., :1]
        sampling = Sampling(3, 7)
        report = run_invariant_battery(
            d,
            sampling,
            OracleSettings(enabled=False),
            lorentz_eval=lambda X, t: lorentz_flow_batch(d, X, t) * bump(X, t),
            hyperbolic_eval=lambda X, t: hyperbolic_flow_batch(d, X, t) * bump(X, t),
        )
        reference = reference_closed_form_checks(
            d,
            sampling,
            lambda x, t: lorentz_flow(d, x, t) * bump(x, t),
            lambda x, t: hyperbolic_flow(d, x, t) * bump(x, t),
        )
        assert [c.name for c in report.checks] == list(reference)
        for check in report.checks:
            ref = reference[check.name]
            assert check.max_residual == pytest.approx(ref, rel=1e-9, abs=1e-12), (name, check.name)
            assert check.passed is (ref < check.tolerance), (name, check.name)

    def test_catalog_passes(self):
        report = verify_scenario("horocycle_h2")
        assert report.overall_pass

    def test_corrupted_flow_fails_the_norm_law(self):
        # negative control: a 1% scale bug must trip the battery
        d = CATALOG["circle_h2"]
        bad = lambda X, t: 1.01 * lorentz_flow_batch(d, X, t)
        report = run_invariant_battery(
            d, Sampling(), OracleSettings(enabled=False), lorentz_eval=bad
        )
        assert not report.overall_pass
        names = {c.name for c in report.checks if not c.passed}
        assert "norm_law" in names

    def test_tolerance_scale_loosens(self):
        d = CATALOG["circle_h2"]
        bad = lambda X, t: (1.0 + 1e-13) * lorentz_flow_batch(d, X, t)
        tight = run_invariant_battery(d, Sampling(), OracleSettings(enabled=False), lorentz_eval=bad)
        loose = run_invariant_battery(
            d, Sampling(), OracleSettings(enabled=False), tolerance_scale=1e6, lorentz_eval=bad
        )
        assert not tight.overall_pass and loose.overall_pass


class TestCli:
    def test_catalog_verb(self):
        out = run_cli("catalog")
        assert out.returncode == 0
        assert out.stdout.split() == catalog_names()

    def test_run_exit_zero(self, tmp_path):
        out = run_cli("run", "ambient_h3", "--out", str(tmp_path))
        assert out.returncode == 0
        assert (tmp_path / "ambient_h3_window.json").exists()

    def test_verify_exit_zero(self):
        out = run_cli("verify", "equidistant_h2")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["overall_pass"]

    def test_limits_verb(self):
        out = run_cli("limits", "horocycle_h2")
        assert out.returncode == 0
        payload = json.loads(out.stdout)
        assert payload["forward"]["variant"] == "ideal_point"
        assert np.allclose(payload["forward"]["ideal_point"], [-1.0, 0.0])

    @pytest.mark.parametrize("name", ["tube_h3", "horocycle_h2", "ambient_h3"])
    def test_limits_verb_matches_the_run_artifact(self, name, tmp_path, capsys):
        # the verb and ``run`` share one limits evaluation
        assert cli.main(["limits", name, "--seed", "3"]) == 0
        printed = capsys.readouterr().out
        summary = run_scenario(name, tmp_path, seed=3)
        assert printed == (tmp_path / f"{name}_limits.json").read_text()
        assert json.loads(printed) == summary["limits"]

    def test_invalid_input_exit_two(self):
        assert run_cli("run", "garbage_name").returncode == 2

    def test_invalid_json_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli("run", str(path)).returncode == 2

    def test_io_failure_exit_four(self, tmp_path):
        blocker = tmp_path / "file_in_the_way"
        blocker.write_text("")
        out = run_cli("run", "ambient_h3", "--out", str(blocker))
        assert out.returncode == 4

    @pytest.mark.parametrize(
        "field, settings",
        [
            ("time_grid.end", {"time_grid": {"start": -1.0, "end": "inf", "steps": 5}}),
            ("oracle.tolerance", {"oracle": {"tolerance": "nan"}}),
            ("outputs", {"outputs": "window"}),
            ("time_grid.clip_to_existence", {"time_grid": {"clip_to_existence": "false"}}),
            ("oracle.enabled", {"oracle": {"enabled": "false"}}),
            ("time_grid.steps", {"time_grid": {"steps": 9.9}}),
            ("sampling.per_dim", {"sampling": {"per_dim": "3"}}),
            ("sampling.seed", {"sampling": {"seed": 7.5}}),
            ("sampling.seed", {"sampling": {"seed": -1}}),
            ("time_grid", {"time_grid": []}),
            ("sampling", {"sampling": 3}),
            ("oracle", {"oracle": None}),
        ],
    )
    def test_bad_field_exit_two(self, tmp_path, field, settings):
        path = write_scenario(tmp_path / "scn.json", "bad", CATALOG["horocycle_h2"], **settings)
        out = run_cli("run", str(path), "--out", str(tmp_path / "out"))
        assert out.returncode == 2
        assert field in out.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["nan", "0", "-1", "inf"])
    def test_bad_tolerance_scale_exit_two(self, value):
        out = run_cli("verify", "circle_h2", "--tolerance-scale", value)
        assert out.returncode == 2
        assert "--tolerance-scale" in out.stderr

    def test_bad_tolerance_scale_writes_nothing(self, tmp_path):
        out = run_cli("run", "circle_h2", "--out", str(tmp_path / "out"), "--tolerance-scale", "inf")
        assert out.returncode == 2
        assert not (tmp_path / "out").exists()

    def test_name_cannot_leave_the_output_directory(self, tmp_path):
        out_dir = tmp_path / "a" / "b" / "out"
        path = write_scenario(tmp_path / "scn.json", "../../escape", CATALOG["circle_h2"], outputs=["window"])
        out = run_cli("run", str(path), "--out", str(out_dir))
        assert out.returncode == 2
        assert "scenario name" in out.stderr
        assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [Path("scn.json")]

    def test_scaled_ambient_ball(self, tmp_path):
        # H^2(-2) projects into the unit ball with its own r
        path = write_scenario(tmp_path / "scn.json", "h2r2", Ambient(2, 2.0), outputs=["ball"])
        out = run_cli("run", str(path), "--out", str(tmp_path))
        assert out.returncode == 0, out.stderr
        rows = read_rows(tmp_path / "h2r2_ball.csv")
        assert rows and all(np.linalg.norm(y) < 1.0 for _, _, y in rows)

    @pytest.mark.parametrize("start, code", [(-300.0, 0), (-400.0, 2)])
    def test_far_back_grid(self, tmp_path, start, code):
        # at -400 circle_h2 rows are near 1e174 and their squares overflow
        path = write_scenario(
            tmp_path / "scn.json", "far", CATALOG["circle_h2"],
            time_grid={"start": start, "end": 0.0, "steps": 3}, outputs=["trajectory"],
        )
        out = run_cli("run", str(path), "--out", str(tmp_path / "out"))
        assert out.returncode == code, out.stderr
        if code:
            assert "time grid" in out.stderr
            assert not list((tmp_path / "out").glob("*.csv"))

    def test_thread_cap_is_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HYPERFLOW_THREADS", "1")
        from hyperflow.scenario import _max_workers

        assert _max_workers() == 1
        summary = run_scenario("horocycle_h2", tmp_path)
        assert summary["invariants"]["overall_pass"]

    def test_scenario_file_runs(self, tmp_path):
        spec = {
            "name": "file_tube",
            "descriptor": descriptor_to_json(CATALOG["tube_h3"]),
            "time_grid": {"start": -0.5, "end": 0.2, "steps": 4},
            "sampling": {"per_dim": 2, "seed": 3},
            "outputs": ["window", "limits"],
        }
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(spec))
        out = run_cli("run", str(path), "--out", str(tmp_path))
        assert out.returncode == 0
        assert (tmp_path / "file_tube_window.json").exists()
        assert not (tmp_path / "file_tube_trajectory.csv").exists()
