"""Scenario orchestration, artifact formats and the command line."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import random_admissible_frame
from hyperflow.ball import ball_projection
from hyperflow.catalog import CATALOG, catalog_names
from hyperflow.descriptors import Ambient, descriptor_to_json, dimensions, immerse
from hyperflow.errors import InvalidArgumentError, TimeOutOfRangeError
from hyperflow.flow import hyperbolic_flow, lorentz_flow
from hyperflow.lorentz import OrthonormalFrame
from hyperflow.scenario import (
    OracleSettings,
    Sampling,
    Scenario,
    TimeGrid,
    chart_samples,
    load_scenario,
    run_invariant_battery,
    run_scenario,
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
    return subprocess.run(
        [sys.executable, "-m", "hyperflow.cli", *args], capture_output=True, text=True
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


class TestVerify:
    def test_catalog_passes(self):
        report = verify_scenario("horocycle_h2")
        assert report.overall_pass

    def test_corrupted_flow_fails_the_norm_law(self):
        # negative control: a 1% scale bug must trip the battery
        d = CATALOG["circle_h2"]
        bad = lambda x, t: 1.01 * lorentz_flow(d, x, t)
        report = run_invariant_battery(
            d, Sampling(), OracleSettings(enabled=False), lorentz_eval=bad
        )
        assert not report.overall_pass
        names = {c.name for c in report.checks if not c.passed}
        assert "norm_law" in names

    def test_tolerance_scale_loosens(self):
        d = CATALOG["circle_h2"]
        bad = lambda x, t: (1.0 + 1e-13) * lorentz_flow(d, x, t)
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
        ],
    )
    def test_bad_field_exit_two(self, tmp_path, field, settings):
        path = write_scenario(tmp_path / "scn.json", "bad", CATALOG["horocycle_h2"], **settings)
        out = run_cli("run", str(path), "--out", str(tmp_path / "out"))
        assert out.returncode == 2
        assert field in out.stderr
        assert not (tmp_path / "out").exists()

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
