"""Scenario orchestration, artifact formats and the command line."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import hyperflow
from conftest import random_admissible_frame
from hyperflow import cli, descriptors, flow, limits, oracle, scenario
from hyperflow.ball import ball_projection
from hyperflow.catalog import CATALOG, catalog_names
from hyperflow.descriptors import (
    Ambient,
    EuclideanIso,
    FullProduct,
    ProductOfSpheres,
    Umbilic,
    classify_shape,
    derive_umbilic,
    descriptor_to_json,
    dimensions,
    immerse,
)
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


# sha256 of ``hyperflow verify <name> --seed <seed>`` stdout, recorded before
# the battery's closed-form checks moved to one flow call per check; the
# entries whose isoparametric spread moved by rounding were re-recorded when
# the check stopped projecting its second derivatives off the tangent frame,
# and those whose pde_residual_* moved by rounding (at most 6.6e-16) when the
# stencil kernel's contractions became stacked matmuls; those whose
# isoparametric spread moved (clifford_tube_h5 by 1.8e-8 and 9.4e-8, every
# other entry by at most 7.3e-15) when every transport leg became
# sub-segments of four RK4 steps
VERIFY_STDOUT_SHA256 = {
    ("ambient_h3", 3): "4c13654b60b5ba09deebca46ed07fee4e4bc8e270bac211c053f179b63dcfe6b",
    ("ambient_h3", 7): "4e56ca4e722342b13387928ac24798d772c6ba703747b029255bea4aef64627f",
    ("circle_h2", 3): "4f9dc8ad4a2ee60e4dd8c0c1c08b69722002bdbcea0649a3a6d1f7b25e0636e2",
    ("circle_h2", 7): "5a51c456ae106270bdee69ea8a546324b7c3f9d4ef50dcbe662b9d52c32cc164",
    ("circle_in_h4_nested", 3): "4253ff029702f9c074e70bb078ab4838d01ae880f5307021af0568a08f6eca01",
    ("circle_in_h4_nested", 7): "98067f188c9fba373ef0f409e8cecab4e64787c49da7d407f521148331ae0dff",
    ("clifford_tube_h5", 3): "bd9574c8a7e4642ccd21bb412239d47e73c3d4a7df2ee22a5e5016d7c5d0d43c",
    ("clifford_tube_h5", 7): "f0d4ffc8957361e8289653c6770bad1fce1c4f02be73097a8c3c16dc73b5728f",
    ("equidistant_h2", 3): "601e35c9d2a3b5e5eb582eaa6a0723795c0c93f936635d5caf33a91505e1e55b",
    ("equidistant_h2", 7): "d3d4c0f06d0ef4b9d606451777276f4696db07ab33919a9ccb16d01eb5c6f248",
    ("geodesic_sphere_h3", 3): "6fcfc85f80a7ceb7d8294427d99a544bc88e4534564a597d061fbe0de4e826e5",
    ("geodesic_sphere_h3", 7): "fc1e2c8dc6c6d5a132d63ffecfb21aa60de5d24c92e47ffeb125fb2e35686b9e",
    ("horocycle_h2", 3): "7c6153f1120469b8352c54ab50aa8ceae1e00c37f9a9a6208f2bf405c06b8a66",
    ("horocycle_h2", 7): "48df913899999098aa941df1bc82bd54d525af45e9111e96f3942da6b6d7b0e2",
    ("tube_h3", 3): "77252c20e8b666072bb0e62c64be85e7dc75dda1d02ab60cbb15ca0237cb5a43",
    ("tube_h3", 7): "4cb657c8e99f21b25f24c7e1bc21cdc9c7decb2c12b772d0b49ce44f26e3d72d",
}


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
    """``hyperflow`` run in this process through ``cli.main``: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return subprocess.CompletedProcess(["hyperflow", *args], code, out.getvalue(), err.getvalue())


def run_cli_process(*args):
    """``python -m hyperflow.cli`` in a child process, for the ``__main__`` wiring and exit codes."""
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
        with pytest.raises(TimeOutOfRangeError, match=f"^the flow at t={start!r} leaves the range of doubles$"):
            run_scenario(path, tmp_path / "out")
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_seed_changes_samples(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario("tube_h3", a, seed=1)
        run_scenario("tube_h3", b, seed=2)
        assert (a / "tube_h3_trajectory.csv").read_bytes() != (b / "tube_h3_trajectory.csv").read_bytes()


# sha256 of the trajectory CSV followed by the ball CSV, for a dense grid
# (-3 to 2 in 200 steps, clipped to the existence window, 7 samples per
# chart axis); recorded before the writers flowed a whole grid per call
RUN_CSV_SHA256 = {
    ("ambient_h3", 7): "c6583e584ab29a95da04b118e61156b8ae190ea01e2bc6cccb5b38fd95a98296",
    ("circle_h2", 7): "b5ead966f4a1e3cefbf1e950d6697f0d4f7d6fdd7c86dd81ff76dac32e0afae2",
    ("circle_in_h4_nested", 7): "01842e1136f12c4d5564a17968292f974b9acb3d24cbf3900f501d8a3a698bc7",
    ("clifford_tube_h5", 7): "a3a22169845314edf99b80a32bf32cf594985deecb7ff64f24fde6a1bd36cbe4",
    ("equidistant_h2", 7): "97213f8b6a8d2c58d851260eaedc878578c34d8fd0bb30aa11827ec09bbd8b39",
    ("geodesic_sphere_h3", 7): "b53aa3157f9068addb53a7d522a99dec82d8f4789426dc1d9efa2da18d6ba75e",
    ("horocycle_h2", 7): "7c728db5cb505b2d592cc9821af31ba548bc84fa9bf74e4de8603d78710081a0",
    ("tube_h3", 7): "b25c073add75824f02e384675c04409bd9af49ba3f84fa46472374d319b6f634",
    ("ambient_h3", 3): "a23ad3e71be797fcd2b3d84837aa6dd550169affbe8d4bac81ae9966d4bb2393",
    ("circle_h2", 3): "22c3c1a4297987c4e75b706d49f07651deb0f29329a40dd117ec15257a3d0799",
    ("circle_in_h4_nested", 3): "e965650816eced04bc62d5fa488584d161feb611f0719d977ede575241464c1e",
    ("clifford_tube_h5", 3): "2b5293c3b46eb4601166fcb1ca0a5e8293fc2c68d13dc19613900fef38d93cc4",
    ("equidistant_h2", 3): "78c6f4c7860401b231b0db0663f02d814579096de9433a7f7a2f57790a4d5c45",
    ("geodesic_sphere_h3", 3): "d10cb81360a9b2630287c703512ab0667f1f27e52ee98a58bbd84188777fb764",
    ("horocycle_h2", 3): "b18977d85f256511109dd93dba91eeb58cbc7bd4caea1e23db0ba979d811070e",
    ("tube_h3", 3): "a6c4f4337975a9b38dc71b5201addd708799a51f4960e6bd40484db83b665113",
}


class TestTrajectoryWriters:
    @pytest.mark.parametrize("name, seed", sorted(RUN_CSV_SHA256))
    def test_csv_bytes_are_pinned(self, tmp_path, name, seed):
        path = write_scenario(
            tmp_path / "scn.json", name, CATALOG[name],
            time_grid={"start": -3.0, "end": 2.0, "steps": 200, "clip_to_existence": True},
            sampling={"per_dim": 7, "seed": seed},
            outputs=["trajectory", "ball"],
        )
        written = run_scenario(path, tmp_path)["written"]
        sha = hashlib.sha256()
        for kind in ("trajectory", "ball"):
            sha.update(Path(written[kind]).read_bytes())
        assert sha.hexdigest() == RUN_CSV_SHA256[(name, seed)]

    def test_one_flow_per_scenario(self, tmp_path, catalog_entry, monkeypatch):
        # the whole grid is one flow call, and the rows pass the quadric check once, in the chart
        name, d = catalog_entry
        calls = {"flow": 0, "quadric": 0}
        core, quadric = scenario._flow_times, descriptors._quadric_rows
        monkeypatch.setattr(scenario, "_flow_times", lambda *a: calls.__setitem__("flow", calls["flow"] + 1) or core(*a))
        monkeypatch.setattr(descriptors, "_quadric_rows", lambda *a: calls.__setitem__("quadric", calls["quadric"] + 1) or quadric(*a))
        path = write_scenario(
            tmp_path / "scn.json", name, d,
            time_grid={"start": -3.0, "end": 2.0, "steps": 50}, outputs=["trajectory", "ball"],
        )
        run_scenario(path, tmp_path)
        assert calls == {"flow": 1, "quadric": 1}

    @pytest.mark.parametrize(
        "name, grid, named",
        [
            # the first grid time overflows
            ("circle_h2", (-400.0, 0.0, 3), -400.0),
            # the squares overflow from the middle of the grid on, and math.sinh
            # itself from its end: the refusal names the first bad time, not t[0]
            ("horocycle_h2", (0.0, 800.0, 9), 400.0),
            # overflow at the first time wins over a later time past T
            ("circle_h2", (-1000.0, 1.0, 5), -1000.0),
        ],
    )
    def test_far_grid_refusal_names_the_first_bad_time(self, tmp_path, name, grid, named):
        start, end, steps = grid
        path = write_scenario(
            tmp_path / "scn.json", "far", CATALOG[name],
            time_grid={"start": start, "end": end, "steps": steps, "clip_to_existence": False},
            outputs=["trajectory"],
        )
        with pytest.raises(TimeOutOfRangeError) as err:
            run_scenario(path, tmp_path / "out")
        assert str(err.value) == f"the flow at t={named!r} leaves the range of doubles"
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("name, grid, named", [("circle_h2", (-1.0, 1.0, 5), 1.0), ("tube_h3", (-1.0, 3.0, 9), 0.5)])
    def test_grid_reaching_T_is_refused(self, tmp_path, name, grid, named):
        # unclipped, the first grid time at or past T is named, as by hyperbolic_flow_batch
        start, end, steps = grid
        path = write_scenario(
            tmp_path / "scn.json", "past", CATALOG[name],
            time_grid={"start": start, "end": end, "steps": steps, "clip_to_existence": False},
            outputs=["trajectory", "ball"],
        )
        T = existence_window(CATALOG[name]).t_max
        with pytest.raises(TimeOutOfRangeError) as err:
            run_scenario(path, tmp_path / "out")
        assert str(err.value) == f"t={named} >= hyperbolic maximal time T={T}"
        assert not list((tmp_path / "out").glob("*.csv"))


def flows_at(batch_flow, d, X, ts):
    """A battery hook from a one-time batch flow: the rows X flowed to every time of ts, (T, K, m+1)."""
    return np.array([batch_flow(d, X, t) for t in ts.tolist()])


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


PADDED_SPHERE_LEAF = Umbilic(
    derive_umbilic((1, 0, 0, 0, 0, -1), 1.5),
    EuclideanIso(1, ProductOfSpheres(((1, 0.5),)), offset=(0.1, 0.2, -0.3, 0.4), ambient_dim=4),
)


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

    @pytest.mark.parametrize("seed", [7, 3])
    def test_padded_horospherical_sphere_leaf_passes_with_the_oracle(self, seed):
        # a flat line and a circle about an offset, padded by one coordinate:
        # the Euclidean leaf layout that no catalog entry has
        d = PADDED_SPHERE_LEAF
        sampling, settings = Sampling(3, seed), OracleSettings()
        report = run_invariant_battery(d, sampling, settings)
        assert report.overall_pass
        checks = {c.name: c.max_residual for c in report.checks}
        for check, ref in reference_oracle_checks(d, sampling, settings).items():
            assert checks[check] == ref, check

    @pytest.mark.parametrize("name", ["clifford_tube_h5", "circle_h2"])
    def test_oracle_chart_call_budget(self, name, monkeypatch):
        # the flow-equation grids flow their rows directly, and the
        # isoparametric check evaluates its chart points once for all of its
        # sample times, whatever the number of samples
        calls = []
        at_rows = oracle.ImmersionEvaluator.at_rows
        monkeypatch.setattr(oracle.ImmersionEvaluator, "at_rows", lambda imm, U: calls.append(len(U)) or at_rows(imm, U))
        report = run_invariant_battery(CATALOG[name], Sampling(3, 7))
        assert report.overall_pass
        assert 0 < len(calls) <= 2, calls

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
        bumps = lambda X, ts: 1.0 + 1e-7 * ts[:, None, None] * X[..., :1]
        sampling = Sampling(3, 7)
        report = run_invariant_battery(
            d,
            sampling,
            OracleSettings(enabled=False),
            lorentz_eval=lambda X, ts: flows_at(lorentz_flow_batch, d, X, ts) * bumps(X, ts),
            hyperbolic_eval=lambda X, ts: flows_at(hyperbolic_flow_batch, d, X, ts) * bumps(X, ts),
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
        bad = lambda X, ts: 1.01 * flows_at(lorentz_flow_batch, d, X, ts)
        report = run_invariant_battery(
            d, Sampling(), OracleSettings(enabled=False), lorentz_eval=bad
        )
        assert not report.overall_pass
        names = {c.name for c in report.checks if not c.passed}
        assert "norm_law" in names

    @pytest.mark.parametrize("seed", [7, 3])
    def test_verify_output_is_pinned(self, catalog_entry, seed, capsys):
        name, _ = catalog_entry
        assert cli.main(["verify", name, "--seed", str(seed)]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == VERIFY_STDOUT_SHA256[name, seed]

    def test_closed_form_checks_make_one_core_call_each(self, catalog_entry, monkeypatch):
        # five flow calls of the battery's own, over all of a check's times,
        # the endpoint call of ``forward_limit`` and the light-cone call of
        # ``backward_limit``; the walk goes down every level in its one call
        name, d = catalog_entry
        calls, core = [], flow._flow_rows

        def counted(d, X, ts, *args, **kwargs):
            calls.append((args[:1], len(ts)))
            return core(d, X, ts, *args, **kwargs)

        for module in (flow, scenario, limits):
            if getattr(module, "_flow_rows", None) is core:
                monkeypatch.setattr(module, "_flow_rows", counted)
        quadric = []
        quadric_rows = descriptors._quadric_rows
        monkeypatch.setattr(descriptors, "_quadric_rows", lambda d, X: quadric.append(len(X)) or quadric_rows(d, X))
        report = run_invariant_battery(d, Sampling(3, 7), OracleSettings(enabled=False))
        assert report.overall_pass, name
        assert 0 < len(calls) <= 7, (name, calls)
        assert sum(len_ts for _, len_ts in calls) >= 40 + 25, (name, calls)
        # the chart validates every row it makes: the battery's samples, forward_limit's and backward_limit's
        assert len(quadric) <= 3, (name, quadric)

    def test_non_finite_flow_fails_the_norm_law(self):
        # a nan at one sampled time must not be lost in the maximum over times
        d = CATALOG["circle_h2"]

        def bad(X, ts):
            out = flows_at(lorentz_flow_batch, d, X, ts)
            out[len(ts) // 2, 0, 0] = np.nan
            return out

        report = run_invariant_battery(d, Sampling(), OracleSettings(enabled=False), lorentz_eval=bad)
        norm_law = next(c for c in report.checks if c.name == "norm_law")
        assert math.isnan(norm_law.max_residual) and not norm_law.passed

    def test_nan_spread_at_one_time_fails(self, monkeypatch):
        # a nan spread at one isoparametric sample time must not read as 0
        monkeypatch.setattr(oracle, "isoparametric_residuals", lambda d, times, *a, **k: np.array([0.0, math.nan, 0.0]))
        report = run_invariant_battery(CATALOG["tube_h3"], Sampling(3, 7))
        spread = next(c for c in report.checks if c.name == "isoparametric_spread")
        assert math.isnan(spread.max_residual) and not spread.passed
        assert not report.overall_pass

    def test_tolerance_scale_loosens(self):
        d = CATALOG["circle_h2"]
        bad = lambda X, ts: (1.0 + 1e-13) * flows_at(lorentz_flow_batch, d, X, ts)
        tight = run_invariant_battery(d, Sampling(), OracleSettings(enabled=False), lorentz_eval=bad)
        loose = run_invariant_battery(
            d, Sampling(), OracleSettings(enabled=False), tolerance_scale=1e6, lorentz_eval=bad
        )
        assert not tight.overall_pass and loose.overall_pass


def _point_product(l: int, r: float = 2.0):
    return FullProduct(l, r, ProductOfSpheres(point_position=(1.0,)))


def _tube(p: int):
    return FullProduct(1, 2.0, ProductOfSpheres(((p, 1.0),)))


def _geodesic_sphere(p: int):
    return Umbilic(derive_umbilic([0.0] * (p + 1) + [-1.0], 2.0), ProductOfSpheres(((p, 3.0),)))


def _equidistant(n: int):
    return Umbilic(derive_umbilic([1.0] + [0.0] * (n + 1), 1.0), Ambient(n))


# descriptors of large n whose flows at the battery's probe times leave the
# range of doubles unless the probe times shrink with n: the first set passes
# the closed-form battery, the second fails it only by rounding-scale
# tolerances (norm_law, forward_limit_consistency)
LARGE_N_PASSING = {
    "point_product_l24": _point_product(24),
    "point_product_l30": _point_product(30),
    "tube_s24": _tube(24),
    "tube_s48": _tube(48),
    "geodesic_sphere_s24": _geodesic_sphere(24),
    "geodesic_sphere_s48": _geodesic_sphere(48),
    "equidistant_h24": _equidistant(24),
}
LARGE_N_ROUNDING = {
    "point_product_l49": _point_product(49),
    "geodesic_product_l71": _point_product(71, 1.0),
    "tube_s60": _tube(60),
    "geodesic_sphere_s60": _geodesic_sphere(60),
    "equidistant_h48": _equidistant(48),
}


class TestLargeDimensionProbes:
    @pytest.mark.parametrize("name", sorted(LARGE_N_PASSING))
    def test_battery_passes(self, name):
        report = run_invariant_battery(LARGE_N_PASSING[name], Sampling(), OracleSettings(enabled=False))
        assert report.overall_pass, [(c.name, c.max_residual) for c in report.checks if not c.passed]

    @pytest.mark.parametrize("name", sorted(LARGE_N_PASSING) + sorted(LARGE_N_ROUNDING))
    def test_verify_exits_zero_or_three(self, name, tmp_path):
        d = {**LARGE_N_PASSING, **LARGE_N_ROUNDING}[name]
        path = write_scenario(tmp_path / f"{name}.json", name, d, oracle={"enabled": False})
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", str(path)])
        assert code == (0 if name in LARGE_N_PASSING else 3), err.getvalue()

    def test_overflowing_probe_is_refused_naming_it(self, tmp_path):
        # at r = 1e48 the backward probe at -300/30 = -10 flows the rows out
        # of doubles: refused at the flow, naming the time, not by the ball
        # projection's quadric check on nan rows
        path = write_scenario(tmp_path / "far.json", "far", _point_product(30, 1e48), oracle={"enabled": False})
        out = run_cli("verify", str(path))
        assert out.returncode == 2, out.stderr
        assert "t=-10.0" in out.stderr and "range of doubles" in out.stderr

    def test_probe_times_shrink_with_n(self, monkeypatch):
        # probes at -min(15, 300/n), min(15, 300/n) and min(5, 300/n):
        # n <= 20, the catalog and the chains included, keeps -15, 15 and 5
        seen = []
        core = scenario._flow_times

        def recorded(d, X, ts, *args, **kwargs):
            if len(ts) == 1:  # the probes; sampled checks flow many times at once
                seen.append((dimensions(d).n, ts[0]))
            return core(d, X, ts, *args, **kwargs)

        monkeypatch.setattr(scenario, "_flow_times", recorded)
        for d in (_equidistant(20), _point_product(20, 1.0), _equidistant(24), _point_product(75, 1.0)):
            run_invariant_battery(d, Sampling(), OracleSettings(enabled=False))
        assert seen == [(20, -15.0), (20, 15.0), (20, 5.0), (24, -12.5), (24, 12.5), (75, 4.0)]


class TestArtifactWrites:
    def test_failed_csv_leaves_no_file(self, tmp_path, monkeypatch):
        # the formatter fails on the second block of the trajectory CSV
        from hyperflow import csvrows

        block, calls = csvrows._block, []

        def failing(*args):
            calls.append(len(args[0]))
            if len(calls) == 2:
                raise OSError("device full")
            return block(*args)

        monkeypatch.setattr(csvrows, "_block", failing)
        path = write_scenario(
            tmp_path / "scn.json", "dense", CATALOG["tube_h3"],
            time_grid={"start": -3.0, "end": 2.0, "steps": 200}, sampling={"per_dim": 7, "seed": 7},
            outputs=["trajectory", "ball", "window"],
        )
        out = tmp_path / "out"
        result = run_cli("run", str(path), "--out", str(out))
        assert result.returncode == 4 and "device full" in result.stderr
        assert len(calls) == 2 and list(out.iterdir()) == []

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old")
        with pytest.raises(OSError, match="interrupted"):
            with scenario._replacing(path) as fh:
                fh.write(b"new, but cut short")
                raise OSError("interrupted")
        assert path.read_text() == "old" and list(tmp_path.iterdir()) == [path]

    def test_json_and_csv_artifacts_are_complete(self, tmp_path):
        summary = run_scenario("circle_h2", tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == sorted(Path(p).name for p in summary["written"].values())
        for kind in ("window", "limits", "invariants"):
            json.loads(Path(summary["written"][kind]).read_text())
        assert Path(summary["written"]["trajectory"]).read_text().endswith("\n")

    def test_huge_grid_refused_before_it_is_allocated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(np, "linspace", lambda *args, **kwargs: pytest.fail("the grid was allocated"))
        path = write_scenario(
            tmp_path / "scn.json", "huge", CATALOG["circle_h2"], time_grid={"start": -1.0, "end": 1.0, "steps": 10**12}
        )
        result = run_cli("run", str(path), "--out", str(tmp_path / "out"))
        assert result.returncode == 2 and "time_grid.steps" in result.stderr
        assert not (tmp_path / "out" / "huge_trajectory.csv").exists()

    @pytest.mark.parametrize("extra, refused", [(0, False), (1, True)])
    def test_grid_cap_boundary(self, monkeypatch, extra, refused):
        # circle_h2 flows 3 samples of 3 coordinates, 9 values per grid time
        steps = scenario.MAX_GRID_VALUES // 9 + extra
        scn = Scenario("c", CATALOG["circle_h2"], TimeGrid(-1.0, 0.5, steps))
        monkeypatch.setattr(np, "linspace", lambda start, end, num: ("grid", num))
        if refused:
            with pytest.raises(InvalidArgumentError, match="time_grid.steps"):
                scenario._clipped_grid(scn, 3)
        else:
            assert scenario._clipped_grid(scn, 3) == (("grid", steps), None)


# a descriptor that is valid for a finite value in each number field of the grammar, by field
NON_FINITE_FIELDS = {
    "ambient.r": lambda v: {"type": "ambient", "m": 2, "r": v},
    "full_product.r": lambda v: {**descriptor_to_json(CATALOG["tube_h3"]), "r": v},
    "product_of_spheres.factors[0] radius": lambda v: {
        **descriptor_to_json(CATALOG["tube_h3"]),
        "leaf": {"type": "product_of_spheres", "factors": [[1, v]]},
    },
    "point.position[0]": lambda v: {"type": "umbilic", "xi": [0.0, 0.0, -1.0], "a": 2.0, "inner": {"type": "point", "position": [v, 0.0]}},
    "umbilic.a": lambda v: {"type": "umbilic", "xi": [0.0, 0.0, -1.0], "a": v, "inner": {"type": "point", "position": [1.0, 0.0]}},
    "umbilic.xi[0]": lambda v: {**descriptor_to_json(CATALOG["horocycle_h2"]), "xi": [v, 0.0, -1.0]},
    "euclidean.offset[1]": lambda v: {
        **descriptor_to_json(CATALOG["horocycle_h2"]),
        "inner": {"type": "euclidean", "flat_dim": 1, "offset": [0.0, v], "ambient_dim": 2},
    },
}


class TestCli:
    def test_catalog_verb(self):
        out = run_cli_process("catalog")
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

    def test_limits_of_a_far_tilted_horosphere(self, tmp_path, capsys):
        # <xi,xi> of this null xi is -1.82e-12, two ulps of xi_t^2: null to
        # rounding, and accepted because the tolerance scales with |xi|^2
        xi = [-60.352546003884505, -33.596284288269125, -3.5426017172414217, -69.164225970195]
        d = Umbilic(derive_umbilic(xi, 1.5), EuclideanIso(2))
        assert d.umb.kind == "euclidean"
        path = write_scenario(tmp_path / "far_tilt.json", "far_tilt", d)
        assert cli.main(["limits", str(path), "--seed", "7"]) == 0
        assert np.isfinite(json.loads(capsys.readouterr().out)["backward"]["samples"]).all()

    @pytest.mark.parametrize("name", ["tube_h3", "horocycle_h2", "ambient_h3"])
    def test_limits_verb_matches_the_run_artifact(self, name, tmp_path, capsys):
        # the verb and ``run`` share one limits evaluation
        assert cli.main(["limits", name, "--seed", "3"]) == 0
        printed = capsys.readouterr().out
        summary = run_scenario(name, tmp_path, seed=3)
        assert printed == (tmp_path / f"{name}_limits.json").read_text()
        assert json.loads(printed) == summary["limits"]

    def test_invalid_input_exit_two(self):
        assert run_cli_process("run", "garbage_name").returncode == 2

    def test_invalid_json_exit_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli("run", str(path)).returncode == 2

    def test_io_failure_exit_four(self, tmp_path):
        blocker = tmp_path / "file_in_the_way"
        blocker.write_text("")
        out = run_cli_process("run", "ambient_h3", "--out", str(blocker))
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
            # number fields refuse strings and booleans instead of parsing them
            ("time_grid.start", {"time_grid": {"start": "-1"}}),
            ("oracle.fd_step", {"oracle": {"fd_step": "1e-3"}}),
            ("oracle.dt", {"oracle": {"dt": True}}),
            ("ambient.r", {"descriptor": {"type": "ambient", "m": 2, "r": "2.5"}}),
            ("ambient.r", {"descriptor": {"type": "ambient", "m": 2, "r": True}}),
            ("ambient.r", {"descriptor": {"type": "ambient", "m": 2, "r": 10**400}}),
            ("full_product.r", {"descriptor": {**descriptor_to_json(CATALOG["tube_h3"]), "r": "2"}}),
            ("umbilic.a", {"descriptor": {**descriptor_to_json(CATALOG["horocycle_h2"]), "a": False}}),
            (
                "product_of_spheres.factors[0] radius",
                {"descriptor": {**descriptor_to_json(CATALOG["tube_h3"]), "leaf": {"type": "product_of_spheres", "factors": [[1, "1"]]}}},
            ),
            # nested descriptor parts that are not objects
            ("umbilic.inner", {"descriptor": {"type": "umbilic", "xi": [0, 0, -1], "a": 2.0, "inner": 3}}),
            ("full_product.leaf", {"descriptor": {**descriptor_to_json(CATALOG["tube_h3"]), "leaf": 5}}),
            (
                "euclidean.spheres",
                {"descriptor": {**descriptor_to_json(CATALOG["horocycle_h2"]), "inner": {"type": "euclidean", "flat_dim": 1, "spheres": 5}}},
            ),
            # vector and factor fields that are not arrays, or hold strings and booleans
            (
                "product_of_spheres.factors",
                {"descriptor": {**descriptor_to_json(CATALOG["tube_h3"]), "leaf": {"type": "product_of_spheres", "factors": 5}}},
            ),
            (
                "product_of_spheres.factors[0]",
                {"descriptor": {**descriptor_to_json(CATALOG["tube_h3"]), "leaf": {"type": "product_of_spheres", "factors": [5]}}},
            ),
            (
                "product_of_spheres.factors[0]",
                {"descriptor": {**descriptor_to_json(CATALOG["tube_h3"]), "leaf": {"type": "product_of_spheres", "factors": [[1, 1.0, 2]]}}},
            ),
            ("point.position", {"descriptor": {**descriptor_to_json(CATALOG["tube_h3"]), "leaf": {"type": "point", "position": 5}}}),
            ("point.position[0]", {"descriptor": {**descriptor_to_json(CATALOG["tube_h3"]), "leaf": {"type": "point", "position": ["1", 0]}}}),
            (
                "euclidean.offset",
                {"descriptor": {**descriptor_to_json(CATALOG["horocycle_h2"]), "inner": {"type": "euclidean", "flat_dim": 1, "offset": 5}}},
            ),
            (
                "euclidean.offset[0]",
                {"descriptor": {**descriptor_to_json(CATALOG["horocycle_h2"]), "inner": {"type": "euclidean", "flat_dim": 1, "offset": ["0.5"]}}},
            ),
            ("umbilic.xi[0]", {"descriptor": {**descriptor_to_json(CATALOG["horocycle_h2"]), "xi": [True, 0, -1]}}),
            # NaN and infinities, which json reads as floats, in every number field of a descriptor
            *[(field, {"descriptor": make(v)}) for field, make in NON_FINITE_FIELDS.items() for v in (math.nan, math.inf, -math.inf)],
        ],
    )
    def test_bad_field_exit_two(self, tmp_path, field, settings):
        path = write_scenario(tmp_path / "scn.json", "bad", CATALOG["horocycle_h2"], **settings)
        out = run_cli("run", str(path), "--out", str(tmp_path / "out"))
        assert out.returncode == 2
        assert field in out.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("spheres", [0, False, "", [], {}])
    def test_falsy_spheres_exit_two(self, tmp_path, spheres):
        # a present spheres field is a leaf object; falsy values are not read as absent
        inner = {"type": "euclidean", "flat_dim": 1, "spheres": spheres}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"name": "bad", "descriptor": {"type": "umbilic", "xi": [1.0, 0.0, -1.0], "a": 1.0, "inner": inner}}))
        out = run_cli("limits", str(path))
        assert out.returncode == 2
        assert "euclidean.spheres" in out.stderr

    @pytest.mark.parametrize(
        "xi, a, inner",
        [
            ([1.0, 0.0, 0.0], 1e8, {"type": "ambient", "m": 1}),
            ([1.0, 0.0, 0.0], 1e155, {"type": "ambient", "m": 1}),
            ([1.0, 0.0, 0.0], 1e200, {"type": "ambient", "m": 1}),
            ([0.0, 0.0, -1.0], 1e8, {"type": "product_of_spheres", "factors": [[1, 1e16]]}),
        ],
        ids=["hyperbolic-1e8", "hyperbolic-1e155", "hyperbolic-1e200", "spherical-1e8"],
    )
    def test_level_too_far_for_its_kind_exit_two(self, tmp_path, xi, a, inner):
        # alpha rounds to 1, or <xi,xi> + a^2 overflows: refused, not a traceback
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"name": "far", "descriptor": {"type": "umbilic", "xi": xi, "a": a, "inner": inner}}))
        out = run_cli("limits", str(path))
        assert out.returncode == 2
        assert "umbilic.a" in out.stderr

    def test_huge_xi_exit_two_without_warnings(self, tmp_path):
        # a child process, so that no warning filter of the suite hides what the CLI prints
        path = tmp_path / "scn.json"
        inner = {"type": "point", "position": [1.0, 0.0]}
        path.write_text(json.dumps({"name": "huge", "descriptor": {"type": "umbilic", "xi": [1e200, 0.0, -1e200], "a": 1.0, "inner": inner}}))
        out = run_cli_process("limits", str(path))
        assert out.returncode == 2
        assert len(out.stderr.splitlines()) == 1 and "umbilic.xi" in out.stderr, out.stderr

    @pytest.mark.parametrize("a", [1e8, 1e200])
    def test_large_a_horosphere_exit_two_on_one_line(self, tmp_path, a):
        # the horospherical chart degenerates (a span vector's <w,w> rounds to 0, or
        # overflows): one error line, no traceback and no numpy RuntimeWarning
        path = tmp_path / "scn.json"
        inner = {"type": "euclidean", "flat_dim": 1}
        path.write_text(json.dumps({"name": "far", "descriptor": {"type": "umbilic", "xi": [1.0, 0.0, -1.0], "a": a, "inner": inner}}))
        out = run_cli_process("limits", str(path))
        assert out.returncode == 2
        assert len(out.stderr.splitlines()) == 1 and "umbilic.a" in out.stderr, out.stderr

    @pytest.mark.parametrize("a", [2e6, 1e7])
    def test_horosphere_whose_chart_leaves_its_level_exits_two_in_every_verb(self, tmp_path, a):
        # rounding tilts the horospherical chart's columns off the complement
        # of xi and nu, so its rows would lie off the level: `limits` refuses
        # the level as `verify` and `run` do, naming umbilic.a
        path = tmp_path / "scn.json"
        inner = {"type": "euclidean", "flat_dim": 1}
        path.write_text(json.dumps({"name": "far", "descriptor": {"type": "umbilic", "xi": [1.0, 0.0, -1.0], "a": a, "inner": inner}}))
        for args in (("limits", str(path)), ("verify", str(path)), ("run", str(path), "--out", str(tmp_path / "out"))):
            out = run_cli(*args)
            assert out.returncode == 2, (args[0], out.stderr)
            assert "umbilic.a" in out.stderr and out.stdout == "", (args[0], out.stderr)
        assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())

    def test_tilted_horosphere_whose_complement_degenerates_names_a(self, tmp_path):
        # at this a the projections that build the horospherical chart round
        # so far that its complement basis degenerates: the level's own
        # refusal names umbilic.a, not the basis
        path = tmp_path / "scn.json"
        xi = [0.9635823387213032, -0.30249503772584907, -0.1420190434025425, -1.0198841012749205]
        level = {"type": "umbilic", "xi": xi, "a": 1153678855.4227526, "inner": {"type": "euclidean", "flat_dim": 2}}
        path.write_text(json.dumps({"descriptor": level}))
        out = run_cli("limits", str(path))
        assert out.returncode == 2 and out.stdout == ""
        assert "umbilic.a = 1153678855.4227526 is too large" in out.stderr, out.stderr

    @pytest.mark.parametrize("m", [0, -2])
    def test_ambient_below_one_dimension_names_m(self, tmp_path, m):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"name": "flat", "descriptor": {"type": "ambient", "m": m}}))
        out = run_cli("limits", str(path))
        assert out.returncode == 2
        assert "ambient.m must be at least 1" in out.stderr and "ambient.r" not in out.stderr, out.stderr

    @pytest.mark.parametrize("verb", ["run", "verify", "limits"])
    def test_frame_of_another_size_exit_two(self, tmp_path, verb):
        # the frame of H^2 given for a descriptor in H^4: every verb refuses it when
        # the scenario is built, before anything is written
        spec = {"name": "framed", "descriptor": descriptor_to_json(CATALOG["circle_in_h4_nested"]), "frame": np.eye(3).tolist()}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(spec))
        out = run_cli(verb, str(path), *(["--out", str(tmp_path / "out")] if verb == "run" else []))
        assert out.returncode == 2
        assert out.stderr == "error: frame must be 5x5 for a descriptor in H^4, got 3x3\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, descriptor",
        [
            ("ambient.m", {"type": "ambient", "m": 3.9}),
            ("ambient.m", {"type": "ambient", "m": True}),
            ("ambient.m", {"type": "ambient", "m": "3"}),
            ("full_product.l", {**descriptor_to_json(CATALOG["tube_h3"]), "l": 1.7}),
            (
                "product_of_spheres.factors[0] dimension",
                {**descriptor_to_json(CATALOG["tube_h3"]), "leaf": {"type": "product_of_spheres", "factors": [[1.9, 1.0]]}},
            ),
            ("euclidean.flat_dim", {**descriptor_to_json(CATALOG["horocycle_h2"]), "inner": {"type": "euclidean", "flat_dim": 1.5}}),
            (
                "euclidean.ambient_dim",
                {**descriptor_to_json(CATALOG["horocycle_h2"]), "inner": {"type": "euclidean", "flat_dim": 1, "ambient_dim": 1.0}},
            ),
        ],
    )
    def test_descriptor_integer_field_exit_two(self, tmp_path, field, descriptor):
        # integer fields are refused, not truncated: 3.9, true and "3" are not 3, 1 and 3
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"name": "bad", "descriptor": descriptor, "outputs": ["window"]}))
        out = run_cli("run", str(path), "--out", str(tmp_path / "out"))
        assert out.returncode == 2
        assert f"{field} must be an integer" in out.stderr
        assert not (tmp_path / "out").exists()

    def test_deeply_nested_descriptor_exit_two(self, tmp_path):
        # 600 geodesic umbilic levels: refused at the boundary, not a RecursionError
        obj, m = descriptor_to_json(CATALOG["circle_h2"]), 2
        for _ in range(599):
            m += 1
            obj = {"type": "umbilic", "xi": [1.0] + [0.0] * m, "a": 0.0, "inner": obj}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps({"name": "deep", "descriptor": obj, "outputs": ["window"]}))
        out = run_cli("run", str(path), "--out", str(tmp_path / "out"))
        assert out.returncode == 2
        assert "nested deeper than" in out.stderr

    @pytest.mark.parametrize("verb", ["run", "verify", "limits"])
    def test_negative_seed_exit_two(self, verb, tmp_path):
        # every verb builds its seed through Sampling and refuses it with one message
        out = run_cli(verb, "circle_h2", "--seed", "-1", "--out", str(tmp_path / "out"))
        assert out.returncode == 2
        assert out.stderr == "error: sampling.seed must be >= 0, got -1\n"
        assert out.stdout == ""

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
            assert "the flow at t=-400.0 leaves the range of doubles" in out.stderr
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


# ``hyperflow --help`` and ``hyperflow verify --help`` at 80 columns, as the
# parser printed them when it was built on every call
TOP_HELP = """\
usage: hyperflow [-h] {run,verify,limits,catalog} ...

Command line entry point.

Verbs:
  run <scenario>     write trajectories, window, limits and invariant reports
  verify <scenario>  run the invariant battery; exit 3 on any violation
  limits <scenario>  classify and evaluate both limits
  catalog            list the built-in scenario names

<scenario> is a JSON file path or a built-in catalog name.  Exit codes:
0 ok, 2 invalid input, 3 invariant violation, 4 I/O failure.

positional arguments:
  {run,verify,limits,catalog}

options:
  -h, --help            show this help message and exit
"""
VERIFY_HELP = """\
usage: hyperflow verify [-h] [--out OUT] [--seed SEED]
                        [--tolerance-scale TOLERANCE_SCALE]
                        scenario

positional arguments:
  scenario              scenario JSON path or catalog name

options:
  -h, --help            show this help message and exit
  --out OUT             output directory (run only)
  --seed SEED           override the sampling seed
  --tolerance-scale TOLERANCE_SCALE
                        scale all verification tolerances
"""


def fresh_parser_output(argv):
    """Exit code, stdout and stderr of a parser built anew, as every call built it before the parser was kept."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli._build_parser.__wrapped__().parse_args(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


class TestParserReuse:
    """``cli.main`` builds its parser once per process, and reused calls behave as fresh ones."""

    def test_one_parser_per_process(self, tmp_path, monkeypatch):
        built = []
        real = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cli._build_parser.cache_clear()
        for argv in (
            ["catalog"],
            ["verify", "circle_h2"],
            ["limits", "horocycle_h2", "--seed", "3"],
            ["run", "ambient_h3", "--out", str(tmp_path)],
            ["verify", "tube_h3", "--seed", "3"],
            ["catalog"],
        ):
            assert run_cli(*argv).returncode == 0
        # the top-level parser and its four verbs, built by the first call only
        assert built.count("hyperflow") == 1
        assert len(built) == 5

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["verify"], ["verify", "circle_h2", "--seed", "abc"]])
    def test_refusals_after_reuse(self, argv):
        expected = fresh_parser_output(argv)
        assert expected[0] == 2 and expected[2].startswith("usage: hyperflow")
        for _ in range(2):
            out = run_cli(*argv)
            assert (out.returncode, out.stdout, out.stderr) == expected
            assert run_cli("catalog").returncode == 0

    def test_no_option_carries_over(self, tmp_path, capsys):
        args = ["--seed", "3", "--out", str(tmp_path), "--tolerance-scale", "2"]
        assert cli.main(["verify", "circle_h2", *args]) == 0
        capsys.readouterr()
        assert cli.main(["verify", "circle_h2"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == VERIFY_STDOUT_SHA256["circle_h2", 7]
        assert not list(tmp_path.iterdir())  # verify writes nothing, whatever --out says

    @pytest.mark.parametrize("argv, text", [(["--help"], TOP_HELP), (["verify", "--help"], VERIFY_HELP)])
    def test_help_is_unchanged(self, argv, text, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli("catalog").returncode == 0  # the kept parser, already used
        out = run_cli(*argv)
        assert (out.returncode, out.stdout, out.stderr) == (0, text, "")
        assert fresh_parser_output(argv) == (0, text, "")


class TestStartupImports:
    def test_no_thread_pool_at_import(self):
        # the modules that importing the CLI adds to a bare interpreter
        src = str(Path(hyperflow.__file__).resolve().parents[1])
        code = (
            "import sys; before = set(sys.modules); import hyperflow.cli, hyperflow.scenario; "
            "print(' '.join(sorted(set(sys.modules) - before)))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        loaded = out.stdout.split()
        assert "hyperflow.cli" in loaded
        pool = [m for m in loaded if m.split(".")[0] in ("concurrent", "logging", "queue", "_queue")]
        assert pool == []

    def test_parallel_map_keeps_order_on_a_pool(self, monkeypatch):
        monkeypatch.setenv("HYPERFLOW_THREADS", "2")
        threads = set()

        def square(x):
            threads.add(threading.current_thread().name)
            return x * x

        assert scenario.parallel_map(square, range(20)) == [x * x for x in range(20)]
        assert threading.main_thread().name not in threads
        assert scenario.parallel_map(square, [3]) == [9]  # one item runs inline


class TestStationaryRun:
    @pytest.mark.parametrize("l", [70, 71])
    def test_geodesic_product_runs(self, l, tmp_path):
        # the default grid reaches back to negative times, where the flow of
        # this stationary descriptor used to be refused (exit 2)
        d = _point_product(l, 1.0)
        path = write_scenario(tmp_path / "geodesic.json", f"geodesic_l{l}", d, outputs=["trajectory", "ball", "window", "limits"])
        result = run_cli("run", str(path), "--out", str(tmp_path / "out"))
        assert result.returncode == 0, result.stderr
        rows = read_rows(tmp_path / "out" / f"geodesic_l{l}_trajectory.csv")
        assert min(t for _, t, _ in rows) < 0.0
        first = {}
        for sid, _, x in rows:
            assert x.tobytes() == first.setdefault(sid, x).tobytes()

    @pytest.mark.parametrize(
        "d, grid",
        [
            (_point_product(1, 1.0), (-3.0, 2.0, 40)),
            (_point_product(2, 1.0), (-20.0, 5.0, 17)),
            (_point_product(3, 1.0), (-3.0, 2.0, 200)),
            (Umbilic(derive_umbilic([1.0, 0.0, 0.0, 0.0], 0.0), Ambient(2)), (-3.0, 2.0, 33)),
            (CATALOG["ambient_h3"], (-1e300, 1e300, 9)),
        ],
        ids=["product_l1", "product_l2", "product_l3", "geodesic_umbilic", "ambient_h3_far"],
    )
    def test_rows_formatted_once_match_the_generic_path(self, tmp_path, monkeypatch, d, grid):
        # a stationary run flows, projects and formats each sample once; the
        # generic path, forced by hiding the predicate, gives the same bytes
        assert scenario._is_stationary(d)
        start, end, steps = grid
        path = write_scenario(
            tmp_path / "scn.json", "still", d,
            time_grid={"start": start, "end": end, "steps": steps}, sampling={"per_dim": 7, "seed": 3},
            outputs=["trajectory", "ball"],
        )
        projected, project = [], scenario.ball_projection_rows
        monkeypatch.setattr(scenario, "ball_projection_rows", lambda frame, r, X: projected.append(len(X)) or project(frame, r, X))
        files = {}
        for stationary in (True, False):
            monkeypatch.setattr(scenario, "_is_stationary", lambda d, value=stationary: value)
            written = run_scenario(path, tmp_path / str(stationary))["written"]
            files[stationary] = [Path(written[kind]).read_bytes() for kind in ("trajectory", "ball")]
        samples = len(chart_samples(d, 7, 3))
        assert projected == [samples, samples * steps]
        assert files[True] == files[False]
        rows = read_rows(tmp_path / "True" / "still_trajectory.csv")
        assert len(rows) == samples * steps and all(np.isfinite(x).all() for _, _, x in rows)
