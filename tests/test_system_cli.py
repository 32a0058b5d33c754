"""Tests for the assembled LocalizationSystem and the CLI programs."""

import numpy as np
import pytest

from repro.cli import compositor_main, generator_main, locate_main, processor_main
from repro.core.geometry import Point
from repro.core.system import LocalizationSystem, ap_positions_by_bssid
from repro.core.trainingdb import TrainingDatabase
from repro.imaging.gif import read_gif, write_gif
from repro.imaging.raster import Raster
from repro.wiscan.format import render_wiscan


@pytest.fixture(scope="module")
def site(house):
    """Survey + plan + map for one fast house."""
    return {
        "collection": house.survey(rng=0),
        "map": house.location_map(),
        "plan": house.floor_plan(),
    }


class TestLocalizationSystem:
    def test_train_probabilistic(self, site, house):
        system = LocalizationSystem.train(site["collection"], site["map"], "probabilistic")
        obs = house.observe(Point(25, 20), rng=1)
        res = system.locate(obs)
        assert res.valid
        assert res.name is not None
        assert res.name.startswith("grid-")

    def test_train_geometric_needs_plan(self, site):
        with pytest.raises(ValueError, match="ap_positions"):
            LocalizationSystem.train(site["collection"], site["map"], "geometric")

    def test_train_geometric_with_plan(self, site, house):
        system = LocalizationSystem.train(
            site["collection"], site["map"], "geometric", plan=site["plan"]
        )
        obs = house.observe(Point(25, 20), rng=1)
        res = system.locate(obs)
        assert res.position is not None
        # Coordinate answers resolve to the nearest named location.
        assert res.name is not None and res.name_distance_ft < 15.0

    def test_locate_rssi_vector(self, site):
        system = LocalizationSystem.train(site["collection"], site["map"], "knn")
        mean = system.training_db.record("grid-20-20").mean_rssi()
        res = system.locate_rssi(mean)
        assert res.valid
        assert res.position.distance_to(Point(20, 20)) < 12.0

    def test_prebuilt_localizer(self, site):
        from repro.algorithms.knn import KNNLocalizer

        system = LocalizationSystem.train(site["collection"], site["map"], KNNLocalizer(k=1))
        assert isinstance(system.localizer, KNNLocalizer)

    def test_ap_positions_by_bssid_positional(self, site, house):
        db = system_db(site)
        mapping = ap_positions_by_bssid(site["plan"], db)
        assert len(mapping) == 4
        # Order-matched: first BSSID is AP A at (0, 0).
        first = mapping[db.bssids[0]]
        assert first.distance_to(Point(0, 0)) < 0.5

    def test_ap_positions_exact_bssid_names(self, site, house):
        from repro.core.floorplan import FloorPlan, PixelPoint

        db = system_db(site)
        plan = FloorPlan(Raster(100, 100))
        plan.set_scale_direct(1.0)
        plan.set_origin(PixelPoint(0, 99))
        for i, b in enumerate(db.bssids):
            plan.add_access_point(b.upper(), PixelPoint(10 * i, 50))
        mapping = ap_positions_by_bssid(plan, db)
        assert set(mapping) == set(db.bssids)

    def test_ap_positions_ambiguous_rejected(self, site):
        from repro.core.floorplan import FloorPlan, PixelPoint

        db = system_db(site)
        plan = FloorPlan(Raster(100, 100))
        plan.set_scale_direct(1.0)
        plan.set_origin(PixelPoint(0, 99))
        plan.add_access_point("only-one", PixelPoint(5, 5))
        with pytest.raises(ValueError, match="cannot match"):
            ap_positions_by_bssid(plan, db)


def system_db(site):
    from repro.core.trainingdb import generate_training_db

    return generate_training_db(site["collection"], site["map"])


class TestProcessorCLI:
    def test_script_file(self, tmp_path, capsys):
        base = tmp_path / "base.gif"
        write_gif(base, Raster(100, 100))
        out = tmp_path / "annotated.gif"
        script = tmp_path / "cmds.txt"
        script.write_text(
            f"load {base}\n"
            "set-scale 0 0 100 0 50\n"
            "set-origin 0 99\n"
            "add-ap A 0 99\n"
            f"save {out}\n"
        )
        assert processor_main([str(script)]) == 0
        assert out.exists()

    def test_inline_commands(self, tmp_path):
        base = tmp_path / "b.gif"
        write_gif(base, Raster(50, 50))
        assert processor_main(["-c", f"load {base}", "-c", "info"]) == 0

    def test_no_input_shows_help(self, capsys):
        assert processor_main([]) == 1

    def test_missing_script(self, tmp_path):
        with pytest.raises(SystemExit):
            processor_main([str(tmp_path / "nope.txt")])

    def test_bad_command_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            processor_main(["-c", "explode"])


class TestCompositorCLI:
    def annotated(self, tmp_path, site):
        path = tmp_path / "plan.gif"
        site["plan"].save(path)
        return path

    def test_marks_coordinates(self, tmp_path, site, capsys):
        plan = self.annotated(tmp_path, site)
        out = tmp_path / "marked.gif"
        rc = compositor_main([str(plan), str(out), "10", "10", "40", "30"])
        assert rc == 0
        assert read_gif(out).width == site["plan"].image.width

    def test_pairs_mode(self, tmp_path, site):
        plan = self.annotated(tmp_path, site)
        out = tmp_path / "pairs.gif"
        rc = compositor_main([str(plan), str(out), "--pairs", "10", "10", "14", "12"])
        assert rc == 0 and out.exists()

    def test_odd_coordinates_rejected(self, tmp_path, site):
        plan = self.annotated(tmp_path, site)
        with pytest.raises(SystemExit):
            compositor_main([str(plan), str(tmp_path / "x.gif"), "1", "2", "3"])

    def test_pairs_need_quadruples(self, tmp_path, site):
        plan = self.annotated(tmp_path, site)
        with pytest.raises(SystemExit):
            compositor_main([str(plan), str(tmp_path / "x.gif"), "--pairs", "1", "2"])

    def test_unannotated_plan_rejected(self, tmp_path):
        bare = tmp_path / "bare.gif"
        write_gif(bare, Raster(20, 20))
        with pytest.raises(SystemExit):
            compositor_main([str(bare), str(tmp_path / "o.gif"), "1", "1"])


class TestGeneratorCLI:
    def test_end_to_end(self, tmp_path, site, capsys):
        survey_dir = tmp_path / "survey"
        site["collection"].save_directory(survey_dir)
        map_path = tmp_path / "map.txt"
        site["map"].save(map_path)
        out = tmp_path / "db.tdb"
        rc = generator_main([str(survey_dir), str(map_path), str(out)])
        assert rc == 0
        db = TrainingDatabase.load(out)
        assert len(db) == 30
        printed = capsys.readouterr().out
        assert "30 locations" in printed

    def test_zip_input(self, tmp_path, site):
        zpath = site["collection"].save_zip(tmp_path / "s.zip")
        map_path = tmp_path / "map.txt"
        site["map"].save(map_path)
        out = tmp_path / "db.tdb"
        assert generator_main([str(zpath), str(map_path), str(out)]) == 0

    def test_missing_map_entry_fails(self, tmp_path, site):
        survey_dir = tmp_path / "survey"
        site["collection"].save_directory(survey_dir)
        map_path = tmp_path / "partial.txt"
        map_path.write_text("grid-0-0\t0\t0\n")
        with pytest.raises(SystemExit):
            generator_main([str(survey_dir), str(map_path), str(tmp_path / "o.tdb")])

    def test_lenient_mode(self, tmp_path, site):
        survey_dir = tmp_path / "survey"
        site["collection"].save_directory(survey_dir)
        map_path = tmp_path / "partial.txt"
        map_path.write_text("grid-0-0\t0\t0\n")
        out = tmp_path / "o.tdb"
        assert generator_main([str(survey_dir), str(map_path), str(out), "--lenient"]) == 0


class TestLocateCLI:
    def make_db_and_obs(self, tmp_path, site, house):
        db_path = tmp_path / "db.tdb"
        system_db(site).save(db_path)
        cs_session = None
        from repro.wiscan.capture import CaptureSession, SurveyPoint

        session = CaptureSession(house.scanner, dwell_s=5.0).capture_point(
            SurveyPoint("obs", Point(25, 20)), rng=9
        )
        obs_path = tmp_path / "obs.wi-scan"
        obs_path.write_text(render_wiscan(session))
        return db_path, obs_path

    def test_probabilistic_locate(self, tmp_path, site, house, capsys):
        db_path, obs_path = self.make_db_and_obs(tmp_path, site, house)
        rc = locate_main([str(db_path), str(obs_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "estimated position" in out
        assert "estimated location" in out

    def test_geometric_requires_plan(self, tmp_path, site, house):
        db_path, obs_path = self.make_db_and_obs(tmp_path, site, house)
        with pytest.raises(SystemExit):
            locate_main([str(db_path), str(obs_path), "--algorithm", "geometric"])

    def test_geometric_with_plan(self, tmp_path, site, house, capsys):
        db_path, obs_path = self.make_db_and_obs(tmp_path, site, house)
        plan_path = tmp_path / "plan.gif"
        site["plan"].save(plan_path)
        rc = locate_main(
            [str(db_path), str(obs_path), "--algorithm", "geometric", "--plan", str(plan_path)]
        )
        assert rc == 0

    def test_unknown_algorithm(self, tmp_path, site, house):
        db_path, obs_path = self.make_db_and_obs(tmp_path, site, house)
        with pytest.raises(SystemExit):
            locate_main([str(db_path), str(obs_path), "--algorithm", "oracle"])

    def test_multiple_observations_batched(self, tmp_path, site, house, capsys):
        db_path, obs_path = self.make_db_and_obs(tmp_path, site, house)
        obs2 = tmp_path / "obs2.wi-scan"
        obs2.write_text(obs_path.read_text())
        rc = locate_main(
            [str(db_path), str(obs_path), str(obs2), "--chunk-size", "1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # one labelled block per file, identical answers for identical input
        assert out.count("estimated position") == 2
        assert f"{obs_path}:" in out and f"{obs2}:" in out
        lines = [l for l in out.splitlines() if l.startswith("estimated position")]
        assert lines[0] == lines[1]

    def test_batch_flags_validated(self, tmp_path, site, house):
        db_path, obs_path = self.make_db_and_obs(tmp_path, site, house)
        with pytest.raises(SystemExit):
            locate_main([str(db_path), str(obs_path), "--chunk-size", "0"])

    def test_trace_renders_as_one_span_tree(self, tmp_path, site, house, capsys):
        from repro.cli import repro_main

        db_path, obs_path = self.make_db_and_obs(tmp_path, site, house)
        trace_path = tmp_path / "t.jsonl"
        assert locate_main([str(db_path), str(obs_path), "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert repro_main(["obs", "traces", str(trace_path)]) == 0
        out = capsys.readouterr().out
        # One trace for the whole command, its spans rendered beneath it.
        assert len([l for l in out.splitlines() if l.startswith("trace ")]) == 1
        assert "- trainingdb.load " in out
        assert "(no spans retained)" not in out

    def test_batch_flags_restore_default_config(self, tmp_path, site, house):
        from repro.algorithms.engine import get_batch_config

        db_path, obs_path = self.make_db_and_obs(tmp_path, site, house)
        before = get_batch_config()
        assert locate_main([str(db_path), str(obs_path), "--chunk-size", "7"]) == 0
        assert get_batch_config() is before
