"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
import tomllib
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    def test_version_agrees_with_package_metadata(self, capsys):
        """src/repro/_version.py is the single source of truth: the CLI and
        pyproject's dynamic version must both resolve to it."""
        from repro._version import __version__

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert capsys.readouterr().out.strip() == f"repro {__version__}"
        pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        assert "version" in pyproject["project"]["dynamic"]
        assert (
            pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"]
            == "repro._version.__version__"
        )

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_reproduce_defaults(self):
        args = build_parser().parse_args(["reproduce", "fig4"])
        assert args.artefact == "fig4"
        assert args.scale == "default"
        assert args.engine == "batch"

    def test_retired_turbo_engine_refused(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-case", "case1", "--engine", "turbo"])
        assert "invalid choice: 'turbo'" in capsys.readouterr().err

    def test_run_case_options(self):
        args = build_parser().parse_args(
            ["run-case", "case3", "--generations", "5", "--rounds", "9"]
        )
        assert args.case == "case3"
        assert args.generations == 5
        assert args.rounds == 9


class TestCommands:
    def test_list_output(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "case4" in out

    def test_reproduce_unknown_artefact(self, capsys):
        assert main(["reproduce", "nope"]) == 2
        assert "unknown artefact" in capsys.readouterr().err

    def test_run_case_smoke(self, capsys, tmp_path):
        code = main(
            [
                "run-case",
                "case1",
                "--scale",
                "smoke",
                "--processes",
                "1",
                "--out",
                str(tmp_path / "case1.json"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final cooperation" in out
        assert (tmp_path / "case1.json").exists()

    def test_reproduce_smoke_artefact(self, capsys, tmp_path):
        code = main(
            [
                "reproduce",
                "table8",
                "--scale",
                "smoke",
                "--processes",
                "1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "table8" in out
        assert (tmp_path / "table8_smoke.txt").exists()


class TestMobilityFlags:
    def test_parser_accepts_mobility_options(self):
        args = build_parser().parse_args(
            ["run-case", "mobile_waypoint", "--mobility", "gauss-markov",
             "--speed", "0.05", "--pause", "2"]
        )
        assert args.mobility == "gauss-markov"
        assert args.speed == 0.05
        assert args.pause == 2.0

    def test_parser_rejects_unknown_mobility(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-case", "case1", "--mobility", "warp"])

    def test_speed_requires_mobility(self, capsys):
        # the scenario schema's cross-key rule, in its own wording
        assert main(["run-case", "case1", "--scale", "smoke", "--speed", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "speed" in err and "mobility" in err

    def test_list_shows_extension_cases(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mobile_waypoint" in out
        assert "mobility" in out

    def test_run_case_with_mobility_smoke(self, capsys):
        code = main(
            ["run-case", "case1", "--scale", "smoke", "--processes", "1",
             "--generations", "1", "--rounds", "2",
             "--mobility", "waypoint", "--speed", "0.03", "--pause", "1"]
        )
        assert code == 0
        assert "final cooperation" in capsys.readouterr().out

    def test_run_case_telemetry_writes_manifest(self, capsys, tmp_path):
        code = main(
            ["run-case", "case1", "--scale", "smoke", "--processes", "1",
             "--telemetry", "--telemetry-dir", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry manifest:" in out
        manifest = tmp_path / "case1_smoke_manifest.json"
        assert manifest.exists()
        payload = json.loads(manifest.read_text())
        counters = payload["metrics"]["counters"]
        assert counters["engine.games"] == counters["evaluation.games"]

    def test_reproduce_telemetry_writes_manifest_per_case(self, capsys, tmp_path):
        code = main(
            ["reproduce", "table8", "--scale", "smoke", "--processes", "1",
             "--telemetry", "--telemetry-dir", str(tmp_path)]
        )
        assert code == 0
        assert "telemetry manifest for case3" in capsys.readouterr().out
        assert (tmp_path / "case3_smoke_manifest.json").exists()

    def test_stats_renders_manifest(self, capsys, tmp_path):
        assert main(
            ["run-case", "case1", "--scale", "smoke", "--processes", "1",
             "--telemetry", "--telemetry-dir", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        code = main(["stats", str(tmp_path / "case1_smoke_manifest.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "run manifest: case1_smoke" in out
        assert "engine.games" in out

    def test_stats_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "nope.json")]) == 2
        assert "no such manifest" in capsys.readouterr().err

    def test_stats_invalid_json_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["stats", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_stats_schema_violation_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad_manifest.json"
        bad.write_text(json.dumps({"name": "x"}))
        assert main(["stats", str(bad)]) == 2
        assert "invalid run manifest" in capsys.readouterr().err

    def test_run_case_mobility_none_disables_mobile_case(self, capsys):
        """--mobility none runs a mobile_* case on the paper's random oracle."""
        code = main(
            ["run-case", "mobile_waypoint", "--scale", "smoke", "--processes", "1",
             "--generations", "1", "--rounds", "2", "--mobility", "none"]
        )
        assert code == 0
        assert "final cooperation" in capsys.readouterr().out


class TestFaultToleranceFlags:
    def test_parser_accepts_flags_on_both_commands(self):
        for command in (["reproduce", "fig4"], ["run-case", "case1"]):
            args = build_parser().parse_args(
                command
                + ["--shards", "4", "--checkpoint-dir", "ckpt", "--resume"]
            )
            assert args.shards == 4
            assert args.checkpoint_dir == Path("ckpt")
            assert args.resume is True

    def test_shards_must_be_positive(self, capsys):
        code = main(
            ["run-case", "case1", "--scale", "smoke", "--shards", "0"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "shards" in err and ">= 1" in err

    def test_resume_defaults_checkpoint_dir(self, capsys, monkeypatch, tmp_path):
        """Bare --resume implies the default store; with nothing matching
        there the run refuses with the distinct no-checkpoint exit code."""
        from repro.cli import EXIT_NO_CHECKPOINT

        monkeypatch.chdir(tmp_path)
        code = main(["run-case", "case1", "--scale", "smoke", "--resume"])
        assert code == EXIT_NO_CHECKPOINT == 4
        err = capsys.readouterr().err
        assert "no checkpoints" in err
        assert str(Path("results/checkpoints")) in err

    def test_resume_wrong_store_exits_4(self, capsys, tmp_path):
        code = main(
            ["run-case", "case1", "--scale", "smoke", "--resume",
             "--checkpoint-dir", str(tmp_path / "empty")]
        )
        assert code == 4
        assert "no checkpoints matching config hash" in capsys.readouterr().err

    def test_resume_against_stale_layout_only_exits_4(self, capsys, tmp_path):
        """Checkpoints of an older layout version do not count as
        something to resume."""
        import hashlib

        from repro.experiments.config import ExperimentConfig
        from repro.telemetry.manifest import config_hash

        config = ExperimentConfig.for_case("case1", scale="smoke")
        rep_dir = tmp_path / config_hash(config.describe())[:16] / "rep0000"
        rep_dir.mkdir(parents=True)
        (rep_dir / "gen000001.pkl").write_bytes(b"blob")
        manifest = {
            "checkpoint_version": 1,
            "config_hash": config_hash(config.describe()),
            "replication": 0,
            "generation": 1,
            "state_file": "gen000001.pkl",
            "state_sha256": hashlib.sha256(b"blob").hexdigest(),
        }
        (rep_dir / "gen000001.json").write_text(json.dumps(manifest))
        code = main(
            ["run-case", "case1", "--scale", "smoke", "--resume",
             "--checkpoint-dir", str(tmp_path)]
        )
        assert code == 4
        assert "no checkpoints matching config hash" in capsys.readouterr().err

    def test_reproduce_resume_without_checkpoints_exits_4(self, capsys, tmp_path):
        code = main(
            ["reproduce", "table8", "--scale", "smoke", "--resume",
             "--checkpoint-dir", str(tmp_path / "empty")]
        )
        assert code == 4
        assert "no checkpoints" in capsys.readouterr().err

    def test_manifest_records_checkpoint_dir(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        code = main(
            ["run-case", "case1", "--scale", "smoke", "--processes", "1",
             "--telemetry", "--telemetry-dir", str(tmp_path),
             "--checkpoint-dir", str(ckpt)]
        )
        assert code == 0
        capsys.readouterr()
        payload = json.loads((tmp_path / "case1_smoke_manifest.json").read_text())
        assert payload["run"]["checkpoint_dir"] == str(ckpt)

    def test_run_case_sharded_with_checkpoints(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpt"
        argv = [
            "run-case", "case1", "--scale", "smoke", "--replications", "2",
            "--processes", "1", "--shards", "2",
            "--checkpoint-dir", str(ckpt),
        ]
        assert main(argv) == 0
        assert "final cooperation" in capsys.readouterr().out
        assert list(ckpt.glob("*/rep*/gen*.json")), "no checkpoints written"
        # second run resumes from the final checkpoints and agrees
        assert main(argv + ["--resume"]) == 0
        assert "final cooperation" in capsys.readouterr().out

    def test_reproduce_accepts_checkpoint_dir(self, capsys, tmp_path):
        code = main(
            ["reproduce", "table8", "--scale", "smoke", "--processes", "1",
             "--shards", "2", "--checkpoint-dir", str(tmp_path / "ckpt")]
        )
        assert code == 0
        assert "table8" in capsys.readouterr().out
        assert list((tmp_path / "ckpt").glob("*/rep*/gen*.json"))


class TestOneFrontDoor:
    """``run``, ``run-case`` and ``reproduce`` resolve a scenario and run it
    through one executor: the same run block reaches every door, the
    schema and resolver refuse a bad request before anything runs, and the
    raw results document carries results only."""

    def test_reproduce_honours_stacked(self, capsys, tmp_path):
        # batch cannot stack: refused by name before the first case runs
        code = main(
            ["reproduce", "table5", "--scale", "smoke", "--engine", "batch",
             "--stacked", "--processes", "1", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "does not fuse generations" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_reproduce_honours_no_stacked(self, capsys, tmp_path):
        code = main(
            ["reproduce", "table8", "--scale", "smoke", "--engine", "fused",
             "--processes", "1", "--no-stacked", "--telemetry",
             "--telemetry-dir", str(tmp_path)]
        )
        assert code == 0
        capsys.readouterr()
        run = json.loads((tmp_path / "case3_smoke_manifest.json").read_text())["run"]
        assert run["stack_reason"] == "stacking disabled by request"
        assert run["stack_width"] == 1

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["case3", "--engine", "batch"], "does not fuse generations"),
        ],
        ids=["batch"],
    )
    def test_unhonourable_stack_request_exits_2(self, capsys, argv, reason):
        code = main(["run-case", *argv, "--scale", "smoke", "--stacked"])
        assert code == 2
        err = capsys.readouterr().err
        assert "'run.stacked' cannot be honoured" in err
        assert reason in err

    def test_exchange_stack_request_is_honoured(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["run-case", "exchange_core", "--scale", "smoke", "--engine",
                "fused", "--replications", "3", "--processes", "1"]
        assert main([*argv, "--stacked", "--telemetry", "--telemetry-dir",
                     "tel", "--out", "stacked.json"]) == 0
        # the results document records the telemetry switch, not the cut
        assert main([*argv, "--no-stacked", "--telemetry", "--telemetry-dir",
                     "untel", "--out", "unstacked.json"]) == 0
        capsys.readouterr()
        run = json.loads(
            Path("tel/exchange_core_smoke_manifest.json").read_text()
        )["run"]
        assert (run["stack_width"], run["stack_reason"]) == (3, "none")
        assert Path("stacked.json").read_bytes() == Path(
            "unstacked.json"
        ).read_bytes()

    STACKED_FUSED = ["run-case", "case1", "--scale", "smoke", "--engine", "fused",
                     "--replications", "2", "--processes", "1", "--stacked",
                     "--telemetry", "--telemetry-dir", "tel"]

    def stack_of(self, capsys, argv: list[str]) -> dict:
        assert main(argv) == 0
        capsys.readouterr()
        return json.loads(Path("tel/case1_smoke_manifest.json").read_text())["run"]

    def test_checkpointing_stack_request_is_honoured(
        self, capsys, monkeypatch, tmp_path
    ):
        monkeypatch.chdir(tmp_path)
        run = self.stack_of(
            capsys, [*self.STACKED_FUSED, "--checkpoint-dir", "ckpt"]
        )
        assert (run["stack_width"], run["stack_reason"]) == (2, "none")
        assert sorted(p.name for p in Path("ckpt").glob("*/rep*")) == [
            "rep0000", "rep0001"
        ]

    def test_bare_resume_stack_request_is_honoured(
        self, capsys, monkeypatch, tmp_path
    ):
        """A bare --resume reads the default store; with nothing there it
        exits 4 for want of checkpoints, never for the stack request."""
        monkeypatch.chdir(tmp_path)
        assert main([*self.STACKED_FUSED, "--resume"]) == 4
        assert "no checkpoints" in capsys.readouterr().err
        self.stack_of(capsys, [*self.STACKED_FUSED, "--checkpoint-dir",
                               "results/checkpoints"])
        run = self.stack_of(capsys, [*self.STACKED_FUSED, "--resume"])
        assert (run["stack_width"], run["stack_reason"]) == (2, "none")

    def test_unhonourable_stack_request_in_scenario_exits_2(self, capsys):
        code = main(
            ["run", str(REPO_ROOT / "scenarios" / "fig4_smoke.yaml"),
             "--engine", "batch", "--stacked"]
        )
        assert code == 2
        assert "does not fuse generations" in capsys.readouterr().err

    def test_telemetry_results_file_is_byte_stable(self, capsys, tmp_path):
        """Timings live in the manifest, so two telemetry runs of one config
        write byte-equal raw results."""
        outs = []
        for i in range(2):
            out = tmp_path / f"run{i}.json"
            code = main(
                ["run-case", "case1", "--scale", "smoke", "--processes", "1",
                 "--telemetry", "--telemetry-dir", str(tmp_path / f"tel{i}"),
                 "--out", str(out)]
            )
            assert code == 0
            outs.append(out.read_bytes())
            assert (tmp_path / f"tel{i}" / "case1_smoke_manifest.json").exists()
        capsys.readouterr()
        assert outs[0] == outs[1]
        assert "telemetry" not in json.loads(outs[0])

    def test_reproduce_and_run_case_write_equal_results(self, capsys, tmp_path):
        rep = tmp_path / "rep"
        assert main(
            ["reproduce", "table8", "--scale", "smoke", "--processes", "1",
             "--out", str(rep)]
        ) == 0
        assert main(
            ["run-case", "case3", "--scale", "smoke", "--processes", "1",
             "--out", str(tmp_path / "case3.json")]
        ) == 0
        capsys.readouterr()
        (cached,) = rep.glob("case3_smoke_*.json")
        assert cached.read_bytes() == (tmp_path / "case3.json").read_bytes()
