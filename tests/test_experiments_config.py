"""Unit tests for ExperimentConfig."""

from __future__ import annotations

import pytest

from repro.config.parameters import GAConfig, SimulationConfig
from repro.experiments.cases import get_case
from repro.experiments.config import SCALES, ExperimentConfig


class TestScales:
    def test_known_scales(self):
        assert set(SCALES) == {"paper", "default", "smoke"}

    def test_paper_scale_matches_section61(self):
        generations, rounds, replications = SCALES["paper"]
        assert (generations, rounds, replications) == (500, 300, 60)


class TestForCase:
    def test_builds_from_case_name(self):
        cfg = ExperimentConfig.for_case("case3", scale="smoke")
        assert cfg.case.name == "case3"
        assert cfg.generations == SCALES["smoke"][0]
        assert cfg.sim.rounds == SCALES["smoke"][1]
        assert cfg.replications == SCALES["smoke"][2]

    def test_accepts_case_object(self):
        cfg = ExperimentConfig.for_case(get_case("case1"), scale="smoke")
        assert cfg.case.name == "case1"

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            ExperimentConfig.for_case("case1", scale="huge")

    def test_overrides(self):
        cfg = ExperimentConfig.for_case(
            "case1", scale="smoke", generations=7, seed=99, engine="reference"
        )
        assert cfg.generations == 7
        assert cfg.seed == 99
        assert cfg.engine == "reference"

    def test_path_mode_synced_to_case(self):
        cfg = ExperimentConfig.for_case("case4", scale="smoke")
        assert cfg.sim.path_mode == "longer"

    def test_path_mode_mismatch_corrected(self):
        cfg = ExperimentConfig(
            case=get_case("case4"), sim=SimulationConfig(path_mode="shorter")
        )
        assert cfg.sim.path_mode == "longer"


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"generations": 0},
            {"replications": 0},
            {"engine": "warp"},
            {"seed": -1},
            {"engine": "turbo"},  # retired: folded into the fused engine
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(case=get_case("case1"), **kwargs)

    def test_population_must_cover_environment(self):
        with pytest.raises(ValueError, match="population"):
            ExperimentConfig(
                case=get_case("case1"), ga=GAConfig(population_size=10)
            )


class TestDescribe:
    def test_describe_is_json_friendly(self):
        import json

        cfg = ExperimentConfig.for_case("case2", scale="smoke")
        desc = cfg.describe()
        text = json.dumps(desc)
        assert "case2" in text
        assert desc["environments"][0]["n_selfish"] == 30

    def test_with_(self):
        cfg = ExperimentConfig.for_case("case1", scale="smoke")
        assert cfg.with_(seed=5).seed == 5


class TestMobilitySync:
    def test_mobile_case_pulls_preset_into_sim(self):
        cfg = ExperimentConfig.for_case("mobile_waypoint", scale="smoke")
        assert cfg.sim.mobility.model == "waypoint"
        cfg = ExperimentConfig.for_case("mobile_gauss", scale="smoke")
        assert cfg.sim.mobility.model == "gauss-markov"

    def test_explicit_sim_mobility_wins_over_case_preset(self):
        from repro.config.mobility import MobilityConfig
        from repro.config.parameters import SimulationConfig

        custom = MobilityConfig(model="gauss-markov", mean_speed=0.2)
        cfg = ExperimentConfig.for_case(
            "mobile_waypoint", scale="smoke", sim=SimulationConfig(mobility=custom)
        )
        assert cfg.sim.mobility == custom

    def test_paper_cases_stay_on_random_oracle(self):
        cfg = ExperimentConfig.for_case("case1", scale="smoke")
        assert not cfg.sim.mobility.enabled

    def test_describe_records_mobility(self):
        cfg = ExperimentConfig.for_case("mobile_waypoint", scale="smoke")
        desc = cfg.describe()
        assert desc["sim"]["mobility"]["model"] == "waypoint"
