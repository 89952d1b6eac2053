"""Unit tests for the configuration dataclasses."""

from __future__ import annotations

import pytest

from repro.config.parameters import GAConfig, SimulationConfig
from repro.core.payoff import PayoffConfig
from repro.reputation.exchange import ExchangeConfig


class TestGAConfig:
    def test_paper_defaults(self):
        cfg = GAConfig()
        assert cfg.population_size == 100
        assert cfg.crossover_rate == 0.9
        assert cfg.mutation_rate == 0.001
        assert cfg.selection == "tournament"
        assert cfg.elitism == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"crossover_rate": 1.5},
            {"mutation_rate": -0.1},
            {"selection": "rank"},
            {"tournament_size": 0},
            {"elitism": 200},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GAConfig(**kwargs)

    def test_dict_roundtrip(self):
        cfg = GAConfig(population_size=20, selection="roulette")
        assert GAConfig.from_dict(cfg.to_dict()) == cfg

    def test_with_(self):
        cfg = GAConfig().with_(mutation_rate=0.01)
        assert cfg.mutation_rate == 0.01
        assert cfg.crossover_rate == 0.9


class TestSimulationConfig:
    def test_paper_defaults(self):
        cfg = SimulationConfig()
        assert cfg.rounds == 300
        assert cfg.plays_per_environment == 1
        assert cfg.path_mode == "shorter"
        assert cfg.trust_bounds == (0.3, 0.6, 0.9)
        assert cfg.activity_band == 0.2
        assert cfg.payoffs == PayoffConfig()
        assert not cfg.exchange.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rounds": 0},
            {"plays_per_environment": 0},
            {"path_mode": "medium"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    def test_dict_roundtrip(self):
        cfg = SimulationConfig(
            rounds=50,
            path_mode="longer",
            payoffs=PayoffConfig(source_success=10.0),
            exchange=ExchangeConfig(enabled=True, fanout=3),
        )
        restored = SimulationConfig.from_dict(cfg.to_dict())
        assert restored == cfg

    def test_with_(self):
        cfg = SimulationConfig().with_(rounds=42)
        assert cfg.rounds == 42
        assert cfg.path_mode == "shorter"


class TestMobilityConfig:
    def test_default_is_disabled(self):
        from repro.config.mobility import MobilityConfig

        cfg = MobilityConfig()
        assert cfg.model == "none"
        assert not cfg.enabled

    def test_embedded_dict_roundtrip(self):
        from repro.config.mobility import MobilityConfig

        cfg = SimulationConfig(
            mobility=MobilityConfig(
                model="waypoint", speed_max=0.08, churn_leave=0.05, step_every=10
            )
        )
        restored = SimulationConfig.from_dict(cfg.to_dict())
        assert restored == cfg
        assert restored.mobility.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model": "teleport"},
            {"speed_min": 0.5, "speed_max": 0.1},
            {"pause_time": -1.0},
            {"alpha": 2.0},
            {"churn_leave": 1.5},
            {"tolerance": -0.1},
            {"max_paths": 0},
            {"step_every": "sometimes"},
            {"step_every": 0},
            {"model": "waypoint", "radio_range": 2.0},
            {"model": "waypoint", "radio_range": 0.0},
            {"model": "gauss-markov", "direction_sigma": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        from repro.config.mobility import MobilityConfig

        with pytest.raises(ValueError):
            MobilityConfig(**kwargs)

    def test_presets_are_consistent(self):
        from repro.config.mobility import MOBILITY_MODELS
        from repro.config.presets import MOBILITY_PRESETS, mobility_preset

        assert set(MOBILITY_PRESETS) >= {"none", "waypoint", "gauss-markov"}
        for name, preset in MOBILITY_PRESETS.items():
            assert preset.model in MOBILITY_MODELS
            assert mobility_preset(name) is preset
        assert MOBILITY_PRESETS["churn"].churn_leave > 0
        with pytest.raises(KeyError, match="unknown mobility preset"):
            mobility_preset("warp")
