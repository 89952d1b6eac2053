"""Unit tests for the reproduction registry."""

from __future__ import annotations

import pytest

from repro.experiments.registry import ARTEFACTS, ReproductionSession


class TestRegistryCompleteness:
    def test_every_paper_artefact_present(self):
        """DESIGN.md's experiment index: Fig. 4 and Tables 5-9 must all have
        a registered reproduction (Tables 1-4 are parameter presets tested in
        test_config_presets; Figs. 1-2 are executable examples).  "mobility"
        is the extension artefact comparing network mobility regimes."""
        assert set(ARTEFACTS) == {
            "fig4",
            "table5",
            "table6",
            "table7",
            "table8",
            "table9",
            "mobility",
            "exchange",
        }

    def test_specs_are_well_formed(self):
        for aid, spec in ARTEFACTS.items():
            assert spec.artefact_id == aid
            assert spec.title
            assert spec.cases
            assert callable(spec.render)
            assert aid in str(spec) or spec.title in str(spec)

    def test_cases_referenced_exist(self):
        from repro.experiments.cases import ALL_CASES

        for spec in ARTEFACTS.values():
            for case in spec.cases:
                assert case in ALL_CASES


class TestReproductionSession:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            ReproductionSession(scale="galactic")

    def test_unknown_artefact_rejected(self):
        session = ReproductionSession(scale="smoke")
        with pytest.raises(KeyError, match="unknown artefact"):
            session.render("fig99")

    def test_result_for_caches(self):
        session = ReproductionSession(scale="smoke", run={"processes": 1})
        a = session.result_for("case1")
        b = session.result_for("case1")
        assert a is b

    def test_render_artefact_smoke(self):
        session = ReproductionSession(scale="smoke", run={"processes": 1})
        out = session.render("table5")
        assert "Table 5" in out

    def test_disk_cache_roundtrip(self, tmp_path):
        session = ReproductionSession(
            scale="smoke", run={"processes": 1}, cache_dir=tmp_path
        )
        first = session.result_for("case1")
        assert session.cache_path("case1").exists()
        # a fresh session loads from disk instead of re-simulating
        session2 = ReproductionSession(
            scale="smoke", run={"processes": 1}, cache_dir=tmp_path
        )
        second = session2.result_for("case1")
        assert second.to_dict() == first.to_dict()

    def test_disk_cache_is_keyed_by_engine(self, tmp_path):
        # a cached fast result must never be served to a fused session
        fast = ReproductionSession(
            scale="smoke",
            overrides={"engine": "fast"},
            run={"processes": 1},
            cache_dir=tmp_path,
        )
        fast.result_for("case1")
        fused = ReproductionSession(
            scale="smoke",
            overrides={"engine": "fused"},
            run={"processes": 1},
            cache_dir=tmp_path,
        )
        assert fused.cache_path("case1") != fast.cache_path("case1")
        assert fused.result_for("case1").config["engine"] == "fused"

    def test_config_for(self):
        session = ReproductionSession(
            scale="smoke", overrides={"seed": 1, "engine": "reference"}
        )
        cfg = session.config_for("case2")
        assert cfg.seed == 1
        assert cfg.engine == "reference"
        assert cfg.case.name == "case2"

    def test_invalid_request_fails_at_resolve(self):
        session = ReproductionSession(scale="smoke", run={"shards": 0})
        with pytest.raises(ValueError, match="shards"):
            session.scenario_for("case1")

    def test_cases_match_run_case_scenarios(self):
        """A session case is the scenario ``run-case`` builds from flags."""
        from repro.scenarios import build_scenario_payload, resolve_scenario

        session = ReproductionSession(
            scale="smoke", overrides={"engine": "fused"}, run={"shards": 2}
        )
        resolved = session.scenario_for("case3")
        expected = resolve_scenario(
            build_scenario_payload(
                "case3", "smoke", overrides={"engine": "fused"}, run={"shards": 2}
            )
        )
        assert resolved.to_payload() == expected.to_payload()
        assert resolved.config_hash() == expected.config_hash()
        assert resolved.shards == 2
