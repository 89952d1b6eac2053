"""Statistical-equivalence tier: every statistically-equivalent optimisation
vs the bit-identical pair.

Two relaxations live under this contract (see ``sim/fused.py`` and
``network/provider.py``): the fused engine reproduces the *distributions*
of the paper's outcome metrics without replaying any single trajectory, and
the ``approx`` route-cache policy serves drift-budgeted stale routes on
mobile topologies.  This tier holds both to that claim with the harness in
:mod:`repro.analysis.equivalence`:

* two-sample KS and Mann-Whitney gates (p > 0.01) on final cooperation,
  mean fitness and request-acceptance distributions over
  ``REPRO_STAT_REPS`` (default 20) seeded replications per configuration,
* confidence-band overlap on the Fig.-4-style cooperation curves,
* spot checks that the speculation machinery itself is exercised (games do
  replay) and that exact invariants hold regardless of speculation,
* a pinned-seed guard that the default ``exact`` policy keeps the
  reference/batch pair bit-identical through the layered refactor.

The reference sample comes from the batch engine; the pair is bit-identical
(``test_engine_equivalence.py``), so either defines the same reference
distribution.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis.equivalence import (
    collect_engine_samples,
    compare_samples,
    confidence_band_overlap,
)
from repro.config.mobility import MobilityConfig
from repro.core.strategy import Strategy
from repro.experiments.config import ExperimentConfig
from repro.game.stats import TournamentStats
from repro.mobility import build_oracle
from repro.paths.distributions import LONGER_PATHS, SHORTER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.sim import BIT_IDENTICAL_ENGINES, make_engine

#: Replications per engine for the distribution gates.  The acceptance bar
#: is >= 20; override with REPRO_STAT_REPS for deeper local sweeps.
N_REPS = int(os.environ.get("REPRO_STAT_REPS", "20"))
ALPHA = 0.01

#: The per-round-mobility regime the approx policy exists for: topology
#: stepped every round with zero tolerance (every edge flip counts), at the
#: same slow waypoint drift as the perf ledger's mobile rows, with the
#: bench row's aggressive drift budget — the exact configuration whose
#: >= 2x throughput claim BENCH_ENGINE.json posts.
HIGH_MOBILITY = MobilityConfig(
    model="waypoint",
    speed_min=0.002,
    speed_max=0.008,
    tolerance=0.0,
    step_every="round",
)
APPROX_BUDGET = 240


@pytest.fixture(scope="module")
def exact_ensemble():
    """Batch-engine (reference) samples/curves on the case-3 smoke config —
    case 3 exercises every environment class TE1-TE4."""
    config = ExperimentConfig.for_case("case3", scale="smoke", seed=424243)
    return collect_engine_samples(config.with_(engine="batch"), N_REPS)


@pytest.fixture(scope="module")
def fused_ensemble():
    """Fused-engine samples/curves on the same case-3 smoke config and seed
    as the reference ensemble."""
    config = ExperimentConfig.for_case("case3", scale="smoke", seed=424243)
    return collect_engine_samples(config.with_(engine="fused"), N_REPS)


class TestFusedStatisticalEquivalence:
    """The fused engine rides two relaxations at once (per-round
    speculation plus cross-tournament fusion, paired with the
    phase-vectorized GA step) — it is held to KS / Mann-Whitney /
    Fig.-4-band gates against a bit-identical reference ensemble."""

    def test_cooperation_and_fitness_distributions_match(
        self, exact_ensemble, fused_ensemble
    ):
        exact_samples, exact_curves = exact_ensemble
        fused_samples, fused_curves = fused_ensemble
        report = compare_samples(
            exact_samples,
            fused_samples,
            alpha=ALPHA,
            curves_a=exact_curves,
            curves_b=fused_curves,
            min_overlap=0.8,
        )
        assert report.equivalent, (
            "fused deviates from the reference distribution: "
            + "; ".join(report.failures())
        )
        for metric, results in report.tests.items():
            for result in results:
                assert result.pvalue > ALPHA, (
                    f"{metric}/{result.name} rejected: p={result.pvalue:.4g}"
                )

    def test_fig4_style_confidence_bands_overlap(self, exact_ensemble, fused_ensemble):
        _, exact_curves = exact_ensemble
        _, fused_curves = fused_ensemble
        overlap = confidence_band_overlap(exact_curves, fused_curves)
        assert overlap >= 0.8, f"cooperation bands overlap only {overlap:.2f}"

    def test_ensemble_means_close(self, exact_ensemble, fused_ensemble):
        exact_samples, _ = exact_ensemble
        fused_samples, _ = fused_ensemble
        for metric in exact_samples:
            a, b = exact_samples[metric], fused_samples[metric]
            sem = float(
                np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            )
            diff = abs(float(a.mean() - b.mean()))
            assert diff <= max(4 * sem, 1e-9), (
                f"{metric}: |mean diff| {diff:.4f} > 4*sem {4 * sem:.4f}"
            )

    def test_fused_actually_diverges_from_batch(self, exact_ensemble, fused_ensemble):
        """Vectorized draws, fusion and the phase-ordered GA step consume
        the stream in a different order than the bit-identical engines;
        identical samples would mean the fused path silently wasn't
        exercised."""
        exact_samples, _ = exact_ensemble
        fused_samples, _ = fused_ensemble
        assert any(
            not np.array_equal(exact_samples[m], fused_samples[m])
            for m in exact_samples
        )


def exchange_config(case: str, engine: str) -> ExperimentConfig:
    """The exchange tier's config, 30 rounds a tournament: at 20 the gate
    did not tell the exchange from its absence (the control's p >= 0.34),
    at 30 it does (p <= 0.0052)."""
    config = ExperimentConfig.for_case(
        case, scale="smoke", seed=515, generations=5, engine=engine
    )
    return config.with_(sim=config.sim.with_(rounds=30))


@pytest.fixture(scope="module")
def exchange_ensembles():
    """(batch exchange_core, fused exchange_core, fused exchange_off)
    samples/curves; the last is the power control, 10 replications."""
    return (
        collect_engine_samples(exchange_config("exchange_core", "batch"), N_REPS),
        collect_engine_samples(exchange_config("exchange_core", "fused"), N_REPS),
        collect_engine_samples(exchange_config("exchange_off", "fused"), 10),
    )


class TestFusedExchangeStatisticalEquivalence:
    """The fused engine's gossip step runs in the stacked round pass, so
    every tournament of a generation gossips in round lockstep; the
    outcome distributions must still match the bit-identical pair's
    per-tournament gossip, and the gate must have the power to see the
    exchange at all."""

    def test_distributions_match(self, exchange_ensembles):
        (batch, batch_curves), (fused, fused_curves), _ = exchange_ensembles
        report = compare_samples(
            batch,
            fused,
            alpha=ALPHA,
            curves_a=batch_curves,
            curves_b=fused_curves,
            min_overlap=0.8,
        )
        assert report.equivalent, (
            "fused exchange deviates from the reference distribution: "
            + "; ".join(report.failures())
        )
        for metric, results in report.tests.items():
            for result in results:
                assert result.pvalue > ALPHA, (
                    f"{metric}/{result.name} rejected: p={result.pvalue:.4g}"
                )

    def test_confidence_bands_overlap(self, exchange_ensembles):
        (_, batch_curves), (_, fused_curves), _ = exchange_ensembles
        overlap = confidence_band_overlap(batch_curves, fused_curves)
        assert overlap >= 0.8, f"cooperation bands overlap only {overlap:.2f}"

    def test_gate_rejects_the_exchange_off_control(self, exchange_ensembles):
        """Fused runs without the exchange must fail the same gate, or
        passing it says nothing about the gossip step."""
        (batch, batch_curves), _, (control, control_curves) = exchange_ensembles
        report = compare_samples(
            batch,
            control,
            alpha=ALPHA,
            curves_a=batch_curves,
            curves_b=control_curves,
            min_overlap=0.8,
        )
        assert not report.equivalent
        assert min(
            result.pvalue for results in report.tests.values() for result in results
        ) <= ALPHA


@pytest.fixture(scope="module")
def mobile_ensembles():
    """(exact samples/curves, approx samples/curves) on the mobile smoke
    config — both on the batch engine, so the only varying factor is the
    route-cache policy."""
    config = ExperimentConfig.for_case(
        "mobile_waypoint", scale="smoke", seed=90521, engine="batch"
    )
    exact_config = config.with_(
        sim=config.sim.with_(mobility=HIGH_MOBILITY)
    )
    approx_config = config.with_(
        sim=config.sim.with_(
            mobility=HIGH_MOBILITY.with_(
                route_cache="approx", drift_budget=APPROX_BUDGET
            )
        )
    )
    exact = collect_engine_samples(exact_config, N_REPS)
    approx = collect_engine_samples(approx_config, N_REPS)
    return exact, approx


class TestApproxRouteCacheStatisticalEquivalence:
    """The approx policy's contract on mobile scenarios: same outcome
    distributions as exact, different trajectories."""

    def test_distributions_match(self, mobile_ensembles):
        (ex_samples, ex_curves), (ap_samples, ap_curves) = mobile_ensembles
        report = compare_samples(
            ex_samples,
            ap_samples,
            alpha=ALPHA,
            curves_a=ex_curves,
            curves_b=ap_curves,
            min_overlap=0.8,
        )
        assert report.equivalent, (
            "approx route cache deviates from the exact distribution: "
            + "; ".join(report.failures())
        )
        for metric, results in report.tests.items():
            for result in results:
                assert result.pvalue > ALPHA, (
                    f"{metric}/{result.name} rejected: p={result.pvalue:.4g}"
                )

    def test_confidence_bands_overlap(self, mobile_ensembles):
        (_, ex_curves), (_, ap_curves) = mobile_ensembles
        overlap = confidence_band_overlap(ex_curves, ap_curves)
        assert overlap >= 0.8, f"cooperation bands overlap only {overlap:.2f}"

    def test_approx_actually_diverges(self, mobile_ensembles):
        """The gate is meaningful only if the policies trace different
        trajectories — identical ensembles would vacuously pass."""
        (ex_samples, _), (ap_samples, _) = mobile_ensembles
        assert any(
            not np.array_equal(ex_samples[m], ap_samples[m])
            for m in ex_samples
        )


class TestExactPolicyPinnedPair:
    """--route-cache exact (the default) must keep the reference/batch
    pair bit-identical through the layered route-provider refactor."""

    def _run(self, engine_name, route_cache):
        config = HIGH_MOBILITY.with_(route_cache=route_cache)
        oracle = build_oracle(config, list(range(24)), np.random.default_rng(5))
        engine = make_engine(engine_name, 20, 4)
        rng = np.random.default_rng(17)
        engine.set_strategies([Strategy.random(rng) for _ in range(20)])
        participants = list(range(20)) + engine.selfish_ids(4)
        stats = TournamentStats()
        engine.run_tournament(participants, 12, oracle, stats, None, None)
        return (
            stats.to_dict(),
            engine.fitness().tolist(),
            engine.payoff_matrix().tolist(),
            oracle.rng.bit_generator.state,
        )

    def test_pair_bit_identical_under_exact_policy(self):
        results = {
            name: self._run(name, "exact") for name in BIT_IDENTICAL_ENGINES
        }
        reference = results[BIT_IDENTICAL_ENGINES[0]]
        for name in BIT_IDENTICAL_ENGINES[1:]:
            assert results[name] == reference, (
                f"{name} diverged from {BIT_IDENTICAL_ENGINES[0]}"
                " under --route-cache exact"
            )

    def test_pinned_seed_trajectory_is_reproducible(self):
        """Same seeds, two runs: the exact policy is fully deterministic."""
        assert self._run("batch", "exact") == self._run("batch", "exact")


class TestSpeculationMachinery:
    """The statistical contract is only meaningful if speculation actually
    happens and its exact invariants hold."""

    def _run(self, hop_dist, seed, rounds=25, n_pop=20, n_csn=4):
        rng = np.random.default_rng(97)
        engine = make_engine("fused", n_pop, n_csn)
        engine.set_strategies([Strategy.random(rng) for _ in range(n_pop)])
        participants = list(range(n_pop)) + engine.selfish_ids(n_csn)
        oracle = RandomPathOracle(np.random.default_rng(seed), hop_dist)
        stats = TournamentStats()
        engine.run_tournament(participants, rounds, oracle, stats, None, None)
        return engine, stats

    @pytest.mark.parametrize("hop_dist", [SHORTER_PATHS, LONGER_PATHS])
    def test_conflict_replay_is_exercised(self, hop_dist):
        engine, stats = self._run(hop_dist, seed=5)
        total = stats.nn_originated + stats.csn_originated
        assert engine._replayed_games > 0, "no game ever conflicted"
        assert engine._replayed_games < total, "everything replayed"

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_invariants_survive_speculation(self, seed):
        engine, stats = self._run(SHORTER_PATHS, seed)
        ps, pf = engine.ps, engine.pf
        assert (ps >= 0).all() and (pf >= 0).all()
        assert (pf <= ps).all()
        # (R, block, block) state: observer rows per block, in id order
        assert np.array_equal(engine.known, (ps > 0).sum(-1).reshape(-1))
        assert np.array_equal(engine.pf_sum, pf.sum(-1).reshape(-1))
        total = stats.nn_originated + stats.csn_originated
        assert total == 25 * 24  # rounds * participants: conservation
        assert int(engine.n_sent.sum()) == total
        # every request was answered by exactly one accept or reject
        answered = (
            stats.requests_from_nn.total + stats.requests_from_csn.total
        )
        assert answered == int(engine.n_fwd.sum() + engine.n_disc.sum()) + (
            # CSN decisions are counted in stats but not in the (dead)
            # CSN payoff accumulators
            stats.requests_from_nn.rejected_by_csn
            + stats.requests_from_csn.rejected_by_csn
        )

    def test_fused_not_bit_identical_but_same_scale(self):
        """Documents the contract boundary: fused diverges from the exact
        engines' trajectories (different draw stream) while landing on the same
        outcome scale."""
        rng = np.random.default_rng(11)
        strategies = [Strategy.random(rng) for _ in range(20)]
        outcomes = {}
        for name in ("batch", "fused"):
            engine = make_engine(name, 20, 4)
            engine.set_strategies(strategies)
            participants = list(range(20)) + engine.selfish_ids(4)
            oracle = RandomPathOracle(np.random.default_rng(3), SHORTER_PATHS)
            stats = TournamentStats()
            engine.run_tournament(participants, 30, oracle, stats, None, None)
            outcomes[name] = stats.to_dict()
        assert outcomes["batch"] != outcomes["fused"]  # trajectories diverge
        coop_batch = outcomes["batch"]["nn_delivered"]
        coop_fused = outcomes["fused"]["nn_delivered"]
        assert coop_batch > 0 and coop_fused > 0
        # same scale: within a factor of 2 on a 30-round tournament
        assert 0.5 <= coop_fused / coop_batch <= 2.0
