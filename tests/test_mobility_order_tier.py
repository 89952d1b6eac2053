"""Statistical tier: the canonical neighbour order moved no distribution.

Route search breaks ties on each node's neighbour order.  The mobile
topology used to take that order from the hash-slot order of the Python
edge sets its repair went through; it now walks the cyclic order of its
adjacency matrix (ascending index from the node's own, wrapping around),
a function of the edge set alone.  That re-pinned every mobile digest once.
This tier shows the re-pin changed trajectories, not the model:

* :class:`tests.reference_routes.HashOrderTopology` is the retired repair,
  kept as a test-only topology — it still reproduces the retired pins, so
  it is the old model, bit for bit;
* ``mobile_waypoint`` smoke on ``batch`` runs on both topologies over
  ``REPRO_STAT_REPS`` (default 20) replications, and the KS/MWU/band
  harness of ``tests/test_engine_statistical.py`` must not tell them apart;
* the same gate must reject a planted deviation (``radio_range`` x 0.8)
  and plain ascending tie order, which makes the lowest indices every
  node's first relay choice and raises cooperation by ~8 pp.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest

import repro.mobility as mobility
import repro.mobility.factory as factory
from repro.analysis.equivalence import (
    collect_engine_samples,
    compare_samples,
    confidence_band_overlap,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import run_replication
from repro.mobility.dynamic import DynamicTopology
from tests.reference_routes import AscendingOrderTopology, HashOrderTopology

N_REPS = int(os.environ.get("REPRO_STAT_REPS", "20"))
ALPHA = 0.01

CONFIG = ExperimentConfig.for_case(
    "mobile_waypoint", scale="smoke", seed=90521, engine="batch"
)


def samples_on(topology_class, config=CONFIG):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(factory, "DynamicTopology", topology_class)
        return collect_engine_samples(config, N_REPS)


@pytest.fixture(scope="module")
def ensembles():
    """(hash order, cyclic order, ascending order, planted) samples/curves."""
    mob = CONFIG.sim.mobility
    planted = CONFIG.with_(
        sim=CONFIG.sim.with_(mobility=mob.with_(radio_range=0.8 * mob.radio_range))
    )
    return (
        samples_on(HashOrderTopology),
        samples_on(DynamicTopology),
        samples_on(AscendingOrderTopology),
        samples_on(DynamicTopology, planted),
    )


def compare(a, b):
    (a_samples, a_curves), (b_samples, b_curves) = a, b
    return compare_samples(
        a_samples,
        b_samples,
        alpha=ALPHA,
        curves_a=a_curves,
        curves_b=b_curves,
        min_overlap=0.8,
    )


def min_pvalue(report) -> float:
    return min(r.pvalue for results in report.tests.values() for r in results)


class TestHashOrderReference:
    """The test-only topology is the retired model: it reproduces the pins
    recorded before the canonical order."""

    def test_reproduces_the_retired_plan_pin(self, monkeypatch):
        from tests.test_paths_vector import PLAN_CASES, plan_digest

        monkeypatch.setattr(mobility, "DynamicTopology", HashOrderTopology)
        plan, oracles = PLAN_CASES["mobile_generation"]()
        assert plan_digest(plan, oracles) == "9ee23c96fb474c12"

    def test_reproduces_the_retired_fused_pin(self, monkeypatch):
        monkeypatch.setattr(factory, "DynamicTopology", HashOrderTopology)
        config = ExperimentConfig.for_case(
            "mobile_gauss", scale="smoke", engine="fused", seed=7, kernel="numpy"
        )
        result = run_replication(config, 0)
        blob = json.dumps(result.to_dict(), sort_keys=True, default=float)
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == "c4af90387c207d1f"


class TestCanonicalOrderTier:
    def test_cyclic_order_is_not_rejected(self, ensembles):
        hash_order, cyclic, _, _ = ensembles
        report = compare(hash_order, cyclic)
        assert report.equivalent, "; ".join(report.failures())
        assert min_pvalue(report) > ALPHA
        assert confidence_band_overlap(hash_order[1], cyclic[1]) >= 0.8

    def test_orders_trace_different_trajectories(self, ensembles):
        """Identical samples would pass the gate vacuously."""
        (hash_samples, _), (cyclic_samples, _), _, _ = ensembles
        assert any(
            not np.array_equal(hash_samples[m], cyclic_samples[m])
            for m in hash_samples
        )

    def test_gate_rejects_the_planted_deviation(self, ensembles):
        hash_order, _, _, planted = ensembles
        report = compare(hash_order, planted)
        assert not report.equivalent
        assert min_pvalue(report) <= ALPHA

    def test_gate_rejects_ascending_tie_order(self, ensembles):
        """Why the mobile order is cyclic: ascending order routes ties
        through the lowest indices, which shifts cooperation upwards."""
        hash_order, _, ascending, _ = ensembles
        report = compare(hash_order, ascending)
        assert not report.equivalent
        assert min_pvalue(report) <= ALPHA
        shift = (
            ascending[0]["final_cooperation"].mean()
            - hash_order[0]["final_cooperation"].mean()
        )
        assert shift > 0.05
