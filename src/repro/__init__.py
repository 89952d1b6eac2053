"""repro — reproduction of *Evolution of Strategy Driven Behavior in Ad Hoc
Networks Using a Genetic Algorithm* (Seredynski, Bouvry, Klopotek; IPPS 2007).

The package implements, from scratch:

* the trust/activity reputation substrate (§3),
* the Ad Hoc Network Game and tournament model (§4),
* the genetic algorithm evolving 13-bit forwarding strategies (§5),
* the full experiment harness reproducing every figure and table of §6,
* the IPDRP baseline the model derives from (ref [12]),
* a geometric-topology extension for low-mobility networks,
* a mobility subsystem (random waypoint, Gauss-Markov, node churn) running
  the game on time-varying topologies through a caching path oracle.

Quickstart
----------
>>> from repro import ExperimentConfig, run_experiment
>>> config = ExperimentConfig.for_case("case1", scale="smoke")
>>> result = run_experiment(config, processes=1)
>>> 0.0 <= result.final_cooperation()[0] <= 1.0
True

See ``examples/`` for richer scenarios and ``python -m repro list`` for the
reproduction CLI.
"""

from repro._version import __version__
from repro.config.parameters import GAConfig, SimulationConfig
from repro.core.activity import Activity
from repro.core.node import (
    AlwaysDropPlayer,
    AlwaysForwardPlayer,
    ConstantlySelfishPlayer,
    NormalPlayer,
    Player,
    RandomPlayer,
    ThresholdPlayer,
)
from repro.core.payoff import PayoffConfig
from repro.core.strategy import Strategy
from repro.experiments.cases import CASES, EvaluationCase, get_case
from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import ReplicationResult, run_replication
from repro.experiments.results import ExperimentResult
from repro.experiments.runner import run_experiment
from repro.game.stats import TournamentStats
from repro.ga.evolution import GeneticAlgorithm
from repro.mobility import (
    DynamicTopology,
    GaussMarkov,
    MobilePathOracle,
    MobilityConfig,
    NodeChurn,
    RandomWaypoint,
)
from repro.network.provider import (
    ROUTE_CACHE_POLICIES,
    ApproxPolicy,
    CachePolicy,
    ExactPolicy,
    RouteProvider,
    make_cache_policy,
)
from repro.paths.distributions import LONGER_PATHS, SHORTER_PATHS
from repro.paths.oracle import GameSetup, RandomPathOracle, ScriptedPathOracle
from repro.reputation.activity import ActivityClassifier
from repro.reputation.records import ReputationTable
from repro.reputation.trust import TrustTable
from repro.sim import BatchEngine, ReferenceEngine, make_engine
from repro.tournament.environment import TournamentEnvironment
from repro.tournament.evaluation import evaluate_generation

__all__ = [
    "__version__",
    # core model
    "Strategy",
    "Activity",
    "PayoffConfig",
    "Player",
    "NormalPlayer",
    "ConstantlySelfishPlayer",
    "AlwaysForwardPlayer",
    "AlwaysDropPlayer",
    "RandomPlayer",
    "ThresholdPlayer",
    # reputation
    "ReputationTable",
    "TrustTable",
    "ActivityClassifier",
    # paths
    "SHORTER_PATHS",
    "LONGER_PATHS",
    "GameSetup",
    "RandomPathOracle",
    "ScriptedPathOracle",
    # mobility
    "MobilityConfig",
    "RandomWaypoint",
    "GaussMarkov",
    "NodeChurn",
    "DynamicTopology",
    "MobilePathOracle",
    # route providers (cache policies)
    "RouteProvider",
    "CachePolicy",
    "ExactPolicy",
    "ApproxPolicy",
    "make_cache_policy",
    "ROUTE_CACHE_POLICIES",
    # simulation
    "ReferenceEngine",
    "BatchEngine",
    "make_engine",
    "TournamentEnvironment",
    "evaluate_generation",
    "TournamentStats",
    # GA
    "GeneticAlgorithm",
    "GAConfig",
    "SimulationConfig",
    # experiments
    "EvaluationCase",
    "CASES",
    "get_case",
    "ExperimentConfig",
    "run_replication",
    "ReplicationResult",
    "run_experiment",
    "ExperimentResult",
]
