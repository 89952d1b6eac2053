"""The generational GA step of §5.

Per generation: fitness of each player's strategy is its average payoff over
all tournaments (Eq. 1, computed by the evaluation); then N pairs of parents
are selected, one-point crossover is applied with probability ``p_c``, one of
the two children is kept at random, and uniform bit-flip mutation with
probability ``p_m`` per bit finishes the offspring.  Constantly selfish nodes
never enter selection or reproduction.

This class is genome-agnostic: it maps bit tuples to bit tuples.  The ad hoc
experiment wraps it over 13-bit strategies; the IPDRP baseline over 5-bit
strategies.
"""

from __future__ import annotations

from time import perf_counter
from typing import Sequence

import numpy as np

from repro.config.parameters import GAConfig
from repro.ga.operators import mutate, one_point_crossover
from repro.ga.selection import select_index
from repro.ga.vector import initial_population_matrix, next_generation_matrix
from repro.telemetry.runtime import get_telemetry

__all__ = ["GeneticAlgorithm"]

Bits = tuple[int, ...]


class GeneticAlgorithm:
    """Stateless generational step; all state lives in (population, fitness)."""

    def __init__(self, config: GAConfig):
        self.config = config

    def initial_population(
        self, genome_length: int, rng: np.random.Generator
    ) -> list[Bits]:
        """Uniformly random initial strategies (§5).

        Drawn as one matrix: ``integers(0, 2, size=(P, L))`` fills row by
        row in C order, so this is bit-identical to the per-row loop it
        replaced and pinned trajectories are unchanged.
        """
        bits = initial_population_matrix(
            self.config.population_size, genome_length, rng
        )
        return [tuple(int(b) for b in row) for row in bits]

    def next_generation(
        self,
        population: Sequence[Bits],
        fitness: np.ndarray,
        rng: np.random.Generator,
    ) -> list[Bits]:
        """Produce the next population from the current one and its fitness."""
        cfg = self.config
        if len(population) != cfg.population_size:
            raise ValueError(
                f"population size {len(population)} != configured"
                f" {cfg.population_size}"
            )
        # GAConfig validates this bound, but a duck-typed config would
        # otherwise sail through: the elite extend below is not bounded by
        # the offspring loop, so an oversized elite set silently grows the
        # population
        if not 0 <= cfg.elitism <= cfg.population_size:
            raise ValueError(
                f"elitism ({cfg.elitism}) must be between 0 and the"
                f" population size ({cfg.population_size}); an oversized"
                " elite set would grow the population"
            )
        fitness = np.asarray(fitness, dtype=float)
        if len(fitness) != len(population):
            raise ValueError("fitness length must match population length")

        offspring: list[Bits] = []
        if cfg.elitism:
            # Highest-fitness strategies copied unchanged (ablation only;
            # the paper itself uses no elitism).
            elite_order = np.argsort(-fitness, kind="stable")[: cfg.elitism]
            offspring.extend(tuple(population[int(i)]) for i in elite_order)

        # one loop whether telemetry is on or off: the clock reads consume
        # no randomness, so enabling telemetry cannot perturb a pinned
        # trajectory, and the timings are recorded only when it is on
        sel_s = cx_s = mut_s = 0.0
        crossovers = 0
        while len(offspring) < cfg.population_size:
            t0 = perf_counter()
            i = select_index(cfg.selection, fitness, rng, cfg.tournament_size)
            j = select_index(cfg.selection, fitness, rng, cfg.tournament_size)
            t1 = perf_counter()
            parent_a, parent_b = population[i], population[j]
            if rng.random() < cfg.crossover_rate:
                child_a, child_b = one_point_crossover(parent_a, parent_b, rng)
                crossovers += 1
            else:
                child_a, child_b = tuple(parent_a), tuple(parent_b)
            t2 = perf_counter()
            child = child_a if rng.random() < 0.5 else child_b
            offspring.append(mutate(child, cfg.mutation_rate, rng))
            t3 = perf_counter()
            sel_s += t1 - t0
            cx_s += t2 - t1
            mut_s += t3 - t2
        tel = get_telemetry()
        if tel.enabled:
            tel.timer_add("ga.selection_s", sel_s)
            tel.timer_add("ga.crossover_s", cx_s)
            tel.timer_add("ga.mutation_s", mut_s)
            tel.count("ga.generations")
            tel.count("ga.crossovers", crossovers)
            tel.set_gauge("ga.diversity", len(set(offspring)) / len(offspring))
        return offspring

    def next_generation_vectorized(
        self,
        population: Sequence[Bits],
        fitness: np.ndarray,
        rng: np.random.Generator,
    ) -> list[Bits]:
        """The generation step as one matrix pass (fused-engine companion).

        Same operators and elitism rule as :meth:`next_generation`, but the
        generator is consumed phase-by-phase instead of child-by-child
        (see :func:`repro.ga.vector.next_generation_matrix`), so
        trajectories diverge from the scalar loop — the same statistical
        contract as the fused engine that pairs with it.
        """
        t0 = perf_counter()
        out = next_generation_matrix(population, fitness, self.config, rng)
        tel = get_telemetry()
        if tel.enabled:
            tel.timer_add("ga.vector_step_s", perf_counter() - t0)
            tel.count("ga.generations")
            tel.set_gauge(
                "ga.diversity", len(np.unique(out, axis=0)) / len(out)
            )
        return [tuple(int(b) for b in row) for row in out]
