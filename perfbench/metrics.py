"""The benchmark's arithmetic: game counts, fidelity, layer splits, medians.

Pure functions over plain data (the ``to_dict`` form of replication results,
seating records, second counts), so they are testable on tiny inputs without
running the program.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Mapping, Sequence


class CheckFailed(Exception):
    """A correctness check on a run's outputs did not hold."""


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


# -- games ---------------------------------------------------------------------


def stats_games(stats: Mapping) -> int:
    """Games one statistics block counted: every game is NN- or CSN-originated."""
    return int(stats["nn_originated"]) + int(stats["csn_originated"])


def seating_geometry(
    records: Iterable[tuple[int, int]],
    environments: Sequence[tuple[str, int, int]],
    calls_per_env: int,
) -> dict[str, tuple[int, int]]:
    """``{env: (tournaments, seats)}`` from the seatings actually drawn.

    ``records`` holds one ``(normal_seats, tournaments)`` pair per seating
    pass (one environment of one generation of one replication);
    ``environments`` is ``(name, n_normal, n_selfish)``.  Every pass of an
    environment must draw the same number of tournaments, and each
    environment must be drawn exactly ``calls_per_env`` times (generations
    x replications).  A tournament seats its normal players plus the
    environment's selfish nodes.
    """
    by_normal = {n_normal: (name, n_selfish) for name, n_normal, n_selfish in environments}
    if len(by_normal) != len(environments):
        raise CheckFailed("environments share a normal-seat count")
    seen: dict[str, list[int]] = {name: [] for name, _, _ in environments}
    for normal_seats, tournaments in records:
        if normal_seats not in by_normal:
            raise CheckFailed(f"a seating pass drew {normal_seats} normal seats")
        seen[by_normal[normal_seats][0]].append(tournaments)
    geometry = {}
    for name, n_normal, n_selfish in environments:
        counts = seen[name]
        if len(counts) != calls_per_env:
            raise CheckFailed(
                f"{name}: {len(counts)} seating passes, expected {calls_per_env}"
            )
        if len(set(counts)) != 1 or counts[0] < 1:
            raise CheckFailed(f"{name}: tournament counts differ: {sorted(set(counts))}")
        geometry[name] = (counts[0], n_normal + n_selfish)
    return geometry


def check_games_conserved(
    replications: Sequence[Mapping],
    geometry: Mapping[str, tuple[int, int]],
    rounds: int,
) -> None:
    """Each replication's last-generation stats count, per environment,
    ``tournaments x rounds x seats`` games."""
    for rep in replications:
        for env, (tournaments, seats) in geometry.items():
            counted = stats_games(rep["final_per_env"][env])
            expected = tournaments * rounds * seats
            if counted != expected:
                raise CheckFailed(
                    f"replication {rep['replication']} {env}: stats count"
                    f" {counted} games, seatings give {expected}"
                )
        total = sum(stats_games(s) for s in rep["final_per_env"].values())
        if stats_games(rep["final_overall"]) != total:
            raise CheckFailed(
                f"replication {rep['replication']}: overall stats disagree"
                " with the per-environment stats"
            )


def games_simulated(replications: Sequence[Mapping], generations: int) -> int:
    """Games of the whole run, from the returned last-generation stats.

    Valid once :func:`seating_geometry` has shown that every generation
    drew the same seatings, so every generation played as many games as
    the last.
    """
    return generations * sum(stats_games(rep["final_overall"]) for rep in replications)


def check_cooperation_bounds(replications: Sequence[Mapping]) -> None:
    """Every cooperation level (per generation, per environment) is in [0, 1]."""
    for rep in replications:
        levels = []
        for record in rep["history"]["records"]:
            levels.append(record["cooperation"])
            levels.extend(record["cooperation_per_env"].values())
        for stats in rep["final_per_env"].values():
            if stats["nn_originated"]:
                levels.append(stats["nn_delivered"] / stats["nn_originated"])
        bad = [v for v in levels if not 0.0 <= v <= 1.0]
        if bad:
            raise CheckFailed(
                f"replication {rep['replication']}: cooperation {bad[0]} outside [0, 1]"
            )


def pooled_cooperation(replications: Sequence[Mapping]) -> dict[str, float]:
    """Last-generation cooperation per environment, pooled over replications."""
    envs = replications[0]["final_per_env"].keys()
    out = {}
    for env in envs:
        delivered = sum(rep["final_per_env"][env]["nn_delivered"] for rep in replications)
        originated = sum(rep["final_per_env"][env]["nn_originated"] for rep in replications)
        out[env] = delivered / originated if originated else 0.0
    return out


def table5_abs_err_pp(
    replications: Sequence[Mapping], paper: Mapping[str, float]
) -> float:
    """Mean |final cooperation - paper| over the paper's environments, in
    percentage points."""
    coop = pooled_cooperation(replications)
    errors = [abs(coop[env] - value) * 100.0 for env, value in paper.items()]
    return sum(errors) / len(errors)


# -- layer split ---------------------------------------------------------------


def unattributed(wall_s: float, layers: Mapping[str, float]) -> float:
    """What the layer self-times leave of the traced wall time."""
    return wall_s - sum(layers.values())


def spread_over_region(
    busy: Mapping[str, float], covered_s: float, region_s: float
) -> dict[str, float]:
    """Express worker-side layer busy seconds as shares of a parallel region.

    ``busy`` sums each layer's self time over every worker; ``covered_s``
    is the summed duration of the worker tasks; ``region_s`` the wall time
    of the region they ran in.  Each layer gets ``busy * region_s /
    covered_s`` wall-equivalent seconds, and the task time no layer covers
    comes back under ``"unattributed"``, so the result sums to
    ``region_s``.
    """
    if covered_s <= 0:
        return {"unattributed": region_s}
    scale = region_s / covered_s
    out = {layer: seconds * scale for layer, seconds in busy.items()}
    out["unattributed"] = (covered_s - sum(busy.values())) * scale
    return out
