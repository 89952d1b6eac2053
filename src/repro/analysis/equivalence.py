"""Statistical-equivalence testing between simulation engines.

The fused engine's contract is *distributional*: under the same experiment
configuration it must reproduce the outcome distributions of the
bit-identical engines — cooperation levels, fitness, the shape of Fig.-4
style curves — without replaying the same trajectories.  This module is the
harness that makes that claim testable:

* :func:`ks_2samp` — the two-sample Kolmogorov-Smirnov test (asymptotic
  two-sided p-value with Stephens' small-sample correction), sensitive to
  any difference in distribution shape or location;
* :func:`mann_whitney_u` — the Mann-Whitney U rank-sum test (normal
  approximation with tie correction and continuity correction), sensitive
  to location shifts even KS underpowers on;
* :func:`confidence_band_overlap` — the fraction of generations whose
  replication-ensemble confidence bands overlap between two engines, for
  Fig.-4-style cooperation curves;
* :func:`compare_samples` / :func:`compare_engines` — the bundled verdict
  used by ``tests/test_engine_statistical.py``.

Implementations are numpy-only (scipy is not a runtime dependency); the
test suite cross-validates the statistics against ``scipy.stats`` when
scipy happens to be importable.

The paper's own claims are distributional — Fig. 4 plots replication
ensembles, Tables 5-9 report ensemble means — and related dynamic-routing
GA work (arXiv:1107.1943) likewise validates against outcome distributions,
so statistical equivalence is the faithful notion of "same results" here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "StatTestResult",
    "EquivalenceReport",
    "ks_2samp",
    "mann_whitney_u",
    "confidence_band_overlap",
    "compare_samples",
    "collect_engine_samples",
    "compare_engines",
]


@dataclass(frozen=True)
class StatTestResult:
    """One two-sample test: statistic and two-sided p-value."""

    name: str
    statistic: float
    pvalue: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "pvalue": self.pvalue,
        }


def _as_sample(values: Sequence[float], name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size < 2:
        raise ValueError(f"{name} needs at least 2 observations, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution,
    ``Q(lam) = 2 * sum_{k>=1} (-1)^(k-1) exp(-2 k^2 lam^2)``."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def ks_2samp(a: Sequence[float], b: Sequence[float]) -> StatTestResult:
    """Two-sample two-sided Kolmogorov-Smirnov test.

    The p-value uses the asymptotic Kolmogorov distribution with Stephens'
    effective-sample-size correction ``(sqrt(ne) + 0.12 + 0.11/sqrt(ne)) D``
    — accurate to a few percent for the ensemble sizes the equivalence suite
    uses (n >= 20), and conservative in the direction that matters (it
    slightly *over*-rejects, so a passing gate is trustworthy).
    """
    a = _as_sample(a, "sample a")
    b = _as_sample(b, "sample b")
    all_values = np.concatenate([a, b])
    # ECDF of each sample evaluated on the pooled support
    cdf_a = np.searchsorted(np.sort(a), all_values, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), all_values, side="right") / b.size
    statistic = float(np.abs(cdf_a - cdf_b).max())
    ne = a.size * b.size / (a.size + b.size)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * statistic
    return StatTestResult("ks_2samp", statistic, _kolmogorov_sf(lam))


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(a: Sequence[float], b: Sequence[float]) -> StatTestResult:
    """Two-sided Mann-Whitney U test (normal approximation, tie-corrected,
    with continuity correction — the same recipe scipy's ``asymptotic``
    method uses)."""
    a = _as_sample(a, "sample a")
    b = _as_sample(b, "sample b")
    n1, n2 = a.size, b.size
    pooled = np.concatenate([a, b])
    order = pooled.argsort(kind="mergesort")
    ranks = np.empty(pooled.size, dtype=np.float64)
    ranks[order] = np.arange(1, pooled.size + 1, dtype=np.float64)
    # average ranks over ties
    sorted_vals = pooled[order]
    _, starts, counts = np.unique(
        sorted_vals, return_index=True, return_counts=True
    )
    for start, count in zip(starts.tolist(), counts.tolist()):
        if count > 1:
            tie_idx = order[start : start + count]
            ranks[tie_idx] = ranks[tie_idx].mean()
    u1 = float(ranks[:n1].sum()) - n1 * (n1 + 1) / 2.0
    u = max(u1, n1 * n2 - u1)
    mean_u = n1 * n2 / 2.0
    n = n1 + n2
    tie_term = float((counts.astype(np.float64) ** 3 - counts).sum())
    var_u = n1 * n2 / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if var_u <= 0:
        # all observations identical: the samples are indistinguishable
        return StatTestResult("mann_whitney_u", u, 1.0)
    z = (u - mean_u - 0.5) / math.sqrt(var_u)
    return StatTestResult("mann_whitney_u", u, min(1.0, 2.0 * _normal_sf(z)))


def confidence_band_overlap(
    curves_a: np.ndarray, curves_b: np.ndarray, z: float = 1.96
) -> float:
    """Fraction of generations whose confidence bands overlap.

    ``curves_a`` / ``curves_b`` are ``(replications, generations)`` matrices
    of Fig.-4-style series (cooperation per generation, one row per seeded
    replication).  Each engine's ensemble yields a ``mean ± z * sem`` band
    per generation (:func:`repro.analysis.cooperation.series_confidence_band`);
    the score is the fraction of generations where the two bands intersect.
    Identical processes score ~1.0; a systematic shift pushes it toward 0.
    """
    from repro.analysis.cooperation import series_confidence_band

    curves_a = np.asarray(curves_a, dtype=np.float64)
    curves_b = np.asarray(curves_b, dtype=np.float64)
    if curves_a.ndim != 2 or curves_b.ndim != 2:
        raise ValueError("expected (replications, generations) matrices")
    if curves_a.shape[1] != curves_b.shape[1]:
        raise ValueError(
            f"generation counts differ: {curves_a.shape[1]} vs {curves_b.shape[1]}"
        )
    _, lo_a, hi_a = series_confidence_band(curves_a, z)
    _, lo_b, hi_b = series_confidence_band(curves_b, z)
    overlap = (lo_a <= hi_b) & (lo_b <= hi_a)
    return float(overlap.mean())


@dataclass(frozen=True)
class EquivalenceReport:
    """Verdict of a statistical-equivalence comparison.

    ``equivalent`` is True when every per-metric test clears ``alpha`` (no
    test *rejects* the same-distribution hypothesis) and, when curves were
    supplied, the confidence bands overlap on at least ``min_overlap`` of
    the generations.
    """

    alpha: float
    tests: Mapping[str, tuple[StatTestResult, ...]]
    band_overlap: float | None = None
    min_overlap: float = 0.8
    metadata: Mapping[str, object] = field(default_factory=dict)

    @property
    def equivalent(self) -> bool:
        for results in self.tests.values():
            for result in results:
                if result.pvalue <= self.alpha:
                    return False
        if self.band_overlap is not None and self.band_overlap < self.min_overlap:
            return False
        return True

    def failures(self) -> list[str]:
        """Human-readable list of rejected tests (empty when equivalent)."""
        out = []
        for metric, results in self.tests.items():
            for result in results:
                if result.pvalue <= self.alpha:
                    out.append(
                        f"{metric}/{result.name}: p={result.pvalue:.4g}"
                        f" <= alpha={self.alpha}"
                    )
        if self.band_overlap is not None and self.band_overlap < self.min_overlap:
            out.append(
                f"confidence-band overlap {self.band_overlap:.2f}"
                f" < {self.min_overlap:.2f}"
            )
        return out

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "equivalent": self.equivalent,
            "band_overlap": self.band_overlap,
            "min_overlap": self.min_overlap,
            "tests": {
                metric: [r.to_dict() for r in results]
                for metric, results in self.tests.items()
            },
            "failures": self.failures(),
            "metadata": dict(self.metadata),
        }


def compare_samples(
    samples_a: Mapping[str, Sequence[float]],
    samples_b: Mapping[str, Sequence[float]],
    alpha: float = 0.01,
    curves_a: np.ndarray | None = None,
    curves_b: np.ndarray | None = None,
    min_overlap: float = 0.8,
) -> EquivalenceReport:
    """Run the KS + Mann-Whitney battery on every metric shared by both
    sides."""
    if set(samples_a) != set(samples_b):
        raise ValueError(
            f"metric sets differ: {sorted(samples_a)} vs {sorted(samples_b)}"
        )
    if (curves_a is None) != (curves_b is None):
        raise ValueError("supply curves for both engines or neither")
    tests = {
        metric: (
            ks_2samp(samples_a[metric], samples_b[metric]),
            mann_whitney_u(samples_a[metric], samples_b[metric]),
        )
        for metric in sorted(samples_a)
    }
    band = (
        confidence_band_overlap(curves_a, curves_b)
        if curves_a is not None
        else None
    )
    return EquivalenceReport(
        alpha=alpha, tests=tests, band_overlap=band, min_overlap=min_overlap
    )


def collect_engine_samples(
    config,
    n_replications: int,
    metrics: Mapping[str, Callable] | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Run ``n_replications`` seeded replications of ``config`` and extract
    per-replication outcome samples.

    Returns ``(samples, curves)`` where ``samples`` maps metric name to a
    ``(n_replications,)`` array and ``curves`` is the
    ``(n_replications, generations)`` cooperation matrix for
    :func:`confidence_band_overlap`.  Default metrics: final cooperation
    level, mean final fitness, and the Table-6 acceptance fraction of
    NN-originated requests.

    Replication ``i`` derives its generator exactly as the experiment
    runner does (``SeedSequence(seed, spawn_key=(i,))``), so the reference
    sample for a bit-identical engine equals what ``run_experiment`` would
    produce.
    """
    # imported lazily: analysis must stay importable without the experiment
    # stack (repro.experiments imports repro.analysis for reporting)
    from repro.experiments.replication import run_replication

    if metrics is None:
        metrics = {
            "final_cooperation": lambda r: r.final_overall.cooperation_level,
            "mean_fitness": lambda r: r.history.records[-1].mean_fitness,
            "nn_request_acceptance": lambda r: (
                r.final_overall.requests_from_nn.fraction_accepted()
            ),
        }
    if n_replications < 2:
        raise ValueError(
            f"need at least 2 replications, got {n_replications}"
        )
    samples: dict[str, list[float]] = {name: [] for name in metrics}
    curves: list[list[float]] = []
    for index in range(n_replications):
        result = run_replication(config, index)
        for name, extract in metrics.items():
            samples[name].append(float(extract(result)))
        curves.append([rec.cooperation for rec in result.history.records])
    return (
        {name: np.asarray(vals) for name, vals in samples.items()},
        np.asarray(curves, dtype=np.float64),
    )


def compare_engines(
    config,
    engine_a: str,
    engine_b: str,
    n_replications: int = 20,
    alpha: float = 0.01,
    min_overlap: float = 0.8,
) -> EquivalenceReport:
    """End-to-end equivalence check between two engines on one config.

    Runs ``n_replications`` seeded replications per engine (same master
    seed, same per-replication spawn keys) and compares the outcome
    distributions.  This is the entry point
    ``tests/test_engine_statistical.py`` gates the fused engine with.
    """
    samples_a, curves_a = collect_engine_samples(
        config.with_(engine=engine_a), n_replications
    )
    samples_b, curves_b = collect_engine_samples(
        config.with_(engine=engine_b), n_replications
    )
    report = compare_samples(
        samples_a,
        samples_b,
        alpha=alpha,
        curves_a=curves_a,
        curves_b=curves_b,
        min_overlap=min_overlap,
    )
    return EquivalenceReport(
        alpha=report.alpha,
        tests=report.tests,
        band_overlap=report.band_overlap,
        min_overlap=report.min_overlap,
        metadata={
            "engine_a": engine_a,
            "engine_b": engine_b,
            "n_replications": n_replications,
            "case": config.case.name,
        },
    )
