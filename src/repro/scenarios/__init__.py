"""Declarative scenario layer: one file describes one experiment run.

A *scenario* is a small YAML/JSON document — checked against the
``scenario`` schema of :data:`repro.utils.validation.SCHEMAS`, the one
table bench reports and checkpoint manifests are checked against too —
that names a paper case, a scale preset, and the overrides/execution
options the CLI exposes as flags.  :func:`resolve_scenario` turns a validated payload into a
:class:`ResolvedScenario`: the fully-built
:class:`~repro.experiments.config.ExperimentConfig` (mobility preset,
engine, route-cache policy) plus the execution options (processes, shards,
checkpointing) that never enter the config hash.  :func:`execute_scenario`
runs a resolved scenario and writes its run manifest.

The CLI (``repro run scenarios/<name>.yaml``, and ``run-case``/
``reproduce``, which build payloads from their flags), the Python API, and
the REST service (:mod:`repro.service`) all resolve through this one
layer and run through its one executor, so a scenario file, the
equivalent flag invocation, and a service submission produce
bit-identical results and share one ``config_hash``.

The committed ``scenarios/`` library at the repo root covers every paper
case and extension; ``repro validate-scenarios`` gates it in CI.
"""

from repro.scenarios.loader import (
    SCENARIO_SUFFIXES,
    apply_overrides,
    build_scenario_payload,
    dump_scenario,
    list_scenarios,
    load_scenario,
)
from repro.scenarios.execute import Execution, execute_scenario
from repro.scenarios.resolve import (
    DEFAULT_CHECKPOINT_DIR,
    ResolvedScenario,
    resolve_scenario,
)

__all__ = [
    "SCENARIO_SUFFIXES",
    "load_scenario",
    "dump_scenario",
    "build_scenario_payload",
    "apply_overrides",
    "list_scenarios",
    "DEFAULT_CHECKPOINT_DIR",
    "ResolvedScenario",
    "resolve_scenario",
    "Execution",
    "execute_scenario",
]
