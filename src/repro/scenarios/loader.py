"""Scenario file I/O: load, build, override, and re-serialize payloads.

Everything returned here is a *validated* scenario payload (the
``scenario`` schema of :data:`repro.utils.validation.SCHEMAS`); resolution
into an :class:`~repro.experiments.config.ExperimentConfig` lives in
:mod:`repro.scenarios.resolve` so this module stays import-light.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping

import yaml

from repro.utils.validation import validate_scenario

__all__ = [
    "SCENARIO_SUFFIXES",
    "load_scenario",
    "dump_scenario",
    "build_scenario_payload",
    "apply_overrides",
    "list_scenarios",
]

#: File suffixes a scenario may use (YAML preferred; JSON for machines).
SCENARIO_SUFFIXES = (".yaml", ".yml", ".json")


def load_scenario(path: str | Path) -> dict:
    """Load and validate one scenario file (YAML or JSON).

    Raises :class:`ValueError` for an unknown suffix, unparseable text, or
    a schema violation — always naming the offending file.
    """
    path = Path(path)
    if path.suffix not in SCENARIO_SUFFIXES:
        raise ValueError(
            f"{path}: scenario files must end in one of {SCENARIO_SUFFIXES}"
        )
    try:
        text = path.read_text()
    except OSError as exc:
        raise ValueError(f"{path}: cannot read scenario file: {exc}") from exc
    try:
        if path.suffix == ".json":
            payload = json.loads(text)
        else:
            payload = yaml.safe_load(text)
    except (json.JSONDecodeError, yaml.YAMLError) as exc:
        raise ValueError(f"{path}: not a valid scenario document: {exc}") from exc
    return validate_scenario(payload, name=str(path))


def dump_scenario(payload: Mapping[str, Any], path: str | Path | None = None) -> str:
    """Serialize a scenario payload as stable, sorted YAML.

    Validates first, so nothing unschematic ever reaches disk; the output
    round-trips through :func:`load_scenario` unchanged (pinned by
    ``tests/test_scenarios.py`` for every committed library file).
    """
    payload = validate_scenario(payload)
    text = yaml.safe_dump(payload, sort_keys=True, default_flow_style=False)
    if path is not None:
        Path(path).write_text(text)
    return text


def build_scenario_payload(
    case: str,
    scale: str = "default",
    *,
    name: str | None = None,
    description: str = "",
    overrides: Mapping[str, Any] | None = None,
    run: Mapping[str, Any] | None = None,
) -> dict:
    """Assemble a validated scenario payload from parts.

    ``None``-valued entries in ``overrides``/``run`` are dropped — this is
    how the CLI's flag namespaces (where an unset flag is ``None``) map
    onto the scenario contract, where an absent key means "case default".
    """
    payload = {
        "scenario_version": 1,
        "name": name if name is not None else f"{case}_{scale}",
        "description": description,
        "case": case,
        "scale": scale,
        "overrides": {
            k: v for k, v in (overrides or {}).items() if v is not None
        },
        "run": {k: v for k, v in (run or {}).items() if v is not None},
    }
    return validate_scenario(payload)


def apply_overrides(
    payload: Mapping[str, Any],
    overrides: Mapping[str, Any] | None = None,
    run: Mapping[str, Any] | None = None,
    name: str | None = None,
) -> dict:
    """A copy of ``payload`` with flag-style overrides merged on top.

    This is ``repro run scenarios/x.yaml --seed 5`` semantics: the file is
    the base, explicit flags win key-by-key, ``None`` values (unset flags)
    leave the file's values alone.  The merged payload is re-validated, so
    an override can never push a scenario outside the contract.
    """
    merged = dict(validate_scenario(payload))
    merged["overrides"] = dict(merged["overrides"])
    merged["run"] = dict(merged["run"])
    for key, value in (overrides or {}).items():
        if value is not None:
            merged["overrides"][key] = value
    for key, value in (run or {}).items():
        if value is not None:
            merged["run"][key] = value
    if name is not None:
        merged["name"] = name
    return validate_scenario(merged)


def list_scenarios(directory: str | Path) -> list[Path]:
    """Every scenario file under ``directory``, sorted by name.

    Only the suffix is checked here — validity is the caller's business
    (``repro validate-scenarios`` loads each one).
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(
        p
        for p in directory.iterdir()
        if p.is_file() and p.suffix in SCENARIO_SUFFIXES
    )
