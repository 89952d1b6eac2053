"""The repo benchmark's probe surface (``perfbench/probes.py``) still binds.

The benchmark patches program attributes by name — the seating draw, the
engine entry points, the planners, the GA step — and a rename that misses
one breaks every benchmark run (games-conserved check) or silently drops a
layer from the split.  These tests install the probes exactly as a traced
benchmark child does and run a small experiment through each replication
driver.  They run in a subprocess because the probes patch classes for the
life of the process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent(
    """
    import json
    import sys

    sys.path.insert(0, "perfbench")
    import probes as probes_mod

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import run_experiment

    work_dir, engine, replications = sys.argv[1], sys.argv[2], int(sys.argv[3])
    probes = probes_mod.Probes(work_dir, traced=True, setup_only=False)
    probes_mod.install_common(probes)
    probes_mod.install_layer_timers()
    config = ExperimentConfig.for_case(
        "case3", scale="smoke", engine=engine, seed=7, replications=replications
    )
    run_experiment(config, processes=1)
    layers = sorted(probes.tracer.self_s)
    print(json.dumps({"seatings": probes.seatings, "layers": layers}))
    """
)


def run_probed(tmp_path, engine: str, replications: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path), engine, str(replications)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


FUSED_LAYERS = ("sim.run", "paths.plan", "sim.fold", "ga.step")


@pytest.mark.parametrize(
    "engine,replications,layers",
    [
        # stacked driver: FusedEngine(n_replications=2)
        pytest.param("fused", 2, FUSED_LAYERS, id="fused-2"),
        # one-replication FusedEngine: run_generation, fitness
        pytest.param("fused", 1, FUSED_LAYERS, id="fused-1"),
        # per-replication driver: the probes' ``FastEngine`` is batch, whose
        # whole-tournament ``draw_tournament`` plan they do not time yet
        pytest.param("fast", 1, ("sim.run", "sim.fold", "ga.step"), id="fast-1"),
        # the per-game ``RandomPathOracle.draw`` probe, on the engine that
        # still draws one game at a time
        pytest.param("reference", 1, ("paths.plan", "ga.step"), id="reference-1"),
    ],
)
def test_probes_see_seatings_and_every_layer(tmp_path, engine, replications, layers):
    seen = run_probed(tmp_path, engine, replications)
    # the games-conserved check counts seatings through this probe
    assert seen["seatings"], "the seating probe recorded nothing"
    assert all(drawn > 0 for _, drawn in seen["seatings"])
    for layer in layers:
        assert layer in seen["layers"], f"no {layer} span"
