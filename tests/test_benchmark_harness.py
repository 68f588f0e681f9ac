"""The benchmark harness finds the package names it traces and probes, and
its workloads give their recorded outputs.

``benchmarks/tracing.py`` swaps package attributes for timing wrappers by
name, and ``benchmarks/probe_setup.py`` ends set-up at the first call of
``sim.build_hamiltonian``.  A renamed function, or a changed result type
that a wrapper reads, would otherwise only show in a benchmark run; so
would a change to any workload's output.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dotgate import cli, env, sim
from dotgate.agents import PpoConfig, TdConfig, ppo, td
from helpers import assert_pinned

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import tracing

    return tracing


def test_traced_runs_and_uninstall_restores_originals(tracing, tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    originals = list(tracer._originals)
    try:
        for owner, attr, fn in originals:
            assert getattr(owner, attr) is not fn, f"{attr} not wrapped"
        first = tracer.mark()
        ppo.train_ppo(
            lambda: env.GateEnv(), PpoConfig(horizon=20, n_envs=2, iterations_max=1,
                                             epochs_per_iter=1, stop_on_target=False),
            seed=3,
        )
        td.train_td(
            env.GateEnv(env.EnvConfig(obs_mode="full16")), "qlearning",
            TdConfig(episodes_max=2, target_mean_fidelity=1.0), seed=4,
        )
        path = tmp_path / "pulse.csv"
        env.PulseSchedule(rows=[(0, 170.0, 70.0, 2.5)]).to_csv(path)
        out = cli.run_replay(path, env.EnvConfig(), sweep_duration=20)
        assert len(out["fidelity_trace"]) == 20
        compensated = sim.try_phase_compensate(np.eye(4, dtype=complex))[1]
        assert compensated is True
        agg = tracer.aggregate(first)
        for name in ("ppo.train_ppo", "td.train_td", "cli.run_replay", "env.step",
                     "env.replay_schedule", "sim.build_hamiltonian", "sim.evolve_step",
                     "sim.accumulate", "sim.try_phase_compensate", "nn.forward.batch",
                     "nn.adam_update"):
            assert agg.get(name, (0,))[0] > 0, f"{name} never traced"
        assert tracer.counts["env.steps"] > 0
    finally:
        tracer.uninstall()
    for owner, attr, fn in originals:
        assert getattr(owner, attr) is fn, f"{attr} not restored"


@pytest.mark.parametrize(
    "workload,seed", [("ppo_train", 201), ("td_full16", 101), ("replay_sweep", 0)]
)
def test_setup_probe_reaches_first_hamiltonian_build(workload, seed):
    # run.py creates the gitignored output directory the replay probe writes to.
    (BENCHMARKS / "out").mkdir(exist_ok=True)
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / "probe_setup.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# sha256 witnesses of each workload's one operation at its default seed.  The
# bytes depend on the numpy and BLAS build, so on another build they are
# re-recorded from code known to be right.
WITNESSES = {
    "ppo_train": "231a8bba26465646f6904317843993689bb51b8351f1810e05068ff96624e14e",
    "td_full16": "8b6286e9077ccd1d2f310316857731cfb27e67a66628a2b5cdc020ed24a98be2",
    "replay_sweep": "65ee19f7dc18dbaaa5d565b3cbf315d25d7bc606ace091f884ba06c5ae088629",
}
# The build the witnesses above were recorded on (helpers.build).
WITNESSES_BUILD = (
    "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, "
    "blas scipy-openblas 0.3.31.188.0, core SkylakeX"
)


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import workloads

    return workloads


@pytest.mark.witness
def test_every_workload_gives_its_recorded_witness(workloads, tmp_path):
    assert set(workloads.WORKLOADS) == set(WITNESSES)
    for name, w in workloads.WORKLOADS.items():
        seed = w.default_seed if w.default_seed is not None else 0
        op = w.check(w.run(w.prepare(seed, tmp_path), lambda: None))
        assert op.problems == [], name
        assert_pinned(op.witness, WITNESSES[name], WITNESSES_BUILD, f"{name} witness")
