"""The benchmark's fixed-work operations and the checks on their outputs.

An operation is one call a user waits for. A run repeats the same
operation, with the same inputs, for its whole measuring time:

* ``ppo_train``: ``train_ppo`` at the default ``PpoConfig`` with
  computational4 observations, the stop rule off and a fixed
  ``iterations_max``.  The paper's headline learner; rollout (env, sim
  and one-row network calls) plus the batched 64-row update.
* ``td_full16``: ``train_td(..., "qlearning")`` on the full 16x16
  observation with the stop rule off (``target_mean_fidelity=1.0``) and a
  fixed ``episodes_max``.  Online one-row updates on a 513-wide input, so
  Adam and backward dominate; the only workload that reads the full
  unitary.
* ``replay_sweep``: ``cli.run_replay`` of the constant (170, 70, 2.5) GHz
  pulse with ``sweep_duration=200`` (``pulsectl replay --sweep-duration
  200``).  Only ``sim`` and ``env.replay_schedule`` run.

Each workload has a ``prepare`` step (inputs made once per run), a
``run`` step (the operation, which calls the package through its module
attributes so that the tracer sees it, and calls ``on_unit`` after each
timed unit) and a ``check`` step that turns the raw output into an
:class:`Op`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from dotgate import cli, config, env
from dotgate.agents import ppo, td

PPO_ITERATIONS = 8
TD_EPISODES = 50
SWEEP_NS = 200
CONSTANT_PULSE = (170.0, 70.0, 2.5)  # eps0, eps1, tunnel in GHz

# Constant-pulse sweep oracle: the first duration with F > 0.999 (not
# the only peak) and the maximum over 1..200 ns.
SWEEP_FIRST_ABOVE = (17.0, 0.99938636081)
SWEEP_MAXIMUM = (50.0, 0.99999659449)
SWEEP_TOL = 1e-9
REPLAY_TOL = 1e-12
TD_TARGET_MEAN = 0.99
TD_TARGET_WINDOW = 10


@dataclass
class Op:
    """What one operation produced, once checked."""

    witness: str  # hash of every deterministic output field
    problems: list[str]
    # (wall ms, 1 ns steps) of each unit the program timed itself; empty
    # when the whole operation is the unit and the caller times it.
    units: list[tuple[float, int]] = field(default_factory=list)
    steps: int = 0
    iterations: int = 0
    episodes_to_target: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one latency sample times
    latency_per_step: bool  # a latency sample is a unit's wall time per step
    kernels: tuple[str, ...]  # calibration kernels mirroring its layers
    default_seed: int | None
    held_out_seed: int | None
    sizes: dict
    prepare: Callable[[int, Path], Any]
    run: Callable[[Any, Callable[[], None]], Any]
    check: Callable[[Any], Op]


def _witness(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def _training_witness(stats, result) -> str:
    """Every stat field except wall_ms, plus the best result and schedule."""
    rows = []
    for s in stats:
        row = dataclasses.asdict(s)
        del row["wall_ms"]
        rows.append(row)
    schedule = result.best_schedule.rows if result.best_schedule else None
    return _witness([rows, result.best_fidelity, result.best_duration, schedule])


def _check_numbers(problems, where, losses=(), fidelities=()) -> None:
    for x in losses:
        if not math.isfinite(x):
            problems.append(f"{where}: non-finite loss {x!r}")
    for f in fidelities:
        if not (math.isfinite(f) and 0.0 <= f <= 1.0):
            problems.append(f"{where}: fidelity {f!r} outside [0, 1]")


def _check_best_replays(problems, result, env_config) -> None:
    """The reported best schedule must reproduce the reported fidelity."""
    if result.best_schedule is None:
        problems.append("no best schedule reported")
        return
    report, _ = env.replay_schedule(result.best_schedule, env_config)
    if abs(report.fidelity - result.best_fidelity) > REPLAY_TOL:
        problems.append(
            f"best schedule replays to F={report.fidelity!r}, "
            f"reported {result.best_fidelity!r}"
        )


def _pass_seed(seed, _workdir):
    return seed


# -- ppo_train ------------------------------------------------------------

def _ppo_run(seed, on_unit):
    cfg = config.config_from_dict({
        "algorithm": "ppo",
        "seed": seed,
        "ppo": {"iterations_max": PPO_ITERATIONS, "stop_on_target": False},
    })
    stats = []

    def on_iteration(s):
        stats.append(s)
        on_unit()

    result = ppo.train_ppo(
        lambda: env.GateEnv(cfg.env), cfg.ppo, seed=cfg.seed,
        on_iteration=on_iteration,
    )
    return cfg, stats, result


def _ppo_check(raw) -> Op:
    cfg, stats, result = raw
    problems = []
    if len(stats) != PPO_ITERATIONS:
        problems.append(f"{len(stats)} iterations, expected {PPO_ITERATIONS}")
    for s in stats:
        _check_numbers(
            problems, f"iteration {s.iteration}",
            losses=(s.policy_loss, s.value_loss, s.entropy, s.mean_return),
            fidelities=(s.mean_final_fidelity, s.best_fidelity),
        )
    _check_best_replays(problems, result, cfg.env)
    samples = cfg.ppo.n_envs * cfg.ppo.horizon
    return Op(
        witness=_training_witness(stats, result),
        problems=problems,
        units=[(s.wall_ms, samples) for s in stats],
        steps=len(stats) * samples,
        iterations=len(stats),
    )


# -- td_full16 ------------------------------------------------------------

def _td_run(seed, on_unit):
    cfg = config.config_from_dict({
        "algorithm": "qlearning",
        "seed": seed,
        "env": {"obs_mode": "full16"},
        "td": {"episodes_max": TD_EPISODES, "target_mean_fidelity": 1.0},
    })
    stats = []

    def on_episode(s):
        stats.append(s)
        on_unit()

    result = td.train_td(
        env.GateEnv(cfg.env), cfg.algorithm, cfg.td, seed=cfg.seed,
        on_episode=on_episode,
    )
    return cfg, stats, result


def episodes_to_target(fidelities) -> int:
    """First episode count whose trailing-10 mean exceeds 0.99, else n + 1."""
    for n in range(TD_TARGET_WINDOW, len(fidelities) + 1):
        window = fidelities[n - TD_TARGET_WINDOW:n]
        if sum(window) / TD_TARGET_WINDOW > TD_TARGET_MEAN:
            return n
    return len(fidelities) + 1


def _td_check(raw) -> Op:
    cfg, stats, result = raw
    problems = []
    if len(stats) != TD_EPISODES:
        problems.append(f"{len(stats)} episodes, expected {TD_EPISODES}")
    for s in stats:
        _check_numbers(
            problems, f"episode {s.episode}",
            losses=(s.episode_return,), fidelities=(s.final_fidelity,),
        )
    _check_best_replays(problems, result, cfg.env)
    return Op(
        witness=_training_witness(stats, result),
        problems=problems,
        units=[(s.wall_ms, s.steps) for s in stats],
        steps=sum(s.steps for s in stats),
        episodes_to_target=episodes_to_target([s.final_fidelity for s in stats]),
    )


# -- replay_sweep ---------------------------------------------------------

def _replay_prepare(_seed, workdir: Path) -> Path:
    """Write the one-row constant-pulse schedule that the sweep holds."""
    path = workdir / "constant_pulse.csv"
    env.PulseSchedule(rows=[(0, *CONSTANT_PULSE)]).to_csv(path)
    return path


def _replay_run(schedule_csv, _on_unit):
    return cli.run_replay(schedule_csv, env.EnvConfig(), sweep_duration=SWEEP_NS)


def _replay_check(out) -> Op:
    problems = []
    trace = out["fidelity_trace"]
    if len(trace) != SWEEP_NS:
        problems.append(f"{len(trace)} steps, expected {SWEEP_NS}")
    _check_numbers(problems, "sweep", fidelities=trace)
    first = next((k for k, f in enumerate(trace) if f > 0.999), None)
    ns, f_ref = SWEEP_FIRST_ABOVE
    if first is None or first + 1 != ns or abs(trace[first] - f_ref) > SWEEP_TOL:
        seen = "never" if first is None else f"at {first + 1} ns with F={trace[first]!r}"
        problems.append(f"first F > 0.999 {seen}, expected at {ns} ns with F={f_ref}")
    ns, f_ref = SWEEP_MAXIMUM
    if out.get("best_duration_ns") != ns or abs(out["best_fidelity"] - f_ref) > SWEEP_TOL:
        problems.append(
            f"maximum F={out.get('best_fidelity')!r} at {out.get('best_duration_ns')} ns, "
            f"expected F={f_ref} at {ns} ns"
        )
    return Op(witness=_witness(out), problems=problems, steps=len(trace))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ppo_train", unit="one PPO iteration (IterationStats.wall_ms)",
            latency_per_step=False, kernels=("sim", "nn", "py"), default_seed=201, held_out_seed=202,
            sizes={"iterations_max": PPO_ITERATIONS, "obs_mode": "computational4"},
            prepare=_pass_seed, run=_ppo_run, check=_ppo_check,
        ),
        Workload(
            name="td_full16",
            unit="one TD transition (EpisodeStats.wall_ms / steps)",
            latency_per_step=True, kernels=("sim", "nn", "py"), default_seed=101, held_out_seed=102,
            sizes={"episodes_max": TD_EPISODES, "obs_mode": "full16"},
            prepare=_pass_seed, run=_td_run, check=_td_check,
        ),
        Workload(
            name="replay_sweep", unit="one 200 ns run_replay call",
            latency_per_step=False, kernels=("sim", "py"), default_seed=None, held_out_seed=None,
            sizes={"sweep_duration": SWEEP_NS, "controls_ghz": CONSTANT_PULSE},
            prepare=_replay_prepare, run=_replay_run, check=_replay_check,
        ),
    )
}

