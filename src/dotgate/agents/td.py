"""Deep Q-learning and deep SARSA over the discrete action space.

Both algorithms approximate the state-action value function with the
fixed two-hidden-layer network and update online after every transition:
the regression target is the current prediction with the taken action's
entry moved toward the one-step TD target by the mixing coefficient
alpha, optimized with a single Adam step on the MSE.  Q-learning
bootstraps off the greedy next action (off-policy); SARSA bootstraps off
the action the epsilon-greedy policy actually takes next (on-policy).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..env import GateEnv, N_ACTIONS, PulseSchedule


@dataclass(frozen=True)
class TdConfig:
    alpha: float = 0.1
    gamma: float = 0.9
    epsilon_init: float = 1.0
    epsilon_decay: float = 0.995
    epsilon_min: float = 0.01
    episodes_max: int = 5000
    target_mean_fidelity: float = 0.99
    trailing_window: int = 10
    lr: float = 0.001
    lr_decay: float = 0.01

    def validate(self) -> None:
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma={self.gamma} outside (0, 1]")
        if not 0 < self.epsilon_decay < 1:
            raise ValueError(f"epsilon_decay={self.epsilon_decay} outside (0, 1)")
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha={self.alpha} outside [0, 1]")
        for name in ("epsilon_init", "epsilon_min"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValueError(f"{name}={getattr(self, name)} outside [0, 1]")
        if self.episodes_max < 1:
            raise ValueError(f"episodes_max={self.episodes_max} must be >= 1")
        if not 0 <= self.target_mean_fidelity <= 1:
            raise ValueError(
                f"target_mean_fidelity={self.target_mean_fidelity} outside [0, 1] (1: never stop)"
            )
        if self.trailing_window < 1:
            raise ValueError(f"trailing_window={self.trailing_window} must be >= 1")
        if not self.lr > 0:
            raise ValueError(f"lr={self.lr} must be > 0")
        if not self.lr_decay >= 0:
            raise ValueError(f"lr_decay={self.lr_decay} must be >= 0")


@dataclass
class EpisodeStats:
    episode: int
    steps: int
    episode_return: float
    final_fidelity: float
    gate_duration: float
    epsilon: float
    wall_ms: float


@dataclass
class TdResult:
    params: nn.MlpParameters
    stats: list[EpisodeStats] = field(default_factory=list)
    best_fidelity: float = 0.0
    best_duration: float = float("inf")
    best_schedule: PulseSchedule | None = None


def epsilon_greedy(qvalues: np.ndarray, eps: float, rng: np.random.Generator) -> int:
    """Uniform random with probability eps, else argmax (lowest index wins)."""
    if not 0 <= eps <= 1:
        raise ValueError(f"eps={eps} outside [0, 1]")
    if rng.random() < eps:
        return int(rng.integers(len(qvalues)))
    return int(np.argmax(qvalues))


def td_target_qlearning(r: float, gamma: float, q_next: np.ndarray, done: bool) -> float:
    """Off-policy one-step target: bootstrap off the greedy next value."""
    if done:
        return r
    return r + gamma * float(np.max(q_next))


def td_target_sarsa(r: float, gamma: float, q_next_at_a: float, done: bool) -> float:
    """On-policy one-step target: bootstrap off the chosen next action."""
    if done:
        return r
    return r + gamma * q_next_at_a


def _update(params, obs, action, target_value, alpha, live) -> nn.MlpParameters:
    """Gradient of the MSE regressing Q(s, action) toward the mixed target,
    with the first layer narrowed to the ``live`` input rows.

    The target equals Q(s) except at ``action``, so the MSE gradient
    2 (q - target) / n is zero everywhere else."""
    q, cache = nn.forward(params, obs)
    mixed = (1.0 - alpha) * q[action] + alpha * target_value
    dq = np.zeros_like(q)
    dq[action] = 2.0 * (q[action] - mixed) / q.size
    return nn.backward(params, nn.narrow(cache, live), dq)


def train_td(
    env: GateEnv,
    algo: str,
    cfg: TdConfig = TdConfig(),
    seed: int = 0,
    on_episode=None,
) -> TdResult:
    """Run episodes until the trailing mean fidelity target or the budget.

    Epsilon decays once per episode; network and exploration randomness
    are derived from the single seed, so the stat stream is reproducible.
    Only the first-layer rows of the observation's live features are
    trained (see ``nn.LiveRows``).  Each transition is one online update,
    one ``LiveRows.update``, so the Q-network is one object for the whole
    run.
    """
    if algo not in ("qlearning", "sarsa"):
        raise ValueError(f"unknown TD algorithm {algo!r}")
    cfg.validate()
    ss = np.random.SeedSequence(seed)
    net_seed, policy_seed = ss.spawn(2)
    rng = np.random.default_rng(policy_seed)
    live = env.config.live_features
    q_net = nn.init_mlp(env.config.obs_dim, N_ACTIONS, seed=net_seed)
    trainable = nn.LiveRows([q_net], live, cfg.lr, cfg.lr_decay)
    (params,) = trainable.parts

    result = TdResult(params=params)
    fidelities: list[float] = []

    for episode in range(cfg.episodes_max):
        t0 = time.perf_counter()
        eps = max(cfg.epsilon_min, cfg.epsilon_init * cfg.epsilon_decay**episode)
        obs = env.reset()
        q, _ = nn.forward(params, obs)
        action = epsilon_greedy(q, eps, rng)
        ep_return = 0.0
        info = {}
        while True:
            res = env.step_discrete(action)
            ep_return += res.reward
            info = res.info
            done = res.terminated or res.truncated
            q_next, _ = nn.forward(params, res.observation)
            next_action = epsilon_greedy(q_next, eps, rng)
            if algo == "qlearning":
                y = td_target_qlearning(res.reward, cfg.gamma, q_next, res.terminated)
            else:
                y = td_target_sarsa(
                    res.reward, cfg.gamma, float(q_next[next_action]), res.terminated
                )
            trainable.update([_update(params, obs, action, y, cfg.alpha, live)])
            if done:
                break
            obs = res.observation
            action = next_action

        fid = info["fidelity"]
        fidelities.append(fid)
        stats = EpisodeStats(
            episode=episode,
            steps=env.steps,
            episode_return=ep_return,
            final_fidelity=fid,
            gate_duration=info["gate_duration"],
            epsilon=eps,
            wall_ms=(time.perf_counter() - t0) * 1e3,
        )
        result.stats.append(stats)
        if fid > result.best_fidelity or (
            fid == result.best_fidelity and info["gate_duration"] < result.best_duration
        ):
            result.best_fidelity = fid
            result.best_duration = info["gate_duration"]
            result.best_schedule = env.export_schedule()
        if on_episode is not None:
            on_episode(stats)
        window = fidelities[-cfg.trailing_window:]
        if (
            len(window) == cfg.trailing_window
            and float(np.mean(window)) > cfg.target_mean_fidelity
        ):
            break

    return result
