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
from collections import deque
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
    # study flags, both off by default: purely online updates
    replay_capacity: int = 0
    replay_batch: int = 32
    target_sync_every: int = 0

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
            raise ValueError("episodes_max must be >= 1")
        if self.trailing_window < 1:
            raise ValueError(f"trailing_window={self.trailing_window} must be >= 1")
        if not self.lr > 0:
            raise ValueError(f"lr={self.lr} must be > 0")
        if not self.lr_decay >= 0:
            raise ValueError(f"lr_decay={self.lr_decay} must be >= 0")
        if self.replay_capacity < 0:
            raise ValueError(f"replay_capacity={self.replay_capacity} must be >= 0 (0: off)")
        if self.replay_batch < 1:
            raise ValueError(f"replay_batch={self.replay_batch} must be >= 1")
        if 0 < self.replay_capacity < self.replay_batch:
            raise ValueError(
                f"replay_batch={self.replay_batch} exceeds replay_capacity="
                f"{self.replay_capacity}, so no update would ever run"
            )
        if self.target_sync_every < 0:
            raise ValueError(
                f"target_sync_every={self.target_sync_every} must be >= 0 (0: off)"
            )


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


def _update(params, obs, action, target_value, alpha, live) -> nn.GradientSet:
    """Gradient of the MSE regressing Q(s, action) toward the mixed target,
    with the first layer narrowed to the ``live`` input rows.

    The target equals Q(s) except at ``action``, so the MSE gradient
    2 (q - target) / n is zero everywhere else."""
    q, cache = nn.forward(params, obs)
    mixed = (1.0 - alpha) * q[action] + alpha * target_value
    dq = np.zeros_like(q)
    dq[action] = 2.0 * (q[action] - mixed) / q.size
    return nn.backward(params, nn.narrow(cache, live), dq)


def _replay_update(params, target_params, buffer, idx, cfg: TdConfig, live) -> nn.GradientSet:
    """Gradient of the batched Q-learning regression over replay samples,
    with the first layer narrowed to the ``live`` input rows."""
    obs = np.stack([buffer[i][0] for i in idx])
    actions = [buffer[i][1] for i in idx]
    q, cache = nn.forward(params, obs)
    q_next, _ = nn.forward(target_params, np.stack([buffer[i][3] for i in idx]))
    target = q.copy()
    for row, i in enumerate(idx):
        _, action, reward, _, terminated = buffer[i]
        y = td_target_qlearning(reward, cfg.gamma, q_next[row], terminated)
        target[row, action] = (1.0 - cfg.alpha) * q[row, action] + cfg.alpha * y
    _, dq = nn.mse_loss(q, target)
    return nn.backward(params, nn.narrow(cache, live), dq)


def _snapshot(params: nn.MlpParameters) -> nn.MlpParameters:
    """A copy of the network that no later update reaches."""
    return nn.MlpParameters.from_list([a.copy() for a in params.as_list()])


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
    trained (see ``nn.LiveRows``).  Each update writes the packed parameters
    in place and refreshes the Q-network's first layer from them, so the
    Q-network is one object for the whole run; the target network is a
    copy of its arrays, taken at the start and at every sync.
    """
    if algo not in ("qlearning", "sarsa"):
        raise ValueError(f"unknown TD algorithm {algo!r}")
    cfg.validate()
    if cfg.replay_capacity > 0 and algo == "sarsa":
        raise ValueError("replay buffer is off-policy; not available for sarsa")
    ss = np.random.SeedSequence(seed)
    net_seed, policy_seed = ss.spawn(2)
    rng = np.random.default_rng(policy_seed)
    live = env.config.live_features
    trainable = nn.LiveRows([nn.init_mlp(env.config.obs_dim, N_ACTIONS, seed=net_seed)], live)
    (params,) = trainable.parts
    grad = np.empty_like(trainable.flat)
    adam = nn.init_adam([trainable.flat], lr=cfg.lr, lr_decay=cfg.lr_decay)
    sync = cfg.target_sync_every > 0
    target_params = _snapshot(params) if sync else None
    buffer: deque = deque(maxlen=cfg.replay_capacity or 1)
    n_updates = 0

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
            if algo == "qlearning":
                bootstrap_q, _ = (
                    nn.forward(target_params, res.observation)
                    if sync
                    else (q_next, None)
                )
                y = td_target_qlearning(
                    res.reward, cfg.gamma, bootstrap_q, res.terminated
                )
                next_action = epsilon_greedy(q_next, eps, rng)
            else:
                next_action = epsilon_greedy(q_next, eps, rng)
                y = td_target_sarsa(
                    res.reward, cfg.gamma, float(q_next[next_action]), res.terminated
                )
            grads = None
            if cfg.replay_capacity > 0:
                buffer.append(
                    (obs, action, res.reward, res.observation, res.terminated)
                )
                if len(buffer) >= cfg.replay_batch:
                    idx = rng.integers(len(buffer), size=cfg.replay_batch)
                    grads = _replay_update(
                        params, target_params if sync else params,
                        buffer, idx, cfg, live,
                    )
            else:
                grads = _update(params, obs, action, y, cfg.alpha, live)
            if grads is not None:
                np.concatenate(grads.as_list(), axis=None, out=grad)
                nn.adam_update([trainable.flat], [grad], adam)
                trainable.refresh()
            n_updates += 1
            if sync and n_updates % cfg.target_sync_every == 0:
                target_params = _snapshot(params)
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
