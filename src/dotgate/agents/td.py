"""Deep Q-learning and deep SARSA over the discrete action space.

Both algorithms approximate the state-action value function with the
fixed two-hidden-layer network and update online after every transition:
the regression target is the current prediction with the taken action's
entry moved toward the one-step TD target by the mixing coefficient
alpha, optimized with a single Adam step on the MSE.  Q-learning
bootstraps off the greedy next action (off-policy); SARSA bootstraps off
the action the epsilon-greedy policy actually takes next (on-policy).
The environment is a ``GateEnv``, the one-row ``VecGateEnv``: TD steps it
with one action per row and reads row 0 of its arrays.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..env import GateEnv, N_ACTIONS, PulseSchedule, improves


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
        nn.check_rate(self.lr, self.lr_decay)


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
    return int(qvalues.argmax())


def td_target_qlearning(r: float, gamma: float, q_next: np.ndarray, done: bool) -> float:
    """Off-policy one-step target: bootstrap off the greedy next value."""
    if done:
        return r
    return r + gamma * float(q_next.max())


def td_target_sarsa(r: float, gamma: float, q_next_at_a: float, done: bool) -> float:
    """On-policy one-step target: bootstrap off the chosen next action."""
    if done:
        return r
    return r + gamma * q_next_at_a


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
    An episode's return is the env's (``info["return"]``), and the best
    episode is kept by ``env.improves``.  Every ``EpisodeStats`` field is a
    Python int or float; those from the env are row 0 of its arrays.
    The Q-network is drawn at the dense layout's width and keeps the
    first-layer rows of the observed features (see ``nn.LiveRows``).  Each
    transition is one online update, one ``LiveRows.update``, so the
    Q-network is one object for the whole run.

    Q(s_t) and Q(s_{t+1}) are read under the same parameters, before the
    transition's update, so one forward of the (2, 1, obs_dim) stack
    [s_t, s_{t+1}] gives both, each slice bitwise the one-row forward.
    The regression target equals Q(s_t) except at the taken action, so
    the MSE gradient 2 (q - target) / n is zero everywhere else; its
    backward through slice 0, a (1, obs_dim) batch of one row, writes
    straight into ``LiveRows.grads``, the buffer that the Adam step reads.
    """
    if algo not in ("qlearning", "sarsa"):
        raise ValueError(f"unknown TD algorithm {algo!r}")
    cfg.validate()
    ss = np.random.SeedSequence(seed)
    net_seed, policy_seed = ss.spawn(2)
    rng = np.random.default_rng(policy_seed)
    live = env.config.live_features
    width = live[-1] + 1  # the fidelity is the dense layout's last feature
    q_net = nn.init_mlp(width, N_ACTIONS, seed=net_seed)
    trainable = nn.LiveRows([q_net], live, cfg.lr, cfg.lr_decay)
    (params,) = trainable.parts
    (grad,) = trainable.grads
    states = np.empty((2, 1, env.config.obs_dim))
    dq = np.empty((1, N_ACTIONS))

    result = TdResult(params=params)
    fidelities: list[float] = []

    for episode in range(cfg.episodes_max):
        t0 = time.perf_counter()
        eps = max(cfg.epsilon_min, cfg.epsilon_init * cfg.epsilon_decay**episode)
        states[0] = env.reset()
        q, _ = nn.forward(params, states[0, 0])
        action = epsilon_greedy(q, eps, rng)
        while True:
            res = env.step_discrete([action])
            reward, terminated = res.reward.item(), res.terminated.item()
            states[1] = res.observation
            q, (x, h1, h2) = nn.forward(params, states)
            q_now, q_next = q[0, 0], q[1, 0]
            next_action = epsilon_greedy(q_next, eps, rng)
            if algo == "qlearning":
                y = td_target_qlearning(reward, cfg.gamma, q_next, terminated)
            else:
                y = td_target_sarsa(reward, cfg.gamma, float(q_next[next_action]), terminated)
            mixed = (1.0 - cfg.alpha) * q_now[action] + cfg.alpha * y
            dq.fill(0.0)
            dq[0, action] = 2.0 * (q_now[action] - mixed) / dq.size
            nn.backward(params, (x[0], h1[0], h2[0]), dq, out=grad)
            trainable.update()
            if terminated or res.truncated.item():
                break
            states[0] = res.observation
            action = next_action

        fid = res.info["fidelity"].item()
        duration = res.info["gate_duration"].item()
        fidelities.append(fid)
        stats = EpisodeStats(
            episode=episode,
            steps=env.steps.item(),
            episode_return=res.info["return"].item(),
            final_fidelity=fid,
            gate_duration=duration,
            epsilon=eps,
            wall_ms=(time.perf_counter() - t0) * 1e3,
        )
        result.stats.append(stats)
        if improves(fid, duration, result.best_fidelity, result.best_duration):
            result.best_fidelity = fid
            result.best_duration = duration
            result.best_schedule = env.export_schedule(0)
        if on_episode is not None:
            on_episode(stats)
        window = fidelities[-cfg.trailing_window:]
        if (
            len(window) == cfg.trailing_window
            and float(np.mean(window)) > cfg.target_mean_fidelity
        ):
            break

    return result
