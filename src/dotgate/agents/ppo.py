"""Proximal policy optimization over the continuous action space.

Each iteration collects a fixed-length segment of ``horizon`` steps from
each of n_envs episodes, stepped in lockstep as the rows of one
``VecGateEnv`` under a snapshot of the policy: one batched policy forward,
one Hamiltonian build, one propagator call, one gate pipeline and one
value forward per step.  A finished row is reset on its own and keeps
going.  The value of a successor state is also the value of the next
step's state, so the value net runs once per step; only the reset state
and the states carried over from the last iteration are valued at the
start of each iteration.  Advantages come from generalized advantage
estimation with per-episode resets, are pooled across rows, and
normalized over the whole iteration batch.  The policy head outputs the
three control means; the standard deviation is a learned state-
independent log-std vector.  Updates run several epochs of shuffled
minibatches on the clipped surrogate plus a value regression term.  The
policy net, the log-std vector and the value net are built once on one
packed parameter vector (``nn.LiveRows``, whose networks keep the
first-layer rows of the observed features), so each minibatch writes its
three gradients into ``LiveRows.grads`` and takes one ``LiveRows.update``:
one in-place Adam step over all three.

Each row draws its action noise from its own seeded generator, and rows
are pooled in index order, so training is a pure function of (config,
seed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..env import PulseSchedule, VecGateEnv, check_fields, improves


N_CONTROLS = 3


@dataclass(frozen=True)
class PpoConfig:
    gamma: float = 0.9
    lam: float = 0.95
    clip_eps: float = 0.2
    lr: float = 0.001
    lr_decay: float = 0.0
    horizon: int = 200
    n_envs: int = 8
    epochs_per_iter: int = 10
    minibatch: int = 64
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    log_std_init: float = float(np.log(0.5))
    iterations_max: int = 2000
    target_fidelity: float = 0.999
    target_duration: float = 50.0
    stop_on_target: bool = True

    def validate(self) -> None:
        check_fields(self)
        if not 0 < self.lam <= 1:
            raise ValueError(f"lam={self.lam} outside (0, 1]")
        if not (np.isfinite(self.clip_eps) and self.clip_eps > 0):
            raise ValueError(f"clip_eps={self.clip_eps} must be finite and > 0")
        if not (np.isfinite(self.value_coef) and self.value_coef >= 0):
            raise ValueError(f"value_coef={self.value_coef} must be finite and >= 0")
        if not np.isfinite(self.entropy_coef):
            raise ValueError(f"entropy_coef={self.entropy_coef} must be finite")
        if not 0 < self.gamma <= 1:
            raise ValueError(f"gamma={self.gamma} outside (0, 1]")
        if self.horizon < 1:
            raise ValueError(f"horizon={self.horizon} must be >= 1")
        if self.n_envs < 1:
            raise ValueError(f"n_envs={self.n_envs} must be >= 1")
        if self.epochs_per_iter < 1:
            raise ValueError(f"epochs_per_iter={self.epochs_per_iter} must be >= 1")
        if self.minibatch < 1:
            raise ValueError(f"minibatch={self.minibatch} must be >= 1")
        nn.check_rate(self.lr, self.lr_decay)
        if not np.isfinite(self.log_std_init):
            raise ValueError(f"log_std_init={self.log_std_init} must be finite")
        if self.iterations_max < 1:
            raise ValueError(f"iterations_max={self.iterations_max} must be >= 1")
        if not 0 <= self.target_fidelity < 1:
            raise ValueError(f"target_fidelity={self.target_fidelity} outside [0, 1)")
        if not self.target_duration > 0:
            raise ValueError(f"target_duration={self.target_duration} must be > 0")


@dataclass
class Trajectory:
    """A fixed-length segment of experience, time on the leading axis.

    Arrays are (T, ...) for one episode stream or (T, n_envs, ...) for a
    lockstep batch.  next_values[t] is the value estimate of the successor
    state: zero where the episode terminated, and the bootstrap value of the
    final state where it was truncated (including the segment end).
    """

    observations: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    rewards: np.ndarray
    values: np.ndarray
    next_values: np.ndarray
    episode_ends: np.ndarray


@dataclass
class IterationStats:
    iteration: int
    episodes: int
    mean_return: float
    mean_final_fidelity: float
    best_fidelity: float
    best_duration: float
    policy_loss: float
    value_loss: float
    entropy: float
    wall_ms: float


@dataclass
class PpoResult:
    policy: nn.MlpParameters
    log_std: np.ndarray
    value: nn.MlpParameters
    stats: list[IterationStats] = field(default_factory=list)
    best_fidelity: float = 0.0
    best_duration: float = float("inf")
    best_schedule: PulseSchedule | None = None


def gae(traj: Trajectory, gamma: float, lam: float):
    """Generalized advantage estimation with per-episode resets.

    Works along the leading (time) axis, for every column of a batch at
    once.  Returns raw (un-normalized) advantages and the value-regression
    returns A + V; normalization happens over the pooled iteration batch.
    """
    n = len(traj.rewards)
    if n == 0:
        raise ValueError("empty trajectory")
    deltas = traj.rewards + gamma * traj.next_values - traj.values
    advantages = np.empty_like(deltas)
    running = np.zeros_like(deltas[0])
    for t in range(n - 1, -1, -1):
        running = deltas[t] + gamma * lam * np.where(traj.episode_ends[t], 0.0, running)
        advantages[t] = running
    return advantages, advantages + traj.values


def ppo_loss(
    batch: dict,
    p_policy: nn.MlpParameters,
    log_std: np.ndarray,
    p_value: nn.MlpParameters,
    cfg: PpoConfig,
    out=None,
):
    """Clipped-surrogate + value loss with exact gradients.

    batch holds observations, actions, old log-probs, normalized
    advantages, and returns.  Returns (the policy_loss, value_loss and
    entropy components, gradients for the policy net, the log-std vector,
    and the value net).  With ``out``, the (policy, log-std, value)
    ``LiveRows.grads``, the gradients are written there and returned;
    otherwise they are fresh arrays.
    """
    out_policy, out_log_std, out_value = (None, None, None) if out is None else out
    obs = batch["observations"]
    actions = batch["actions"]
    old_logp = batch["log_probs"]
    adv = batch["advantages"]
    returns = batch["returns"]
    n = len(adv)

    mean, cache_p = nn.forward(p_policy, obs)
    logp, d_mean, d_log_std = nn.gaussian_logprob(mean, log_std, actions)
    with np.errstate(over="ignore"):  # overflow is caught explicitly below
        ratio = np.exp(logp - old_logp)
    if not np.isfinite(ratio).all():
        raise ValueError(
            f"non-finite probability ratio (max logp diff "
            f"{np.max(np.abs(logp - old_logp)):.3e}); batch rejected"
        )
    clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
    surr1 = ratio * adv
    surr2 = clipped * adv
    policy_loss = -float(np.minimum(surr1, surr2).sum() / n)
    # Gradient flows only where the unclipped branch attains the min.
    coeff = np.where(surr1 <= surr2, -adv * ratio / n, 0.0)

    entropy = float((log_std + 0.5 * (1.0 + nn.LOG_2PI)).sum())
    g_policy = nn.backward(
        p_policy, cache_p, coeff[:, None] * d_mean, out=out_policy
    )
    g_log_std = (coeff[:, None] * d_log_std).sum(axis=0, out=out_log_std)
    g_log_std -= cfg.entropy_coef

    v, cache_v = nn.forward(p_value, obs)
    v = v[:, 0]
    raw_value_loss, dv = nn.mse_loss(v, returns)
    value_loss = cfg.value_coef * raw_value_loss
    g_value = nn.backward(
        p_value, cache_v, cfg.value_coef * dv[:, None], out=out_value
    )

    losses = {
        "policy_loss": policy_loss,
        "value_loss": value_loss,
        "entropy": entropy,
    }
    return losses, (g_policy, g_log_std, g_value)


class _Rollout:
    """n_envs episodes stepped in lockstep, one seeded noise stream per row.

    Each row draws the action noise of a whole segment at once, one
    (horizon, 3) standard-normal block per row per segment; the stream is
    the same as drawing 3 values per step.  The episodes, with the
    observations and running returns the env keeps for them, carry over
    from one iteration's segment to the next.
    """

    def __init__(self, env: VecGateEnv, seed_seqs):
        self.env = env
        self.rngs = [np.random.default_rng(s) for s in seed_seqs]
        self.reset_obs = env.observation[0]  # an env is built reset

    def collect(self, policy, log_std, value_net, cfg: PpoConfig):
        """Roll one fixed-length segment per row.

        Returns a (T, n_envs) Trajectory, allocated at the start of the
        segment and written in place step by step, and each row's finished
        episodes, rows in index order.
        """
        T, n = cfg.horizon, self.env.n_envs
        traj = Trajectory(
            observations=np.empty((T, *self.env.observation.shape)),
            actions=np.empty((T, n, N_CONTROLS)),
            log_probs=np.empty((T, n)),
            rewards=np.empty((T, n)),
            values=np.empty((T, n)),
            next_values=np.empty((T, n)),
            episode_ends=np.empty((T, n), dtype=bool),
        )
        episodes = [[] for _ in range(n)]
        # Each row's noise for the whole segment, in the order of per-step draws.
        noise = np.stack([rng.standard_normal((T, N_CONTROLS)) for rng in self.rngs], axis=1)
        std = np.exp(log_std)
        v, _ = nn.forward(value_net, np.vstack([self.reset_obs, self.env.observation]))
        v_reset, values = v[0, 0], v[1:, 0]
        for t in range(T):
            obs = self.env.observation
            mean, _ = nn.forward(policy, obs)
            actions = mean + std * noise[t]
            logp, _, _ = nn.gaussian_logprob(mean, log_std, actions)
            res = self.env.step_continuous(actions)
            v_next, _ = nn.forward(value_net, res.observation)
            v_next = v_next[:, 0]
            done = res.terminated | res.truncated
            traj.observations[t] = obs
            traj.actions[t] = actions
            traj.log_probs[t] = logp
            traj.rewards[t] = res.reward
            traj.values[t] = values
            traj.next_values[t] = np.where(res.terminated, 0.0, v_next)
            traj.episode_ends[t] = done
            for i in np.flatnonzero(done):
                episodes[i].append(
                    {
                        "return": float(res.info["return"][i]),
                        "fidelity": float(res.info["fidelity"][i]),
                        "duration": float(res.info["gate_duration"][i]),
                        "terminated": bool(res.terminated[i]),
                        "schedule": self.env.export_schedule(i),
                    }
                )
            values = v_next
            if done.any():
                self.env.reset(done)
                values = np.where(done, v_reset, v_next)
        traj.episode_ends[-1] = True
        return traj, [ep for row in episodes for ep in row]


def _pool(x: np.ndarray) -> np.ndarray:
    """(T, n_envs, ...) samples to (n_envs * T, ...), row by row."""
    return x.swapaxes(0, 1).reshape(-1, *x.shape[2:])


def train_ppo(
    env_factory,
    cfg: PpoConfig = PpoConfig(),
    seed: int = 0,
    on_iteration=None,
) -> PpoResult:
    """Iterate rollout collection and clipped-surrogate updates.

    env_factory() builds a ``GateEnv``; it is called once, and its config
    sets up the n_envs rollout rows.  Stops at iterations_max, or earlier
    once some episode reaches both the target fidelity and the target
    duration (when stop_on_target is set).
    """
    cfg.validate()
    ss = np.random.SeedSequence(seed)
    policy_seed, value_seed, shuffle_seed, *row_seeds = ss.spawn(3 + cfg.n_envs)
    env_config = env_factory().config
    live = env_config.live_features
    width = live[-1] + 1  # the fidelity is the dense layout's last feature
    trainable = nn.LiveRows([
        nn.init_mlp(width, N_CONTROLS, seed=policy_seed),
        np.full(N_CONTROLS, cfg.log_std_init),
        nn.init_mlp(width, 1, seed=value_seed),
    ], live, cfg.lr, cfg.lr_decay)
    policy, log_std, value_net = trainable.parts
    shuffle_rng = np.random.default_rng(shuffle_seed)

    rollout = _Rollout(VecGateEnv(env_config, cfg.n_envs), row_seeds)
    result = PpoResult(policy=policy, log_std=log_std, value=value_net)

    for iteration in range(cfg.iterations_max):
        t0 = time.perf_counter()
        traj, all_episodes = rollout.collect(policy, log_std, value_net, cfg)
        advantages, returns = gae(traj, cfg.gamma, cfg.lam)
        advantages = _pool(advantages)
        advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        pooled = {
            "observations": _pool(traj.observations),
            "actions": _pool(traj.actions),
            "log_probs": _pool(traj.log_probs),
            "advantages": advantages,
            "returns": _pool(returns),
        }

        n = len(advantages)
        loss_acc = {"policy_loss": 0.0, "value_loss": 0.0, "entropy": 0.0}
        n_batches = 0
        for _ in range(cfg.epochs_per_iter):
            perm = shuffle_rng.permutation(n)
            shuffled = {k: v[perm] for k, v in pooled.items()}
            for start in range(0, n, cfg.minibatch):
                batch = {k: v[start:start + cfg.minibatch] for k, v in shuffled.items()}
                losses, _ = ppo_loss(
                    batch, policy, log_std, value_net, cfg, out=trainable.grads
                )
                trainable.update()
                for k in loss_acc:
                    loss_acc[k] += losses[k]
                n_batches += 1

        for ep in all_episodes:
            if improves(ep["fidelity"], ep["duration"], result.best_fidelity, result.best_duration):
                result.best_fidelity = ep["fidelity"]
                result.best_duration = ep["duration"]
                result.best_schedule = ep["schedule"]
        successes = [
            ep for ep in all_episodes
            if ep["terminated"] and ep["fidelity"] > cfg.target_fidelity
        ]

        stats = IterationStats(
            iteration=iteration,
            episodes=len(all_episodes),
            mean_return=float(
                np.mean([ep["return"] for ep in all_episodes])
            ) if all_episodes else 0.0,
            mean_final_fidelity=float(
                np.mean([ep["fidelity"] for ep in all_episodes])
            ) if all_episodes else 0.0,
            best_fidelity=result.best_fidelity,
            best_duration=result.best_duration,
            policy_loss=loss_acc["policy_loss"] / n_batches,
            value_loss=loss_acc["value_loss"] / n_batches,
            entropy=loss_acc["entropy"] / n_batches,
            wall_ms=(time.perf_counter() - t0) * 1e3,
        )
        result.stats.append(stats)
        if on_iteration is not None:
            on_iteration(stats)
        if (
            cfg.stop_on_target
            and any(ep["duration"] <= cfg.target_duration for ep in successes)
        ):
            break

    return result
