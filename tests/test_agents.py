"""TD targets, epsilon-greedy, GAE, PPO loss, and small training runs."""

import dataclasses
import hashlib

import numpy as np
import pytest

from dotgate import nn
from dotgate.agents import (
    PpoConfig,
    TdConfig,
    Trajectory,
    epsilon_greedy,
    gae,
    ppo_loss,
    td_target_qlearning,
    td_target_sarsa,
    train_ppo,
    train_td,
)
from dotgate.agents.ppo import _Rollout
from dotgate.env import N_ACTIONS, EnvConfig, GateEnv, VecGateEnv, replay_schedule
from helpers import assert_pinned, dense_observation


class TestEpsilonGreedy:
    def test_greedy_argmax(self):
        q = np.zeros(27)
        q[26] = 5.0
        assert epsilon_greedy(q, 0.0, np.random.default_rng(0)) == 26

    def test_tie_break_lowest_index(self):
        q = np.zeros(27)
        q[3] = q[7] = 2.0
        assert epsilon_greedy(q, 0.0, np.random.default_rng(0)) == 3

    def test_uniform_when_fully_random(self):
        rng = np.random.default_rng(70)
        counts = np.zeros(27)
        n = 100_000
        for _ in range(n):
            counts[epsilon_greedy(np.zeros(27), 1.0, rng)] += 1
        freqs = counts / n
        assert np.all(np.abs(freqs - 1 / 27) < 0.01)

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            epsilon_greedy(np.zeros(27), 1.5, np.random.default_rng(0))


class TestTdTargets:
    def test_qlearning_terminal(self):
        assert td_target_qlearning(498.75, 0.9, np.ones(27), True) == 498.75

    def test_qlearning_bootstrap(self):
        q = np.zeros(27)
        q[4] = 10.0
        assert td_target_qlearning(-1.0, 0.9, q, False) == pytest.approx(8.0)

    def test_qlearning_constant_next(self):
        assert td_target_qlearning(0.0, 0.9, np.full(27, 3.0), False) == pytest.approx(2.7)

    def test_sarsa_terminal(self):
        assert td_target_sarsa(-1.0, 0.9, 5.0, True) == -1.0

    def test_sarsa_bootstrap(self):
        assert td_target_sarsa(-1.0, 0.9, -3.0, False) == pytest.approx(-3.7)

    def test_targets_agree_when_next_action_is_argmax(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            r = rng.normal()
            q = rng.normal(size=27)
            a = int(np.argmax(q))
            yq = td_target_qlearning(r, 0.9, q, False)
            ys = td_target_sarsa(r, 0.9, float(q[a]), False)
            assert yq == pytest.approx(ys, abs=1e-12)
            other = (a + 1) % 27
            assert yq >= td_target_sarsa(r, 0.9, float(q[other]), False)


def make_traj(rewards, values, next_values, ends):
    n = len(rewards)
    return Trajectory(
        observations=np.zeros((n, 1)),
        actions=np.zeros((n, 3)),
        log_probs=np.zeros(n),
        rewards=np.asarray(rewards, dtype=float),
        values=np.asarray(values, dtype=float),
        next_values=np.asarray(next_values, dtype=float),
        episode_ends=np.asarray(ends, dtype=bool),
    )


class TestGae:
    def test_single_step_truncated(self):
        traj = make_traj([-1.0], [0.5], [2.0], [True])
        adv, ret = gae(traj, 0.9, 0.95)
        delta = -1.0 + 0.9 * 2.0 - 0.5
        assert adv[0] == pytest.approx(delta, abs=1e-12)
        assert ret[0] == pytest.approx(delta + 0.5, abs=1e-12)

    def test_two_step_hand_recursion(self):
        traj = make_traj(
            [-1.0, -1.0], [0.0, 1.0], [1.0, 2.0], [False, True]
        )
        adv, _ = gae(traj, 0.9, 0.95)
        assert adv[1] == pytest.approx(-0.2, abs=1e-12)
        assert adv[0] == pytest.approx(-0.1 + 0.855 * -0.2, abs=1e-12)

    def test_terminated_step_is_td_error_without_bootstrap(self):
        # Termination reaches gae as a zero successor value.
        traj = make_traj([5.0], [1.5], [0.0], [True])
        adv, _ = gae(traj, 0.9, 0.95)
        assert adv[0] == pytest.approx(5.0 - 1.5, abs=1e-12)

    def test_lambda_one_telescopes_to_monte_carlo(self):
        rng = np.random.default_rng(72)
        gamma = 0.9
        for _ in range(20):
            n = int(rng.integers(3, 30))
            rewards = rng.normal(size=n)
            values = rng.normal(size=n)
            bootstrap = rng.normal()
            next_values = np.concatenate([values[1:], [bootstrap]])
            ends = np.zeros(n, dtype=bool)
            ends[-1] = True
            traj = make_traj(rewards, values, next_values, ends)
            adv, ret = gae(traj, gamma, 1.0)
            for t in range(n):
                mc = sum(gamma ** (k - t) * rewards[k] for k in range(t, n))
                mc += gamma ** (n - t) * bootstrap
                assert adv[t] + values[t] == pytest.approx(mc, abs=1e-10)
                assert ret[t] == pytest.approx(mc, abs=1e-10)

    def test_reset_across_episode_boundary(self):
        # two one-step episodes: the second must not leak into the first
        traj = make_traj(
            [1.0, 2.0], [0.0, 0.0], [0.0, 0.0], [True, True]
        )
        adv, _ = gae(traj, 0.9, 0.95)
        assert adv[0] == pytest.approx(1.0)
        assert adv[1] == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gae(make_traj([], [], [], []), 0.9, 0.95)


def loss_batch(policy, log_std, rng, n=4, obs_dim=6, ratio_shift=0.0, adv=None):
    obs = rng.normal(size=(n, obs_dim))
    mean, _ = nn.forward(policy, obs)
    actions = mean + np.exp(log_std) * rng.standard_normal((n, 3))
    logp, _, _ = nn.gaussian_logprob(mean, log_std, actions)
    return {
        "observations": obs,
        "actions": actions,
        "log_probs": logp - ratio_shift,
        "advantages": np.ones(n) if adv is None else np.asarray(adv, dtype=float),
        "returns": rng.normal(size=n),
    }


class TestPpoLoss:
    def setup_method(self):
        self.cfg = PpoConfig()
        self.rng = np.random.default_rng(73)
        self.policy = nn.init_mlp(6, 3, seed=74)
        self.value = nn.init_mlp(6, 1, seed=75)
        self.log_std = np.full(3, np.log(0.5))

    def test_unit_ratio_gives_negative_mean_advantage(self):
        adv = self.rng.normal(size=4)
        batch = loss_batch(self.policy, self.log_std, self.rng, adv=adv)
        losses, _ = ppo_loss(batch, self.policy, self.log_std, self.value, self.cfg)
        assert losses["policy_loss"] == pytest.approx(-np.mean(adv), abs=1e-12)

    def test_clip_arithmetic_positive_advantage(self):
        # ratio 2 with A = 1 clips at 1.2
        batch = loss_batch(
            self.policy, self.log_std, self.rng, n=1, ratio_shift=np.log(2.0)
        )
        losses, _ = ppo_loss(batch, self.policy, self.log_std, self.value, self.cfg)
        assert losses["policy_loss"] == pytest.approx(-1.2, abs=1e-12)

    def test_clip_arithmetic_negative_advantage(self):
        # ratio 0.5 with A = -1 floors at -0.8
        batch = loss_batch(
            self.policy, self.log_std, self.rng, n=1,
            ratio_shift=np.log(0.5), adv=[-1.0],
        )
        losses, _ = ppo_loss(batch, self.policy, self.log_std, self.value, self.cfg)
        assert losses["policy_loss"] == pytest.approx(0.8, abs=1e-12)

    def test_policy_gradient_zero_when_clip_active(self):
        batch = loss_batch(
            self.policy, self.log_std, self.rng, n=1, ratio_shift=np.log(2.0)
        )
        _, (g_policy, g_log_std, g_value) = ppo_loss(
            batch, self.policy, self.log_std, self.value, self.cfg
        )
        assert all(np.all(a == 0) for a in g_policy.as_list())
        assert np.all(g_log_std == 0)
        assert any(np.any(a != 0) for a in g_value.as_list())

    def test_policy_gradient_matches_finite_differences(self):
        batch = loss_batch(self.policy, self.log_std, self.rng, n=6,
                           adv=self.rng.normal(size=6))
        cfg = self.cfg
        _, (g_policy, g_log_std, _) = ppo_loss(
            batch, self.policy, self.log_std, self.value, cfg
        )

        def policy_term(p, ls):
            mean, _ = nn.forward(p, batch["observations"])
            logp, _, _ = nn.gaussian_logprob(mean, ls, batch["actions"])
            ratio = np.exp(logp - batch["log_probs"])
            clipped = np.clip(ratio, 1 - cfg.clip_eps, 1 + cfg.clip_eps)
            a = batch["advantages"]
            return -np.mean(np.minimum(ratio * a, clipped * a))

        h = 1e-6
        rng = np.random.default_rng(76)
        arrays = self.policy.as_list()
        for _ in range(20):
            ai = int(rng.integers(len(arrays)))
            arr = arrays[ai]
            idx = tuple(int(rng.integers(s)) for s in arr.shape)
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[ai][idx] += h
            minus[ai][idx] -= h
            fd = (
                policy_term(nn.MlpParameters.from_list(plus), self.log_std)
                - policy_term(nn.MlpParameters.from_list(minus), self.log_std)
            ) / (2 * h)
            assert fd == pytest.approx(g_policy.as_list()[ai][idx], rel=1e-4, abs=1e-8)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (
                policy_term(self.policy, self.log_std + e)
                - policy_term(self.policy, self.log_std - e)
            ) / (2 * h)
            assert fd == pytest.approx(g_log_std[k], rel=1e-4, abs=1e-8)

    def test_non_finite_ratio_rejected(self):
        batch = loss_batch(self.policy, self.log_std, self.rng, n=2)
        batch["log_probs"] = batch["log_probs"] - 1e4  # overflow exp
        with pytest.raises(ValueError, match="ratio"):
            ppo_loss(batch, self.policy, self.log_std, self.value, self.cfg)


class TestTrainTd:
    def test_smoke_run_stats_and_epsilon_schedule(self):
        cfg = TdConfig(episodes_max=10, target_mean_fidelity=0.9999999)
        result = train_td(GateEnv(), "qlearning", cfg, seed=3)
        assert len(result.stats) == 10
        for k, s in enumerate(result.stats):
            assert s.epsilon == pytest.approx(max(0.01, 0.995**k), abs=0)
            assert s.gate_duration == s.steps * 1.0

    @pytest.mark.parametrize("obs_mode", ["computational4", "full16"])
    def test_stats_are_python_numbers(self, obs_mode):
        # The env's fields are arrays over its one row; metrics.jsonl's
        # json.dumps rejects a numpy integer and would repr a numpy float.
        cfg = TdConfig(episodes_max=3, target_mean_fidelity=1.0)
        result = train_td(GateEnv(EnvConfig(obs_mode=obs_mode)), "qlearning", cfg, seed=5)
        python_type = {"int": int, "float": float}
        for s in result.stats:
            for f in dataclasses.fields(s):
                assert type(getattr(s, f.name)) is python_type[f.type], f.name
        assert type(result.best_fidelity) is float
        assert type(result.best_duration) is float

    def test_determinism(self):
        cfg = TdConfig(episodes_max=8)
        streams = []
        for _ in range(2):
            result = train_td(GateEnv(), "sarsa", cfg, seed=9)
            streams.append(
                [(s.episode_return, s.final_fidelity, s.steps) for s in result.stats]
            )
        assert streams[0] == streams[1]

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            train_td(GateEnv(), "dqn", TdConfig(episodes_max=1), seed=0)

    def test_best_schedule_replayable(self):
        from dotgate.env import replay_schedule

        cfg = TdConfig(episodes_max=15)
        result = train_td(GateEnv(), "qlearning", cfg, seed=4)
        assert result.best_schedule is not None
        report, _ = replay_schedule(result.best_schedule)
        assert report.fidelity == result.best_fidelity


class TestTrainPpo:
    def test_worker_segment_length_and_pooling(self):
        cfg = PpoConfig(horizon=50, n_envs=4)
        policy = nn.init_mlp(13, 3, seed=80)
        value = nn.init_mlp(13, 1, seed=81)
        log_std = np.full(3, np.log(0.5))
        seeds = np.random.SeedSequence(82).spawn(cfg.n_envs)
        rollout = _Rollout(VecGateEnv(EnvConfig(), cfg.n_envs), seeds)
        traj, episodes = rollout.collect(policy, log_std, value, cfg)
        assert traj.rewards.shape == (50, 4)
        assert traj.observations.shape == (50, 4, 13)
        assert traj.episode_ends[-1].all()
        for ep in episodes:
            assert len(ep["schedule"]) == ep["duration"]
        # GAE over the (T, n_envs) batch equals GAE of each row alone.
        adv, ret = gae(traj, cfg.gamma, cfg.lam)
        for i in range(cfg.n_envs):
            row = Trajectory(*(
                getattr(traj, f.name)[:, i] for f in dataclasses.fields(Trajectory)
            ))
            adv_i, ret_i = gae(row, cfg.gamma, cfg.lam)
            assert np.array_equal(adv_i, adv[:, i])
            assert np.array_equal(ret_i, ret[:, i])

    def test_segment_noise_equals_per_step_draws(self):
        # collect draws each row's (horizon, 3) noise at once; the actions
        # are those of drawing 3 normals per row per step.
        cfg = PpoConfig(horizon=30, n_envs=3)
        policy = nn.init_mlp(13, 3, seed=86)
        value = nn.init_mlp(13, 1, seed=87)
        log_std = np.array([-0.3, -0.7, 0.2])
        seeds = np.random.SeedSequence(88).spawn(cfg.n_envs)
        rollout = _Rollout(VecGateEnv(EnvConfig(max_steps=12), cfg.n_envs), seeds)
        rngs = [np.random.default_rng(s) for s in seeds]
        for _ in range(2):
            traj, _ = rollout.collect(policy, log_std, value, cfg)
            for t in range(cfg.horizon):
                mean, _ = nn.forward(policy, traj.observations[t])
                noise = np.stack([rng.standard_normal(3) for rng in rngs])
                assert traj.actions[t].tobytes() == (mean + np.exp(log_std) * noise).tobytes()

    def test_value_net_runs_once_per_sample(self, monkeypatch):
        cfg = PpoConfig(horizon=30, n_envs=3)
        policy = nn.init_mlp(13, 3, seed=83)
        value = nn.init_mlp(13, 1, seed=84)
        rows = {"policy": 0, "value": 0}
        forward = nn.forward

        def counting_forward(p, x):
            rows["value" if p is value else "policy"] += np.atleast_2d(x).shape[0]
            return forward(p, x)

        monkeypatch.setattr(nn, "forward", counting_forward)
        seeds = np.random.SeedSequence(85).spawn(cfg.n_envs)
        rollout = _Rollout(VecGateEnv(EnvConfig(), cfg.n_envs), seeds)
        for _ in range(2):
            rollout.collect(policy, np.full(3, np.log(0.5)), value, cfg)
        samples = 2 * cfg.horizon * cfg.n_envs
        assert rows["policy"] == samples
        assert rows["value"] / samples <= 1 + 2 / cfg.horizon

    def test_best_schedule_replays_exactly(self):
        cfg = PpoConfig(horizon=40, n_envs=3, iterations_max=2, epochs_per_iter=1,
                        stop_on_target=False)
        env_config = EnvConfig(max_steps=25)
        result = train_ppo(lambda: GateEnv(env_config), cfg, seed=19)
        assert sum(s.episodes for s in result.stats) >= cfg.n_envs
        report, trace = replay_schedule(result.best_schedule, env_config)
        assert report.fidelity == result.best_fidelity
        assert len(trace) == result.best_duration

    def test_smoke_run_and_determinism(self):
        cfg = PpoConfig(horizon=40, n_envs=2, iterations_max=3, epochs_per_iter=2,
                        stop_on_target=False)
        streams = []
        for _ in range(2):
            result = train_ppo(lambda: GateEnv(), cfg, seed=13)
            assert len(result.stats) == 3
            streams.append(
                [
                    (s.episodes, s.mean_return, s.mean_final_fidelity,
                     s.policy_loss, s.value_loss)
                    for s in result.stats
                ]
            )
        assert streams[0] == streams[1]

    def test_trains_in_a_box_whose_endpoint_rounds_past_it(self):
        # -641.88 + (750 - -641.88) rounds to 750.0000000000001, so an action
        # component of 1 or more once mapped eps0 outside the box.
        env_config = EnvConfig(eps_bounds=(-641.88, 750.0))
        cfg = PpoConfig(horizon=40, n_envs=2, iterations_max=1, epochs_per_iter=1)
        result = train_ppo(lambda: GateEnv(env_config), cfg, seed=7)
        assert len(result.stats) == 1

    def test_early_stop_on_target(self):
        cfg = PpoConfig(horizon=100, n_envs=2, iterations_max=50)
        result = train_ppo(lambda: GateEnv(), cfg, seed=1)
        if result.best_fidelity > cfg.target_fidelity:
            assert len(result.stats) <= 50
            assert result.best_schedule is not None


def dense_layout_observations(env_config: EnvConfig, steps: int = 40) -> np.ndarray:
    """Observations in the dense layout, through the oracle, from the reset
    states and random continuous steps of four rows, as a (rows, width)
    batch."""
    rng = np.random.default_rng(36)
    venv = VecGateEnv(env_config, 4)
    venv.reset()
    observations = [dense_observation(env_config.obs_mode, venv.u_acc, venv.fidelity)]
    for _ in range(steps):
        res = venv.step_continuous(rng.uniform(-1.0, 1.0, (4, 3)))
        observations.append(dense_observation(env_config.obs_mode, venv.u_acc, res.info["fidelity"]))
        done = res.terminated | res.truncated
        if done.any():
            venv.reset(done)
    return np.concatenate(observations)


class TestInitialNetworks:
    """A learner draws each network with ``init_mlp`` at the dense layout's
    width and keeps the first-layer rows of the observed features, so its
    initial network is the full-width network as a function of the
    observation.  The sums run over fewer terms, so the outputs agree to
    roundoff; whether they agree bitwise depends on the BLAS build."""

    MODES = ("computational4", "full16")

    @pytest.fixture
    def initial_parts(self, monkeypatch):
        """Copies of the parts of every ``nn.LiveRows`` built, as built."""
        built = []

        class Recording(nn.LiveRows):
            def __init__(self, *args):
                super().__init__(*args)
                built.append([
                    nn.MlpParameters.from_list([a.copy() for a in part.as_list()])
                    if isinstance(part, nn.MlpParameters) else part.copy()
                    for part in self.parts
                ])

        monkeypatch.setattr(nn, "LiveRows", Recording)
        return built

    @staticmethod
    def assert_same_function(net, full_width, env_config):
        dense = dense_layout_observations(env_config)
        live = env_config.live_features
        assert net.in_dim == len(live) and full_width.in_dim == dense.shape[1]
        for x in (dense, dense[0], dense[-1]):
            got, _ = nn.forward(net, x[..., live])
            want, _ = nn.forward(full_width, x)
            assert np.max(np.abs(got - want)) < 1e-13

    @pytest.mark.parametrize("obs_mode", MODES)
    def test_td_q_net(self, obs_mode, initial_parts):
        env_config = EnvConfig(obs_mode=obs_mode, max_steps=3)
        train_td(GateEnv(env_config), "qlearning", TdConfig(episodes_max=1), seed=37)
        ((q_net,),) = initial_parts
        net_seed, _ = np.random.SeedSequence(37).spawn(2)
        width = env_config.live_features[-1] + 1
        full_width = nn.init_mlp(width, N_ACTIONS, seed=net_seed)
        self.assert_same_function(q_net, full_width, env_config)

    @pytest.mark.parametrize("obs_mode", MODES)
    def test_ppo_policy_and_value(self, obs_mode, initial_parts):
        env_config = EnvConfig(obs_mode=obs_mode, max_steps=3)
        cfg = PpoConfig(horizon=4, n_envs=2, iterations_max=1, epochs_per_iter=1)
        train_ppo(lambda: GateEnv(env_config), cfg, seed=38)
        ((policy, _, value),) = initial_parts
        policy_seed, value_seed, *_ = np.random.SeedSequence(38).spawn(3 + cfg.n_envs)
        width = env_config.live_features[-1] + 1
        for net, seed, out_dim in ((policy, policy_seed, 3), (value, value_seed, 1)):
            self.assert_same_function(net, nn.init_mlp(width, out_dim, seed=seed), env_config)


def numbered(*rows):
    """Parameters with fixed ids ``cfg<k>[-match]``, so that a row keeps its
    test name when a row before it is removed."""
    return [pytest.param(*row, id="-".join([f"cfg{k}", *row[1:]])) for k, *row in rows]


@pytest.mark.parametrize("cfg, match", numbered(
    (4, TdConfig(lr=-1), "lr=-1"),
    (5, TdConfig(lr=0.0), "lr=0.0"),
    (6, TdConfig(lr_decay=-0.5), "lr_decay=-0.5"),
    (8, PpoConfig(minibatch=0), "minibatch=0"),
    (9, PpoConfig(epochs_per_iter=0), "epochs_per_iter=0"),
    (10, PpoConfig(lr=-1), "lr=-1"),
    (11, PpoConfig(lr_decay=-0.5), "lr_decay=-0.5"),
    (12, TdConfig(epsilon_init=1.5), "epsilon_init=1.5"),
    (13, TdConfig(epsilon_init=-0.1), "epsilon_init=-0.1"),
    (14, TdConfig(epsilon_min=-0.01), "epsilon_min=-0.01"),
    (15, TdConfig(epsilon_min=float("nan")), "epsilon_min=nan"),
    (16, TdConfig(trailing_window=0), "trailing_window=0"),
    (17, PpoConfig(log_std_init=float("nan")), "log_std_init=nan"),
    (18, PpoConfig(iterations_max=0), "iterations_max=0"),
    (19, PpoConfig(target_fidelity=1.5), "target_fidelity=1.5"),
    (20, PpoConfig(target_duration=-1), "target_duration=-1"),
    (21, TdConfig(target_mean_fidelity=1.5), "target_mean_fidelity=1.5"),
    (22, PpoConfig(clip_eps=float("nan")), "clip_eps=nan"),
    (23, PpoConfig(clip_eps=float("inf")), "clip_eps=inf"),
    (24, PpoConfig(clip_eps=0.0), "clip_eps=0.0"),
    (25, PpoConfig(value_coef=float("nan")), "value_coef=nan"),
    (26, PpoConfig(value_coef=-1), "value_coef=-1"),
    (27, PpoConfig(value_coef=float("inf")), "value_coef=inf"),
    (28, PpoConfig(entropy_coef=float("nan")), "entropy_coef=nan"),
    (29, PpoConfig(entropy_coef=float("-inf")), "entropy_coef=-inf"),
    (30, TdConfig(episodes_max=0), "episodes_max=0"),
    (31, PpoConfig(horizon=0), "horizon=0"),
    (32, PpoConfig(n_envs=-2), "n_envs=-2"),
    (33, TdConfig(lr=float("inf")), "lr=inf must be finite"),
    (34, TdConfig(lr_decay=float("inf")), "lr_decay=inf must be finite"),
    (35, PpoConfig(lr=float("inf")), "lr=inf must be finite"),
    (36, PpoConfig(lr_decay=float("inf")), "lr_decay=inf must be finite"),
))
def test_validate_rejects_settings_that_break_learning(cfg, match):
    with pytest.raises(ValueError, match=rf"^{match}\b"):
        cfg.validate()


@pytest.mark.parametrize("cfg", numbered(
    (0, TdConfig()),
    (2, PpoConfig()),
    (3, PpoConfig(minibatch=1, epochs_per_iter=1, lr_decay=0.0)),
    (4, TdConfig(target_mean_fidelity=1.0)),
    (5, PpoConfig(value_coef=0.0)),
))
def test_validate_accepts_edge_settings(cfg):
    cfg.validate()


@pytest.mark.witness
class TestInPlaceRefresh:
    """The in-place Adam update on networks built once as views of the
    packed vector runs bit for bit as building the networks afresh from a
    new vector after every update did: the digests below are of those runs.
    The bytes depend on the numpy and BLAS build, so on another build the
    digests are re-recorded from code known to be right."""

    # The build the digests below were recorded on (helpers.build).
    BUILD = (
        "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, "
        "blas scipy-openblas 0.3.31.188.0, core SkylakeX"
    )

    @staticmethod
    def fingerprint(result, nets):
        stats = [{k: v for k, v in vars(s).items() if k != "wall_ms"} for s in result.stats]
        arrays = [a for n in nets for a in (n.as_list() if isinstance(n, nn.MlpParameters) else [n])]
        return repr(stats).encode() + b"".join(a.tobytes() for a in arrays)

    @pytest.mark.parametrize("run, digest", [
        (lambda: TestInPlaceRefresh.td("qlearning", "full16"),
         "2ba013999592b76857ddc416e0790edae5f2cd760fd0e4ccd9f843c743bb221f"),
        (lambda: TestInPlaceRefresh.td("sarsa", "computational4"),
         "c94fdd7a9c200fdab010bdced5ce1e35094a1eae113cb67105514f0d74ca5595"),
        (lambda: TestInPlaceRefresh.td("sarsa", "full16"),
         "1b349906cd89c1d0a734a8e6e57aa71ebac4fc940ab8b06a8b81644917f58ba7"),
        (lambda: TestInPlaceRefresh.ppo(),
         "ddba56e8b126cd28337c176a885df693e10d44c98993be2a3fa055f809285c39"),
    ], ids=["td_online", "td_sarsa", "td_sarsa_full16", "ppo"])
    def test_equals_fresh_unpack(self, run, digest):
        assert_pinned(hashlib.sha256(run()).hexdigest(), digest, self.BUILD)

    @classmethod
    def td(cls, algo, obs_mode):
        cfg = TdConfig(episodes_max=6, target_mean_fidelity=1.0)
        result = train_td(GateEnv(EnvConfig(obs_mode=obs_mode)), algo, cfg, seed=33)
        return cls.fingerprint(result, [result.params])

    @classmethod
    def ppo(cls):
        cfg = PpoConfig(horizon=30, n_envs=2, iterations_max=2, stop_on_target=False)
        result = train_ppo(GateEnv, cfg, seed=34)
        return cls.fingerprint(result, [result.policy, result.log_std, result.value])
