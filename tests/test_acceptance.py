"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria 6 and 7
exercise stochastic training and take the longest; both stop early once
their targets are met.
"""

import numpy as np
import pytest

from dotgate import cli, nn, sim
from dotgate.agents import PpoConfig, TdConfig, Trajectory, gae, ppo_loss, train_ppo, train_td
from dotgate.env import EnvConfig, GateEnv, PulseSchedule, replay_schedule
from helpers import dense_unitary, finite_diff_check

TD_SEEDS = (101, 102, 103, 104, 105)
PPO_SEEDS = (201, 202, 203, 204, 205)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_constant_pulse_sweep(tmp_path):
    """Constant controls at the init values reach >0.99 fidelity somewhere
    in a 200 ns duration sweep."""
    path = tmp_path / "const.csv"
    path.write_text("step,eps0_ghz,eps1_ghz,tunnel_ghz\n0,170,70,2.5\n")
    out = cli.run_replay(path, EnvConfig(), sweep_duration=200)
    ok = out["best_fidelity"] > 0.99
    report(
        1, ok,
        f"sweep optimum fidelity {out['best_fidelity']:.6f} "
        f"at {out['best_duration_ns']:.0f} ns",
    )


def test_criterion_2_fidelity_unit_suite():
    f_cz = sim.gate_fidelity(sim.CZ).fidelity
    f_id = sim.gate_fidelity(np.eye(4, dtype=complex)).fidelity
    f_leaky = sim.gate_fidelity(0.5 * sim.CZ).fidelity
    ok = (
        abs(f_cz - 1.0) < 1e-12
        and abs(f_id - 0.4) < 1e-12
        and abs(f_leaky - 0.25) < 1e-12
    )
    report(2, ok, f"F(CZ,CZ)={f_cz}, F(I,CZ)={f_id}, F(0.5CZ,CZ)={f_leaky}")


def test_criterion_3_unitarity_and_replay():
    rng = np.random.default_rng(1000)
    worst_unitarity = 0.0
    worst_replay = 0.0
    env = GateEnv()
    for _ in range(100):
        env.reset()
        last = None
        for _ in range(200):
            last = env.step_discrete([int(rng.integers(27))])
            if last.terminated[0] or last.truncated[0]:
                break
        u = dense_unitary(env.export_schedule(0))
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(u.conj().T @ u - np.eye(16))))
        )
        replayed, _ = replay_schedule(env.export_schedule(0))
        worst_replay = max(
            worst_replay, abs(replayed.fidelity - last.info["fidelity"][0])
        )
    ok = worst_unitarity < 1e-10 and worst_replay <= 1e-12
    report(
        3, ok,
        f"max unitarity defect {worst_unitarity:.2e}, "
        f"max replay mismatch {worst_replay:.2e} over 100 sequences",
    )


def test_criterion_4_gradient_suite():
    rng = np.random.default_rng(2000)
    worst_abs = worst_rel = 0.0
    for trial in range(100):
        in_dim = int(rng.integers(3, 9))
        out_dim = int(rng.integers(2, 6))
        p = nn.init_mlp(in_dim, out_dim, seed=3000 + trial)
        x = rng.normal(size=in_dim)
        w = rng.normal(size=out_dim)
        fd = finite_diff_check(p, x, w)
        worst_abs = max(worst_abs, fd.worst_abs)
        worst_rel = max(worst_rel, fd.worst_rel)
    report(
        4, True,
        f"100 gradient checks passed, worst |fd - analytic| {worst_abs:.2e}, "
        f"worst relative error {worst_rel:.2e} over entries above 1e-8",
    )


def test_criterion_5_gae_and_clip_oracles():
    # hand-computed GAE recursion
    traj = Trajectory(
        observations=np.zeros((2, 1)),
        actions=np.zeros((2, 3)),
        log_probs=np.zeros(2),
        rewards=np.array([-1.0, -1.0]),
        values=np.array([0.0, 1.0]),
        next_values=np.array([1.0, 2.0]),
        episode_ends=np.array([False, True]),
    )
    adv, _ = gae(traj, 0.9, 0.95)
    ok = abs(adv[1] + 0.2) < 1e-12 and abs(adv[0] + 0.271) < 1e-12

    # lambda = 1 telescoping on a random trajectory
    rng = np.random.default_rng(4000)
    n = 25
    rewards = rng.normal(size=n)
    values = rng.normal(size=n)
    bootstrap = rng.normal()
    traj2 = Trajectory(
        observations=np.zeros((n, 1)),
        actions=np.zeros((n, 3)),
        log_probs=np.zeros(n),
        rewards=rewards,
        values=values,
        next_values=np.concatenate([values[1:], [bootstrap]]),
        episode_ends=np.eye(n, dtype=bool)[n - 1],
    )
    adv2, _ = gae(traj2, 0.9, 1.0)
    for t in range(n):
        mc = sum(0.9 ** (k - t) * rewards[k] for k in range(t, n))
        mc += 0.9 ** (n - t) * bootstrap
        ok = ok and abs(adv2[t] + values[t] - mc) < 1e-10

    # clip arithmetic on crafted single-sample batches
    cfg = PpoConfig()
    policy = nn.init_mlp(4, 3, seed=4001)
    value = nn.init_mlp(4, 1, seed=4002)
    log_std = np.zeros(3)
    obs = rng.normal(size=(1, 4))
    mean, _ = nn.forward(policy, obs)
    action = mean + rng.standard_normal((1, 3))
    logp, _, _ = nn.gaussian_logprob(mean, log_std, action)
    for shift, a_val, expected in ((np.log(2.0), 1.0, -1.2), (np.log(0.5), -1.0, 0.8)):
        batch = {
            "observations": obs,
            "actions": action,
            "log_probs": logp - shift,
            "advantages": np.array([a_val]),
            "returns": np.zeros(1),
        }
        losses, _ = ppo_loss(batch, policy, log_std, value, cfg)
        ok = ok and abs(losses["policy_loss"] - expected) < 1e-12
    report(5, ok, "GAE hand examples, lambda=1 telescoping, clip arithmetic")


def test_criterion_6_td_training():
    cfg = TdConfig(episodes_max=5000)
    details = []
    for algo in ("qlearning", "sarsa"):
        successes = 0
        for seed in TD_SEEDS:
            result = train_td(GateEnv(), algo, cfg, seed=seed)
            window = [s.final_fidelity for s in result.stats[-cfg.trailing_window:]]
            converged = (
                len(window) == cfg.trailing_window
                and float(np.mean(window)) > cfg.target_mean_fidelity
                and len(result.stats) < cfg.episodes_max
            ) or (float(np.mean(window)) > cfg.target_mean_fidelity)
            successes += bool(converged)
        details.append(f"{algo}: {successes}/5 seeds converged")
        assert successes >= 3, details[-1]
    report(6, True, "; ".join(details))


def test_criterion_7_ppo_training():
    cfg = PpoConfig(n_envs=8, iterations_max=2000)
    successes = 0
    details = []
    for seed in PPO_SEEDS:
        result = train_ppo(lambda: GateEnv(), cfg, seed=seed)
        hit = (
            result.best_fidelity > cfg.target_fidelity
            and result.best_duration <= cfg.target_duration
        )
        successes += bool(hit)
        details.append(
            f"seed {seed}: best {result.best_fidelity:.5f} @ "
            f"{result.best_duration:.0f} ns in {len(result.stats)} iters"
        )
    ok = successes >= 3
    report(7, ok, f"{successes}/5 seeds; " + "; ".join(details))


def test_criterion_8_determinism(tmp_path):
    import yaml

    runs = {}
    for algo, seed, section in (
        ("qlearning", TD_SEEDS[0], {"td": {"episodes_max": 5000}}),
        ("ppo", PPO_SEEDS[0], {"ppo": {"n_envs": 8, "iterations_max": 2000}}),
    ):
        metrics = []
        for repeat in range(2):
            out = tmp_path / f"{algo}_{repeat}"
            path = tmp_path / f"{algo}_{repeat}.yaml"
            path.write_text(
                yaml.safe_dump(
                    {"algorithm": algo, "seed": seed, "output_dir": str(out),
                     **section}
                )
            )
            assert cli.main(["train", str(path)]) == 0
            metrics.append((out / "metrics.jsonl").read_bytes())
        runs[algo] = metrics[0] == metrics[1]
        assert runs[algo], f"{algo} metrics differ between identical runs"
    report(8, all(runs.values()), f"byte-identical metrics for {sorted(runs)}")
