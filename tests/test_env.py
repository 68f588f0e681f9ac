"""Environment: actions, rewards, termination, schedules, replay."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotgate import cli, sim
from dotgate.env import (
    EnvConfig,
    GateEnv,
    PulseSchedule,
    VecGateEnv,
    compute_reward,
    improves,
    replay_schedule,
)
from helpers import dense_observation, random_slot_stack

ACTION_TUN_DOWN = 18  # base-3 digits (0, 0, 2)


def oracle_observation(venv: VecGateEnv, u_acc=None, fidelity=None) -> np.ndarray:
    """The rows' observations through the dense oracle: the dense layout of
    the rows' accumulated unitaries (default: the env's) gathered at
    ``live_features``."""
    cfg = venv.config
    u_acc = venv.u_acc if u_acc is None else u_acc
    fidelity = venv.report.fidelity if fidelity is None else fidelity
    return dense_observation(cfg.obs_mode, u_acc, fidelity)[:, cfg.live_features]


def run_actions(env, actions):
    """Step row 0 of a ``GateEnv`` through the actions until its episode ends."""
    results = []
    for a in actions:
        results.append(env.step_discrete([a]))
        if results[-1].terminated[0] or results[-1].truncated[0]:
            break
    return results


class TestConfig:
    def test_defaults_valid(self):
        EnvConfig().validate()

    def test_bad_threshold_ordering(self):
        with pytest.raises(ValueError, match="f_terminal"):
            EnvConfig(f_terminal=0.9995, f_bonus=0.999).validate()

    def test_init_outside_bounds(self):
        with pytest.raises(ValueError, match="tun_init"):
            EnvConfig(tun_init=7.0).validate()

    @pytest.mark.parametrize("kwargs, message", [
        ({"eps_bounds": (-1000.0, 1000.0)},
         r"eps_bounds=\(-1000.0, 1000.0\) outside the physical range \(-750.0, 750.0\)"),
        ({"eps_bounds": (-700.0, 751.0)}, r"eps_bounds=.* outside the physical range"),
        ({"tun_bounds": (0.0, 9.0), "tun_init": 8.0},
         r"tun_bounds=\(0.0, 9.0\) outside the physical range \(0.0, 5.0\)"),
        ({"tun_bounds": (-1.0, 4.0)}, r"tun_bounds=.* outside the physical range"),
    ])
    def test_bounds_outside_physical_range(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EnvConfig(**kwargs).validate()

    @pytest.mark.parametrize("kwargs, message", [
        ({"u": (-1.0, 845.2)}, r"u\[0\]=-1.0 must be >= 0"),
        ({"ez": (18.4, float("nan"))}, r"ez\[1\]=nan must be >= 0"),
        ({"dt": 0.0}, r"dt=0.0 must be finite and > 0"),
        ({"dt": -1.0}, r"dt=-1.0 must be"),
        ({"dt": float("nan")}, r"dt=nan must be"),
        ({"step_sizes": (1.0, 0.0, 0.01)}, r"step_sizes\[1\]=0.0 must be finite and > 0"),
        ({"step_sizes": (1.0, 0.1, -0.01)}, r"step_sizes\[2\]=-0.01 must be"),
        ({"step_thresholds": (0.999, 2.0)},
         r"^step_thresholds=\(0.999, 2.0\) must satisfy 0 < t0 <= t1 < 1$"),
        ({"step_thresholds": (0.999, 0.99)}, r"^step_thresholds=\(0.999, 0.99\) must"),
        ({"r_step": float("nan")}, r"^r_step=nan must be finite$"),
        ({"r_boundary": float("inf")}, r"^r_boundary=inf must be finite$"),
        ({"r_success": float("-inf")}, r"^r_success=-inf must be finite$"),
        ({"r_bonus": float("nan")}, r"^r_bonus=nan must be finite$"),
        ({"u": (845.2, float("inf"))}, r"^u\[1\]=inf must be finite$"),
    ])
    def test_bad_physical_constants(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EnvConfig(**kwargs).validate()

    def test_bounds_inside_physical_range(self):
        EnvConfig(eps_bounds=(-750.0, 750.0), tun_bounds=(0.0, 5.0)).validate()
        EnvConfig(eps_bounds=(-100.0, 600.0), tun_bounds=(1.0, 4.0)).validate()


class TestReset:
    def test_identity_observation_fidelity(self):
        obs = GateEnv().reset()
        assert obs[0, -1] == pytest.approx(0.4, abs=1e-12)

    def test_feature_lengths(self):
        assert GateEnv(EnvConfig()).reset().shape == (1, 13)
        assert GateEnv(EnvConfig(obs_mode="full16")).reset().shape == (1, 73)

    def test_reset_twice_same_observation(self):
        env = GateEnv()
        a = env.reset()
        b = env.reset()
        assert np.array_equal(a, b)


class TestBeforeReset:
    """Episode state read before the first reset fails by name."""

    READS = {
        "steps": lambda venv: venv.steps,
        "delta": lambda venv: venv.delta,
        "report": lambda venv: venv.report,
        "returns": lambda venv: venv.returns,
        "export_schedule": lambda venv: venv.export_schedule(venv.n_envs - 1),
        "reset_rows": lambda venv: venv.reset(np.arange(venv.n_envs) == 0),
    }

    # Two rows, and a GateEnv: its one row.
    @pytest.mark.parametrize("make, read", [
        *((lambda: VecGateEnv(EnvConfig(), 2), read) for read in READS.values()),
        *((GateEnv, read) for read in READS.values()),
    ], ids=[*READS, *(f"gate_env-{name}" for name in READS)])
    def test_vec_gate_env(self, make, read):
        with pytest.raises(RuntimeError, match="^environment not reset$"):
            read(make())

    def test_unknown_attribute_still_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such"):
            VecGateEnv(EnvConfig(), 1).no_such


def row_bytes(value) -> list:
    """The bytes of each row of an episode-state entry; for a fidelity
    report, each row's tuple of the bytes of every field."""
    if isinstance(value, sim.FidelityReport):
        return list(zip(*(row_bytes(getattr(value, f.name)) for f in dataclasses.fields(value))))
    return [row.tobytes() for row in value]


class TestEpisodeState:
    """``VecGateEnv._initial`` is the one table of the episode state, and
    ``reset`` restores it whole or row by row."""

    @pytest.mark.parametrize("obs_mode", ["computational4", "full16"])
    def test_state_read_before_reset_named(self, obs_mode):
        venv = VecGateEnv(EnvConfig(obs_mode=obs_mode), 2)
        assert len(venv._initial) == 8
        for name in venv._initial:
            with pytest.raises(RuntimeError, match="^environment not reset$"):
                getattr(venv, name)
        with pytest.raises(AttributeError, match="no attribute 'stepz'"):
            venv.stepz

    @pytest.mark.parametrize("obs_mode", ["computational4", "full16"])
    def test_partial_reset_restores_fresh_rows_only(self, obs_mode):
        n = 3
        venv = VecGateEnv(EnvConfig(obs_mode=obs_mode, max_steps=12), n)
        venv.reset()
        fresh = {name: row_bytes(value) for name, value in venv._initial.items()}
        rng = np.random.default_rng(41)
        done = np.zeros(n, dtype=bool)
        kept = restored = 0
        for _ in range(40):
            rows = done | (rng.random(n) < 0.2)  # finished rows and forced resets
            if rows.any():
                handed_out = {name: getattr(venv, name) for name in venv._initial}
                before = {name: row_bytes(value) for name, value in handed_out.items()}
                venv.reset(rows)
                for name in venv._initial:
                    after = row_bytes(getattr(venv, name))
                    for i in range(n):
                        assert after[i] == (fresh[name][i] if rows[i] else before[name][i]), name
                    assert row_bytes(handed_out[name]) == before[name], name
                restored += int(rows.sum())
                kept += int((~rows & (venv.steps > 0)).sum())
            res = venv.step_continuous(rng.uniform(-1.2, 1.2, (n, 3)))
            done = res.terminated | res.truncated
        assert restored >= 10 and kept >= 10

    def test_handed_out_state_is_read_only(self):
        env = GateEnv()
        obs = env.reset()
        fresh = obs.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            obs[0, -1] = 7.0
        assert env.reset().tobytes() == fresh

        venv = VecGateEnv(EnvConfig(), 2)
        venv.reset()
        fresh = {name: row_bytes(value) for name, value in venv._initial.items()}
        with pytest.raises(ValueError, match="read-only"):
            venv.controls[0, 0] = -999
        report = venv._initial["report"]
        entries = [v for v in venv._initial.values() if v is not report]
        for array in entries + [getattr(report, f.name) for f in dataclasses.fields(report)]:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[1]
        venv.reset()
        assert {name: row_bytes(getattr(venv, name)) for name in venv._initial} == fresh


def discrete_move(action, delta):
    """The (eps0, eps1, tunnel) move one step_discrete of ``action`` makes
    from the initial controls when the step size is ``delta``."""
    cfg = EnvConfig(step_sizes=(delta, 0.1, 0.01))
    env = GateEnv(cfg)
    env.reset()
    info = env.step_discrete([action]).info
    start = (*cfg.eps_init, cfg.tun_init)
    return tuple(info[k][0] - s for k, s in zip(("eps0", "eps1", "tunnel"), start))


class TestDecodeAction:
    """Action index -> control move: base-3 digits, eps0 lowest, each
    digit 0 = hold, 1 = +delta, 2 = -delta."""

    def test_no_change(self):
        assert discrete_move(0, 1.0) == (0.0, 0.0, 0.0)

    def test_mixed_digits(self):
        # index 5 = digits (2, 1, 0): eps0 down, eps1 up, tunnel hold
        assert discrete_move(5, 0.5) == (-0.5, 0.5, 0.0)

    def test_all_decrease(self):
        assert discrete_move(26, 1.0) == (-1.0, -1.0, -1.0)

    def test_out_of_range(self):
        env = GateEnv()
        env.reset()
        with pytest.raises(ValueError, match=r"^action index 27 of row 0 outside \[0, 26\]$"):
            env.step_discrete([27])
        with pytest.raises(ValueError, match=r"^action index -1 of row 0 outside \[0, 26\]$"):
            env.step_discrete([-1])

    def test_covers_all_delta_triples(self):
        triples = {discrete_move(i, 1.0) for i in range(27)}
        assert len(triples) == 27


class TestComputeReward:
    def test_plain_step(self):
        assert compute_reward(0.5, False, False, EnvConfig()) == -1.0

    def test_boundary_penalty_additive(self):
        assert compute_reward(0.7, True, False, EnvConfig()) == -2.0

    def test_bonus_tier(self):
        r = compute_reward(0.9995, False, True, EnvConfig())
        assert r == pytest.approx(-1 + 500 * 0.9995)

    def test_success_tier(self):
        r = compute_reward(0.995, False, True, EnvConfig())
        assert r == pytest.approx(-1 + 100 * 0.995)


def reference_discrete_move(controls, delta, action, cfg):
    """The scalar per-control loop the batched discrete step must equal bit
    for bit: base-3 digits (eps0 lowest) hold, add or subtract delta, then
    Python's min(max(raw, lo), hi).  Returns (controls, boundary_hit)."""
    bounds = (cfg.eps_bounds, cfg.eps_bounds, cfg.tun_bounds)
    moved, hit, rest = [], False, action
    for c, (lo, hi) in zip(controls, bounds):
        digit, rest = rest % 3, rest // 3
        raw = c + (0.0 if digit == 0 else (delta if digit == 1 else -delta))
        moved.append(min(max(raw, lo), hi))
        hit |= moved[-1] != raw
    return moved, hit


def reference_shrink(delta, fidelity, cfg):
    """The step-size rule as an if/elif on one row's fidelity."""
    if fidelity > cfg.step_thresholds[1]:
        return min(delta, cfg.step_sizes[2])
    if fidelity > cfg.step_thresholds[0]:
        return min(delta, cfg.step_sizes[1])
    return delta


class TestStepDiscrete:
    @pytest.mark.parametrize("cfg, seen_key", [
        # The low step thresholds shrink delta well before termination.
        (EnvConfig(max_steps=40, step_thresholds=(0.9, 0.95)), "shrinks"),
        # From tun=2.0 two down-moves land on +0.0 against the bound -0.0:
        # Python's max keeps raw, where np.maximum(raw, lo) would give -0.0.
        (EnvConfig(max_steps=40, tun_init=2.0, tun_bounds=(-0.0, 5.0)), "signed_zero_ties"),
    ], ids=["shrinks", "signed_zero_ties"])
    def test_matches_scalar_reference_bitwise(self, cfg, seen_key):
        rng = np.random.default_rng(27)
        env = GateEnv(cfg)
        seen = {"shrinks": 0, "signed_zero_ties": 0, "boundary_hit": 0}
        for _ in range(6):
            env.reset()
            controls, delta = [*cfg.eps_init, cfg.tun_init], cfg.step_sizes[0]
            while True:
                action = 0 if rng.random() < 0.5 else int(rng.choice([18, 9, 1, 26, 13]))
                controls, hit = reference_discrete_move(controls, delta, action, cfg)
                res = env.step_discrete([action])
                got = [res.info[k][0] for k in ("eps0", "eps1", "tunnel")]
                assert np.array(got).tobytes() == np.array(controls).tobytes()
                assert res.info["boundary_hit"][0] == hit
                new_delta = reference_shrink(delta, res.info["fidelity"][0], cfg)
                assert env.delta[0] == new_delta
                seen["shrinks"] += new_delta < delta
                seen["boundary_hit"] += hit
                lo = cfg.tun_bounds[0]
                seen["signed_zero_ties"] += bool(
                    controls[2] == lo and not hit and np.signbit(controls[2]) != np.signbit(lo)
                )
                delta = new_delta
                if res.terminated[0] or res.truncated[0]:
                    break
        assert seen[seen_key] > 0 and seen["boundary_hit"] > 0, seen

    def test_every_move_matches_scalar_reference(self):
        # One row per action index, each stepped once from the initial controls.
        cfg = EnvConfig()
        venv = VecGateEnv(cfg, 27)
        venv.reset()
        res = venv.step_discrete(np.arange(27))
        start, delta = [*cfg.eps_init, cfg.tun_init], cfg.step_sizes[0]
        for action in range(27):
            controls, _ = reference_discrete_move(start, delta, action, cfg)
            got = [res.info[k][action] for k in ("eps0", "eps1", "tunnel")]
            assert np.array(got).tobytes() == np.array(controls).tobytes(), action
        assert len({tuple(row) for row in venv.controls.tolist()}) == 27

    def test_no_change_step(self):
        env = GateEnv()
        env.reset()
        res = env.step_discrete([0])
        assert res.info["eps0"][0] == 170.0
        assert res.info["eps1"][0] == 70.0
        assert res.info["tunnel"][0] == 2.5
        assert res.reward[0] == -1.0
        assert res.info["fidelity"][0] != 0.4  # evolved 1 ns

    def test_tunnel_clipped_at_zero_with_penalty(self):
        env = GateEnv()
        env.reset()
        env.step_discrete([ACTION_TUN_DOWN])  # 2.5 -> 1.5
        env.step_discrete([ACTION_TUN_DOWN])  # 1.5 -> 0.5
        res = env.step_discrete([ACTION_TUN_DOWN])  # 0.5 -> clip at 0
        assert res.info["tunnel"][0] == 0.0
        assert res.info["boundary_hit"][0]
        assert res.reward[0] == -2.0

    def test_truncation_at_step_cap(self):
        env = GateEnv()
        env.reset()
        # kill the exchange so fidelity never reaches the terminal band
        for _ in range(3):
            res = env.step_discrete([ACTION_TUN_DOWN])
        for _ in range(197):
            res = env.step_discrete([0])
        assert res.truncated[0] and not res.terminated[0]
        assert env.steps[0] == 200

    def test_no_change_policy_terminates(self):
        env = GateEnv()
        env.reset()
        results = run_actions(env, [0] * 200)
        last = results[-1]
        assert last.terminated[0]
        assert last.info["fidelity"][0] > 0.99
        assert last.info["gate_duration"][0] == len(results) * 1.0

    def test_step_after_terminal_rejected(self):
        env = GateEnv()
        env.reset()
        run_actions(env, [0] * 200)
        with pytest.raises(RuntimeError, match="reset"):
            env.step_discrete([0])

    def test_step_before_reset_rejected(self):
        with pytest.raises(RuntimeError, match="reset"):
            GateEnv().step_discrete([0])

    def test_adaptive_step_size_monotone(self):
        # strict terminal so the episode survives past the 0.99 band
        env = GateEnv(EnvConfig(f_terminal=0.9999, f_bonus=0.99999))
        env.reset()
        deltas = []
        for _ in range(40):
            res = env.step_discrete([0])
            deltas.append(env.delta[0])
            if res.terminated[0] or res.truncated[0]:
                break
        assert all(d in (1.0, 0.1, 0.01) for d in deltas)
        assert all(a >= b for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] < 1.0  # fidelity crossed 0.99 along the way


class TestStepContinuous:
    def test_midpoint_action(self):
        env = GateEnv()
        env.reset()
        res = env.step_continuous([(0.0, 0.0, 0.0)])
        assert res.info["eps0"][0] == 0.0
        assert res.info["eps1"][0] == 0.0
        assert res.info["tunnel"][0] == 2.5
        assert not res.info["boundary_hit"][0]

    def test_endpoint_action(self):
        env = GateEnv()
        env.reset()
        res = env.step_continuous([(1.0, -1.0, 1.0)])
        assert res.info["eps0"][0] == 750.0
        assert res.info["eps1"][0] == -750.0
        assert res.info["tunnel"][0] == 5.0

    def test_out_of_range_clipped_with_boundary_flag(self):
        env = GateEnv()
        env.reset()
        res = env.step_continuous([(0.0, 0.0, 1.7)])
        assert res.info["tunnel"][0] == 5.0
        assert res.info["boundary_hit"][0]

    def test_wrong_length_rejected(self):
        env = GateEnv()
        env.reset()
        with pytest.raises(ValueError, match="3"):
            env.step_continuous([(0.0, 0.0)])

    @pytest.mark.parametrize("lo, hi", [
        (-641.88, 750.0),  # lo + (hi - lo) rounds to 750.0000000000001
        (-176.77357991437918, 171.32765656735737),  # ... to 171.3276565673574
    ])
    def test_map_rounding_past_the_box_is_clipped(self, lo, hi):
        env = GateEnv(EnvConfig(eps_bounds=(lo, hi)))
        env.reset()
        res = env.step_continuous([(1.0, 1.0, 1.0)])
        assert res.info["eps0"][0] == res.info["eps1"][0] == hi
        assert not res.info["boundary_hit"][0]


class TestSchedule:
    def test_single_no_change_record(self):
        env = GateEnv()
        env.reset()
        env.step_discrete([0])
        sched = env.export_schedule(0)
        assert sched.rows == [(0, 170.0, 70.0, 2.5)]

    def test_one_record_per_step(self):
        env = GateEnv()
        env.reset()
        n = 0
        for a in [1, 2, 9, 18, 0, 4]:
            res = env.step_discrete([a])
            n += 1
            if res.terminated[0] or res.truncated[0]:
                break
        assert len(env.export_schedule(0)) == n

    def test_export_before_any_step_rejected(self):
        env = GateEnv()
        env.reset()
        with pytest.raises(RuntimeError):
            env.export_schedule(0)

    def test_csv_round_trip(self, tmp_path):
        env = GateEnv()
        env.reset()
        for a in [1, 5, 22, 0]:
            env.step_discrete([a])
        sched = env.export_schedule(0)
        path = tmp_path / "sched.csv"
        sched.to_csv(path)
        assert PulseSchedule.from_csv(path).rows == sched.rows

    @pytest.mark.parametrize("text, message", [
        ("0,170,70,2.5\n1,abc,70,2.5\n", "line 3, column eps0_ghz: cannot parse 'abc' as float"),
        ("0.5,170,70,2.5\n", "line 2, column step: cannot parse '0.5' as int"),
        ("0,170,70,2.5\n\n2,170,70,\n", "line 4, column tunnel_ghz: cannot parse '' as float"),
        ("0,170,70\n", r"line 2: bad schedule row: \['0', '170', '70'\]"),
        # The step column must read 0, 1, ..., T-1.
        ("7,170,70,2.5\n3,170,70,2.5\n", "line 2, column step: expected 0, got 7"),
        ("0,170,70,2.5\n1,170,70,2.5\n3,170,70,2.5\n", "line 4, column step: expected 2, got 3"),
        ("0,170,70,2.5\n\n0,170,70,2.5\n", "line 4, column step: expected 1, got 0"),
        ("-1,170,70,2.5\n", "line 2, column step: expected 0, got -1"),
    ])
    def test_csv_bad_field_names_line_and_column(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text("step,eps0_ghz,eps1_ghz,tunnel_ghz\n" + text)
        with pytest.raises(ValueError, match=message):
            PulseSchedule.from_csv(path)

    def test_csv_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n0,1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            PulseSchedule.from_csv(path)


class TestReplay:
    def test_replay_matches_episode_exactly(self):
        rng = np.random.default_rng(20)
        env = GateEnv()
        env.reset()
        last = None
        for _ in range(50):
            last = env.step_discrete([int(rng.integers(27))])
            if last.terminated[0] or last.truncated[0]:
                break
        report, trace = replay_schedule(env.export_schedule(0))
        assert report.fidelity == last.info["fidelity"][0]
        assert len(trace) == env.steps[0]

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_replay_matches_every_step_of_random_episodes(self, mode):
        rng = np.random.default_rng(24 if mode == "discrete" else 25)
        env = GateEnv()
        for _ in range(20):
            env.reset()
            fidelities = []
            for _ in range(80):
                if mode == "discrete":
                    res = env.step_discrete([int(rng.integers(27))])
                else:
                    res = env.step_continuous([rng.uniform(-1.2, 1.2, 3)])
                fidelities.append(res.info["fidelity"][0])
                if res.terminated[0] or res.truncated[0]:
                    break
            report, trace = replay_schedule(env.export_schedule(0))
            assert trace == fidelities
            assert report == env.report.row(0)

    @pytest.mark.parametrize("mode", ["computational4", "full16"])
    def test_trace_bytes_equal_episode_in_both_obs_modes(self, mode):
        # The episode carries the slots of its observation mode, replay only
        # the gate's; both give every step the same fidelity bits.
        cfg = EnvConfig(obs_mode=mode, max_steps=60)
        env = GateEnv(cfg)
        rng = np.random.default_rng(29)
        for _ in range(8):
            env.reset()
            fidelities = []
            while True:
                if rng.random() < 0.3:
                    res = env.step_discrete([int(rng.integers(27))])
                else:
                    res = env.step_continuous([rng.uniform(-1.2, 1.2, 3)])
                fidelities.append(res.info["fidelity"][0])
                if res.terminated[0] or res.truncated[0]:
                    break
            report, trace = replay_schedule(env.export_schedule(0), cfg)
            assert np.array(trace).tobytes() == np.array(fidelities).tobytes()
            assert report == env.report.row(0)

    def test_empty_schedule_is_identity(self):
        # Before its first step an episode holds the identity gate.  It has
        # no schedule to export, and replay rejects a schedule of no steps,
        # so the identity of the empty schedule is read from the episode.
        env = GateEnv()
        env.reset()
        assert env.steps[0] == 0
        assert env.report.row(0).fidelity == pytest.approx(0.4, abs=1e-12)
        with pytest.raises(RuntimeError, match=r"^no steps taken yet$"):
            env.export_schedule(0)

    def test_empty_schedule_rejected(self):
        for schedule in (PulseSchedule(), np.zeros((0, 3))):
            with pytest.raises(ValueError, match=r"^schedule has no steps to replay$"):
                replay_schedule(schedule)

    @pytest.mark.parametrize("bad", [(2, 170.0, 70.0), (2, 170.0, 70.0, 2.5, 1.0)])
    def test_ragged_row_named(self, bad):
        rows = [(0, 170.0, 70.0, 2.5), (1, 170.0, 70.0, 2.5), bad, (3, 170.0, 70.0, 2.5)]
        message = rf"^schedule row 2 has {len(bad)} fields, expected 4: "
        with pytest.raises(ValueError, match=message):
            replay_schedule(PulseSchedule(rows=rows))

    @pytest.mark.witness
    def test_sweep_trace_bytes_pinned(self, tmp_path):
        # sha256 of the trace of a 60 ns sweep of the pulse at the corner
        # (-750, -300, 5) GHz, recorded before replay multiplied directly;
        # the bytes depend on the numpy and BLAS build.
        path = tmp_path / "pulse.csv"
        PulseSchedule(rows=[(0, -750.0, -300.0, 5.0)]).to_csv(path)
        out = cli.run_replay(path, EnvConfig(), sweep_duration=60)
        digest = hashlib.sha256(np.array(out["fidelity_trace"]).tobytes()).hexdigest()
        assert digest == "ed4b1aad3abbc907fa28e392da57200d56b32c93268ad71f1e08db1096d045be"


def replay_per_row(schedule, config=EnvConfig()):
    """Reference replay: one propagator per schedule row, accumulated by @.
    A schedule of no steps is rejected, as ``replay_schedule`` rejects it."""
    if not len(schedule):
        raise ValueError("schedule has no steps to replay")
    u_steps = sim.step_unitaries(
        sim.build_hamiltonian(sim.HamiltonianParams(np.asarray(schedule), config.u, config.ez)),
        config.dt,
    )
    u_acc = np.empty((len(u_steps) + 1, *sim.ALL_SLOTS.shape), dtype=complex)
    u_acc[0] = sim.ALL_SLOTS.identity
    for t, u_step in enumerate(u_steps):
        u_acc[t + 1] = u_step @ u_acc[t]
    report = sim.gate_fidelity(sim.compensate(sim.project_to_computational(u_acc))[0])
    return report.row(-1), report.fidelity[1:].tolist()


def schedule_of(controls):
    return PulseSchedule(rows=[(t, *c) for t, c in enumerate(np.asarray(controls).tolist())])


def runs_schedule():
    """Runs of equal rows, with tunnel 0.0 and -0.0 in neighbouring runs."""
    runs = [((170.0, 70.0, 0.0), 5), ((170.0, 70.0, -0.0), 3), ((170.0, 70.0, 0.0), 4),
            ((-0.0, 0.0, 2.5), 2), ((0.0, 0.0, 2.5), 1), ((-750.0, -300.0, 5.0), 6)]
    return schedule_of([c for c, n in runs for _ in range(n)]), len(runs)


class TestReplayRuns:
    """Replay builds one propagator per run of bit-identical rows."""

    @staticmethod
    def count_step_rows(monkeypatch):
        rows = []
        step_unitaries = sim.step_unitaries

        def counted(h, *args):
            rows.append(len(h))
            return step_unitaries(h, *args)

        monkeypatch.setattr(sim, "step_unitaries", counted)
        return rows

    @staticmethod
    def outcome(replay, schedule):
        """The report and trace bytes of a replay, or the message it raised."""
        try:
            report, trace = replay(schedule)
        except ValueError as error:
            return str(error)
        assert len(trace) == len(schedule)
        return report, np.array(trace).tobytes()

    @pytest.mark.parametrize("name", ["sweep", "runs", "distinct", "empty"])
    def test_equals_per_row_replay_bitwise(self, name):
        rng = np.random.default_rng(27)
        schedule = {
            "sweep": schedule_of([(170.0, 70.0, 2.5)] * 200),
            "runs": runs_schedule()[0],
            "distinct": schedule_of(
                rng.uniform([-750.0, -750.0, 0.0], [750.0, 750.0, 5.0], (60, 3))
            ),
            "empty": PulseSchedule(),
        }[name]
        assert self.outcome(replay_schedule, schedule) == self.outcome(replay_per_row, schedule)

    def test_sweep_builds_one_propagator(self, monkeypatch):
        rows = self.count_step_rows(monkeypatch)
        replay_schedule(schedule_of([(170.0, 70.0, 2.5)] * 200))
        assert rows == [1]

    def test_signed_zeros_start_new_runs(self, monkeypatch):
        rows = self.count_step_rows(monkeypatch)
        schedule, n_runs = runs_schedule()
        replay_schedule(schedule)
        assert rows == [n_runs]

    def test_alternating_and_single_row_runs(self, monkeypatch):
        # Runs of A and B in turn, 1-5 rows long: each run's rows must read
        # its own propagator, also where a run is a single row.
        rng = np.random.default_rng(32)
        lengths = rng.integers(1, 6, 40).tolist()
        assert 1 in lengths and 5 in lengths
        a, b = (170.0, 70.0, 2.5), (-750.0, -300.0, 5.0)
        schedule = schedule_of([(a, b)[k % 2] for k, n in enumerate(lengths) for _ in range(n)])
        rows = self.count_step_rows(monkeypatch)
        report, trace = replay_schedule(schedule)
        assert rows == [len(lengths)]
        want_report, want_trace = replay_per_row(schedule)
        assert np.array(trace).tobytes() == np.array(want_trace).tobytes()
        assert report == want_report

    def test_bad_row_inside_a_run_named_by_schedule_index(self):
        schedule = schedule_of([(170.0, 70.0, 2.5)] * 10 + [(800.0, 70.0, 2.5)] * 5)
        with pytest.raises(ValueError, match=r"step 10: eps0=800.0 outside"):
            replay_schedule(schedule)
        schedule = schedule_of([(170.0, 70.0, 2.5)] * 3 + [(170.0, 70.0, np.nan)] * 4)
        with pytest.raises(ValueError, match=r"step 3: tunnel=nan is not finite"):
            replay_schedule(schedule)


def replay_bytes(schedule, config=EnvConfig()) -> tuple[bytes, bytes]:
    """The bytes of a replay's report fields and of its trace."""
    report, trace = replay_schedule(schedule, config)
    assert type(trace) is list
    return np.array(dataclasses.astuple(report)).tobytes(), np.array(trace).tobytes()


# Controls that runs are drawn from: tunnel 0.0 and -0.0, and eps0 -0.0 and
# 0.0, differ only by the sign of a zero.
RUN_CONTROLS = [(170.0, 70.0, 0.0), (170.0, 70.0, -0.0), (-0.0, 0.0, 2.5), (0.0, 0.0, 2.5),
                (-750.0, -300.0, 5.0), (170.0, 70.0, 2.5)]


@st.composite
def run_structured_controls(draw):
    """1-64 control rows in runs of 1-12 equal rows, each run one of
    ``RUN_CONTROLS`` or a random in-bounds row (replay rejects an empty
    schedule)."""
    control = st.one_of(
        st.sampled_from(RUN_CONTROLS),
        st.tuples(st.floats(-750.0, 750.0), st.floats(-750.0, 750.0), st.floats(0.0, 5.0)),
    )
    runs = draw(st.lists(st.tuples(control, st.integers(1, 12)), min_size=1, max_size=16))
    return [c for c, n in runs for _ in range(n)][:64]


class TestReplayInputs:
    """A ``PulseSchedule`` and its (T, 3) array replay alike, and a sweep
    replays as the explicit constant schedule it stands for."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(run_structured_controls())
    def test_schedule_and_its_array_agree_bytewise(self, controls):
        schedule = schedule_of(controls)
        array = np.asarray(schedule)
        assert array.shape == (len(controls), 3)
        assert array.tobytes() == np.array(controls, dtype=float).reshape(-1, 3).tobytes()
        assert replay_bytes(array) == replay_bytes(schedule)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 60, 200])
    @pytest.mark.parametrize("row", [(170.0, 70.0, 2.5), (-750.0, -300.0, 5.0), (-0.0, 0.0, 0.0)])
    def test_sweep_equals_explicit_constant_schedule(self, tmp_path, n, row):
        path = tmp_path / "pulse.csv"
        schedule_of([row, (170.0, 70.0, 2.5)]).to_csv(path)
        out = cli.run_replay(path, EnvConfig(), sweep_duration=n)
        report, trace = replay_bytes(schedule_of([row] * n))
        fields = (out["final_fidelity"], out["unitarity_trace"], out["overlap"])
        assert np.array(fields).tobytes() == report
        assert np.array(out["fidelity_trace"]).tobytes() == trace
        best = int(np.argmax(out["fidelity_trace"]))
        assert out["best_duration_ns"] == best + 1
        assert out["best_fidelity"] == out["fidelity_trace"][best]


class TestScheduleRowChecks:
    """The row checks hold on every path into replay: a row's field count in
    ``PulseSchedule.__array__``, its controls by step in validation."""

    @pytest.mark.parametrize("bad", [(2, 170.0, 70.0), (2, 170.0, 70.0, 2.5, 1.0)])
    def test_ragged_row_named_by_every_reader(self, tmp_path, monkeypatch, bad):
        schedule = PulseSchedule(rows=[(0, 170.0, 70.0, 2.5), (1, 170.0, 70.0, 2.5), bad])
        message = rf"^schedule row 2 has {len(bad)} fields, expected 4: {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            np.asarray(schedule)
        with pytest.raises(ValueError, match=message):
            replay_schedule(schedule)
        # from_csv rejects such a line itself, so run_replay is handed the rows.
        monkeypatch.setattr(PulseSchedule, "from_csv", classmethod(lambda cls, path: schedule))
        for sweep_duration in (None, 30):
            with pytest.raises(ValueError, match=message):
                cli.run_replay(tmp_path / "pulse.csv", EnvConfig(), sweep_duration)

    @pytest.mark.parametrize("rows, message", [
        ("0,170,70,2.5\n1,170,70,5.5\n", r"^step 1: tunnel=5.5 outside \(0.0, 5.0\) GHz$"),
        ("0,170,70,2.5\n1,-800,70,2.5\n", r"^step 1: eps0=-800.0 outside "),
        ("0,170,nan,2.5\n", r"^step 0: eps1=nan is not finite$"),
        ("0,170,70,2.5\n1,170,70,2.5\n2,170,70,-inf\n", r"^step 2: tunnel=-inf is not finite$"),
    ])
    def test_bad_sweep_row_named_by_step(self, tmp_path, rows, message):
        path = tmp_path / "pulse.csv"
        path.write_text("step,eps0_ghz,eps1_ghz,tunnel_ghz\n" + rows)
        for sweep_duration in (None, 1, 30):
            with pytest.raises(ValueError, match=message):
                cli.run_replay(path, EnvConfig(), sweep_duration)

    @pytest.mark.parametrize("shape, message", [
        ((3,), r"^schedule controls must have shape \(T, 3\), got \(3,\)$"),
        ((2, 5, 3), r"^schedule controls must have shape \(T, 3\), got \(2, 5, 3\)$"),
        ((4, 2), r"^controls must have shape \(\.\.\., 3\) \('eps0', 'eps1', 'tunnel'\), "
                 r"got \(4, 2\)$"),
    ])
    def test_controls_not_t_by_3_named_by_shape(self, shape, message):
        controls = np.broadcast_to([170.0, 70.0, 2.5][:shape[-1]], shape)
        with pytest.raises(ValueError, match=message):
            replay_schedule(controls)


class TestVecGateEnv:
    # Continuous action that holds the initial controls (170, 70, 2.5) GHz.
    HOLD = np.array([170.0 / 750.0, 70.0 / 750.0, 0.0])

    @pytest.mark.parametrize("step", ["step_continuous", "step_discrete"])
    def test_rows_equal_single_episodes_bitwise(self, step):
        # Row 0 holds the initial controls and terminates after ~17 ns; the
        # other rows add noise of growing width (continuous) or take a random
        # action ever more often (discrete), so they truncate at the cap and
        # the widest hits the bounds most steps.  The low step thresholds
        # shrink the discrete step size before an episode terminates.
        cfg = EnvConfig(max_steps=25, step_thresholds=(0.9, 0.95))
        scales = np.array([0.0, 1e-3, 0.05, 0.3, 2.0])
        explore = np.array([0.0, 0.05, 0.2, 0.5, 1.0])
        n = len(scales)
        rng = np.random.default_rng(26)
        venv = VecGateEnv(cfg, n)
        envs = [GateEnv(cfg) for _ in range(n)]
        initial = GateEnv(cfg).reset()[0]
        obs = venv.reset()
        for i, env in enumerate(envs):
            assert np.array_equal(env.reset()[0], obs[i])
        fidelities = [[] for _ in range(n)]
        seen = {"terminated": 0, "truncated": 0, "boundary_hit": 0}
        if step == "step_discrete":
            seen["move_by_shrunk_delta"] = 0
        for _ in range(120):
            if step == "step_discrete":
                actions = np.where(rng.random(n) < explore, rng.integers(27, size=n), 0)
                shrunk = (venv.delta < cfg.step_sizes[0]) & (actions != 0)
                seen["move_by_shrunk_delta"] += int(shrunk.sum())
            else:
                actions = self.HOLD + scales[:, None] * rng.standard_normal((n, 3))
            res = getattr(venv, step)(actions)
            for i, env in enumerate(envs):
                single = getattr(env, step)(actions[i:i + 1])
                assert venv.delta[i] == env.delta[0]
                assert res.observation[i].tobytes() == single.observation[0].tobytes()
                assert res.reward[i] == single.reward[0]
                assert res.terminated[i] == single.terminated[0]
                assert res.truncated[i] == single.truncated[0]
                assert {k: v[i] for k, v in res.info.items()} == {
                    k: v[0] for k, v in single.info.items()
                }
                fidelities[i].append(single.info["fidelity"][0])
                if single.terminated[0] or single.truncated[0]:
                    assert venv.export_schedule(i).rows == env.export_schedule(0).rows
                    report, trace = replay_schedule(env.export_schedule(0), cfg)
                    assert trace == fidelities[i]
                    assert report == env.report.row(0)
                    fidelities[i] = []
                    env.reset()
            for key in ("terminated", "truncated"):
                seen[key] += int(getattr(res, key).sum())
            seen["boundary_hit"] += int(res.info["boundary_hit"].sum())
            done = res.terminated | res.truncated
            if done.any():
                obs = venv.reset(done)
                assert all(np.array_equal(row, initial) for row in obs[done])
                assert np.array_equal(obs[~done], res.observation[~done])
                assert np.all(venv.delta[done] == cfg.step_sizes[0])
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("mode, slots", [("computational4", [0, 3]), ("full16", [0, 1, 2, 3])])
    def test_carries_the_slots_its_observation_reads(self, mode, slots):
        venv = VecGateEnv(EnvConfig(obs_mode=mode), 3)
        venv.reset()
        venv.step_continuous(np.zeros((3, 3)))
        assert venv.slots.index.tolist() == slots
        assert venv.u_acc.shape == (3, len(slots), 4, 4)

    def test_finished_row_must_be_reset(self):
        venv = VecGateEnv(EnvConfig(max_steps=1), 2)
        with pytest.raises(RuntimeError, match="reset"):
            venv.step_continuous(np.zeros((2, 3)))
        venv.reset()
        res = venv.step_continuous(np.zeros((2, 3)))
        assert res.truncated.all()
        with pytest.raises(RuntimeError, match="reset"):
            venv.step_continuous(np.zeros((2, 3)))
        venv.reset(np.array([True, True]))
        venv.step_continuous(np.zeros((2, 3)))

    def test_bad_actions_rejected(self):
        venv = VecGateEnv(EnvConfig(), 2)
        venv.reset()
        with pytest.raises(ValueError, match="shape"):
            venv.step_continuous(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="row 1 is not finite"):
            venv.step_continuous([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]])
        with pytest.raises(ValueError, match="shape"):
            venv.step_discrete([0])
        with pytest.raises(ValueError, match=r"^action index 27 of row 1 outside \[0, 26\]$"):
            venv.step_discrete([0, 27])
        with pytest.raises(ValueError, match=r"^action index -1 of row 0 outside \[0, 26\]$"):
            venv.step_discrete([-1, 3])
        assert venv.steps.tolist() == [0, 0]

    @pytest.mark.parametrize("controls, message", [
        ([[900.0, 70.0, 2.5]], r"^row 0: eps0=900.0 outside \(-750.0, 750.0\) GHz$"),
        ([[170.0, 70.0, 2.5], [170.0, 70.0, 2.5], [900.0, 70.0, 2.5]],
         r"^row 2: eps0=900.0 outside \(-750.0, 750.0\) GHz$"),
        ([[170.0, 70.0, 2.5], [170.0, 70.0, np.inf], [170.0, -800.0, 2.5]],
         r"^row 1: tunnel=inf is not finite$"),
    ])
    def test_bad_controls_named_by_row(self, controls, message):
        controls = np.array(controls)
        venv = VecGateEnv(EnvConfig(), len(controls))
        venv.reset()
        with pytest.raises(ValueError, match=message):
            venv.advance(controls, np.zeros(len(controls), dtype=bool))


class TestReturns:
    """The env sums each episode's rewards, and ``improves`` picks the best."""

    def test_return_is_the_running_sum_of_rewards_bitwise(self):
        cfg = EnvConfig(max_steps=7)
        n = 3
        rng = np.random.default_rng(31)
        venv = VecGateEnv(cfg, n)
        venv.reset()
        running = [0.0] * n
        restarted = 0
        for t in range(40):
            res = venv.step_continuous(rng.uniform(-1.2, 1.2, size=(n, 3)))
            for i in range(n):
                running[i] += float(res.reward[i])
            assert res.info["return"].tobytes() == np.array(running).tobytes()
            assert res.info["return"] is venv.returns
            # Finished rows, and row 0 every fifth step, start over.
            rows = res.terminated | res.truncated
            rows[0] |= t % 5 == 4
            before = venv.returns
            venv.reset(rows)
            assert np.all(venv.returns[rows] == 0.0)
            assert venv.returns[~rows].tobytes() == before[~rows].tobytes()
            assert res.info["return"] is before  # not modified by the reset
            for i in np.flatnonzero(rows):
                running[i] = 0.0
            restarted += int((rows & ~(res.terminated | res.truncated)).sum())
        assert restarted > 0

    @pytest.mark.parametrize("fidelity, duration, expected", [
        (0.95, 30.0, True),  # higher F wins, even in a longer gate
        (0.9, 10.0, True),  # equal F in a shorter gate
        (0.9, 20.0, False),  # equal F and length: the old episode stays
        (0.9, 25.0, False),  # equal F in a longer gate
    ], ids=["higher_fidelity", "equal_fidelity_shorter", "tie", "equal_fidelity_longer"])
    def test_improves(self, fidelity, duration, expected):
        assert improves(fidelity, duration, 0.9, 20.0) is expected


class TestInvariants:
    def test_control_containment_fuzz(self):
        rng = np.random.default_rng(21)
        env = GateEnv()
        env.reset()
        cfg = env.config
        for _ in range(10_000):
            res = env.step_discrete([int(rng.integers(27))])
            assert cfg.eps_bounds[0] <= res.info["eps0"][0] <= cfg.eps_bounds[1]
            assert cfg.eps_bounds[0] <= res.info["eps1"][0] <= cfg.eps_bounds[1]
            assert cfg.tun_bounds[0] <= res.info["tunnel"][0] <= cfg.tun_bounds[1]
            assert res.info["gate_duration"][0] == env.steps[0] * cfg.dt
            assert not (res.terminated[0] and res.truncated[0])
            expected_r = compute_reward(
                res.info["fidelity"][0], res.info["boundary_hit"][0], res.terminated[0], cfg
            )
            assert res.reward[0] == expected_r
            if res.terminated[0] or res.truncated[0]:
                env.reset()

    def test_bitwise_determinism(self):
        actions = list(np.random.default_rng(22).integers(0, 27, 150))
        streams = []
        for _ in range(2):
            env = GateEnv()
            env.reset()
            stream = []
            for a in actions:
                res = env.step_discrete([int(a)])
                stream.append((res.observation.tobytes(), res.reward[0],
                               res.terminated[0], res.truncated[0]))
                if res.terminated[0] or res.truncated[0]:
                    env.reset()
            streams.append(stream)
        assert streams[0] == streams[1]

    def test_observation_feature_ranges(self):
        rng = np.random.default_rng(23)
        env = GateEnv()
        env.reset()
        for _ in range(300):
            res = env.step_discrete([int(rng.integers(27))])
            assert np.all(res.observation[0, :-1] >= -1 - 1e-9)
            assert np.all(res.observation[0, :-1] <= 1 + 1e-9)
            assert 0.0 <= res.observation[0, -1] <= 1.0
            if res.terminated[0] or res.truncated[0]:
                env.reset()


class TestLiveFeatures:
    """The observation is the dense oracle's layout gathered at
    ``live_features``, byte for byte."""

    MODES = ("computational4", "full16")

    @pytest.mark.parametrize("mode, n_live", [("computational4", 13), ("full16", 73)])
    def test_re_im_pairs_of_sector_entries_plus_fidelity(self, mode, n_live):
        cfg = EnvConfig(obs_mode=mode)
        live = cfg.live_features
        assert len(live) == cfg.obs_dim == n_live
        dim = 4 if mode == "computational4" else 16
        assert live[-1] == 2 * dim * dim
        assert np.all(np.diff(live) > 0)
        re, im = live[:-1:2], live[1:-1:2]
        assert np.all(re % 2 == 0) and np.array_equal(im, re + 1)
        states = sim.COMPUTATIONAL_INDICES if dim == 4 else range(16)
        sector = [next(k for k, sec in enumerate(sim.SECTORS) if s in sec) for s in states]
        i, j = np.divmod(re // 2, dim)
        assert all(sector[a] == sector[b] for a, b in zip(i, j))
        assert len(re) == sum(sector[a] == sector[b] for a in range(dim) for b in range(dim))

    @pytest.mark.parametrize("mode", MODES)
    def test_random_discrete_episodes(self, mode):
        cfg = EnvConfig(obs_mode=mode, max_steps=40)
        rng = np.random.default_rng(27)
        env = GateEnv(cfg)
        obs = env.reset()
        assert obs[0].tobytes() == oracle_observation(env)[0].tobytes()
        seen = {"boundary_hit": 0, "reset": 0}
        for _ in range(300):
            res = env.step_discrete([int(rng.integers(27))])
            assert res.observation[0].tobytes() == oracle_observation(env)[0].tobytes()
            seen["boundary_hit"] += int(res.info["boundary_hit"][0])
            if res.terminated[0] or res.truncated[0]:
                assert env.reset()[0].tobytes() == oracle_observation(env)[0].tobytes()
                seen["reset"] += 1
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("mode", MODES)
    def test_random_continuous_rows_with_auto_resets(self, mode):
        cfg = EnvConfig(obs_mode=mode, max_steps=15)
        rng = np.random.default_rng(28)
        scales = np.array([0.05, 0.5, 2.0])
        venv = VecGateEnv(cfg, len(scales))
        assert venv.reset().tobytes() == oracle_observation(venv).tobytes()
        seen = {"boundary_hit": 0, "reset": 0}
        for _ in range(100):
            actions = scales[:, None] * rng.standard_normal((len(scales), 3))
            res = venv.step_continuous(actions)
            assert res.observation.tobytes() == oracle_observation(venv).tobytes()
            seen["boundary_hit"] += int(res.info["boundary_hit"].sum())
            done = res.terminated | res.truncated
            if done.any():
                assert venv.reset(done).tobytes() == oracle_observation(venv).tobytes()
                seen["reset"] += int(done.sum())
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("mode", MODES)
    def test_gate_whose_compensation_fails(self, mode):
        # Start from SWAP of the full-space states 6 (down, up) and 9 (up,
        # down), then step at zero tunnelling: the step is diagonal, so the
        # gate keeps zeros on its diagonal and cannot be compensated.
        cfg = EnvConfig(obs_mode=mode)
        order = np.arange(16)
        order[[6, 9]] = 9, 6
        swap = np.eye(16, dtype=complex)[order]
        venv = VecGateEnv(cfg, 2)
        venv.reset()
        states = sim.SLOTS[venv.slots.index]  # the slots this obs mode carries
        venv.u_acc = np.tile(swap[states[:, :, None], states[:, None, :]], (2, 1, 1, 1))
        res = venv.step_continuous([[0.1, -0.2, -1.0], [0.3, 0.1, -1.0]])
        assert not res.info["compensated"].any()
        assert res.observation.tobytes() == oracle_observation(venv).tobytes()
        assert np.any(res.observation != 0)


class TestFull16Observation:
    """The full16 observation is one fixed gather from the slot stack, byte
    for byte the dense oracle's live features."""

    def test_episodes_equal_dense_oracle(self):
        venv = VecGateEnv(EnvConfig(obs_mode="full16", max_steps=20), 3)
        obs = venv.reset()
        assert obs.tobytes() == oracle_observation(venv).tobytes()
        rng = np.random.default_rng(30)
        for _ in range(45):
            res = venv.step_continuous(rng.uniform(-1.1, 1.1, (3, 3)))
            want = oracle_observation(venv, fidelity=res.info["fidelity"])
            assert res.observation.tobytes() == want.tobytes()
            done = res.terminated | res.truncated
            if done.any():
                venv.reset(done)

    def test_signed_zeros_kept_in_live_entries(self):
        venv = VecGateEnv(EnvConfig(obs_mode="full16"), 2)
        venv.reset()
        u = random_slot_stack(np.random.default_rng(31), (2,))
        u.real[0, :, 0, 0] = -0.0  # a live diagonal entry of every slot
        u.imag[1] = -0.0  # every entry of the row, also those between sectors
        report = sim.gate_fidelity(sim.project_to_computational(u))
        got = venv._observations(None, u, report)
        want = oracle_observation(venv, u, report.fidelity)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[0, 0]) and np.signbit(got[1, 1])
