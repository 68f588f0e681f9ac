"""Environment: actions, rewards, termination, schedules, replay."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dotgate.env
from dotgate import cli, sim
from dotgate.agents import PpoConfig, TdConfig
from dotgate.env import (
    N_ACTIONS,
    PROPAGATOR_CACHE_ROWS,
    EnvConfig,
    GateEnv,
    PulseSchedule,
    VecGateEnv,
    compute_reward,
    improves,
    replay_schedule,
)
from helpers import assert_pinned, dense_observation, random_slot_stack

ACTION_TUN_DOWN = 18  # base-3 digits (0, 0, 2)


def oracle_observation(venv: VecGateEnv, u_acc=None, fidelity=None) -> np.ndarray:
    """The rows' observations through the dense oracle: the dense layout of
    the rows' accumulated unitaries (default: the env's) gathered at
    ``live_features``."""
    cfg = venv.config
    u_acc = venv.u_acc if u_acc is None else u_acc
    fidelity = venv.fidelity if fidelity is None else fidelity
    return dense_observation(cfg.obs_mode, u_acc, fidelity)[:, cfg.live_features]


def episode_report(env: GateEnv) -> sim.FidelityReport:
    """The whole fidelity report of a ``GateEnv``'s episode, recomputed from
    its accumulated unitary."""
    u_gate = sim.compensate(sim.project_to_computational(env.u_acc))[0]
    return sim.gate_fidelity(u_gate).row(0)


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

    @pytest.mark.parametrize("kwargs, message", [
        ({"ez": (18.4, 19.7, 1.0)}, r"^ez=\(18.4, 19.7, 1.0\) must have 2 entries$"),
        ({"u": (845.2,)}, r"^u=\(845.2,\) must have 2 entries$"),
        ({"step_thresholds": (0.99,)}, r"^step_thresholds=\(0.99,\) must have 2 entries$"),
        ({"step_sizes": (1.0,)}, r"^step_sizes=\(1.0,\) must have 3 entries$"),
        ({"eps_init": (170.0,)}, r"^eps_init=\(170.0,\) must have 2 entries$"),
        ({"eps_bounds": (-750.0,)}, r"^eps_bounds=\(-750.0,\) must have 2 entries$"),
        ({"tun_bounds": (0.0, 4.0, 5.0)}, r"^tun_bounds=\(0.0, 4.0, 5.0\) must have 2 entries$"),
    ])
    def test_tuple_field_lengths(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            EnvConfig(**kwargs).validate()
        with pytest.raises(ValueError, match=message):
            VecGateEnv(EnvConfig(**kwargs), 1)

    @pytest.mark.parametrize("cfg, message", [
        (EnvConfig(eps_init=(170.0, "x")), "eps_init=(170.0, 'x') must be a list of 2 numbers"),
        (EnvConfig(step_sizes=(1.0, 0.1, "a")),
         "step_sizes=(1.0, 0.1, 'a') must be a list of 3 numbers"),
        (EnvConfig(ez=((1, 2), 3)), "ez=((1, 2), 3) must be a list of 2 numbers"),
        (EnvConfig(u=(845.2, True)), "u=(845.2, True) must be a list of 2 numbers"),
        (EnvConfig(max_steps=2.5), "max_steps=2.5 must be an integer"),
        (TdConfig(episodes_max="5"), "episodes_max='5' must be an integer"),
        (PpoConfig(horizon=2.5), "horizon=2.5 must be an integer"),
        (PpoConfig(stop_on_target=1), "stop_on_target=1 must be true or false"),
    ], ids=["eps_init", "step_sizes", "ez", "u", "max_steps", "episodes_max", "horizon",
            "stop_on_target"])
    def test_field_of_the_wrong_type_named(self, cfg, message):
        # The rule YAML configs are read by, applied to configs built in Python.
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            cfg.validate()

    def test_numpy_scalars_accepted(self):
        EnvConfig(max_steps=np.int64(5), eps_init=(np.float64(170.0), 70)).validate()
        PpoConfig(horizon=np.int32(8)).validate()

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
    """An env is built reset: before any explicit ``reset`` it holds fresh
    episodes in every row."""

    @pytest.mark.parametrize("obs_mode", ["computational4", "full16"])
    def test_built_env_holds_fresh_episodes(self, obs_mode):
        cfg = EnvConfig(obs_mode=obs_mode)
        built = VecGateEnv(cfg, 2)
        assert len(built._initial) == 8
        for name, fresh in built._initial.items():
            assert len(fresh) == 1, name
            assert row_bytes(getattr(built, name)) == 2 * row_bytes(fresh), name
        with pytest.raises(RuntimeError, match="^no steps taken yet$"):
            built.export_schedule(1)

        reset_rows = VecGateEnv(cfg, 2)
        reset_rows.reset(np.array([True, False]))
        for name, fresh in reset_rows._initial.items():
            assert row_bytes(getattr(reset_rows, name)) == 2 * row_bytes(fresh), name

        # The first steps equal those of an env reset before them, byte for byte.
        ref = VecGateEnv(cfg, 2)
        ref.reset()
        actions = np.array([[0.25, -0.5, 1.0], [-1.0, 0.0, 0.5]])
        assert_same_step(built.step_continuous(actions), ref.step_continuous(actions), built, ref)
        assert_same_step(built.step_discrete([1, 18]), ref.step_discrete([1, 18]), built, ref)

    def test_unknown_attribute_still_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such"):
            VecGateEnv(EnvConfig(), 1).no_such


def row_bytes(value) -> list:
    """The bytes of each row of an episode-state entry."""
    return [row.tobytes() for row in value]


class TestEpisodeState:
    """``VecGateEnv._initial`` is the one table of the episode state, one
    fresh row, and ``reset`` writes it into every row or the chosen rows."""

    @pytest.mark.parametrize("obs_mode", ["computational4", "full16"])
    def test_partial_reset_restores_fresh_rows_only(self, obs_mode):
        n = 3
        venv = VecGateEnv(EnvConfig(obs_mode=obs_mode, max_steps=12), n)
        venv.reset()
        fresh = {name: row_bytes(value)[0] for name, value in venv._initial.items()}
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
                        assert after[i] == (fresh[name] if rows[i] else before[name][i]), name
                    assert row_bytes(handed_out[name]) == before[name], name
                restored += int(rows.sum())
                kept += int((~rows & (venv.steps > 0)).sum())
            res = venv.step_continuous(rng.uniform(-1.2, 1.2, (n, 3)))
            done = res.terminated | res.truncated
        assert restored >= 10 and kept >= 10

    @pytest.mark.parametrize("obs_mode", ["computational4", "full16"])
    def test_fresh_row_does_not_depend_on_n_envs(self, obs_mode):
        cfg = EnvConfig(obs_mode=obs_mode)
        one, five = VecGateEnv(cfg, 1)._initial, VecGateEnv(cfg, 5)._initial
        assert list(one) == list(five)
        for name in one:
            assert one[name].dtype == five[name].dtype, name
            assert one[name].shape == five[name].shape, name
            assert one[name].tobytes() == five[name].tobytes(), name

    def test_writes_into_handed_out_state_reach_no_fresh_episode(self):
        venv = VecGateEnv(EnvConfig(), 2)
        fresh = {name: 2 * row_bytes(value) for name, value in venv._initial.items()}
        for rows in (None, np.array([True, True]), None):
            res = venv.step_discrete([1, 18])
            state = [getattr(venv, name) for name in venv._initial]
            for value in (*state, res.observation, *res.info.values()):
                value[...] = np.ones((), value.dtype)
            obs = venv.reset(rows)
            assert {name: row_bytes(getattr(venv, name)) for name in venv._initial} == fresh
            obs[...] = 7.0


def discrete_move(action, delta):
    """The (eps0, eps1, tunnel) move one step_discrete of ``action`` makes
    from the initial controls when the step size is ``delta``."""
    cfg = EnvConfig(step_sizes=(delta, 0.1, 0.01))
    env = GateEnv(cfg)
    env.reset()
    env.step_discrete([action])
    start = (*cfg.eps_init, cfg.tun_init)
    return tuple(c - s for c, s in zip(env.controls[0], start))


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

    @pytest.mark.parametrize("actions, dtype", [
        ([2.5], "float64"), ([2.0], "float64"), (["3"], "<U1"), ([True], "bool"),
    ])
    def test_non_integer_actions_named(self, actions, dtype):
        env = GateEnv()
        with pytest.raises(ValueError, match=rf"^discrete actions must be integers, got dtype {dtype}$"):
            env.step_discrete(actions)
        assert env.steps[0] == 0
        env.step_discrete(np.array([3], dtype=np.uint8))
        assert env.steps[0] == 1

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
                assert env.controls[0].tobytes() == np.array(controls).tobytes()
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
        venv.step_discrete(np.arange(27))
        start, delta = [*cfg.eps_init, cfg.tun_init], cfg.step_sizes[0]
        for action in range(27):
            controls, _ = reference_discrete_move(start, delta, action, cfg)
            assert venv.controls[action].tobytes() == np.array(controls).tobytes(), action
        assert len({tuple(row) for row in venv.controls.tolist()}) == 27

    def test_no_change_step(self):
        env = GateEnv()
        env.reset()
        res = env.step_discrete([0])
        # The controls are the env's alone; info holds no copy of them.
        assert set(res.info) == {"fidelity", "gate_duration", "boundary_hit", "compensated", "return"}
        assert env.controls[0, 0] == 170.0
        assert env.controls[0, 1] == 70.0
        assert env.controls[0, 2] == 2.5
        assert res.reward[0] == -1.0
        assert res.info["fidelity"][0] != 0.4  # evolved 1 ns

    def test_tunnel_clipped_at_zero_with_penalty(self):
        env = GateEnv()
        env.reset()
        env.step_discrete([ACTION_TUN_DOWN])  # 2.5 -> 1.5
        env.step_discrete([ACTION_TUN_DOWN])  # 1.5 -> 0.5
        res = env.step_discrete([ACTION_TUN_DOWN])  # 0.5 -> clip at 0
        assert env.controls[0, 2] == 0.0
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
        assert env.controls[0, 0] == 0.0
        assert env.controls[0, 1] == 0.0
        assert env.controls[0, 2] == 2.5
        assert not res.info["boundary_hit"][0]

    def test_endpoint_action(self):
        env = GateEnv()
        env.reset()
        res = env.step_continuous([(1.0, -1.0, 1.0)])
        assert env.controls[0, 0] == 750.0
        assert env.controls[0, 1] == -750.0
        assert env.controls[0, 2] == 5.0

    def test_out_of_range_clipped_with_boundary_flag(self):
        env = GateEnv()
        env.reset()
        res = env.step_continuous([(0.0, 0.0, 1.7)])
        assert env.controls[0, 2] == 5.0
        assert res.info["boundary_hit"][0]

    def test_wrong_length_rejected(self):
        env = GateEnv()
        env.reset()
        with pytest.raises(ValueError, match="3"):
            env.step_continuous([(0.0, 0.0)])

    @pytest.mark.parametrize("actions, dtype", [
        ([["0.5", "0", "1"]], "<U3"),
        ([[True, False, True]], "bool"),
        ([["0.5", "0", True]], "<U5"),
        ([[0.5, "0", 1]], "<U32"),
        ([[0.5, None, 0.0]], "object"),
        ([[1j, 0.0, 0.0]], "complex128"),
    ], ids=["strings", "bools", "mixed_string_bool", "mixed_number_string", "none", "complex"])
    def test_non_number_actions_named(self, actions, dtype):
        env = GateEnv()
        with pytest.raises(ValueError, match=rf"^continuous actions must be numbers, got dtype {dtype}$"):
            env.step_continuous(actions)
        assert env.steps[0] == 0
        env.step_continuous(np.array([[1, 0, -1]], dtype=np.int8))
        assert env.controls.tolist() == [[750.0, 0.0, 0.0]]

    @pytest.mark.parametrize("lo, hi", [
        (-641.88, 750.0),  # lo + (hi - lo) rounds to 750.0000000000001
        (-176.77357991437918, 171.32765656735737),  # ... to 171.3276565673574
    ])
    def test_map_rounding_past_the_box_is_clipped(self, lo, hi):
        env = GateEnv(EnvConfig(eps_bounds=(lo, hi)))
        env.reset()
        res = env.step_continuous([(1.0, 1.0, 1.0)])
        assert env.controls[0, 0] == env.controls[0, 1] == hi
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
            assert report == episode_report(env)

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
            assert report == episode_report(env)

    def test_empty_schedule_is_identity(self):
        # Before its first step an episode holds the identity gate.  It has
        # no schedule to export, and replay rejects a schedule of no steps,
        # so the identity of the empty schedule is read from the episode.
        env = GateEnv()
        env.reset()
        assert env.steps[0] == 0
        assert env.fidelity[0] == pytest.approx(0.4, abs=1e-12)
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
        assert_pinned(
            digest, "ed4b1aad3abbc907fa28e392da57200d56b32c93268ad71f1e08db1096d045be",
            "numpy 2.4.6, SIMD X86_V3 X86_V4 AVX512_ICL AVX512_SPR, "
            "blas scipy-openblas 0.3.31.188.0, core SkylakeX",
        )


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


def count_step_rows(monkeypatch) -> list[int]:
    """Record the rows of every ``sim.step_unitaries`` call from now on."""
    rows = []
    step_unitaries = sim.step_unitaries

    def counted(h, *args):
        rows.append(len(h))
        return step_unitaries(h, *args)

    monkeypatch.setattr(sim, "step_unitaries", counted)
    return rows


def count_built_controls(monkeypatch) -> list[bytes]:
    """Record the control bytes of every ``sim.build_hamiltonian`` call from
    now on."""
    built = []
    build_hamiltonian = sim.build_hamiltonian

    def counted(params):
        built.append(np.asarray(params.controls).tobytes())
        return build_hamiltonian(params)

    monkeypatch.setattr(sim, "build_hamiltonian", counted)
    return built


class TestReplayRuns:
    """Replay builds one propagator per distinct run start: runs of
    bit-identical rows share one, and so do runs of the same controls."""

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
        rows = count_step_rows(monkeypatch)
        replay_schedule(schedule_of([(170.0, 70.0, 2.5)] * 200))
        assert rows == [1]

    def test_signed_zeros_start_new_runs(self, monkeypatch):
        rows = count_step_rows(monkeypatch)
        schedule, n_runs = runs_schedule()
        replay_schedule(schedule)
        # Run 3 repeats run 1's controls; 0.0 and -0.0 still build apart.
        assert rows == [n_runs - 1]

    def test_alternating_and_single_row_runs(self, monkeypatch):
        # Runs of A and B in turn, 1-5 rows long: each run's rows must read
        # its own propagator, also where a run is a single row.
        rng = np.random.default_rng(32)
        lengths = rng.integers(1, 6, 40).tolist()
        assert 1 in lengths and 5 in lengths
        a, b = (170.0, 70.0, 2.5), (-750.0, -300.0, 5.0)
        schedule = schedule_of([(a, b)[k % 2] for k, n in enumerate(lengths) for _ in range(n)])
        rows = count_step_rows(monkeypatch)
        report, trace = replay_schedule(schedule)
        assert rows == [2]
        want_report, want_trace = replay_per_row(schedule)
        assert np.array(trace).tobytes() == np.array(want_trace).tobytes()
        assert report == want_report

    def test_the_cache_bound_never_changes_a_replay(self, monkeypatch):
        # Five distinct rows in turn: a bound of 2 drops three of them, after
        # the lookup has read the batch.
        cycle = [(170.0, 70.0, 2.5), (-750.0, -300.0, 5.0), (650.0, 100.0, 4.5),
                 (-525.0, -550.0, 3.25), (0.0, 0.0, 0.0)]
        schedule = schedule_of(cycle * 12)
        want = replay_bytes(schedule)
        monkeypatch.setattr("dotgate.env.PROPAGATOR_CACHE_ROWS", 2)
        caches, lookup = [], dotgate.env._step_propagators

        def spied(controls, config, slots, cache):
            caches.append(cache)
            return lookup(controls, config, slots, cache)

        monkeypatch.setattr("dotgate.env._step_propagators", spied)
        rows = count_step_rows(monkeypatch)
        assert replay_bytes(schedule) == want
        assert rows == [5]
        assert [list(cache) for cache in caches] == [[np.array(c).tobytes() for c in cycle[3:]]]

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

    @settings(max_examples=60)
    @given(run_structured_controls())
    def test_schedule_and_its_array_agree_bytewise(self, controls):
        schedule = schedule_of(controls)
        array = np.asarray(schedule)
        assert array.shape == (len(controls), 3)
        assert array.tobytes() == np.array(controls, dtype=float).reshape(-1, 3).tobytes()
        with pytest.MonkeyPatch.context() as mp:
            built = count_built_controls(mp)
            assert replay_bytes(array) == replay_bytes(schedule)
        # Each replay builds the distinct rows, in first-occurrence order, in
        # one call: every distinct row starts a run where it first appears.
        distinct = b"".join(dict.fromkeys(row.tobytes() for row in array))
        assert built == [distinct, distinct]

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
                    assert report == episode_report(env)
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
        venv.reset()
        res = venv.step_continuous(np.zeros((2, 3)))
        assert res.truncated.all()
        with pytest.raises(RuntimeError, match="reset"):
            venv.step_continuous(np.zeros((2, 3)))
        venv.reset(np.array([True, True]))
        venv.step_continuous(np.zeros((2, 3)))

    def test_reset_rows_must_be_a_boolean_mask(self):
        venv = VecGateEnv(EnvConfig(), 3)
        venv.step_discrete([1, 2, 3])
        venv.step_discrete([1, 2, 3])
        for rows, message in (
            (np.array([0, 1, 0]), r"got dtype int64 and shape \(3,\)$"),
            (np.array([True, False]), r"got dtype bool and shape \(2,\)$"),
            (np.ones((3, 1), dtype=bool), r"got dtype bool and shape \(3, 1\)$"),
        ):
            message = r"^rows must be a boolean mask of shape \(3,\), " + message
            with pytest.raises(ValueError, match=message):
                venv.reset(rows)
            assert venv.steps.tolist() == [2, 2, 2]
        venv.reset(np.array([False, True, False]))
        assert venv.steps.tolist() == [2, 0, 2]

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


def assert_same_step(res, want, venv, ref):
    """Two envs' steps and episode states agree byte for byte."""
    assert res.observation.tobytes() == want.observation.tobytes()
    for name in ("reward", "terminated", "truncated"):
        assert getattr(res, name).tobytes() == getattr(want, name).tobytes()
    assert res.info.keys() == want.info.keys()
    for key, value in res.info.items():
        assert value.tobytes() == want.info[key].tobytes(), key
    assert venv.u_acc.tobytes() == ref.u_acc.tobytes()
    assert venv.controls.tobytes() == ref.controls.tobytes()


ACTION_EPS0_UP, ACTION_EPS0_DOWN = 1, 2  # base-3 digits (1, 0, 0) and (2, 0, 0)


class TestPropagatorCache:
    """``step_discrete`` reuses the step propagators of control rows an
    earlier discrete step of the same env built, with every bit unchanged."""

    def walk(self, rng, n_steps):
        """Actions that walk back and forth on the control lattice, so that
        most steps revisit a point, with random moves and holds between."""
        back_and_forth = [ACTION_EPS0_UP, ACTION_EPS0_DOWN, 0, ACTION_TUN_DOWN]
        return [
            back_and_forth[t % 4] if rng.random() < 0.6 else int(rng.integers(27))
            for t in range(n_steps)
        ]

    @pytest.mark.parametrize("mode", ["computational4", "full16"])
    @pytest.mark.parametrize("bound", [None, 3])
    def test_revisiting_episodes_equal_an_emptied_cache_stepwise(self, monkeypatch, mode, bound):
        # bound=3 forces evictions on most steps.
        if bound is not None:
            monkeypatch.setattr("dotgate.env.PROPAGATOR_CACHE_ROWS", bound)
        limit = PROPAGATOR_CACHE_ROWS if bound is None else bound
        cfg = EnvConfig(obs_mode=mode, max_steps=40, step_thresholds=(0.9, 0.95))
        env, ref = GateEnv(cfg), GateEnv(cfg)
        rows = count_step_rows(monkeypatch)
        rng = np.random.default_rng(41)
        steps = hits = 0
        for _ in range(4):
            env.reset(), ref.reset()
            for action in self.walk(rng, cfg.max_steps):
                built = len(rows)
                res = env.step_discrete([action])
                hits += len(rows) == built
                ref._propagators.clear()
                assert_same_step(res, ref.step_discrete([action]), env, ref)
                assert len(env._propagators) <= limit
                steps += 1
                if res.terminated[0] or res.truncated[0]:
                    break
            assert env.export_schedule(0).rows == ref.export_schedule(0).rows
        assert steps > 40 and hits > steps // 4, (steps, hits)

    def test_hits_and_misses_in_one_step_stay_bitwise(self, monkeypatch):
        cfg = EnvConfig()
        venv, ref = VecGateEnv(cfg, 4), VecGateEnv(cfg, 4)
        venv.reset(), ref.reset()
        rows = count_step_rows(monkeypatch)
        # Step 1: rows 0 and 3 hold the initial controls, a duplicate within
        # one step built once, and rows 1 and 2 move eps0 up and down: all
        # four miss, three distinct rows.
        # Step 2: rows 0, 1 and 2 are back at the initial controls (hits) and
        # row 3 moves (a miss), so one batch mixes both.  Step 3: rows 0 and
        # 1 reach the points rows 1 and 2 of step 1's batch built, row 2
        # holds and row 3 moves on (a miss).
        for actions, built in (([0, ACTION_EPS0_UP, ACTION_EPS0_DOWN, 0], [3]),
                               ([0, ACTION_EPS0_DOWN, ACTION_EPS0_UP, ACTION_TUN_DOWN], [1]),
                               ([ACTION_EPS0_UP, ACTION_EPS0_DOWN, 0, ACTION_EPS0_UP], [1])):
            rows.clear()
            res = venv.step_discrete(actions)
            assert rows == built
            ref._propagators.clear()
            assert_same_step(res, ref.step_discrete(actions), venv, ref)
        assert len(venv._propagators) == 5

    @pytest.mark.parametrize("k", [1, 2, 5, 8])
    def test_a_batch_builds_each_distinct_new_row_once(self, monkeypatch, k):
        # 8 rows step to k distinct new controls, each reached by 1-8 rows.
        rng = np.random.default_rng(k)
        moves = rng.choice(np.arange(1, N_ACTIONS), k, replace=False)
        actions = rng.permutation(np.append(moves, rng.choice(moves, 8 - k)))
        cfg = EnvConfig()
        venv, ref = VecGateEnv(cfg, 8), VecGateEnv(cfg, 8)
        rows = count_step_rows(monkeypatch)
        res = venv.step_discrete(actions)
        assert rows == [k]
        assert len(venv._propagators) == k
        ref._propagators.clear()
        assert_same_step(res, ref.step_discrete(actions), venv, ref)
        # A row built for several rows equals the row's own one-row build.
        for row, action in enumerate(actions.tolist()):
            env = GateEnv(cfg)
            env.step_discrete([action])
            assert venv.u_acc[row].tobytes() == env.u_acc[0].tobytes()
            assert venv.observation[row].tobytes() == env.observation[0].tobytes()

    def test_the_oldest_rows_are_dropped_past_the_bound(self, monkeypatch):
        monkeypatch.setattr("dotgate.env.PROPAGATOR_CACHE_ROWS", 5)
        cfg = EnvConfig(max_steps=200)
        venv = VecGateEnv(cfg, 3)
        venv.reset()
        rng = np.random.default_rng(42)
        kept = {}  # the keys in insertion order, as the cache must hold them
        for _ in range(60):
            res = venv.step_discrete(rng.integers(27, size=3))
            for row in venv.controls:
                kept.setdefault(row.tobytes(), None)
            while len(kept) > 5:
                del kept[next(iter(kept))]
            assert list(venv._propagators) == list(kept)
            if (res.terminated | res.truncated).any():
                venv.reset(res.terminated | res.truncated)
        assert len(kept) == 5

    def test_reset_keeps_it_and_envs_do_not_share_it(self):
        env = GateEnv()
        assert "_propagators" not in env._initial
        env.reset()
        env.step_discrete([ACTION_EPS0_UP])
        env.reset()
        assert list(env._propagators) == [np.array([171.0, 70.0, 2.5]).tobytes()]
        assert not GateEnv()._propagators

    def test_signed_zeros_are_different_keys(self, monkeypatch):
        # A move down from tunnel 0.0 is clipped to the lower bound -0.0 and a
        # hold then adds +0.0, which gives +0.0: two keys for equal values.
        env = GateEnv(EnvConfig(tun_init=0.0, tun_bounds=(-0.0, 5.0)))
        env.reset()
        rows = count_step_rows(monkeypatch)
        tunnel = []
        for action in (ACTION_TUN_DOWN, 0, ACTION_TUN_DOWN, 0):
            env.step_discrete([action])
            tunnel.append(env.controls[0, 2].tobytes())
        assert tunnel == [np.array(x).tobytes() for x in (-0.0, 0.0, -0.0, 0.0)]
        assert rows == [1, 1]
        assert len(env._propagators) == 2

    def test_continuous_steps_leave_it_empty(self):
        venv = VecGateEnv(EnvConfig(), 2)
        venv.reset()
        for _ in range(3):
            venv.step_continuous(np.zeros((2, 3)))
        assert not venv._propagators

    def test_a_failing_build_leaves_it_as_it_was(self, monkeypatch):
        venv = VecGateEnv(EnvConfig(), 3)
        venv.step_discrete([0, 0, 0])
        kept = dict(venv._propagators)
        steps = venv.steps

        def fail(h, dt):
            raise np.linalg.LinAlgError("no convergence")

        monkeypatch.setattr(sim, "step_unitaries", fail)
        # Row 0 holds (a hit); rows 1 and 2 move (misses, built together).
        with pytest.raises(np.linalg.LinAlgError, match="no convergence"):
            venv.step_discrete([0, ACTION_EPS0_UP, ACTION_TUN_DOWN])
        assert list(venv._propagators) == list(kept)
        assert all(venv._propagators[key] is u for key, u in kept.items())
        assert venv.steps is steps


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


@st.composite
def boxed_walks(draw):
    """An ``EnvConfig`` with a random control box inside the physical bounds
    (``tun_bounds=(-0.0, 5.0)`` among them), start point and step sizes up
    to 1e300, the number of rows, and a walk of up to ``max_steps`` steps,
    each a discrete action index or a continuous action up to +-1e300 per
    row."""

    def box(lo, hi):
        edge = st.one_of(st.sampled_from([lo, hi, -0.0, 0.0]), st.floats(lo, hi))
        a, b = sorted((draw(edge), draw(edge)))
        assume(a < b)
        return a, b

    eps_bounds = box(*sim.EPS_BOUNDS)
    tun_bounds = (-0.0, 5.0) if draw(st.booleans()) else box(-0.0, 5.0)
    eps_init = tuple(draw(st.floats(*eps_bounds)) for _ in range(2))
    size = st.floats(0.0, 1e300, exclude_min=True)
    cfg = EnvConfig(
        eps_init=eps_init, tun_init=draw(st.floats(*tun_bounds)),
        eps_bounds=eps_bounds, tun_bounds=tun_bounds,
        max_steps=draw(st.integers(1, 12)),
        step_sizes=tuple(draw(size) for _ in range(3)),
        step_thresholds=(0.4, 0.5),  # below f_terminal, so all three sizes act
    )
    n = draw(st.integers(1, 3))
    action = st.one_of(
        st.lists(st.integers(0, 26), min_size=n, max_size=n),
        st.lists(st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3),
                 min_size=n, max_size=n),
    )
    return cfg, n, draw(st.lists(action, max_size=cfg.max_steps))


class TestInvariants:
    @settings(max_examples=150)
    @given(boxed_walks())
    # With this box the continuous map sends an action of 1 one ulp past 750.
    @example((EnvConfig(eps_bounds=(-641.88, 750.0)), 1, [[[1.0, 1.0, 1.0]]]))
    def test_every_stepped_control_row_passes_validation(self, walk):
        # The action maps are the only way controls reach a step, so the
        # rows they produce are all the rows any step builds.
        cfg, n, actions = walk
        venv = VecGateEnv(cfg, n)
        for action in actions:
            step = venv.step_continuous if isinstance(action[0], list) else venv.step_discrete
            res = step(action)
            for row in venv.controls:
                sim.HamiltonianParams(row, cfg.u, cfg.ez).validate()
            done = res.terminated | res.truncated
            if done.any():
                venv.reset(done)

    def test_control_containment_fuzz(self):
        rng = np.random.default_rng(21)
        env = GateEnv()
        env.reset()
        cfg = env.config
        for _ in range(10_000):
            res = env.step_discrete([int(rng.integers(27))])
            assert cfg.eps_bounds[0] <= env.controls[0, 0] <= cfg.eps_bounds[1]
            assert cfg.eps_bounds[0] <= env.controls[0, 1] <= cfg.eps_bounds[1]
            assert cfg.tun_bounds[0] <= env.controls[0, 2] <= cfg.tun_bounds[1]
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
        got = venv._observations(None, u, report.fidelity)
        want = oracle_observation(venv, u, report.fidelity)
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[0, 0]) and np.signbit(got[1, 1])
