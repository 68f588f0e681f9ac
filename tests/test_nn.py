"""Network forward/backward, Adam, and the loss/log-density functions."""

import tracemalloc

import numpy as np
import pytest

from dotgate import nn
from helpers import (
    finite_diff_check,
    reference_backward,
    reference_gaussian_logprob,
    reference_mse_loss,
    stacked_forward,
)


def zero_params(in_dim, out_dim, hidden=64):
    weights = (
        np.zeros((in_dim, hidden)),
        np.zeros((hidden, hidden)),
        np.zeros((hidden, out_dim)),
    )
    biases = (np.zeros(hidden), np.zeros(hidden), np.zeros(out_dim))
    return nn.MlpParameters(weights=weights, biases=biases)


class TestInit:
    def test_deterministic(self):
        a = nn.init_mlp(33, 27, seed=5)
        b = nn.init_mlp(33, 27, seed=5)
        for x, y in zip(a.as_list(), b.as_list()):
            assert np.array_equal(x, y)

    def test_topology(self):
        p = nn.init_mlp(33, 27, seed=0)
        assert [w.shape for w in p.weights] == [(33, 64), (64, 64), (64, 27)]
        assert [b.shape for b in p.biases] == [(64,), (64,), (27,)]
        assert all(np.all(b == 0) for b in p.biases)

    def test_glorot_bound(self):
        p = nn.init_mlp(33, 27, seed=1)
        assert np.max(np.abs(p.weights[0])) <= np.sqrt(6.0 / 97)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            nn.init_mlp(0, 5, seed=0)


class TestForward:
    def test_zero_params_zero_output(self):
        p = zero_params(4, 3)
        y, _ = nn.forward(p, np.ones(4))
        assert np.all(y == 0)

    def test_output_bias_passthrough(self):
        p = zero_params(4, 3)
        p.biases[2][:] = [1.0, -2.0, 0.5]
        y, _ = nn.forward(p, np.ones(4))
        assert np.array_equal(y, [1.0, -2.0, 0.5])

    def test_matches_independent_arithmetic(self):
        rng = np.random.default_rng(30)
        p = nn.init_mlp(6, 4, seed=31)
        x = rng.normal(size=6)
        y, _ = nn.forward(p, x)
        # independently coded with einsum and explicit loops over layers
        h = x
        for w, b in zip(p.weights[:2], p.biases[:2]):
            h = np.tanh(np.einsum("i,ij->j", h, w) + b)
        oracle = np.einsum("i,ij->j", h, p.weights[2]) + p.biases[2]
        assert np.max(np.abs(y - oracle)) < 1e-12

    def test_batched_matches_single(self):
        rng = np.random.default_rng(32)
        p = nn.init_mlp(5, 3, seed=33)
        xs = rng.normal(size=(7, 5))
        ys, _ = nn.forward(p, xs)
        for i in range(7):
            yi, _ = nn.forward(p, xs[i])
            # gemm vs gemv may differ in the last ulp
            assert np.max(np.abs(ys[i] - yi)) < 1e-12

    @pytest.mark.parametrize("in_dim", [33, 513])
    @pytest.mark.parametrize("out_dim", [27, 3, 1])
    def test_stacked_rows_equal_one_row_forwards_bitwise(self, in_dim, out_dim):
        rng = np.random.default_rng(in_dim + out_dim)
        p = nn.init_mlp(in_dim, out_dim, seed=37)
        stack = rng.uniform(-1.0, 1.0, size=(2, 1, in_dim))
        y, cache = nn.forward(p, stack)
        assert y.shape == (2, 1, out_dim)
        for k in range(2):
            y_row, cache_row = nn.forward(p, stack[k, 0].copy())
            assert y[k, 0].tobytes() == y_row.tobytes()
            for got, want in zip(cache, cache_row):
                assert got[k, 0].tobytes() == want.tobytes()

    def test_purity(self):
        p = nn.init_mlp(5, 3, seed=34)
        before = [a.copy() for a in p.as_list()]
        nn.forward(p, np.ones(5))
        for a, b in zip(p.as_list(), before):
            assert np.array_equal(a, b)

    def test_saturation_safety(self):
        p = nn.init_mlp(5, 3, seed=35)
        y, _ = nn.forward(p, np.full(5, 1e3))
        assert np.all(np.isfinite(y))

    def test_non_finite_input_rejected(self):
        p = nn.init_mlp(5, 3, seed=36)
        with pytest.raises(ValueError):
            nn.forward(p, np.array([1.0, np.nan, 0, 0, 0]))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        p = nn.init_mlp(5, 3, seed=40)
        _, cache = nn.forward(p, np.ones(5))
        g = nn.backward(p, cache, np.zeros(3))
        assert all(np.all(a == 0) for a in g.as_list())

    def test_single_linear_layer_hand_derivative(self):
        # zero hidden weights make the network y = b3 + 0; instead route a
        # pure linear check through the output layer with identity-ish path
        p = zero_params(1, 1)
        # open a linear path: tanh'(0) = 1, so tiny weights act linearly
        p.weights[0][0, 0] = 1.0
        p.weights[1][0, 0] = 1.0
        p.weights[2][0, 0] = 1.0
        x = np.array([1e-6])
        _, cache = nn.forward(p, x)
        g = nn.backward(p, cache, np.array([1.0]))
        # d y / d b3 = 1 exactly; d y / d w3 = h2 ~ x
        assert g.biases[2][0] == 1.0
        assert g.weights[2][0, 0] == pytest.approx(1e-6, rel=1e-3)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(41)
        for trial in range(3):
            in_dim = int(rng.integers(3, 8))
            out_dim = int(rng.integers(2, 6))
            p = nn.init_mlp(in_dim, out_dim, seed=42 + trial)
            x = rng.normal(size=in_dim)
            w = rng.normal(size=out_dim)
            finite_diff_check(p, x, w)

    def test_stacked_forward_matches_forward(self):
        rng = np.random.default_rng(45)
        nets = [nn.init_mlp(5, 3, seed=46 + k) for k in range(4)]
        nets = [
            nn.MlpParameters.from_list([a + rng.normal(size=a.shape) for a in p.as_list()])
            for p in nets
        ]
        x = rng.normal(size=5)
        stack = [np.stack(arrays) for arrays in zip(*(p.as_list() for p in nets))]
        y = stacked_forward(stack, x)
        for p, row in zip(nets, y):
            expected, _ = nn.forward(p, x)
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [None, 1, 8, 64])
    @pytest.mark.parametrize("obs_mode, out_dim", [("full16", 27), ("computational4", 3),
                                                   ("computational4", 1)])
    def test_out_equals_allocated_bitwise(self, rows, obs_mode, out_dim):
        rng = np.random.default_rng(47 + out_dim)
        live, x = live_inputs(obs_mode, rng, rows)
        p = nn.init_mlp(x.shape[-1], out_dim, seed=48)
        trainable = nn.LiveRows([p], live, 0.001, 0.0)
        (out,) = trainable.grads
        _, cache = nn.forward(p, x)
        dy = rng.normal(size=(*x.shape[:-1], out_dim))
        assert out.live is live
        want = nn.backward(p, cache, dy)
        got = nn.backward(p, cache, dy, out=out)
        assert got is out
        assert as_bytes(*got.as_list()) == as_bytes(want.weights[0][live], *want.as_list()[1:])

    def test_wrongly_shaped_out_rejected(self):
        rng = np.random.default_rng(49)
        live, x = live_inputs("computational4", rng, 8)
        p = nn.init_mlp(x.shape[-1], 3, seed=50)
        _, cache = nn.forward(p, x)
        dy = rng.normal(size=(8, 3))
        # A plain MlpParameters names no live rows to gather.
        full_width = nn.MlpParameters.from_list([np.empty_like(a) for a in p.as_list()])
        with pytest.raises(AttributeError, match="live"):
            nn.backward(p, cache, dy, out=full_width)
        other_net = nn.init_mlp(x.shape[-1], 1, seed=50)
        (wrong_out_dim,) = nn.LiveRows([other_net], live, 0.001, 0.0).grads
        with pytest.raises(ValueError):
            nn.backward(p, cache, dy, out=wrong_out_dim)
        # The W1 rows must be those of the live inputs it names.
        (out,) = nn.LiveRows([p], live, 0.001, 0.0).grads
        w1, w2, w3 = out.weights
        fewer_rows = nn.LiveGradients((w1[1:], w2, w3), out.biases, live)
        with pytest.raises(ValueError):
            nn.backward(p, cache, dy, out=fewer_rows)

    def test_batched_gradients_sum(self):
        rng = np.random.default_rng(43)
        p = nn.init_mlp(4, 2, seed=44)
        xs = rng.normal(size=(5, 4))
        dys = rng.normal(size=(5, 2))
        _, cache = nn.forward(p, xs)
        g_batch = nn.backward(p, cache, dys)
        acc = [np.zeros_like(a) for a in g_batch.as_list()]
        for i in range(5):
            _, c = nn.forward(p, xs[i])
            g = nn.backward(p, c, dys[i])
            for a, b in zip(acc, g.as_list()):
                a += b
        for a, b in zip(acc, g_batch.as_list()):
            assert np.max(np.abs(a - b)) < 1e-12


def packed(p) -> np.ndarray:
    return nn.pack(p.as_list())


def unpacked(flat: np.ndarray, like: nn.MlpParameters) -> nn.MlpParameters:
    return nn.MlpParameters.from_list(nn.unpack(flat, [a.shape for a in like.as_list()]))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = nn.init_mlp(4, 2, seed=50)
        flat = packed(p)
        s = nn.init_adam([flat])
        zeros = nn.MlpParameters(
            weights=tuple(np.zeros_like(w) for w in p.weights),
            biases=tuple(np.zeros_like(b) for b in p.biases),
        )
        nn.adam_update([flat], [packed(zeros)], s)
        p2 = unpacked(flat, p)
        assert s.t == 1
        for a, b in zip(p.as_list(), p2.as_list()):
            assert np.array_equal(a, b)

    def test_scalar_hand_computation(self):
        theta = np.array([0.0])
        s = nn.init_adam([theta], lr=0.001, lr_decay=0.0)
        nn.adam_update([theta], [np.array([2.0])], s)
        # m_hat = 2, v_hat = 4 -> step = 0.001 * 2 / (2 + 1e-8)
        assert theta[0] == pytest.approx(-0.001, rel=1e-6)

    def test_bitwise_determinism(self):
        outs = []
        for _ in range(2):
            p = nn.init_mlp(4, 2, seed=51)
            flat = packed(p)
            p = unpacked(flat, p)
            s = nn.init_adam([flat])
            rng = np.random.default_rng(52)
            for _ in range(10):
                x = rng.normal(size=4)
                y, cache = nn.forward(p, x)
                loss, dy = nn.mse_loss(y, np.zeros(2))
                g = packed(nn.backward(p, cache, dy))
                nn.adam_update([flat], [g], s)
            outs.append([a.tobytes() for a in p.as_list()])
        assert outs[0] == outs[1]

    def test_descends_quadratic(self):
        rng = np.random.default_rng(53)
        theta = rng.normal(size=10)
        s = nn.init_adam([theta], lr=0.01, lr_decay=0.0)
        for _ in range(1000):
            nn.adam_update([theta], [2.0 * theta], s)
        assert np.linalg.norm(theta) < 1e-2

    def test_lr_decay_shrinks_steps(self):
        theta = np.array([0.0])
        s = nn.init_adam([theta], lr=0.001, lr_decay=0.5)
        nn.adam_update([theta], [np.array([1.0])], s)
        t1 = theta[0]
        nn.adam_update([theta], [np.array([1.0])], s)
        step1, step2 = abs(t1), abs(theta[0] - t1)
        assert step2 < step1

    def test_non_finite_gradient_rejected(self):
        theta = np.array([0.0])
        s = nn.init_adam([theta])
        with pytest.raises(ValueError, match="non-finite"):
            nn.adam_update([theta], [np.array([np.nan])], s)
        assert theta[0] == 0.0 and s.t == 0

    def test_more_than_one_array_rejected(self):
        theta = np.zeros(2)
        with pytest.raises(ValueError, match="one packed parameter array, got 2"):
            nn.init_adam([theta, theta])
        s = nn.init_adam([theta])
        with pytest.raises(ValueError, match="one packed gradient array, got 2"):
            nn.adam_update([theta], [theta, theta], s)


def reference_adam(arrays, grads, m, v, t, lr, lr_decay,
                   beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam as a loop of fresh-array expressions over separate arrays.

    The oracle the packed in-place update must match bit for bit; returns
    (new_arrays, new_m, new_v, t).
    """
    t += 1
    lr_t = lr / (1.0 + lr_decay * (t - 1))
    new_arrays, new_m, new_v = [], [], []
    for a, g, m_i, v_i in zip(arrays, grads, m, v):
        m_i = beta1 * m_i + (1.0 - beta1) * g
        v_i = beta2 * v_i + (1.0 - beta2) * g**2
        m_hat = m_i / (1.0 - beta1**t)
        v_hat = v_i / (1.0 - beta2**t)
        new_arrays.append(a - lr_t * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m_i)
        new_v.append(v_i)
    return new_arrays, new_m, new_v, t


class TestPackedAdam:
    def test_pack_unpack_round_trip(self):
        arrays = [np.arange(6.0).reshape(2, 3), np.array([7.0]), np.ones((2, 1, 2))]
        flat = nn.pack(arrays)
        assert flat.shape == (11,) and flat.dtype == np.float64
        views = nn.unpack(flat, [a.shape for a in arrays])
        for a, view in zip(arrays, views):
            assert np.array_equal(a, view) and np.shares_memory(view, flat)
        with pytest.raises(ValueError, match="shapes hold 10 entries, vector has 11"):
            nn.unpack(flat, [(2, 3), (4,)])

    def test_matches_per_array_reference_bitwise(self):
        rng = np.random.default_rng(60)
        shapes = [(7, 5), (5,), (5, 3), (3,), (2, 2, 2), (1,)]
        # small entries, so that a step's last bits survive the subtraction
        arrays = [rng.normal(size=sh) * 10.0 ** rng.uniform(-6, 0, size=sh) for sh in shapes]
        m = [np.zeros(sh) for sh in shapes]
        v = [np.zeros(sh) for sh in shapes]
        t = 0
        lr, lr_decay = 0.003, 0.3
        flat = nn.pack(arrays)
        s = nn.init_adam([flat], lr=lr, lr_decay=lr_decay)
        for step in range(60):
            # magnitudes over eight decades, and about a quarter exact zeros
            grads = [
                rng.normal(size=sh) * 10.0 ** rng.uniform(-4, 4, size=sh)
                * (rng.random(sh) > 0.25)
                for sh in shapes
            ]
            nn.adam_update([flat], [nn.pack(grads)], s)
            arrays, m, v, t = reference_adam(arrays, grads, m, v, t, lr, lr_decay)
            assert s.t == t == step + 1
            for got, want in ((flat, arrays), (s.m, m), (s.v, v)):
                assert got.tobytes() == nn.pack(want).tobytes(), f"step {step}"

    def test_ppo_parts_packed_match_three_separate_states(self):
        from dotgate.agents import PpoConfig, ppo

        rng = np.random.default_rng(61)
        cfg = PpoConfig(entropy_coef=0.01)
        lr, lr_decay = cfg.lr, 0.05
        policy = nn.init_mlp(6, 3, seed=62)
        value = nn.init_mlp(6, 1, seed=63)
        log_std = np.full(3, cfg.log_std_init)
        parts = [policy.as_list(), [log_std], value.as_list()]
        states = [([np.zeros_like(a) for a in p], [np.zeros_like(a) for a in p], 0)
                  for p in parts]
        trainable = nn.LiveRows([policy, log_std, value], np.arange(6), lr, lr_decay)
        p_policy, p_log_std, p_value = trainable.parts
        flat = trainable.flat
        assert flat.tobytes() == nn.pack([a for p in parts for a in p]).tobytes()
        for step in range(50):
            n = 32
            batch = {
                "observations": rng.normal(size=(n, 6)),
                "actions": rng.normal(size=(n, 3)),
                "log_probs": rng.normal(size=n) - 3.0,
                "advantages": rng.normal(size=n),
                "returns": rng.normal(size=n),
            }
            _, (g_p, g_ls, g_v) = ppo.ppo_loss(
                batch, p_policy, p_log_std, p_value, cfg, out=trainable.grads
            )
            trainable.update()
            grads = [g_p.as_list(), [g_ls], g_v.as_list()]
            for i, (arrays, gs) in enumerate(zip(parts, grads)):
                m, v, t = states[i]
                arrays, m, v, t = reference_adam(arrays, gs, m, v, t, lr, lr_decay)
                parts[i], states[i] = arrays, (m, v, t)
            want = nn.pack([a for p in parts for a in p])
            assert flat.tobytes() == want.tobytes(), f"step {step}"

    def test_update_allocates_only_its_result(self):
        from dotgate.env import N_ACTIONS

        p = nn.init_mlp(513, N_ACTIONS, seed=64)
        flat = packed(p)
        assert flat.size > 38_000
        grad = np.random.default_rng(65).normal(size=flat.size)
        s = nn.init_adam([flat])
        nn.adam_update([flat], [grad], s)
        tracemalloc.start()
        try:
            nn.adam_update([flat], [grad], s)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the isfinite mask of the gradient, one byte per entry
        assert peak < 0.2 * flat.nbytes, f"peak {peak} B for a {flat.nbytes} B vector"


def live_inputs(obs_mode: str, rng, rows=None):
    """The mode's live features and random inputs that are exact zeros at
    every other feature, as the environment's observations are."""
    from dotgate.env import EnvConfig

    cfg = EnvConfig(obs_mode=obs_mode)
    live = cfg.live_features
    x = np.zeros(cfg.obs_dim if rows is None else (rows, cfg.obs_dim))
    x[..., live] = rng.uniform(-1.0, 1.0, size=(*x.shape[:-1], len(live)))
    return live, x


class TestLiveRows:
    @pytest.mark.parametrize("obs_mode", ["computational4", "full16"])
    @pytest.mark.parametrize("rows", [None, 1, 32, 64])
    @pytest.mark.parametrize("out_dim", [27, 3, 1])
    def test_narrowed_backward_equals_full_width_rows_bitwise(self, obs_mode, rows, out_dim):
        rng = np.random.default_rng(80 + out_dim)
        live, x = live_inputs(obs_mode, rng, rows)
        p = nn.init_mlp(x.shape[-1], out_dim, seed=81)
        _, cache = nn.forward(p, x)
        dy = rng.normal(size=(*x.shape[:-1], out_dim))
        full = nn.backward(p, cache, dy)
        (grads,) = nn.LiveRows([p], live, 0.001, 0.0).grads
        gathered = nn.backward(p, cache, dy, out=grads)
        dead = np.ones(x.shape[-1], dtype=bool)
        dead[live] = False
        assert np.all(full.weights[0][dead] == 0)
        assert gathered.weights[0].tobytes() == full.weights[0][live].tobytes()
        for got, want in zip(gathered.as_list()[1:], full.as_list()[1:]):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("obs_mode, in_dim", [("computational4", 33), ("full16", 513)])
    def test_row_and_its_batch_of_one_give_the_same_bytes(self, obs_mode, in_dim):
        # train_td hands backward (1, obs_dim) slices of a stacked forward.
        rng = np.random.default_rng(82)
        live, x = live_inputs(obs_mode, rng)
        assert x.shape == (in_dim,)
        p = nn.init_mlp(in_dim, 27, seed=83)
        _, cache = nn.forward(p, x)
        dy = rng.normal(size=27)
        (row,) = nn.LiveRows([p], live, 0.001, 0.0).grads
        (batch,) = nn.LiveRows([p], live, 0.001, 0.0).grads
        nn.backward(p, cache, dy, out=row)
        nn.backward(p, tuple(a[None] for a in cache), dy[None], out=batch)
        assert as_bytes(*batch.as_list()) == as_bytes(*row.as_list())

    def test_pack_unpack(self):
        live = np.array([0, 2, 3])
        policy = nn.init_mlp(5, 3, seed=82)
        log_std = np.array([0.1, 0.2, 0.3])
        value = nn.init_mlp(5, 1, seed=83)
        init = [[a.copy() for a in x.as_list()] for x in (policy, value)]
        trainable = nn.LiveRows([policy, log_std, value], live, 0.001, 0.0)
        flat = trainable.flat
        assert flat.size == len(nn.pack([*policy.as_list(), log_std, *value.as_list()])) - 2 * 2 * 64
        parts = trainable.parts
        for got, want in zip(parts, [policy, log_std, value]):
            got, want = (x.as_list() if isinstance(x, nn.MlpParameters) else [x]
                         for x in (got, want))
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        for net, w in ((parts[0], policy), (parts[2], value)):
            w1, *rest = net.as_list()
            assert not np.shares_memory(w1, flat) and not np.shares_memory(w1, w.weights[0])
            assert all(np.shares_memory(a, flat) for a in rest)
        assert np.shares_memory(parts[1], flat)
        flat += 1.0
        trainable.refresh()
        assert np.array_equal(parts[1], log_std + 1.0)
        for net, (w1, *rest) in ((parts[0], init[0]), (parts[2], init[1])):
            assert np.array_equal(net.weights[0][[1, 4]], w1[[1, 4]])
            assert np.array_equal(net.weights[0][live], w1[live] + 1.0)
            for a, b in zip(net.as_list()[1:], rest):
                assert np.array_equal(a, b + 1.0)
        for x, want in ((policy, init[0]), (value, init[1])):
            assert all(np.array_equal(a, b) for a, b in zip(x.as_list(), want)), \
                "the initial parts were mutated"

    def test_grads_are_views_of_the_buffer_in_parts_order(self):
        live = np.array([0, 2, 3])
        policy = nn.init_mlp(5, 3, seed=86)
        log_std = np.array([0.1, 0.2, 0.3])
        value = nn.init_mlp(5, 1, seed=87)
        trainable = nn.LiveRows([policy, log_std, value], live, 0.001, 0.0)
        g_policy, g_log_std, g_value = trainable.grads
        arrays = [*g_policy.as_list(), g_log_std, *g_value.as_list()]
        assert [a.shape for a in arrays] == [
            (3, 64), (64, 64), (64, 3), (64,), (64,), (3,), (3,),
            (3, 64), (64, 64), (64, 1), (64,), (64,), (1,),
        ]
        start = 0
        for a in arrays:
            assert a.base is trainable._grad
            a[...] = np.arange(start, start + a.size).reshape(a.shape)
            start += a.size
        assert start == trainable.flat.size
        assert np.array_equal(trainable._grad, np.arange(start))

    def test_live_row_training_equals_full_width_training_bitwise(self):
        rng = np.random.default_rng(84)
        live, _ = live_inputs("full16", rng)
        init = [nn.init_mlp(513, 4, seed=85), np.zeros(2)]
        full = nn.pack([*init[0].as_list(), init[1]])
        *arrays, extra = nn.unpack(full, [a.shape for a in [*init[0].as_list(), init[1]]])
        p = nn.MlpParameters.from_list(arrays)
        s_full = nn.init_adam([full], lr=0.01, lr_decay=0.1)
        trainable = nn.LiveRows(init, live, 0.01, 0.1)
        p_live, extra_live = trainable.parts
        for step in range(30):
            rows = None if step % 2 else int(rng.integers(1, 65))
            _, x = live_inputs("full16", rng, rows)
            target = rng.normal(size=(*x.shape[:-1], 4))
            c = rng.normal(size=2)

            y, cache = nn.forward(p, x)
            _, dy = nn.mse_loss(y, target)
            g = nn.backward(p, cache, dy)
            nn.adam_update([full], [nn.pack([*g.as_list(), extra - c])], s_full)

            y, cache = nn.forward(p_live, x)
            _, dy = nn.mse_loss(y, target)
            g_net, g_extra = trainable.grads
            nn.backward(p_live, cache, dy, out=g_net)
            np.subtract(extra_live, c, out=g_extra)
            trainable.update()

        assert nn.pack([*p_live.as_list(), extra_live]).tobytes() == full.tobytes()
        dead = np.setdiff1d(np.arange(513), live)
        assert p_live.weights[0][dead].tobytes() == init[0].weights[0][dead].tobytes()
        assert not np.array_equal(p_live.weights[0][live], init[0].weights[0][live])


class TestMseLoss:
    def test_zero_at_target(self):
        loss, grad = nn.mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert np.all(grad == 0)

    def test_hand_arithmetic(self):
        loss, grad = nn.mse_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert loss == pytest.approx(0.5)
        assert np.allclose(grad, [1.0, 0.0])

    def test_nonnegative(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            loss, _ = nn.mse_loss(rng.normal(size=6), rng.normal(size=6))
            assert loss >= 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            nn.mse_loss(np.zeros(3), np.zeros(4))


class TestGaussianLogprob:
    def test_closed_form_at_mean(self):
        mean = np.zeros(3)
        logp, _, _ = nn.gaussian_logprob(mean, np.zeros(3), mean)
        assert logp == pytest.approx(-1.5 * np.log(2 * np.pi), abs=1e-12)

    def test_mean_gradient_zero_at_mode(self):
        mean = np.array([0.3, -1.2, 4.0])
        _, d_mean, _ = nn.gaussian_logprob(mean, np.zeros(3), mean)
        assert np.all(d_mean == 0)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(55)
        h = 1e-6
        for _ in range(20):
            mean = rng.normal(size=3)
            log_std = rng.normal(size=3, scale=0.5)
            x = rng.normal(size=3)
            logp, d_mean, d_log_std = nn.gaussian_logprob(mean, log_std, x)
            for k in range(3):
                em = np.zeros(3)
                em[k] = h
                fd_m = (
                    nn.gaussian_logprob(mean + em, log_std, x)[0]
                    - nn.gaussian_logprob(mean - em, log_std, x)[0]
                ) / (2 * h)
                fd_s = (
                    nn.gaussian_logprob(mean, log_std + em, x)[0]
                    - nn.gaussian_logprob(mean, log_std - em, x)[0]
                ) / (2 * h)
                assert fd_m == pytest.approx(d_mean[k], rel=1e-6, abs=1e-8)
                assert fd_s == pytest.approx(d_log_std[k], rel=1e-6, abs=1e-8)

    def test_batched_shapes(self):
        rng = np.random.default_rng(56)
        mean = rng.normal(size=(10, 3))
        x = rng.normal(size=(10, 3))
        logp, d_mean, d_log_std = nn.gaussian_logprob(mean, np.zeros(3), x)
        assert logp.shape == (10,)
        assert d_mean.shape == (10, 3)
        assert d_log_std.shape == (10, 3)


def as_bytes(*arrays) -> list[bytes]:
    return [np.asarray(a).tobytes() for a in arrays]


class TestMatchesReferenceExpressions:
    """The in-place and wrapper-free forms give the bytes of the plain
    expressions kept in ``helpers``."""

    @pytest.mark.parametrize("rows", [1, 8, 64])
    @pytest.mark.parametrize("in_dim, out_dim", [(33, 3), (13, 1), (73, 27)])
    def test_backward(self, rows, in_dim, out_dim):
        rng = np.random.default_rng(rows * 1000 + in_dim)
        p = nn.init_mlp(in_dim, out_dim, seed=rows)
        for x in (rng.normal(size=(rows, in_dim)), rng.normal(size=in_dim)):
            y, cache = nn.forward(p, x)
            dy = rng.normal(size=y.shape)
            got = nn.backward(p, cache, dy).as_list()
            want = reference_backward(p, cache, dy).as_list()
            assert as_bytes(*got) == as_bytes(*want)

    @pytest.mark.parametrize("rows", [1, 8, 64])
    def test_gaussian_logprob(self, rows):
        rng = np.random.default_rng(rows)
        mean = rng.normal(size=(rows, 3), scale=3.0)
        sample = mean + rng.normal(size=(rows, 3))
        for log_std in (rng.normal(size=3), rng.normal(size=(rows, 3))):
            got = nn.gaussian_logprob(mean, log_std, sample)
            assert as_bytes(*got) == as_bytes(*reference_gaussian_logprob(mean, log_std, sample))

    @pytest.mark.parametrize("rows", [1, 8, 64, 1000])
    def test_mse_loss(self, rows):
        rng = np.random.default_rng(rows)
        for _ in range(20):
            pred, target = rng.normal(size=(2, rows), scale=10.0)
            loss, grad = nn.mse_loss(pred, target)
            want_loss, want_grad = reference_mse_loss(pred, target)
            assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
            assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("mean_shape, log_std_shape", [
        ((8, 3), (3,)), ((3,), (3,)), ((8, 3), (8, 3)),
    ])
    def test_log_std_gradient_is_a_fresh_array_of_the_mean_gradients_shape(
        self, mean_shape, log_std_shape
    ):
        rng = np.random.default_rng(57)
        mean = rng.normal(size=mean_shape)
        log_std = rng.normal(size=log_std_shape)
        _, d_mean, d_log_std = nn.gaussian_logprob(mean, log_std, mean + 1.0)
        assert d_log_std.shape == d_mean.shape
        assert d_log_std.flags.writeable and d_log_std.flags.owndata


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        p = nn.init_mlp(33, 27, seed=60)
        v = nn.init_mlp(33, 1, seed=61)
        extras = {"log_std": np.array([0.1, 0.2, 0.3])}
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, {"policy": p, "value": v}, extras)
        nets, ex = nn.load_checkpoint(path)
        assert set(nets) == {"policy", "value"}
        for a, b in zip(nets["policy"].as_list(), p.as_list()):
            assert np.array_equal(a, b)
        assert np.array_equal(ex["log_std"], extras["log_std"])
