"""Minimal neural machinery for the learning agents.

A fixed-topology multilayer perceptron (two tanh hidden layers of 64,
linear output) with hand-written reverse-mode gradients, an Adam
optimizer, and the small loss / log-density functions the agents need.
Everything is plain numpy.

A learner keeps all its trainable entries in one contiguous float64
vector, so one Adam call updates everything.  ``LiveRows`` builds that
vector, hands the networks back from it and takes the Adam steps.  A
network's first layer is trained only in the rows of its *live inputs*,
the observation entries that can be nonzero: [W1[live], W2, W3, b1, b2,
b3].  The other inputs are exact zeros on every call, so their W1 rows
would get a +-0 gradient, Adam would keep their moments at 0, and they
would never move; they stay at their ``init_mlp`` values.  ``LiveRows``
owns the live rows: its gradient views (``LiveGradients``) carry their
indices, and ``backward`` writing into them gathers the cached input at
those indices.  The backward never reads W1, so the network itself is not
narrowed, and the first-layer gradient rows are the same products as the
full-width ones, so leaving the dead rows out changes no bit of a run.
The forward stays full width: a narrowed ``x[live] @ W1[live]`` sums in a
different order and is not bitwise equal.  Checkpoints hold the full
networks.

The packed vector is the one place a learner's parameters live, and a
gradient buffer of the same layout is the one place its gradient lives.
``LiveRows.grads`` are views of that buffer, one per part; ``backward``
(and the agents' losses) write each gradient straight into them through
its ``out`` argument, and ``LiveRows.update`` has ``adam_update`` step
the vector in place from the buffer, with no re-packing.  The networks
``LiveRows`` hands out are built once: every array but W1 is a view of
the vector, and each W1 is a private full-width copy of the initial W1
whose live rows ``LiveRows.refresh`` rewrites from the vector after each
update.  Every holder of a network therefore sees each update at once;
nothing keeps an older copy.

``forward`` also takes a stack of one-row inputs, shape (k, 1, in_dim):
each slice runs the same one-row vector-matrix products as a lone
(in_dim,) input, so it gives the same bits, and k evaluations under the
same parameters cost one call.

The per-call functions run once or more per env step and per minibatch,
on arrays of a few to a few thousand entries, where numpy's per-call
overhead is a large part of the cost.  So they reduce through array
methods rather than the ``np.mean`` / ``np.all`` / ``np.sum`` wrappers, and
``backward`` applies the tanh derivative in place.  Each such form runs the
same floating-point operations in the same order as the plain expression,
so every result is bit for bit the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HIDDEN = 64
CHECKPOINT_FORMAT_VERSION = 1

# Adam's fixed constants (Kingma & Ba's defaults); the rate is per learner.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class MlpParameters:
    """Weights and biases of the (in, 64, 64, out) network, or their
    gradients."""

    weights: tuple[np.ndarray, np.ndarray, np.ndarray]
    biases: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def as_list(self) -> list[np.ndarray]:
        return [*self.weights, *self.biases]

    @classmethod
    def from_list(cls, arrays) -> "MlpParameters":
        return cls(weights=tuple(arrays[:3]), biases=tuple(arrays[3:]))


@dataclass(frozen=True)
class LiveGradients(MlpParameters):
    """A network's gradient arrays in ``LiveRows.grads``: the first layer's
    rows of the inputs ``live`` alone, then every other array whole."""

    live: np.ndarray


@dataclass
class AdamState:
    """First/second moment accumulators, scratch space and the rate schedule;
    the betas and epsilon are the module's ``ADAM_*`` constants.

    ``m`` and ``v`` have the shape of the parameter array, ``scratch`` holds
    two such buffers; all three are overwritten by every ``adam_update``.
    """

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray
    t: int = 0
    lr: float = 0.001
    lr_decay: float = 0.01


def init_mlp(in_dim: int, out_dim: int, seed: int) -> MlpParameters:
    """Glorot-uniform weights, zero biases, from a seeded generator."""
    if in_dim < 1 or out_dim < 1:
        raise ValueError(f"dims must be >= 1, got in={in_dim}, out={out_dim}")
    rng = np.random.default_rng(seed)
    sizes = [in_dim, HIDDEN, HIDDEN, out_dim]
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParameters(weights=tuple(weights), biases=tuple(biases))


def forward(p: MlpParameters, x: np.ndarray):
    """y = W3.tanh(W2.tanh(W1 x + b1) + b2) + b3; cache feeds backward.

    Accepts a single input vector, a (batch, in_dim) matrix or a stack of
    (1, in_dim) rows, whose slices are bitwise the single-vector results.
    """
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("non-finite network input")
    if x.shape[-1] != p.in_dim:
        raise ValueError(f"input dim {x.shape[-1]} != network in_dim {p.in_dim}")
    w1, w2, w3 = p.weights
    b1, b2, b3 = p.biases
    h1 = np.tanh(x @ w1 + b1)
    h2 = np.tanh(h1 @ w2 + b2)
    y = h2 @ w3 + b3
    return y, (x, h1, h2)


def backward(p: MlpParameters, cache, dL_dy: np.ndarray, out=None) -> MlpParameters:
    """Exact reverse-mode gradients; batched inputs sum over the batch.

    With no ``out``, fresh full-width arrays are allocated.  With ``out``, a
    network's ``LiveGradients`` in ``LiveRows.grads``, each gradient is
    written into its array there and ``out`` is returned; the first layer
    gets the rows of ``out.live`` alone, the same products as those rows of
    the full-width gradient, so the bits are the same.
    """
    x, h1, h2 = cache
    dL_dy = np.asarray(dL_dy, dtype=float)
    if dL_dy.shape != (*x.shape[:-1], p.out_dim):
        raise ValueError(f"dL_dy shape {dL_dy.shape} inconsistent with cache")
    if out is not None:
        # dW1 holds the live rows alone.  Gathering before a 1-D row is
        # promoted hands matmul a contiguous row; its bits can depend on strides.
        x = x[..., out.live]
    _, w2, w3 = p.weights
    dw1, dw2, dw3, db1, db2, db3 = [None] * 6 if out is None else out.as_list()

    batched = x.ndim == 2
    x2 = x if batched else x[None, :]
    h1_2 = h1 if batched else h1[None, :]
    h2_2 = h2 if batched else h2[None, :]
    g = dL_dy if batched else dL_dy[None, :]

    dw3 = np.matmul(h2_2.T, g, out=dw3)
    db3 = g.sum(axis=0, out=db3)
    g = _through_tanh(g @ w3.T, h2_2)
    dw2 = np.matmul(h1_2.T, g, out=dw2)
    db2 = g.sum(axis=0, out=db2)
    g = _through_tanh(g @ w2.T, h1_2)
    dw1 = np.matmul(x2.T, g, out=dw1)
    db1 = g.sum(axis=0, out=db1)
    if out is not None:
        return out
    return MlpParameters(weights=(dw1, dw2, dw3), biases=(db1, db2, db3))


def _through_tanh(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """g * (1 - h**2), the gradient g through tanh outputs h, computed in
    place in ``g`` with one temporary: the same ufuncs in the same order."""
    d = np.square(h)
    np.subtract(1.0, d, out=d)
    g *= d
    return g


def pack(arrays) -> np.ndarray:
    """The arrays' entries, each raveled in C order, as one fresh vector."""
    return np.concatenate(arrays, axis=None, dtype=float)


def unpack(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views of consecutive runs of ``flat`` with the given shapes.

    The inverse of ``pack``: ``unpack(pack(arrays), [a.shape for a in
    arrays])`` holds the arrays' values.
    """
    views = []
    start = 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(flat[start:stop].reshape(shape))
        start = stop
    if start != flat.size:
        raise ValueError(f"shapes hold {start} entries, vector has {flat.size}")
    return views


class LiveRows:
    """The trainable entries of networks and plain arrays as one vector,
    with its gradient buffer and Adam state.

    ``parts`` are the initial values, in packing order: networks, which
    contribute [W1[live], W2, W3, b1, b2, b3], and plain arrays, which
    contribute all their entries.  ``flat`` holds those entries, and
    ``parts`` becomes the networks and arrays built on it: plain arrays and
    every network array but W1 are views of ``flat``; each W1 is a copy of
    the initial W1, whose dead rows keep their values (see the module
    docstring) and whose live rows ``refresh`` rewrites from ``flat``.
    ``grads`` are views of the gradient buffer in the order of ``parts``:
    for a network, a ``LiveGradients`` of [W1[live], W2, W3, b1, b2, b3]
    gradients that carries ``live`` (``backward``'s ``out``), and for a
    plain array, one array of its shape.  Callers write a gradient there,
    then ``update`` takes one Adam step from it at rate ``lr`` decayed by
    ``lr_decay``.
    """

    def __init__(self, parts, live, lr: float, lr_decay: float):
        self.live = live
        trainable = []
        for part in parts:
            if isinstance(part, MlpParameters):
                w1, w2, w3 = part.weights
                trainable += [w1[live], w2, w3, *part.biases]
            else:
                trainable.append(part)
        self.flat = pack(trainable)
        self._grad = np.zeros_like(self.flat)
        self.adam = init_adam([self.flat], lr=lr, lr_decay=lr_decay)
        shapes = [a.shape for a in trainable]
        views = iter(unpack(self.flat, shapes))
        grad_views = iter(unpack(self._grad, shapes))
        self.parts = []
        self.grads = []
        self._w1_rows = []
        for part in parts:
            if isinstance(part, MlpParameters):
                w1 = part.weights[0].copy()
                w1_live, w2, w3, b1, b2, b3 = (next(views) for _ in range(6))
                self._w1_rows.append((w1, w1_live))
                part = MlpParameters((w1, w2, w3), (b1, b2, b3))
                g = [next(grad_views) for _ in range(6)]
                grad = LiveGradients(tuple(g[:3]), tuple(g[3:]), live)
            else:
                part = next(views)
                grad = next(grad_views)
            self.parts.append(part)
            self.grads.append(grad)

    def update(self) -> None:
        """One in-place Adam step on ``flat`` from the gradient its callers
        wrote into ``grads``, then ``refresh``."""
        adam_update([self.flat], [self._grad], self.adam)
        self.refresh()

    def refresh(self) -> None:
        """Write ``flat``'s live first-layer rows into each network's W1."""
        for w1, rows in self._w1_rows:
            w1[self.live] = rows


def _only(arrays, what: str) -> np.ndarray:
    if len(arrays) != 1:
        raise ValueError(f"expected one packed {what} array, got {len(arrays)}")
    return arrays[0]


def init_adam(arrays, lr: float = 0.001, lr_decay: float = 0.01) -> AdamState:
    """Fresh zero-moment state for ``[params]``, one (packed) parameter array."""
    shape = np.shape(_only(arrays, "parameter"))
    return AdamState(
        m=np.zeros(shape), v=np.zeros(shape), scratch=np.empty((2, *shape)),
        lr=lr, lr_decay=lr_decay,
    )


def adam_update(arrays, grads, s: AdamState) -> None:
    """One bias-corrected Adam step (Kingma & Ba, arXiv:1412.6980), in place.

    ``arrays`` and ``grads`` are one-element lists holding the packed
    parameters and their gradient (``benchmarks/tracing.py`` counts the
    updated entries as the sizes of the items of ``arrays``).  Effective
    rate decays as lr / (1 + lr_decay * updates_so_far).  The new
    parameters are written into ``arrays[0]``, and ``s`` has its moments
    and step count advanced.  The arithmetic is the textbook expression,
    operation for operation, so the result does not depend on how the
    parameters were packed.
    """
    a = _only(arrays, "parameter")
    g = _only(grads, "gradient")
    if not np.isfinite(g).all():
        raise ValueError(f"non-finite gradient (max |g| = {np.max(np.abs(g))})")
    t = s.t + 1
    lr_t = s.lr / (1.0 + s.lr_decay * (t - 1))
    m, v, (tmp, step) = s.m, s.v, s.scratch
    # m = beta1 * m + (1 - beta1) * g, and the same for v on g**2, in place.
    np.multiply(ADAM_BETA1, m, out=m)
    np.multiply(1.0 - ADAM_BETA1, g, out=tmp)
    np.add(m, tmp, out=m)
    np.multiply(ADAM_BETA2, v, out=v)
    np.square(g, out=tmp)
    np.multiply(1.0 - ADAM_BETA2, tmp, out=tmp)
    np.add(v, tmp, out=v)
    # a -= lr_t * m_hat / (sqrt(v_hat) + eps)
    np.divide(v, 1.0 - ADAM_BETA2**t, out=tmp)
    np.sqrt(tmp, out=tmp)
    np.add(tmp, ADAM_EPS, out=tmp)
    np.divide(m, 1.0 - ADAM_BETA1**t, out=step)
    np.multiply(lr_t, step, out=step)
    np.divide(step, tmp, out=step)
    np.subtract(a, step, out=a)
    s.t = t


def mse_loss(pred: np.ndarray, target: np.ndarray):
    """Mean squared error and its gradient w.r.t. pred."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    # np.mean is this sum divided by the count, without the wrapper.
    loss = float(np.square(diff).sum() / diff.size)
    return loss, 2.0 * diff / diff.size


def gaussian_logprob(mean: np.ndarray, log_std: np.ndarray, sample: np.ndarray):
    """Diagonal Gaussian log-density with analytic gradients.

    Broadcasts over leading batch dimensions; the distribution axis is the
    last one.  Returns (logp, d_logp/d_mean, d_logp/d_log_std).
    """
    mean = np.asarray(mean, dtype=float)
    log_std = np.asarray(log_std, dtype=float)
    sample = np.asarray(sample, dtype=float)
    std = np.exp(log_std)
    z = (sample - mean) / std
    z2 = np.square(z)
    logp = (-0.5 * z2 - log_std - 0.5 * LOG_2PI).sum(axis=-1)
    d_mean = z / std
    # z has the broadcast shape of all three inputs, as d_mean does, so this
    # is a fresh array of d_mean's shape.
    d_log_std = z2 - 1.0
    return logp, d_mean, d_log_std


def save_checkpoint(path, networks: dict, extras: dict | None = None) -> None:
    """Write named networks (and extra flat arrays) to a versioned .npz."""
    payload = {"format_version": np.array(CHECKPOINT_FORMAT_VERSION)}
    for name, p in networks.items():
        for i, w in enumerate(p.weights):
            payload[f"{name}__w{i}"] = w
        for i, b in enumerate(p.biases):
            payload[f"{name}__b{i}"] = b
    for name, arr in (extras or {}).items():
        payload[f"extra__{name}"] = arr
    np.savez(path, **payload)


def load_checkpoint(path):
    """Read back networks and extras written by save_checkpoint."""
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        names = {k.split("__")[0] for k in data.files if "__w0" in k}
        networks = {}
        for name in names:
            networks[name] = MlpParameters(
                weights=tuple(data[f"{name}__w{i}"] for i in range(3)),
                biases=tuple(data[f"{name}__b{i}"] for i in range(3)),
            )
        extras = {
            k[len("extra__"):]: data[k] for k in data.files if k.startswith("extra__")
        }
    return networks, extras
