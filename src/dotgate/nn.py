"""Minimal neural machinery for the learning agents.

A fixed-topology multilayer perceptron (two tanh hidden layers of 64,
linear output) with hand-written reverse-mode gradients, an Adam
optimizer, and the small loss / log-density functions the agents need.
Everything is plain numpy.

A learner keeps all its trainable entries in one contiguous float64
vector, so one Adam call updates everything.  ``LiveRows`` builds that
vector, hands the networks back from it and takes the Adam steps.  The
observation holds only the *live features*, the entries of the dense
layout that can be nonzero (``EnvConfig.live_features``), so a network's
first layer has one row per live feature.  The learners draw it with
``init_mlp`` at the dense layout's width, and ``LiveRows`` keeps its live
rows: the same Glorot draw, so the initial network is the same function of
the observation as the full-width one, whose other rows only ever met
exact zeros.  Measured with numpy 2.4.6 on OpenBLAS 0.3.31: batched
forwards give the same bits at either width, and one-row forwards, which
sum in a different order, differ at roundoff.

The packed vector is the one place a learner's parameters live, and a
gradient buffer of the same layout is the one place its gradient lives.
``LiveRows.parts`` are networks and arrays built once as views of the
vector, and ``LiveRows.grads`` views of the buffer, one per part;
``backward`` (and the agents' losses) write each gradient straight into
them through its ``out`` argument, and ``LiveRows.update`` has
``adam_update`` step the vector in place from the buffer, with no
re-packing.  Every holder of a network therefore sees each update at once;
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

``backward``'s five products go straight to BLAS through ``np.dot``.
``np.matmul`` runs a product whose inner dimension is 1, such as the outer
products of a one-row backward, in numpy's own loop rather than BLAS,
several times slower for a 64 x 64 result.  On finite inputs the two give
the same values for every shape the learners use; in a product with inner
dimension 1 an exact zero may come out -0.0 from BLAS where numpy's loop
gives +0.0.  Only ``adam_update`` reads a gradient, and its first moment
is never -0.0, so that sign reaches no parameter.  ``forward`` keeps
``@``: none of its products has inner dimension 1, so they already reach
BLAS, and a stack's one product per slice gives a lone row's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HIDDEN = 64
CHECKPOINT_FORMAT_VERSION = 2

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
    """Exact reverse-mode gradients, summed over the batch.

    ``cache`` is the (x, h1, h2) of a (batch, in_dim) forward and ``dL_dy``
    is (batch, out_dim); any other shape raises ValueError naming both.  A
    one-row forward's cache enters as a batch of one, ``a[None]``.  With no
    ``out``, fresh arrays are allocated.  With ``out``, arrays of the
    gradients' shapes such as a network's ``LiveRows.grads``, each gradient
    is written into its array there and ``out`` is returned.  ``np.dot``
    writes a weight gradient only into a C-contiguous float64 array; an
    ``out`` array it cannot write into raises ValueError naming its gradient.
    """
    x, h1, h2 = cache
    g = np.asarray(dL_dy, dtype=float)
    if x.ndim != 2 or g.shape != (len(x), p.out_dim):
        raise ValueError(
            f"backward takes a (batch, in_dim) cache and (batch, {p.out_dim}) dL_dy, "
            f"got x {x.shape} and dL_dy {g.shape}"
        )
    _, w2, w3 = p.weights
    dw1, dw2, dw3, db1, db2, db3 = [None] * 6 if out is None else out.as_list()

    try:
        dw3 = np.dot(h2.T, g, out=dw3)
        db3 = g.sum(axis=0, out=db3)
        g = _through_tanh(np.dot(g, w3.T), h2)
        dw2 = np.dot(h1.T, g, out=dw2)
        db2 = g.sum(axis=0, out=db2)
        g = _through_tanh(np.dot(g, w2.T), h1)
        dw1 = np.dot(x.T, g, out=dw1)
        db1 = g.sum(axis=0, out=db1)
    except ValueError:
        if out is not None:
            _check_out(p, out)
        raise
    if out is not None:
        return out
    return MlpParameters(weights=(dw1, dw2, dw3), biases=(db1, db2, db3))


_GRADIENT_NAMES = ("dw1", "dw2", "dw3", "db1", "db2", "db3")


def _check_out(p: MlpParameters, out: MlpParameters) -> None:
    """Raise ValueError naming the first ``out`` array ``backward`` cannot
    write its gradient into: ``np.dot`` writes a weight gradient only into
    a C-contiguous float64 array of its shape, ``.sum`` a bias gradient into
    any array of its shape.  Run only once a write has failed."""
    for name, a, like in zip(_GRADIENT_NAMES, out.as_list(), p.as_list()):
        layout = "C-contiguous" if a.flags.c_contiguous else f"strided {a.strides}"
        got = f"got a {layout} {a.dtype} {a.shape} array"
        if name.startswith("dw") and not (
            a.flags.c_contiguous and a.dtype == np.float64 and a.shape == like.shape
        ):
            raise ValueError(f"out {name} must be a C-contiguous float64 {like.shape} array, {got}")
        if a.shape != like.shape:
            raise ValueError(f"out {name} must be a {like.shape} array, {got}")


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

    ``parts`` are the initial values, in packing order: networks drawn at
    the dense layout's width, which contribute [W1[live], W2, W3, b1, b2,
    b3], and plain arrays, which contribute all their entries.  ``flat``
    holds those entries, and ``parts`` becomes the networks and arrays built
    on it, each array a view of ``flat``; a network's first layer is its
    rows ``live``.  ``grads`` are views of the gradient buffer in the same
    layout: for a network, an ``MlpParameters`` (``backward``'s ``out``),
    and for a plain array, one array of its shape.  Callers write a gradient
    there, then ``update`` takes one Adam step from it at rate ``lr``
    decayed by ``lr_decay``.
    """

    def __init__(self, parts, live, lr: float, lr_decay: float):
        trainable = []
        for part in parts:
            if isinstance(part, MlpParameters):
                w1, w2, w3 = part.weights
                trainable += [w1[live], w2, w3, *part.biases]
            else:
                trainable.append(part)
        self.flat = pack(trainable)
        self._grad = np.zeros_like(self.flat)
        self.adam = init_adam(self.flat, lr=lr, lr_decay=lr_decay)
        shapes = [a.shape for a in trainable]
        views = iter(unpack(self.flat, shapes))
        grad_views = iter(unpack(self._grad, shapes))
        self.parts = [_next_part(part, views) for part in parts]
        self.grads = [_next_part(part, grad_views) for part in parts]

    def update(self) -> None:
        """One in-place Adam step on ``flat`` from the gradient its callers
        wrote into ``grads``."""
        adam_update([self.flat], [self._grad], self.adam)


def _next_part(part, views):
    """The next six views as a network if ``part`` is one, else the next one."""
    if isinstance(part, MlpParameters):
        return MlpParameters.from_list([next(views) for _ in range(6)])
    return next(views)


def _only(arrays, what: str) -> np.ndarray:
    if len(arrays) != 1:
        raise ValueError(f"expected one packed {what} array, got {len(arrays)}")
    return arrays[0]


def init_adam(flat: np.ndarray, lr: float = 0.001, lr_decay: float = 0.01) -> AdamState:
    """Fresh zero-moment state for ``flat``, the packed parameter vector
    (``adam_update`` takes it as a one-element list)."""
    shape = flat.shape
    return AdamState(
        m=np.zeros(shape), v=np.zeros(shape), scratch=np.empty((2, *shape)),
        lr=lr, lr_decay=lr_decay,
    )


def check_rate(lr: float, lr_decay: float) -> None:
    """Reject a rate schedule other than a finite lr > 0 and a finite
    lr_decay >= 0, naming the field."""
    if not 0 < lr < np.inf:
        raise ValueError(f"lr={lr} must be " + ("finite" if lr > 0 else "> 0"))
    if not 0 <= lr_decay < np.inf:
        raise ValueError(f"lr_decay={lr_decay} must be " + ("finite" if lr_decay > 0 else ">= 0"))


def adam_update(arrays, grads, s: AdamState) -> None:
    """One bias-corrected Adam step (Kingma & Ba, arXiv:1412.6980), in place.

    ``arrays`` and ``grads`` are one-element lists holding the packed
    parameters and their gradient (``benchmarks/tracing.py`` counts the
    updated entries as the sizes of the items of ``arrays``).  Effective
    rate decays as lr / (1 + lr_decay * updates_so_far).  The new
    parameters are written into ``arrays[0]``, and ``s`` has its moments
    and step count advanced.  The arithmetic is the textbook expression,
    operation for operation, so the result does not depend on how the
    parameters were packed; the one exception is a bias-correction division
    by exactly 1.0, which is skipped, since x / 1.0 is x bit for bit.
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
    # a -= lr_t * m_hat / (sqrt(v_hat) + eps).  Once a bias correction
    # 1 - beta**t rounds to 1.0 (from t = 356 for m, t = 37412 for v),
    # dividing by it moves no bit, so that pass is skipped.
    bias1, bias2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    v_hat = v if bias2 == 1.0 else np.divide(v, bias2, out=tmp)
    np.sqrt(v_hat, out=tmp)
    np.add(tmp, ADAM_EPS, out=tmp)
    m_hat = m if bias1 == 1.0 else np.divide(m, bias1, out=step)
    np.multiply(lr_t, m_hat, out=step)
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
    """Read back networks and extras written by save_checkpoint.

    A checkpoint with no ``format_version``, or one that is not a 0-d
    integer array or is another version, a network missing one of its six
    arrays, holding a non-floating array or a non-finite entry or with layer
    shapes that do not chain, or an extra that is not a floating array or
    holds a non-finite entry, raises ValueError naming the network and the
    array, or the extra.
    """
    with np.load(path) as data:
        if "format_version" not in data.files:
            raise ValueError("checkpoint has no format_version")
        version = data["format_version"]
        if version.shape or version.dtype.kind not in "iu":
            raise ValueError(
                f"checkpoint format_version must be one integer, got {version.tolist()!r} "
                f"of dtype {version.dtype}"
            )
        if version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint format version {version}")
        names = {
            k.split("__")[0] for k in data.files if "__" in k and not k.startswith("extra__")
        }
        networks = {name: _network(data, name) for name in names}
        extras = {
            k[len("extra__"):]: data[k] for k in data.files if k.startswith("extra__")
        }
    for name, a in extras.items():
        if a.dtype.kind != "f":
            raise ValueError(
                f"checkpoint extra {name!r} must be a floating array, got dtype {a.dtype}"
            )
        if not np.isfinite(a).all():
            raise ValueError(f"checkpoint extra {name!r} holds non-finite entries")
    return networks, extras


def _network(data, name: str) -> MlpParameters:
    """Network ``name`` of an open checkpoint, its arrays checked."""
    keys = [f"{name}__w{i}" for i in range(3)] + [f"{name}__b{i}" for i in range(3)]
    arrays = []
    for key in keys:
        if key not in data.files:
            raise ValueError(f"checkpoint network {name!r} has no array {key}")
        a = data[key]
        if a.dtype.kind != "f":
            raise ValueError(
                f"checkpoint network {name!r}: {key} must be a floating array, got dtype {a.dtype}"
            )
        if not np.isfinite(a).all():
            raise ValueError(f"checkpoint network {name!r}: {key} holds non-finite entries")
        arrays.append(a)
    rows = None
    for w_key, b_key, w, b in zip(keys[:3], keys[3:], arrays[:3], arrays[3:]):
        if w.ndim != 2:
            raise ValueError(
                f"checkpoint network {name!r}: {w_key} has shape {w.shape}, not a matrix"
            )
        if rows is not None and w.shape[0] != rows:
            raise ValueError(
                f"checkpoint network {name!r}: {w_key} has {w.shape[0]} rows, "
                f"where the layer before it has {rows} outputs"
            )
        if b.shape != (w.shape[1],):
            raise ValueError(
                f"checkpoint network {name!r}: {b_key} has shape {b.shape}, "
                f"where {w_key} {w.shape} needs ({w.shape[1]},)"
            )
        rows = w.shape[1]
    return MlpParameters.from_list(arrays)
