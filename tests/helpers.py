"""Shared independent oracles used across test modules."""

import ctypes
import functools
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from dotgate import nn, sim
from dotgate.env import EnvConfig, replay_schedule


def occupation_energy(state: int, eps, u, ez) -> float:
    """Diagonal Hamiltonian entry summed directly from the bitstring.

    Independent of the package's operator construction: reads the four
    occupation bits (dot0-up, dot0-down, dot1-up, dot1-down, big-endian)
    and sums the on-site, Zeeman, and Hubbard contributions.
    """
    bits = [(state >> (3 - m)) & 1 for m in range(4)]
    n0u, n0d, n1u, n1d = bits
    total = 0.0
    total += eps[0] * (n0u + n0d) + eps[1] * (n1u + n1d)
    total += 0.5 * ez[0] * (n0u - n0d) + 0.5 * ez[1] * (n1u - n1d)
    total += u[0] * n0u * n0d + u[1] * n1u * n1d
    return total


def jw_annihilators() -> list[np.ndarray]:
    """Jordan-Wigner annihilation operators of the four modes (16x16, real).

    Mode m is bit 3 - m of the big-endian basis index; the sign counts the
    occupied modes before m.  Built here, apart from the package.
    """
    ops = []
    for m in range(4):
        a = np.zeros((16, 16))
        for s in range(16):
            bits = [(s >> (3 - k)) & 1 for k in range(4)]
            if bits[m]:
                a[s ^ (1 << (3 - m)), s] = (-1.0) ** sum(bits[:m])
        ops.append(a)
    return ops


_JW = jw_annihilators()
NUMBER_OP = sum(a.T @ a for a in _JW)
SZ_OP = 0.5 * (_JW[0].T @ _JW[0] - _JW[1].T @ _JW[1]
               + _JW[2].T @ _JW[2] - _JW[3].T @ _JW[3])


def dense_hamiltonian(eps, tun, u, ez) -> np.ndarray:
    """Dense 16x16 Hamiltonian from the occupation energies and JW hopping."""
    h = np.diag([occupation_energy(s, eps, u, ez) for s in range(16)]).astype(complex)
    for spin in range(2):
        hop = _JW[spin].T @ _JW[2 + spin]  # c_dot0^dag c_dot1, one spin
        h -= tun * (hop + hop.T)
    return h


def taylor_expm(a: np.ndarray, terms: int = 20) -> np.ndarray:
    """Truncated power series for exp(a); only valid for small norm."""
    result = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        result = result + term
    return result


def random_hermitian(rng, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(dim, dim), scale=scale) + 1j * rng.normal(
        size=(dim, dim), scale=scale
    )
    return (m + m.conj().T) / 2


def random_unitary(rng, dim: int) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_slot_stack(rng, shape=(), unitary=True) -> np.ndarray:
    """Random N- and S_z-conserving operators in slot form, (*shape, 4, 4, 4).

    Each (N, S_z) sector gets a random unitary block (with unitary=False, a
    random complex block) at its positions in its slot; entries between
    different sectors are zero.
    """
    u = np.zeros((*shape, *sim.ALL_SLOTS.shape), dtype=complex)
    for lead in np.ndindex(*shape):
        for k, slot in enumerate(sim.SLOTS):
            for sector in sim.SECTORS:
                pos = [i for i, s in enumerate(slot) if s in sector]
                if not pos:
                    continue
                n = len(pos)
                block = (
                    random_unitary(rng, n) if unitary
                    else rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                )
                u[(*lead, k, *np.ix_(pos, pos))] = block
    return u


_DENSE_SOURCE = sim.DENSE_POSITIONS.ravel()[sim.DENSE_ENTRIES]


def dense(u: np.ndarray) -> np.ndarray:
    """Dense (..., 16, 16) matrices of (..., 4, 4, 4) stacks of all slots:
    each same-sector entry read from its slot position, zero elsewhere."""
    if u.shape[-3:] != sim.ALL_SLOTS.shape:
        raise ValueError(f"expected (..., 4, 4, 4) stacks of all slots, got {u.shape}")
    lead = u.shape[:-3]
    out = np.zeros((*lead, sim.DIM_FULL * sim.DIM_FULL), dtype=u.dtype)
    out[..., sim.DENSE_ENTRIES] = u.reshape(*lead, sim.ALL_SLOTS.size)[..., _DENSE_SOURCE]
    return out.reshape(*lead, sim.DIM_FULL, sim.DIM_FULL)


def dense_observation(obs_mode: str, u_acc: np.ndarray, fidelity) -> np.ndarray:
    """Each row's observation in the dense layout: the (re, im) pairs of its
    compensated 4x4 gate (computational4) or of its dense 16x16 unitary
    (full16, through ``dense``), then its fidelity.  The environment
    observes this layout's ``EnvConfig.live_features``."""
    if obs_mode == "computational4":
        matrix, _ = sim.compensate(sim.project_to_computational(u_acc))
    else:
        matrix = dense(u_acc)
    flat = matrix.reshape(len(u_acc), -1).view(float)
    return np.concatenate([flat, np.asarray(fidelity)[:, None]], axis=1)


def dense_unitary(schedule, config: EnvConfig = EnvConfig()) -> np.ndarray:
    """The dense 16x16 unitary of a schedule, propagated through all four
    slots and accumulated one step at a time, as a full16 episode is."""
    u_steps = sim.step_unitaries(
        sim.build_hamiltonian(sim.HamiltonianParams(np.asarray(schedule), config.u, config.ez)),
        config.dt,
    )
    u = sim.ALL_SLOTS.identity
    for u_step in u_steps:
        u = sim.accumulate(u_step, u)
    return dense(u)


def stacked_forward(arrays, x):
    """nn.forward of one input x through a stack of B parameter sets.

    arrays are the six MlpParameters.as_list() arrays, each with a leading
    axis of length B (broadcast views are fine).  Returns y of shape
    (B, out_dim).
    """
    weights, biases = arrays[:3], arrays[3:]
    h = np.asarray(x, dtype=float)
    for layer, (w, b) in enumerate(zip(weights, biases)):
        h = (h[..., None, :] @ w)[..., 0, :] + b
        if layer < 2:
            h = np.tanh(h)
    return h


# Entries perturbed per stacked forward: caps the stack of 2 * _FD_CHUNK
# parameter copies, which for a wide layer would otherwise take several GB.
_FD_CHUNK = 256


class FdReport(NamedTuple):
    """Worst |fd - analytic| over all entries, and worst relative error
    |fd - analytic| / max(|fd|, |analytic|) over entries whose magnitude
    max(|fd|, |analytic|) exceeds abs_floor."""

    worst_abs: float
    worst_rel: float


def finite_diff_check(params, x, loss_weights, h=1e-5, rel_tol=1e-5, abs_floor=1e-8):
    """Check every analytic parameter gradient against central differences.

    Loss is the fixed linear functional L = loss_weights . y, so dL/dy is
    exact and any mismatch isolates the backward pass.  The +h and -h
    forwards of up to ``_FD_CHUNK`` entries run as one stacked forward.
    An entry fails when |fd - analytic| >= abs_floor and its relative error
    is >= rel_tol.  Returns an FdReport.  x and loss_weights are one row;
    ``nn.backward`` takes them as a batch of one.
    """
    _, cache = nn.forward(params, x[None])
    grads = nn.backward(params, cache, loss_weights[None])
    arrays = params.as_list()

    worst_abs = worst_rel = 0.0
    for ai, g in enumerate(grads.as_list()):
        arr = arrays[ai]
        for start in range(0, arr.size, _FD_CHUNK):
            entries = np.arange(start, min(start + _FD_CHUNK, arr.size))
            n = 2 * len(entries)
            # Row 2k holds entry k shifted by +h, row 2k+1 by -h.
            shifted = np.repeat(arr.reshape(1, -1), n, axis=0)
            shifted[np.arange(n), np.repeat(entries, 2)] += np.tile([h, -h], len(entries))
            stack = [np.broadcast_to(a, (n, *a.shape)) for a in arrays]
            stack[ai] = shifted.reshape(n, *arr.shape)
            f = stacked_forward(stack, x) @ loss_weights
            fd = (f[0::2] - f[1::2]) / (2 * h)
            analytic = g.ravel()[entries]
            diff = np.abs(fd - analytic)
            magnitude = np.maximum(np.abs(fd), np.abs(analytic))
            checked = diff >= abs_floor
            err = np.zeros_like(diff)
            err[checked] = diff[checked] / magnitude[checked]
            large = magnitude > abs_floor
            worst_abs = max(worst_abs, float(diff.max()))
            if large.any():
                worst_rel = max(worst_rel, float((diff[large] / magnitude[large]).max()))
            bad = np.flatnonzero(err >= rel_tol)
            if bad.size:
                k = bad[0]
                idx = tuple(int(i) for i in np.unravel_index(entries[k], arr.shape))
                raise AssertionError(
                    f"array {ai} index {idx}: analytic {analytic[k]}, fd {fd[k]}, rel {err[k]}"
                )
    return FdReport(worst_abs, worst_rel)


# The nn expressions as they stood before the in-place and wrapper-free
# rewrites; the rewritten functions must give their bytes.

def reference_backward(p, cache, dL_dy):
    """nn.backward with a fresh temporary per operation."""
    x, h1, h2 = cache
    _, w2, w3 = p.weights
    g = dL_dy
    dw3 = h2.T @ g
    db3 = g.sum(axis=0)
    g = (g @ w3.T) * (1.0 - h2**2)
    dw2 = h1.T @ g
    db2 = g.sum(axis=0)
    g = (g @ w2.T) * (1.0 - h1**2)
    dw1 = x.T @ g
    db1 = g.sum(axis=0)
    return nn.MlpParameters(weights=(dw1, dw2, dw3), biases=(db1, db2, db3))


def reference_gaussian_logprob(mean, log_std, sample):
    """nn.gaussian_logprob through np.sum and a broadcast copy."""
    std = np.exp(log_std)
    z = (sample - mean) / std
    logp = np.sum(-0.5 * z**2 - log_std - 0.5 * nn.LOG_2PI, axis=-1)
    d_mean = z / std
    d_log_std = np.broadcast_to(z**2 - 1.0, d_mean.shape).copy()
    return logp, d_mean, d_log_std


def reference_mse_loss(pred, target):
    """nn.mse_loss through np.mean."""
    diff = pred - target
    return float(np.mean(diff**2)), 2.0 * diff / diff.size


# -- builds: what the byte pins rest on ---------------------------------------

def openblas_core() -> str:
    """The OpenBLAS core chosen at run time, as the loaded library names it.

    The library is found as ``benchmarks/run.py`` finds it, in the wheel's
    ``numpy.libs``; 'not reported' where there is none or it lacks the call.
    """
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return "not reported"


@functools.cache
def build() -> str:
    """This process's numpy version, the SIMD targets numpy found on the
    CPU, and its BLAS version and run-time core: what a byte pin holds on."""
    info = np.show_config(mode="dicts")
    blas = info["Build Dependencies"].get("blas", {})
    simd = " ".join(info.get("SIMD Extensions", {}).get("found", [])) or "none"
    return (f"numpy {np.__version__}, SIMD {simd}, "
            f"blas {blas.get('name')} {blas.get('version')}, core {openblas_core()}")


def assert_pinned(digest: str, pinned: str, recorded_on: str, what: str = "digest") -> None:
    """Fail unless ``digest`` is the ``pinned`` one, naming ``what`` it is,
    both digests and both builds: the one this process runs and the one the
    pin was recorded on (a ``build()`` string)."""
    assert digest == pinned, (
        f"{what} {digest} on build [{build()}] differs from the pin {pinned} "
        f"recorded on build [{recorded_on}]"
    )


# -- constant and windowed pulses with analytic properties --------------------

# Frontier points held constant: (eps0, eps1, tunnel) GHz and duration in ns.
# The 17 ns hold of the initial controls, the 10 ns point and the 3 ns point.
CONSTANT_POINTS = (((170.0, 70.0, 2.5), 17), ((-525.0, -550.0, 3.25), 10),
                   ((650.0, 100.0, 4.5), 3))
# Windowed exchange CZs: (eps0, eps1) GHz and duration in ns.
WINDOWS = (((170.0, 70.0), 16), ((600.0, 0.0), 8))
SWEEP_PULSE, SWEEP_NS = (170.0, 70.0, 2.5), 200


def window_schedule(eps, duration: int, t_max: float) -> np.ndarray:
    """(duration, 3) controls at fixed detunings with tunnel coupling
    t_k = t_max sin^2(pi (k + 1/2) / duration)."""
    tunnel = t_max * np.sin(np.pi * (np.arange(duration) + 0.5) / duration) ** 2
    return np.column_stack([np.full(duration, eps[0]), np.full(duration, eps[1]), tunnel])


def exchange_t_max(eps, duration: int, u: float = EnvConfig().u[0]) -> float:
    """The window amplitude whose exchange integral is 1/2: with
    J = 4 t^2 U / (U^2 - de^2) and sum_k sin^4 = 3T/8 over T steps of 1 ns,
    t_max = sqrt((U^2 - de^2) / (3 T U))."""
    detuning = eps[0] - eps[1]
    return math.sqrt((u**2 - detuning**2) / (3 * duration * u))


def fidelity_and_leakage(controls) -> tuple[float, float]:
    """F and leakage 1 - Tr(U4^dag U4)/4 of (T, 3) controls, replayed."""
    report, _ = replay_schedule(controls)
    return report.fidelity, 1.0 - report.unitarity_trace / 4


def physics_numbers() -> dict:
    """The numbers that must not depend on the BLAS core: the 200 ns
    constant-sweep trace, and F and leakage of each constant point and of
    each window at its closed-form amplitude."""
    return {
        "sweep": replay_schedule(np.tile(SWEEP_PULSE, (SWEEP_NS, 1)))[1],
        "points": [fidelity_and_leakage(np.tile(c, (t, 1))) for c, t in CONSTANT_POINTS],
        "windows": [fidelity_and_leakage(window_schedule(e, t, exchange_t_max(e, t)))
                    for e, t in WINDOWS],
        "core": openblas_core(),
    }
