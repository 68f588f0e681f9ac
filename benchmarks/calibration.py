"""Machine-speed reference that the benchmark's wall times are scaled by.

The shared host this benchmark was tuned on (2 vCPU Xeon at 2.1 GHz) speeds
up and slows down by 10-25 % from one ten-second window to the next, with
nothing else running in the container and no steal time.  Raw wall times
of two runs a minute apart therefore differ by more than any bound worth
gating on.  So the run takes short reference slices between the units it
times (``EVERY_S`` apart where units allow), and each unit's wall time is
multiplied by ``nominal / mean(slices within WINDOW_S of the unit)``: the
host's speed around that moment, relative to a typical moment on the
tuning host.  Averaging a window of slices rather than the two that
bracket a unit keeps one unlucky slice from moving a unit's time.

The kernels imitate the program's layers in plain numpy and share no code
with ``dotgate``, so a change to ``dotgate`` never changes them:

* ``sim``: a 16x16 Hamiltonian built from occupation numbers, its
  eigendecomposition and propagator, and the 4x4 projection, phase
  compensation and fidelity arithmetic around it;
* ``nn``: a 513-wide two-hidden-layer forward and backward pass and an
  Adam-style update over its ~37k weights;
* ``py``: interpreter-bound bookkeeping (small frozen dataclasses, dicts
  and tuples), like the per-step code around the physics calls.

A workload's slice runs the kernels that mirror the layers it uses.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass

import numpy as np

EVERY_S = 0.1
WINDOW_S = 1.0
# kernel: (repetitions per slice, median seconds per slice on the tuning host)
KERNELS = {"sim": (20, 0.0039), "nn": (6, 0.0033), "py": (30, 0.0038)}


@dataclass(frozen=True)
class _Controls:
    eps: tuple[float, float]
    tun: float
    u: tuple[float, float]


class Reference:
    """Times reference slices and scales intervals to nominal seconds."""

    def __init__(self, kernels: tuple[str, ...]):
        self.kernels = kernels
        self.nominal_s = sum(KERNELS[k][1] for k in kernels)
        rng = np.random.default_rng(20200615)
        occ = np.array([[(s >> (3 - m)) & 1 for m in range(4)] for s in range(16)])
        self._n_up = occ[:, 0::2].T.astype(float)
        self._n_dn = occ[:, 1::2].T.astype(float)
        hop = rng.normal(size=(16, 16))
        self._hop = np.where(np.abs(hop + hop.T) > 2.0, 1.0, 0.0)
        self._idx = np.array([5, 6, 9, 10])
        self._x = rng.normal(size=513)
        self._w = [rng.normal(size=s) * 0.05 for s in ((513, 64), (64, 64), (64, 27))]
        self._m = [np.zeros_like(w) for w in self._w]
        self._v = [np.zeros_like(w) for w in self._w]
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.seconds: list[float] = []
        self.kernel_seconds: dict[str, list[float]] = {k: [] for k in kernels}

    def _sim(self, k: int) -> None:
        diag = np.zeros(16)
        for dot in range(2):
            up, dn = self._n_up[dot], self._n_dn[dot]
            diag += (170.0 - 100.0 * dot + 1e-3 * k) * (up + dn)
            diag += 0.5 * (18.4 + dot) * (up - dn) + 845.2 * up * dn
        h = np.diag(diag).astype(complex) - 2.5 * self._hop
        energies, vectors = np.linalg.eigh(h)
        u = (vectors * np.exp(-2j * np.pi * energies)) @ vectors.conj().T
        u4 = u[np.ix_(self._idx, self._idx)]
        phase = np.angle(np.diag(u4))
        u4 = np.exp(-1j * np.append(phase[:3], phase[1] + phase[2] - phase[0]))[:, None] * u4
        self._fidelity = (np.real(np.trace(u4.conj().T @ u4)) + abs(np.trace(u4)) ** 2) / 20.0

    def _nn(self, _k: int) -> None:
        w = self._w
        h1 = np.tanh(self._x @ w[0])
        h2 = np.tanh(h1 @ w[1])
        g = 0.5 - h2 @ w[2]
        d2 = (g @ w[2].T) * (1.0 - h2**2)
        d1 = (d2 @ w[1].T) * (1.0 - h1**2)
        for i, grad in enumerate((np.outer(self._x, d1), np.outer(h1, d2), np.outer(h2, g))):
            self._m[i] = 0.9 * self._m[i] + 0.1 * grad
            self._v[i] = 0.999 * self._v[i] + 0.001 * grad**2
            w[i] = w[i] - 1e-12 * self._m[i] / (np.sqrt(self._v[i]) + 1e-8)

    def _py(self, k: int) -> None:
        rows = []
        for i in range(50):
            c = _Controls(eps=(170.0 + i, 70.0 - k), tun=2.5 + 1e-3 * i, u=(845.2, 845.2))
            info = {"eps0": c.eps[0], "eps1": c.eps[1], "tunnel": c.tun, "hit": i % 7 == 0}
            rows.append((i, info["eps0"], info["eps1"], info["tunnel"]))
            if info["hit"]:
                rows.pop()
        self._rows = rows

    def take(self) -> None:
        """Run one slice of every kernel and record when and how long."""
        t0 = t1 = time.perf_counter()
        for name in self.kernels:
            kernel = getattr(self, f"_{name}")
            for k in range(KERNELS[name][0]):
                kernel(k)
            t = time.perf_counter()
            self.kernel_seconds[name].append(t - t1)
            t1 = t
        self.starts.append(t0)
        self.ends.append(t1)
        self.seconds.append(t1 - t0)

    def take_if_due(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= EVERY_S:
            self.take()

    def factor(self, start: float, end: float) -> float:
        """Scale for the interval [start, end]: nominal over local slice time.

        Averages the slices that began within ``WINDOW_S`` of the interval,
        and always the last one before it and the first one after it.
        """
        first = bisect.bisect_left(self.starts, start - WINDOW_S)
        last = bisect.bisect_right(self.starts, end + WINDOW_S)
        first = min(first, max(bisect.bisect_right(self.ends, start) - 1, 0))
        last = max(last, min(bisect.bisect_left(self.starts, end) + 1, len(self.starts)))
        return self.nominal_s / float(np.mean(self.seconds[first:last]))
