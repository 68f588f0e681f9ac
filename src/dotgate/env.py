"""Gate-design environment over the two-dot simulator.

An episode is a piecewise-constant control pulse built 1 ns at a time.
Each step the agent moves the three controls (two on-site energies and
the tunnel coupling), the accumulated unitary is advanced by one Trotter
step, and the compensated gate fidelity against CZ is computed.  The
episode terminates on fidelity above the success threshold or truncates
at the step cap.

Rewards: -1 per step, an extra -1 when a control hits its bound, and a
fidelity-scaled bonus at the terminal step (larger when the gate also
clears the high-fidelity tier).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import sim

N_ACTIONS = 27  # 3 choices (hold / up / down) per control, 3 controls

SCHEDULE_CSV_HEADER = ["step", "eps0_ghz", "eps1_ghz", "tunnel_ghz"]


@dataclass(frozen=True)
class EnvConfig:
    """Physics constants, control bounds, and episode/reward settings."""

    eps_init: tuple[float, float] = (170.0, 70.0)
    tun_init: float = 2.5
    eps_bounds: tuple[float, float] = sim.EPS_BOUNDS
    tun_bounds: tuple[float, float] = sim.TUN_BOUNDS
    u: tuple[float, float] = (845.2, 845.2)
    ez: tuple[float, float] = (18.4, 19.7)
    dt: float = 1.0
    max_steps: int = 200
    f_terminal: float = 0.99
    f_bonus: float = 0.999
    r_step: float = -1.0
    r_boundary: float = -1.0
    r_success: float = 100.0
    r_bonus: float = 500.0
    obs_mode: str = "computational4"
    step_sizes: tuple[float, float, float] = (1.0, 0.1, 0.01)
    step_thresholds: tuple[float, float] = (0.99, 0.999)

    def validate(self) -> None:
        if self.eps_bounds[0] >= self.eps_bounds[1]:
            raise ValueError(f"eps_bounds not ordered: {self.eps_bounds}")
        if self.tun_bounds[0] >= self.tun_bounds[1]:
            raise ValueError(f"tun_bounds not ordered: {self.tun_bounds}")
        for i, e in enumerate(self.eps_init):
            if not self.eps_bounds[0] <= e <= self.eps_bounds[1]:
                raise ValueError(f"eps_init[{i}]={e} outside {self.eps_bounds}")
        if not self.tun_bounds[0] <= self.tun_init <= self.tun_bounds[1]:
            raise ValueError(f"tun_init={self.tun_init} outside {self.tun_bounds}")
        if not 0 < self.f_terminal <= self.f_bonus < 1:
            raise ValueError(
                f"need 0 < f_terminal <= f_bonus < 1, got "
                f"{self.f_terminal}, {self.f_bonus}"
            )
        if self.obs_mode not in ("computational4", "full16"):
            raise ValueError(f"unknown obs_mode {self.obs_mode!r}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps={self.max_steps} must be >= 1")

    @property
    def obs_dim(self) -> int:
        return 33 if self.obs_mode == "computational4" else 513


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    terminated: bool
    truncated: bool
    info: dict


@dataclass
class PulseSchedule:
    """Piecewise-constant controls actually applied, one row per 1 ns step."""

    rows: list[tuple[int, float, float, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SCHEDULE_CSV_HEADER)
            for step, e0, e1, tun in self.rows:
                writer.writerow(
                    [step, f"{e0:.15g}", f"{e1:.15g}", f"{tun:.15g}"]
                )

    @classmethod
    def from_csv(cls, path) -> "PulseSchedule":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != SCHEDULE_CSV_HEADER:
                raise ValueError(
                    f"bad schedule header {header!r}, expected {SCHEDULE_CSV_HEADER}"
                )
            rows = []
            for line in reader:
                if not line:
                    continue
                if len(line) != 4:
                    raise ValueError(f"bad schedule row: {line!r}")
                rows.append(
                    (int(line[0]), float(line[1]), float(line[2]), float(line[3]))
                )
        return cls(rows=rows)


def decode_action(index: int, delta: float) -> tuple[float, float, float]:
    """Base-3 decode of a discrete action into control deltas.

    Digit order: eps0, eps1, tunnel; digit 0 holds, 1 adds delta,
    2 subtracts delta.
    """
    if not 0 <= index < N_ACTIONS:
        raise ValueError(f"action index {index} outside [0, {N_ACTIONS - 1}]")
    deltas = []
    rest = index
    for _ in range(3):
        digit = rest % 3
        rest //= 3
        deltas.append(0.0 if digit == 0 else (delta if digit == 1 else -delta))
    return tuple(deltas)


def compute_reward(
    fidelity: float, boundary_hit: bool, terminated: bool, config: EnvConfig
) -> float:
    """Step penalty, boundary penalty, and fidelity-scaled terminal bonus."""
    r = config.r_step
    if boundary_hit:
        r += config.r_boundary
    if terminated:
        scale = config.r_bonus if fidelity > config.f_bonus else config.r_success
        r += scale * fidelity
    return r


class GateEnv:
    """Mutable episode state: controls, accumulated unitary, step counter."""

    def __init__(self, config: EnvConfig = EnvConfig()):
        config.validate()
        self.config = config
        self._live = False

    def reset(self, seed: int = 0) -> np.ndarray:
        """Start a new episode.  The dynamics are deterministic, so ``seed``
        changes nothing; it is accepted for a uniform agent interface."""
        cfg = self.config
        self.eps = list(cfg.eps_init)
        self.tun = cfg.tun_init
        self.u_acc = np.eye(sim.DIM_FULL, dtype=complex)
        self.steps = 0
        self.delta = cfg.step_sizes[0]
        self.schedule = PulseSchedule()
        self._done = False
        self._live = True
        self._update_gate()
        return self._observation()

    # -- internal pipeline ------------------------------------------------

    def _update_gate(self) -> None:
        u4 = sim.project_to_computational(self.u_acc)
        self.u_gate, self.compensated = sim.try_phase_compensate(u4)
        self.fidelity_report = sim.gate_fidelity(self.u_gate)

    def _observation(self) -> np.ndarray:
        if self.config.obs_mode == "computational4":
            u = self.u_gate
        else:
            u = self.u_acc
        flat = u.ravel()
        features = np.empty(2 * flat.size + 1)
        features[0:-1:2] = flat.real
        features[1:-1:2] = flat.imag
        features[-1] = self.fidelity_report.fidelity
        return features

    def _apply_step(self, boundary_hit: bool, adapt_delta: bool) -> StepResult:
        cfg = self.config
        params = sim.HamiltonianParams(
            eps=(self.eps[0], self.eps[1]), tun=self.tun, u=cfg.u, ez=cfg.ez
        )
        u_step = sim.step_unitaries(sim.build_hamiltonian(params), cfg.dt)
        self.u_acc = sim.accumulate(u_step, self.u_acc)
        self.steps += 1
        self.schedule.rows.append((self.steps - 1, self.eps[0], self.eps[1], self.tun))
        self._update_gate()
        fid = self.fidelity_report.fidelity

        if adapt_delta:
            if fid > cfg.step_thresholds[1]:
                self.delta = min(self.delta, cfg.step_sizes[2])
            elif fid > cfg.step_thresholds[0]:
                self.delta = min(self.delta, cfg.step_sizes[1])

        terminated = fid > cfg.f_terminal
        truncated = (not terminated) and self.steps >= cfg.max_steps
        reward = compute_reward(fid, boundary_hit, terminated, cfg)
        self._done = terminated or truncated
        info = {
            "fidelity": fid,
            "gate_duration": self.steps * cfg.dt,
            "eps0": self.eps[0],
            "eps1": self.eps[1],
            "tunnel": self.tun,
            "boundary_hit": boundary_hit,
            "compensated": self.compensated,
        }
        return StepResult(self._observation(), reward, terminated, truncated, info)

    def _check_live(self) -> None:
        if not self._live:
            raise RuntimeError("environment not reset")
        if self._done:
            raise RuntimeError("step called on a finished episode; reset first")

    # -- public action interfaces -----------------------------------------

    def step_discrete(self, action: int) -> StepResult:
        self._check_live()
        cfg = self.config
        d_eps0, d_eps1, d_tun = decode_action(action, self.delta)
        boundary_hit = False
        for k, d in ((0, d_eps0), (1, d_eps1)):
            raw = self.eps[k] + d
            clipped = min(max(raw, cfg.eps_bounds[0]), cfg.eps_bounds[1])
            boundary_hit |= clipped != raw
            self.eps[k] = clipped
        raw = self.tun + d_tun
        clipped = min(max(raw, cfg.tun_bounds[0]), cfg.tun_bounds[1])
        boundary_hit |= clipped != raw
        self.tun = clipped
        return self._apply_step(boundary_hit, adapt_delta=True)

    def step_continuous(self, action) -> StepResult:
        self._check_live()
        cfg = self.config
        action = np.asarray(action, dtype=float)
        if action.shape != (3,):
            raise ValueError(f"continuous action must have 3 components, got {action.shape}")
        clipped = np.clip(action, -1.0, 1.0)
        boundary_hit = bool(np.any(clipped != action))
        ranges = (cfg.eps_bounds, cfg.eps_bounds, cfg.tun_bounds)
        values = [
            lo + (a + 1.0) * 0.5 * (hi - lo) for a, (lo, hi) in zip(clipped, ranges)
        ]
        self.eps[0], self.eps[1], self.tun = values
        return self._apply_step(boundary_hit, adapt_delta=False)

    def export_schedule(self) -> PulseSchedule:
        if not self.schedule.rows:
            raise RuntimeError("no steps taken yet")
        return PulseSchedule(rows=list(self.schedule.rows))


def schedule_params(schedule: PulseSchedule, config: EnvConfig) -> sim.HamiltonianParams:
    """Batched Hamiltonian parameters of every schedule row, unvalidated.

    Validation (``.validate()`` or ``sim.build_hamiltonian``) names a bad
    control by its row as ``step t``, counting rows from 0 as the step column
    of an exported schedule does.
    """
    controls = np.array([row[1:] for row in schedule.rows], dtype=float).reshape(-1, 3)
    return sim.HamiltonianParams(
        eps=controls[:, :2], tun=controls[:, 2], u=config.u, ez=config.ez
    )


def replay_schedule(
    schedule: PulseSchedule, config: EnvConfig = EnvConfig()
) -> tuple[sim.FidelityReport, list[float]]:
    """Re-evolve a stored schedule through the simulator alone.

    All step propagators come from one batched Hamiltonian build and one
    batched ``sim.step_unitaries`` call, whose rows equal the environment's
    unbatched calls bit for bit; the rest follows the environment pipeline
    in the same operation order, so the returned final fidelity matches the
    producing episode bitwise.  Out of bounds or non-finite controls raise
    ValueError naming the step.  Returns the final report and the per-step
    fidelity trace.
    """
    u_steps = sim.step_unitaries(
        sim.build_hamiltonian(schedule_params(schedule, config)), config.dt
    )
    u_acc = np.eye(sim.DIM_FULL, dtype=complex)
    trace = []
    report = sim.gate_fidelity(sim.project_to_computational(u_acc))
    for u_step in u_steps:
        u_acc = sim.accumulate(u_step, u_acc)
        u4, _ = sim.try_phase_compensate(sim.project_to_computational(u_acc))
        report = sim.gate_fidelity(u4)
        trace.append(report.fidelity)
    return report, trace
